/**
 * @file
 * Unit tests for the FaultInjector: arming windows, MSR read/write
 * perturbation discipline, poll drops, NIC schedules and tenant
 * churn -- all seeded and replayable -- plus attachPolicy(), the one
 * place a policy is ticked.
 */

#include "fault/injector.hh"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/policy.hh"
#include "rdt/msr.hh"
#include "sim/engine.hh"
#include "sim/platform.hh"

namespace iat::fault {
namespace {

using namespace rdt::msr_addr;

sim::PlatformConfig
testConfig()
{
    sim::PlatformConfig cfg;
    cfg.num_cores = 2;
    cfg.llc.num_slices = 2;
    cfg.llc.sets_per_slice = 64;
    return cfg;
}

/** Platform + engine + injector, armed by running past t=start. */
struct Rig
{
    explicit Rig(const FaultPlan &plan)
        : platform(testConfig()), engine(platform), injector(plan)
    {
        injector.arm(engine, platform);
    }

    void
    runPast(double t)
    {
        engine.run(t - platform.now() + 1e-9);
    }

    sim::Platform platform;
    sim::Engine engine;
    FaultInjector injector;
};

TEST(FaultInjector, ArmsAtStartAndDisarmsAfterDuration)
{
    FaultPlan plan;
    plan.seed = 1;
    plan.poll_drop = 1.0;
    plan.start_seconds = 0.01;
    plan.duration_seconds = 0.02;
    Rig rig(plan);

    EXPECT_FALSE(rig.injector.armed());
    EXPECT_FALSE(rig.injector.dropPoll(0.005));

    rig.runPast(0.01);
    EXPECT_TRUE(rig.injector.armed());
    EXPECT_TRUE(rig.injector.dropPoll(0.015));
    EXPECT_EQ(rig.injector.pollsDropped(), 1u);

    rig.runPast(0.03);
    EXPECT_FALSE(rig.injector.armed());
    EXPECT_FALSE(rig.injector.dropPoll(0.035));
    EXPECT_EQ(rig.injector.pollsDropped(), 1u);
}

TEST(FaultInjector, CounterOffsetShiftsOnlyCounterReads)
{
    FaultPlan plan;
    plan.seed = 1;
    plan.counter_offset = 1000;
    Rig rig(plan);
    rig.runPast(0.0); // arm at t=0

    auto &bus = rig.platform.msrBus();
    // Monotonic counters are shifted...
    EXPECT_EQ(bus.read(0, IA32_FIXED_CTR0), 1000u);
    // ...config registers are read back exactly (perturbing them
    // would corrupt read-modify-write sequences like PQR_ASSOC).
    const auto pqr = bus.read(0, IA32_PQR_ASSOC);
    const auto ok = bus.write(0, IA32_PQR_ASSOC, pqr);
    EXPECT_EQ(ok, rdt::MsrWriteStatus::Ok);
    EXPECT_EQ(bus.read(0, IA32_PQR_ASSOC), pqr);
    // ...and the occupancy register (a level, not an accumulator)
    // is left alone too.
    EXPECT_EQ(bus.read(0, IA32_QM_CTR), 0u);
}

TEST(FaultInjector, CounterOffsetWrapsAt48Bits)
{
    FaultPlan plan;
    plan.seed = 1;
    plan.counter_offset = (std::uint64_t{1} << 48) - 1;
    Rig rig(plan);
    rig.runPast(0.0);

    // 0 + (2^48 - 1) stays inside the counter width; the next count
    // would wrap to 0, exactly like hardware.
    EXPECT_EQ(rig.platform.msrBus().read(0, IA32_FIXED_CTR0),
              (std::uint64_t{1} << 48) - 1);
}

TEST(FaultInjector, WriteRejectVetoesAndCounts)
{
    FaultPlan plan;
    plan.seed = 1;
    plan.write_reject = 1.0;
    Rig rig(plan);
    rig.runPast(0.0);

    auto &bus = rig.platform.msrBus();
    const auto before = bus.read(0, IA32_PQR_ASSOC);
    EXPECT_EQ(bus.write(0, IA32_PQR_ASSOC, 1),
              rdt::MsrWriteStatus::Rejected);
    EXPECT_EQ(bus.read(0, IA32_PQR_ASSOC), before);
    EXPECT_GE(rig.injector.writeRejects(), 1u);
}

TEST(FaultInjector, ReadNoiseIsSeededAndReplayable)
{
    FaultPlan plan;
    plan.seed = 99;
    plan.read_noise = 1.0;
    plan.read_noise_mag = 8.0;

    const auto sequence = [&]() {
        Rig rig(plan);
        rig.runPast(0.0);
        // Give the counter a non-zero value so noise has something
        // to scale.
        rig.platform.llc().coreAccess(0, 0x1000,
                                      cache::AccessType::Read);
        std::vector<std::uint64_t> reads;
        for (int i = 0; i < 8; ++i)
            reads.push_back(
                rig.platform.msrBus().read(0, PMC_LLC_REFERENCE));
        return reads;
    };

    const auto a = sequence();
    const auto b = sequence();
    EXPECT_EQ(a, b); // same seed -> byte-identical fault schedule

    FaultPlan other = plan;
    other.seed = 100;
    Rig rig(other);
    rig.runPast(0.0);
    rig.platform.llc().coreAccess(0, 0x1000,
                                  cache::AccessType::Read);
    std::vector<std::uint64_t> c;
    for (int i = 0; i < 8; ++i)
        c.push_back(rig.platform.msrBus().read(0, PMC_LLC_REFERENCE));
    EXPECT_NE(a, c); // different seed -> different schedule
}

TEST(FaultInjector, ChurnParksAndReaddsTheLastTenant)
{
    FaultPlan plan;
    plan.seed = 1;
    plan.churn_period_seconds = 0.01;
    Rig rig(plan);

    core::TenantRegistry registry;
    core::TenantSpec a;
    a.name = "a";
    a.cores = {0};
    registry.add(a);
    core::TenantSpec b;
    b.name = "b";
    b.cores = {1};
    registry.add(b);
    rig.injector.setRegistry(&registry);
    // Re-arm the schedule knowing the registry. (arm ran in the
    // ctor without one; re-arming twice would double-schedule, so
    // this test relies on the registry pointer being late-bound.)
    rig.runPast(0.0105);
    EXPECT_EQ(registry.size(), 1u); // departure
    EXPECT_EQ(rig.injector.churnEvents(), 1u);

    rig.runPast(0.0205);
    EXPECT_EQ(registry.size(), 2u); // re-arrival
    EXPECT_EQ(registry[1].name, "b");
    EXPECT_EQ(rig.injector.churnEvents(), 2u);
}

TEST(FaultInjector, ChurnNeverEmptiesTheRegistry)
{
    FaultPlan plan;
    plan.seed = 1;
    plan.churn_period_seconds = 0.01;
    Rig rig(plan);

    core::TenantRegistry registry;
    core::TenantSpec only;
    only.name = "only";
    only.cores = {0};
    registry.add(only);
    rig.injector.setRegistry(&registry);

    rig.runPast(0.05);
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_EQ(rig.injector.churnEvents(), 0u);
}

/** Records every tick it receives. */
class RecordingPolicy final : public core::Policy
{
  public:
    void tick(double now) override { ticks.push_back(now); }
    core::PolicyKind kind() const override
    {
        return core::PolicyKind::Static;
    }

    std::vector<double> ticks;
};

TEST(AttachPolicy, TicksAtZeroThenEveryInterval)
{
    sim::Platform platform(testConfig());
    sim::Engine engine(platform);
    RecordingPolicy policy;
    attachPolicy(engine, policy, 0.01);
    engine.run(0.035);
    EXPECT_EQ(policy.ticks,
              (std::vector<double>{0.0, 0.01, 0.02, 0.03}));
}

TEST(AttachPolicy, GateDropsPollsOnceArmed)
{
    FaultPlan plan;
    plan.seed = 1;
    plan.poll_drop = 1.0;
    plan.start_seconds = 0.015;
    sim::Platform platform(testConfig());
    sim::Engine engine(platform);
    FaultInjector injector(plan);
    RecordingPolicy policy;
    attachPolicy(engine, policy, 0.01, &injector);
    injector.arm(engine, platform);
    engine.run(0.045);
    // Setup tick and the t=0.01 poll run; every poll after the armed
    // edge is dropped.
    EXPECT_EQ(policy.ticks, (std::vector<double>{0.0, 0.01}));
    EXPECT_EQ(injector.pollsDropped(), 3u);
}

TEST(AttachPolicy, StaticBaselineReappliesItsLayoutAfterChurn)
{
    FaultPlan plan;
    plan.seed = 1;
    plan.churn_period_seconds = 0.01;
    sim::Platform platform(testConfig());
    sim::Engine engine(platform);
    FaultInjector injector(plan);

    core::TenantRegistry registry;
    for (cache::CoreId core : {0u, 1u}) {
        core::TenantSpec spec;
        spec.name = "t" + std::to_string(core);
        spec.cores = {core};
        spec.initial_ways = 2;
        registry.add(spec);
    }
    const auto policy = core::makePolicy(
        core::PolicyKind::Static, platform.pqos(), registry,
        core::IatParams{});
    const auto initial = platform.llc().closMask(2);
    ASSERT_EQ(initial.count(), 2u);

    attachPolicy(engine, *policy, 0.005, &injector);
    injector.setRegistry(&registry);
    injector.arm(engine, platform);

    // Departure at t=0.01; the t=0.015 tick re-applies the layout.
    engine.run(0.0105);
    ASSERT_EQ(registry.size(), 1u);
    const auto writes = platform.msrBus().writeCount();
    engine.run(0.005);
    EXPECT_GT(platform.msrBus().writeCount(), writes)
        << "the static policy must react to the departure";

    // Re-arrival at t=0.02, re-applied on the t=0.025 tick: the
    // returning tenant's CLOS holds its static mask again, and the
    // layout is programmed exactly as at construction.
    engine.run(0.011);
    ASSERT_EQ(registry.size(), 2u);
    EXPECT_EQ(injector.churnEvents(), 2u);
    EXPECT_EQ(platform.llc().closMask(2), initial);
    EXPECT_FALSE(platform.llc().closMask(2).overlaps(
        platform.llc().closMask(1)));
}

} // namespace
} // namespace iat::fault
