/**
 * @file
 * Tests for the assembled experiment worlds: construction, tenant
 * records, conservation, placement helpers and mid-run knobs, the
 * World contract every paper world keeps, and Host's ordering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>
#include <string>

#include "core/daemon.hh"
#include "core/policy.hh"
#include "obs/telemetry.hh"
#include "scenarios/agg_testpmd.hh"
#include "scenarios/corun.hh"
#include "scenarios/host.hh"
#include "scenarios/l3fwd.hh"
#include "scenarios/slicing_pmd_xmem.hh"

namespace iat::scenarios {
namespace {

sim::PlatformConfig
worldConfig()
{
    sim::PlatformConfig cfg;
    cfg.num_cores = 8;
    return cfg;
}

TEST(AggWorld, RegistryDescribesOvsPlusContainers)
{
    sim::Platform platform(worldConfig());
    AggTestPmdConfig cfg;
    cfg.num_containers = 3;
    AggTestPmdWorld world(platform, cfg);
    const auto &reg = world.registry();
    ASSERT_EQ(reg.size(), 4u);
    EXPECT_EQ(reg[0].priority, core::TenantPriority::SoftwareStack);
    EXPECT_TRUE(reg[0].is_io);
    EXPECT_EQ(reg[0].cores.size(), 2u);
    for (std::size_t t = 1; t < 4; ++t) {
        EXPECT_EQ(reg[t].priority, core::TenantPriority::BestEffort);
        EXPECT_EQ(reg[t].initial_ways, 1u);
    }
}

TEST(AggWorld, ConservesPacketsUnderLoad)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    AggTestPmdConfig cfg;
    cfg.frame_bytes = 256;
    AggTestPmdWorld world(platform, cfg);
    world.attach(engine);
    core::applyStaticLayout(platform.pqos(), world.registry());
    engine.run(0.01);
    // Received frames either left on the wire, are queued, or were
    // dropped at an interior ring (counted in totalDrops).
    EXPECT_GT(world.txPackets(), 0u);
    EXPECT_GE(world.rxPackets(), world.txPackets());
}

TEST(AggWorld, FrameSizeChangeRetargetsLineRate)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    AggTestPmdWorld world(platform, {});
    world.attach(engine);
    core::applyStaticLayout(platform.pqos(), world.registry());
    world.setFrameBytes(1500);
    engine.run(0.005);
    world.resetWindow();
    const auto drops0 = world.totalDrops();
    engine.run(0.01);
    // Two NICs at 1.5KB line rate ~= 3.29 Mpps each offered; what
    // the switch cannot take is dropped at the MAC, so offered =
    // received + dropped.
    const double offered =
        (world.rxPackets() + world.totalDrops() - drops0) / 0.01;
    EXPECT_NEAR(offered / 1e6, 6.58, 0.4);
}

TEST(AggWorld, ResetStatsClearsWindow)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    AggTestPmdWorld world(platform, {});
    world.attach(engine);
    core::applyStaticLayout(platform.pqos(), world.registry());
    engine.run(0.002);
    world.resetWindow();
    EXPECT_EQ(world.txPackets(), 0u);
    EXPECT_EQ(world.rxPackets(), 0u);
}

TEST(StaticLayout, ProgramsDisjointBottomPackedMasks)
{
    sim::Platform platform(worldConfig());
    AggTestPmdWorld world(platform, {});
    const auto masks =
        core::applyStaticLayout(platform.pqos(), world.registry());
    cache::WayMask seen{};
    for (const auto mask : masks) {
        EXPECT_TRUE(mask.isValidCbm());
        EXPECT_FALSE(mask.overlaps(seen));
        seen = seen | mask;
    }
    // The stack sits at the bottom.
    EXPECT_EQ(masks[0].lowest(), 0u);
    // Idle ways remain at the top, under DDIO.
    EXPECT_FALSE(seen.overlaps(platform.llc().ddioMask()));
}

TEST(SlicingWorld, TenantRecordsMatchThePaper)
{
    sim::Platform platform(worldConfig());
    SlicingPmdXmemWorld world(platform, {});
    const auto &reg = world.registry();
    ASSERT_EQ(reg.size(), 4u);
    EXPECT_EQ(reg[0].initial_ways, 3u); // testpmd pair shares 3
    EXPECT_TRUE(reg[0].is_io);
    EXPECT_EQ(reg[3].priority,
              core::TenantPriority::PerformanceCritical);
    EXPECT_FALSE(reg[3].is_io); // container 4 runs X-Mem
}

TEST(SlicingWorld, GrowXmem4ChangesWorkingSet)
{
    sim::Platform platform(worldConfig());
    SlicingPmdXmemWorld world(platform, {});
    EXPECT_EQ(world.xmem(2).workingSet(), 2 * MiB);
    world.growXmem4(10 * MiB);
    EXPECT_EQ(world.xmem(2).workingSet(), 10 * MiB);
}

TEST(L3FwdWorld, TrialWindowCountsOfferedAndDrops)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    L3FwdConfig cfg;
    cfg.rate_pps = 1e6;
    cfg.flows = 1000;
    L3FwdWorld world(platform, cfg);
    world.attach(engine);
    core::applyStaticLayout(platform.pqos(), world.registry());
    const auto result = world.trialWindow(engine, 0.005, 0.02);
    EXPECT_NEAR(static_cast<double>(result.offered), 2e4, 2e3);
    EXPECT_TRUE(result.zeroLoss());
    EXPECT_GT(result.delivered, 1.8e4);
}

TEST(L3FwdWorld, OverloadLosesFrames)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    L3FwdConfig cfg;
    cfg.rate_pps = 4e7; // far beyond one core's l3fwd capacity
    L3FwdWorld world(platform, cfg);
    world.attach(engine);
    core::applyStaticLayout(platform.pqos(), world.registry());
    const auto result = world.trialWindow(engine, 0.005, 0.01);
    EXPECT_FALSE(result.zeroLoss());
}

TEST(CorunWorld, RedisModeTenantsAndTraffic)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    CorunConfig cfg;
    cfg.pc_app = "gcc";
    CorunWorld world(platform, cfg);
    world.attach(engine);
    world.applyDeterministicPlacement(0);
    ASSERT_EQ(world.registry().size(), 4u);
    EXPECT_TRUE(world.registry()[0].is_io);
    engine.run(0.02);
    world.resetWindow();
    engine.run(0.02);
    EXPECT_GT(world.redisResponses(), 1000u);
    EXPECT_GT(world.pcAppProgress(), 100'000u);
    EXPECT_GT(world.latency().count(), 1000u);
    EXPECT_EQ(world.rocksdb(), nullptr);
}

TEST(CorunWorld, RocksdbPcApp)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    CorunConfig cfg;
    cfg.pc_app = "rocksdb";
    CorunWorld world(platform, cfg);
    world.attach(engine);
    world.applyDeterministicPlacement(0);
    ASSERT_NE(world.rocksdb(), nullptr);
    engine.run(0.01);
    world.resetWindow();
    engine.run(0.01);
    EXPECT_GT(world.pcAppProgress(), 100u);
    EXPECT_GT(world.rocksdb()->opKindCount(wl::YcsbOp::Read), 0u);
}

TEST(CorunWorld, NfvModeForwardsFrames)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    CorunConfig cfg;
    cfg.net_app = CorunConfig::NetApp::NfvChain;
    cfg.pc_app = "milc";
    CorunWorld world(platform, cfg);
    world.attach(engine);
    world.applyDeterministicPlacement(0);
    engine.run(0.01);
    world.resetWindow();
    engine.run(0.01);
    EXPECT_GT(world.delivered(), 10'000u);
}

TEST(CorunWorld, PlacementVariantsTargetDdioWays)
{
    sim::Platform platform(worldConfig());
    CorunConfig cfg;
    CorunWorld world(platform, cfg);
    const auto ddio = platform.llc().ddioMask();

    world.applyDeterministicPlacement(0);
    for (cache::ClosId clos = 1; clos <= 4; ++clos) {
        EXPECT_FALSE(
            platform.pqos().l3caGet(clos).overlaps(ddio))
            << "variant 0 must leave DDIO's ways idle";
    }
    world.applyDeterministicPlacement(1);
    EXPECT_TRUE(platform.pqos().l3caGet(2).overlaps(ddio))
        << "variant 1 parks the PC app on DDIO's ways";
    world.applyDeterministicPlacement(2);
    EXPECT_TRUE(platform.pqos().l3caGet(4).overlaps(ddio))
        << "variant 2 parks the 10MB X-Mem on DDIO's ways";
}

TEST(CorunWorld, SoloTogglesSilenceTheRest)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    CorunConfig cfg;
    cfg.pc_app = "gcc";
    CorunWorld world(platform, cfg);
    world.attach(engine);
    world.applyDeterministicPlacement(0);
    world.setNetworkingActive(false);
    world.setBackgroundActive(false);
    engine.run(0.01);
    world.resetWindow();
    engine.run(0.01);
    EXPECT_EQ(world.redisResponses(), 0u);
    EXPECT_GT(world.pcAppProgress(), 100'000u);
}

/** One paper world as a Host builds it, and what it must report. */
struct WorldCase
{
    std::string name;
    std::function<World &(Host &)> build;
    core::TenantModel model; ///< what the benches passed by hand
    std::size_t fault_nics;
};

/** Name the case in test names and failure messages. */
void
PrintTo(const WorldCase &c, std::ostream *os)
{
    *os << c.name;
}

class WorldContract : public ::testing::TestWithParam<WorldCase>
{
};

/**
 * Tenant @p t's progress: the packets its pipeline stages served
 * (a poll-mode core busy-polls, so its instruction count never
 * stops), or, for a tenant without stages, the instructions its
 * cores retired.
 */
std::uint64_t
progress(Host &host, const core::TenantSpec &t)
{
    const auto owns = [&t](cache::CoreId core) {
        return std::find(t.cores.begin(), t.cores.end(), core) !=
               t.cores.end();
    };
    bool has_stage = false;
    std::uint64_t packets = 0;
    for (const auto &stage : host.world().pipeline()->stages()) {
        if (owns(stage->core())) {
            has_stage = true;
            packets += stage->packetsProcessed();
        }
    }
    if (has_stage)
        return packets;
    std::uint64_t instructions = 0;
    for (const auto core : t.cores)
        instructions += host.platform().instructionsRetired(core);
    return instructions;
}

TEST_P(WorldContract, KeepsTheInterface)
{
    const auto &param = GetParam();
    Host host(worldConfig());
    World &world = param.build(host);
    core::applyStaticLayout(host.platform().pqos(), world.registry());
    EXPECT_EQ(world.model(), param.model);
    EXPECT_EQ(world.faultNics().size(), param.fault_nics);
    EXPECT_NE(world.pipeline(), nullptr);

    host.engine().run(0.01);
    EXPECT_GT(world.delivered(), 0u);
    world.resetWindow();
    EXPECT_EQ(world.delivered(), 0u);
    EXPECT_EQ(world.latency().count(), 0u);

    // Tenant 1 is a measured tenant (not the software stack) in
    // every world; pausing it stops its cores' progress once the
    // work already queued for it has drained.
    const std::size_t t = 1;
    ASSERT_NE(world.registry()[t].priority,
              core::TenantPriority::SoftwareStack);
    const auto &spec = world.registry()[t];
    const auto live0 = progress(host, spec);
    host.engine().run(0.005);
    EXPECT_GT(progress(host, spec), live0);
    world.setTenantActive(t, false);
    host.engine().run(0.005);
    const auto paused0 = progress(host, spec);
    host.engine().run(0.005);
    EXPECT_EQ(progress(host, spec), paused0);
}

INSTANTIATE_TEST_SUITE_P(
    PaperWorlds, WorldContract,
    ::testing::Values(
        WorldCase{"agg",
                  [](Host &h) -> World & {
                      return h.emplace<AggTestPmdWorld>(
                          AggTestPmdConfig{});
                  },
                  core::TenantModel::Aggregation, 2},
        WorldCase{"slicing",
                  [](Host &h) -> World & {
                      return h.emplace<SlicingPmdXmemWorld>(
                          SlicingPmdXmemConfig{});
                  },
                  core::TenantModel::Slicing, 2},
        WorldCase{"corun",
                  [](Host &h) -> World & {
                      return h.emplace<CorunWorld>(CorunConfig{});
                  },
                  core::TenantModel::Aggregation, 0}),
    [](const ::testing::TestParamInfo<WorldCase> &param_info) {
        return param_info.param.name;
    });

TEST(CorunWorld, NfvChainRunsUnderSlicing)
{
    sim::Platform platform(worldConfig());
    CorunConfig cfg;
    cfg.net_app = CorunConfig::NetApp::NfvChain;
    EXPECT_EQ(CorunWorld(platform, cfg).model(),
              core::TenantModel::Slicing);
}

TEST(Host, PolicyTicksAtZeroBeforeFaultsAndSamplerSeesPipeline)
{
    obs::TelemetryConfig tcfg;
    tcfg.metrics_path = testing::TempDir() + "host_test_metrics.csv";
    obs::Telemetry telemetry(tcfg);

    Host host(worldConfig());
    host.emplace<AggTestPmdWorld>(AggTestPmdConfig{});
    core::IatParams params;
    params.interval_seconds = 5e-3;
    fault::FaultPlan plan;
    plan.seed = 1;
    plan.poll_drop = 1.0; // armed at t=0: every poll is lost ...
    const auto *daemon =
        host.start(core::PolicyKind::Iat, params, &telemetry, true,
                   plan)
            .daemon();
    ASSERT_NE(daemon, nullptr);
    ASSERT_NE(host.injector(), nullptr);
    host.engine().run(0.05);

    // ... except the t=0 setup tick, scheduled before the arm.
    EXPECT_EQ(daemon->ticks(), 1u);
    EXPECT_GT(host.injector()->pollsDropped(), 0u);

    // The sampler went in last: its first row already has the
    // pipeline's per-stage packet counters, and they moved; the
    // platform gauges it registers come after them.
    const auto &sampler = telemetry.sampler();
    ASSERT_GT(sampler.rowCount(), 0u);
    const auto &cols = sampler.columns();
    const auto column = [&cols](const char *name) {
        return static_cast<std::size_t>(
            std::find(cols.begin(), cols.end(), name) - cols.begin());
    };
    const auto net = column("net.ovs0.packets");
    const auto llc = column("llc.miss_rate");
    ASSERT_LT(net, cols.size());
    ASSERT_LT(llc, cols.size());
    EXPECT_LT(net, llc);
    EXPECT_GT(sampler.rowValues(0)[net], 0.0);
}

TEST(CorunWorldDeath, RejectsBadPlacementVariant)
{
    sim::Platform platform(worldConfig());
    CorunWorld world(platform, {});
    EXPECT_DEATH(world.applyDeterministicPlacement(3),
                 "variant out of range");
}

} // namespace
} // namespace iat::scenarios
