/**
 * @file
 * Property/fuzz tests for the IAT daemon: under arbitrary traffic
 * histories the daemon must keep its hardware programming legal and
 * its allocation invariants intact -- masks valid and disjoint,
 * DDIO within [DDIO_WAYS_MIN, DDIO_WAYS_MAX] (unless changed
 * externally), PC tenants only overlapping DDIO when the way budget
 * forces it, and the programmed CAT state always matching the
 * allocator's view.
 */

#include <gtest/gtest.h>

#include "core/daemon.hh"
#include "sim/platform.hh"
#include "util/rng.hh"

namespace iat::core {
namespace {

using cache::AccessType;

sim::PlatformConfig
fuzzConfig()
{
    sim::PlatformConfig cfg;
    cfg.num_cores = 8;
    cfg.llc.num_slices = 4;
    cfg.llc.sets_per_slice = 256;
    return cfg;
}

IatParams
fuzzParams()
{
    IatParams p;
    p.interval_seconds = 1.0;
    p.threshold_miss_low_per_s = 1e3;
    return p;
}

class DaemonFuzz : public testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DaemonFuzz, InvariantsHoldUnderRandomTraffic)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    sim::Platform platform(fuzzConfig());

    TenantRegistry registry;
    const unsigned n_tenants = 2 + rng.below(3); // 2..4
    unsigned way_budget = 9;
    for (unsigned t = 0; t < n_tenants; ++t) {
        TenantSpec spec;
        spec.name = "t" + std::to_string(t);
        spec.cores = {static_cast<cache::CoreId>(t)};
        const unsigned max_ways =
            way_budget - (n_tenants - t - 1); // leave 1 each
        spec.initial_ways =
            1 + static_cast<unsigned>(rng.below(
                    std::min(3u, max_ways)));
        way_budget -= spec.initial_ways;
        spec.is_io = rng.below(2) == 0;
        spec.priority =
            rng.below(2) ? TenantPriority::BestEffort
                         : TenantPriority::PerformanceCritical;
        registry.add(spec);
    }

    const auto params = fuzzParams();
    IatDaemon daemon(platform.pqos(), registry, params);

    bool external_ddio_change = false;
    for (int tick = 0; tick < 60; ++tick) {
        // Random traffic stew: DDIO bursts, core streams, silence.
        switch (rng.below(4)) {
          case 0: { // DDIO burst over a random footprint
            const std::uint64_t lines = 200 + rng.below(40000);
            const std::uint64_t base = rng.below(64) << 24;
            for (std::uint64_t i = 0; i < lines; ++i)
                platform.dmaWrite(0, base + i * 64, 64);
            break;
          }
          case 1: { // core stream on a random tenant core
            const auto core = static_cast<cache::CoreId>(
                rng.below(n_tenants));
            const std::uint64_t lines = 200 + rng.below(30000);
            const std::uint64_t base = (64 + rng.below(64)) << 24;
            for (std::uint64_t i = 0; i < lines; ++i) {
                platform.llc().coreAccess(core, base + i * 64,
                                          AccessType::Read);
            }
            platform.retire(core, 100'000 + rng.below(4'000'000));
            break;
          }
          case 2: // silence
            break;
          case 3: // rare external DDIO reconfiguration
            if (rng.below(4) == 0) {
                const unsigned ways = 1 + rng.below(6);
                platform.pqos().ddioSetWays(
                    cache::WayMask::fromRange(11 - ways, ways));
                external_ddio_change = true;
            }
            break;
        }
        platform.advanceQuantum(0.01);
        daemon.tick(static_cast<double>(tick));

        // ---- invariants ----
        const auto &alloc = daemon.allocator();
        cache::WayMask seen{};
        for (std::size_t t = 0; t < n_tenants; ++t) {
            const auto mask = alloc.tenantMask(t);
            ASSERT_TRUE(mask.isValidCbm()) << "tick " << tick;
            ASSERT_LE(mask.highest(), 10u);
            ASSERT_FALSE(mask.overlaps(seen))
                << "tenant masks overlap at tick " << tick;
            seen = seen | mask;
            // Hardware mirrors the allocator's view.
            ASSERT_EQ(platform.pqos().l3caGet(
                          static_cast<cache::ClosId>(t + 1)),
                      mask);
        }
        ASSERT_GE(alloc.ddioWays(), params.ddio_ways_min);
        if (!external_ddio_change) {
            ASSERT_LE(alloc.ddioWays(), params.ddio_ways_max);
        }
        ASSERT_EQ(platform.pqos().ddioGetWays().count(),
                  alloc.ddioWays());

        // If idle ways exist, no tenant shares with DDIO (SS IV-D).
        if (alloc.idleWays() >= alloc.ddioWays()) {
            for (std::size_t t = 0; t < n_tenants; ++t) {
                ASSERT_FALSE(alloc.tenantOverlapsDdio(t))
                    << "needless core-I/O sharing at tick " << tick;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DaemonFuzz,
                         testing::Range<std::uint64_t>(1, 16));

} // namespace
} // namespace iat::core
