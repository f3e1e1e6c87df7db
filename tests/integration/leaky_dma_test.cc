/**
 * @file
 * Integration test of the Leaky DMA problem and IAT's response
 * (paper SS III-A / SS VI-B, the mechanism behind Fig 8).
 *
 * Aggregation world at 1.5KB line rate: the in-flight mbuf footprint
 * exceeds the two default DDIO ways, so the baseline shows heavy
 * DDIO write-allocates and DRAM traffic. Running the IAT daemon must
 * grow the DDIO ways and cut both.
 */

#include <gtest/gtest.h>

#include "core/daemon.hh"
#include "core/policy.hh"
#include "scenarios/agg_testpmd.hh"

namespace iat {
namespace {

sim::PlatformConfig
worldConfig()
{
    sim::PlatformConfig cfg;
    cfg.num_cores = 8;
    return cfg;
}

struct RunResult
{
    double ddio_miss_rate = 0.0;
    double ddio_hit_rate = 0.0;
    double dram_bytes_per_s = 0.0;
    unsigned final_ddio_ways = 0;
    std::uint64_t tx_packets = 0;
};

RunResult
runWorld(bool with_iat, std::uint32_t frame_bytes)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    scenarios::AggTestPmdConfig cfg;
    cfg.frame_bytes = frame_bytes;
    scenarios::AggTestPmdWorld world(platform, cfg);
    world.attach(engine);

    core::IatParams params;
    params.interval_seconds = 5e-3;
    std::unique_ptr<core::IatDaemon> daemon;
    if (with_iat) {
        daemon = std::make_unique<core::IatDaemon>(
            platform.pqos(), world.registry(), params,
            world.model());
        engine.addPeriodic(params.interval_seconds,
                           [&](double now) { daemon->tick(now); },
                           0.0);
    } else {
        core::applyStaticLayout(platform.pqos(), world.registry());
    }

    engine.run(0.06); // warm up and let the daemon settle
    world.resetWindow();
    const auto ddio0 = platform.pqos().ddioPollExact();
    const auto dram0 =
        platform.dram().counters().totalReadBytes() +
        platform.dram().counters().totalWriteBytes();
    const double measure = 0.03;
    engine.run(measure);
    const auto ddio1 = platform.pqos().ddioPollExact();
    const auto dram1 =
        platform.dram().counters().totalReadBytes() +
        platform.dram().counters().totalWriteBytes();

    RunResult r;
    r.ddio_miss_rate = (ddio1.misses - ddio0.misses) / measure;
    r.ddio_hit_rate = (ddio1.hits - ddio0.hits) / measure;
    r.dram_bytes_per_s = (dram1 - dram0) / measure;
    r.final_ddio_ways =
        platform.pqos().ddioGetWays().count();
    r.tx_packets = world.txPackets();
    return r;
}

TEST(LeakyDmaIntegration, BaselineLargePacketsThrashDdioWays)
{
    const auto base = runWorld(false, 1500);
    // At 1.5KB line rate the default two ways cannot hold the pools:
    // write allocates dominate write updates.
    EXPECT_GT(base.ddio_miss_rate, 1e6);
    EXPECT_GT(base.ddio_miss_rate, base.ddio_hit_rate);
    EXPECT_EQ(base.final_ddio_ways, 2u);
}

TEST(LeakyDmaIntegration, BaselineSmallPacketsFitDdioWays)
{
    const auto base = runWorld(false, 64);
    // 64B traffic's in-flight footprint fits two ways: mostly write
    // updates.
    EXPECT_GT(base.ddio_hit_rate, base.ddio_miss_rate * 2);
}

TEST(LeakyDmaIntegration, IatGrowsDdioAndCutsMissesAndDram)
{
    const auto base = runWorld(false, 1500);
    const auto iat = runWorld(true, 1500);

    EXPECT_GT(iat.final_ddio_ways, 2u)
        << "daemon should have entered I/O Demand and grown DDIO";
    EXPECT_LT(iat.ddio_miss_rate, base.ddio_miss_rate * 0.7)
        << "write allocates must fall with more DDIO ways";
    EXPECT_GT(iat.ddio_hit_rate, base.ddio_hit_rate)
        << "write updates must rise";
    EXPECT_LT(iat.dram_bytes_per_s, base.dram_bytes_per_s)
        << "memory bandwidth consumption must fall (Fig 8c)";
    // Throughput must not regress materially.
    EXPECT_GT(static_cast<double>(iat.tx_packets),
              0.9 * static_cast<double>(base.tx_packets));
}

TEST(LeakyDmaIntegration, IatLeavesSmallPacketsAlone)
{
    const auto iat = runWorld(true, 64);
    // No pressure at 64B: DDIO stays within [min, default] ways.
    EXPECT_LE(iat.final_ddio_ways, 2u);
}

} // namespace
} // namespace iat
