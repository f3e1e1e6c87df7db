/**
 * @file
 * google-benchmark microbenchmarks of the substrate hot paths: LLC
 * access, DDIO write, private-cache access, pipeline packet
 * processing, monitor polling and the full daemon tick. These bound
 * the model's simulation throughput and catch performance
 * regressions in the components every figure depends on.
 */

#include <benchmark/benchmark.h>

#include "core/daemon.hh"
#include "core/policy.hh"
#include "net/pipeline.hh"
#include "scenarios/agg_testpmd.hh"
#include "sim/engine.hh"
#include "util/rng.hh"
#include "wl/xmem.hh"

namespace {

using namespace iat;

void
BM_LlcCoreAccess(benchmark::State &state)
{
    cache::CacheGeometry geom;
    cache::SlicedLlc llc(geom, 2);
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(llc.coreAccess(
            0, rng.below(1u << 24) * 64, cache::AccessType::Read));
    }
}
BENCHMARK(BM_LlcCoreAccess);

void
BM_LlcDdioWrite(benchmark::State &state)
{
    cache::CacheGeometry geom;
    cache::SlicedLlc llc(geom, 2);
    Rng rng(2);
    const std::uint64_t footprint_lines =
        static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            llc.ddioWrite(rng.below(footprint_lines) * 64, 0));
    }
}
BENCHMARK(BM_LlcDdioWrite)->Arg(1 << 10)->Arg(1 << 16);

void
BM_PrivateCacheAccess(benchmark::State &state)
{
    cache::PrivateCache l2;
    Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(l2.access(
            rng.below(1u << 16) * 64, cache::AccessType::Read));
    }
}
BENCHMARK(BM_PrivateCacheAccess);

void
BM_PlatformCoreAccess(benchmark::State &state)
{
    sim::Platform platform;
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(platform.coreAccess(
            0, rng.below(1u << 22) * 64, cache::AccessType::Read));
    }
}
BENCHMARK(BM_PlatformCoreAccess);

void
BM_XMemStepQuantum(benchmark::State &state)
{
    sim::PlatformConfig cfg;
    cfg.quantum_seconds = 50e-6;
    sim::Platform platform(cfg);
    sim::Engine engine(platform);
    wl::XMemWorkload xmem(platform, 0, "x", 8 * MiB, 8 * MiB, 5);
    engine.add(&xmem);
    for (auto _ : state)
        engine.run(cfg.quantum_seconds);
}
BENCHMARK(BM_XMemStepQuantum);

void
BM_AggWorldQuantum(benchmark::State &state)
{
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    sim::Platform platform(pc);
    sim::Engine engine(platform);
    scenarios::AggTestPmdConfig cfg;
    cfg.frame_bytes = static_cast<std::uint32_t>(state.range(0));
    scenarios::AggTestPmdWorld world(platform, cfg);
    world.attach(engine);
    core::applyStaticLayout(platform.pqos(), world.registry());
    for (auto _ : state)
        engine.run(pc.quantum_seconds);
    state.counters["pkts/s_sim"] = benchmark::Counter(
        static_cast<double>(world.rxPackets()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AggWorldQuantum)->Arg(64)->Arg(1500);

void
BM_MonitorPoll(benchmark::State &state)
{
    sim::PlatformConfig pc;
    pc.num_cores = 18;
    sim::Platform platform(pc);
    core::TenantRegistry registry;
    const auto tenants = static_cast<unsigned>(state.range(0));
    for (unsigned t = 0; t < tenants; ++t) {
        core::TenantSpec spec;
        spec.name = "t" + std::to_string(t);
        spec.cores = {static_cast<cache::CoreId>(t % 17)};
        spec.initial_ways = 1;
        registry.add(spec);
    }
    core::Monitor monitor(platform.pqos());
    monitor.attach(registry);
    for (auto _ : state)
        benchmark::DoNotOptimize(monitor.poll(1.0));
}
BENCHMARK(BM_MonitorPoll)->Arg(1)->Arg(8)->Arg(16);

void
BM_DaemonTickStable(benchmark::State &state)
{
    sim::PlatformConfig pc;
    pc.num_cores = 18;
    sim::Platform platform(pc);
    core::TenantRegistry registry;
    for (unsigned t = 0; t < 8; ++t) {
        core::TenantSpec spec;
        spec.name = "t" + std::to_string(t);
        spec.cores = {static_cast<cache::CoreId>(t)};
        spec.initial_ways = 1;
        registry.add(spec);
    }
    core::IatParams params;
    core::IatDaemon daemon(platform.pqos(), registry, params);
    daemon.tick(0.0);
    double now = 1.0;
    for (auto _ : state) {
        daemon.tick(now);
        now += 1.0;
    }
}
BENCHMARK(BM_DaemonTickStable);

} // namespace

BENCHMARK_MAIN();
