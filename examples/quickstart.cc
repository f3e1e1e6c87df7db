/**
 * @file
 * Quickstart: the smallest end-to-end use of the library.
 *
 *  1. Build a modelled platform (Table I machine).
 *  2. Describe tenants the way the paper's daemon reads them -- an
 *     affiliation record per tenant.
 *  3. Run the IAT daemon while synthetic inbound DMA traffic ramps
 *     up and down, and watch it move through its states, resize the
 *     DDIO way mask and re-allocate tenant ways.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/daemon.hh"
#include "sim/platform.hh"

int
main()
{
    using namespace iat;

    // The modelled socket: Xeon Gold 6140 defaults.
    sim::Platform platform;

    // Tenant records, exactly like the daemon's affiliation file.
    core::TenantRegistry registry;
    registry.loadFromString(
        "redis   cores=0,1 ways=3 prio=pc io=1\n"
        "batch   cores=2   ways=2 prio=be io=0\n"
        "scratch cores=3   ways=2 prio=be io=0\n");

    core::IatParams params;
    params.interval_seconds = 1.0;      // Table II
    params.threshold_miss_low_per_s = 1e4; // scaled for this demo

    core::IatDaemon daemon(platform.pqos(), registry, params,
                           core::TenantModel::Slicing);

    std::printf("tick  state       ddio_ways  ddio_mask     "
                "redis_mask    batch_mask    scratch_mask\n");

    // Inbound DMA traffic that ramps up (t=4..9), holds, and fades.
    std::uint64_t lines = 2000;
    for (int tick = 0; tick < 20; ++tick) {
        if (tick >= 4 && tick < 10) {
            for (std::uint64_t i = 0; i < lines; ++i) {
                platform.dmaWrite(0,
                                  ((1ull + tick) << 26) + i * 64,
                                  64);
            }
            lines = lines * 3 / 2;
        } else if (tick >= 10 && tick < 13) {
            // Steady phase: the same buffer stays resident.
            for (std::uint64_t i = 0; i < 4000; ++i)
                platform.dmaWrite(0, (1ull << 36) + i * 64, 64);
        }
        platform.advanceQuantum(0.05);
        daemon.tick(tick * params.interval_seconds);

        const auto &alloc = daemon.allocator();
        std::printf("%4d  %-10s  %-9u  %-12s  %-12s  %-12s  %s\n",
                    tick, toString(daemon.state()),
                    daemon.ddioWays(),
                    alloc.ddioMask().toString().c_str(),
                    alloc.tenantMask(0).toString().c_str(),
                    alloc.tenantMask(1).toString().c_str(),
                    alloc.tenantMask(2).toString().c_str());
    }

    std::printf("\nDaemon ran %llu iterations (%llu stable), "
                "%llu shuffles; final state %s.\n",
                static_cast<unsigned long long>(daemon.ticks()),
                static_cast<unsigned long long>(
                    daemon.stableTicks()),
                static_cast<unsigned long long>(daemon.shuffles()),
                toString(daemon.state()));
    return 0;
}
