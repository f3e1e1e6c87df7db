/**
 * @file
 * Property tests for the LLC model across geometries and random
 * operation mixes: occupancy conservation, mask confinement, and
 * counter monotonicity.
 */

#include <gtest/gtest.h>

#include "cache/llc.hh"
#include "util/rng.hh"

namespace iat::cache {
namespace {

struct GeometryCase
{
    unsigned slices;
    unsigned sets;
    unsigned ways;
};

class LlcGeometryProperty
    : public testing::TestWithParam<GeometryCase>
{
};

TEST_P(LlcGeometryProperty, OccupancyNeverExceedsMaskCapacity)
{
    const auto param = GetParam();
    CacheGeometry geom;
    geom.num_slices = param.slices;
    geom.sets_per_slice = param.sets;
    geom.num_ways = param.ways;
    SlicedLlc llc(geom, 2);

    // Confine the core to the lower half of the ways and DDIO to the
    // top quarter (at least one way each).
    const unsigned core_ways = std::max(1u, param.ways / 2);
    const unsigned ddio_ways = std::max(1u, param.ways / 4);
    llc.setClosMask(1, WayMask::fromRange(0, core_ways));
    llc.assocCoreClos(0, 1);
    llc.assocCoreRmid(0, 3);
    llc.setDdioMask(
        WayMask::fromRange(param.ways - ddio_ways, ddio_ways));

    Rng rng(param.slices * 1000 + param.ways);
    for (int i = 0; i < 200000; ++i) {
        const Addr addr = rng.below(1u << 22) * 64;
        if (rng.uniform() < 0.5) {
            llc.coreAccess(0, addr,
                           rng.uniform() < 0.3 ? AccessType::Write
                                               : AccessType::Read);
        } else {
            llc.ddioWrite(addr, 0);
        }
    }

    EXPECT_LE(llc.rmidLines(3),
              static_cast<std::uint64_t>(core_ways) * param.slices *
                  param.sets);
    EXPECT_LE(llc.rmidLines(SlicedLlc::ddioRmid),
              static_cast<std::uint64_t>(ddio_ways) * param.slices *
                  param.sets);
}

TEST_P(LlcGeometryProperty, TotalOccupancyBoundedByCacheSize)
{
    const auto param = GetParam();
    CacheGeometry geom;
    geom.num_slices = param.slices;
    geom.sets_per_slice = param.sets;
    geom.num_ways = param.ways;
    SlicedLlc llc(geom, 2);
    llc.assocCoreRmid(0, 1);
    llc.assocCoreRmid(1, 2);

    Rng rng(42);
    for (int i = 0; i < 100000; ++i) {
        llc.coreAccess(static_cast<CoreId>(rng.below(2)),
                       rng.below(1u << 24) * 64, AccessType::Read);
        llc.ddioWrite(rng.below(1u << 24) * 64, 0);
    }
    std::uint64_t total = 0;
    for (unsigned r = 0; r < SlicedLlc::numRmids; ++r)
        total += llc.rmidLines(static_cast<RmidId>(r));
    EXPECT_LE(total, geom.totalLines());
}

TEST_P(LlcGeometryProperty, CountersAreMonotonic)
{
    const auto param = GetParam();
    CacheGeometry geom;
    geom.num_slices = param.slices;
    geom.sets_per_slice = param.sets;
    geom.num_ways = param.ways;
    SlicedLlc llc(geom, 1);

    Rng rng(7);
    std::uint64_t prev_refs = 0, prev_miss = 0, prev_ddio = 0;
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 2000; ++i) {
            llc.coreAccess(0, rng.below(1u << 20) * 64,
                           AccessType::Read);
            llc.ddioWrite(rng.below(1u << 20) * 64, 0);
        }
        const auto &core = llc.coreCounters(0);
        std::uint64_t ddio = 0;
        for (unsigned s = 0; s < param.slices; ++s) {
            ddio += llc.sliceCounters(s).ddio_hits +
                    llc.sliceCounters(s).ddio_misses;
        }
        EXPECT_GE(core.llc_refs, prev_refs);
        EXPECT_GE(core.llc_misses, prev_miss);
        EXPECT_GE(ddio, prev_ddio);
        EXPECT_GE(core.llc_refs, core.llc_misses);
        prev_refs = core.llc_refs;
        prev_miss = core.llc_misses;
        prev_ddio = ddio;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LlcGeometryProperty,
    testing::Values(GeometryCase{1, 64, 4}, GeometryCase{2, 128, 8},
                    GeometryCase{4, 256, 11},
                    GeometryCase{18, 2048, 11},
                    GeometryCase{3, 100, 5}),
    [](const testing::TestParamInfo<GeometryCase> &param_info) {
        return "s" + std::to_string(param_info.param.slices) + "x" +
               std::to_string(param_info.param.sets) + "w" +
               std::to_string(param_info.param.ways);
    });

} // namespace
} // namespace iat::cache
