/**
 * @file
 * Unit tests for the set-sampled approximate SlicedLlc mode: the
 * sampling predicate, the behavioral split between sampled and
 * unsampled sets, the deterministic counter contract against an
 * exact twin, and the K-fold occupancy extrapolation.
 */

#include "cache/llc.hh"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "stale_tag_case.hh"
#include "util/rng.hh"

namespace iat::cache {
namespace {

CacheGeometry
smallGeom()
{
    CacheGeometry geom;
    geom.num_slices = 4;
    geom.sets_per_slice = 128;
    geom.num_ways = 8;
    return geom;
}

TEST(LlcApprox, SamplingPredicateRotatesAcrossSlices)
{
    const CacheGeometry geom = smallGeom();
    constexpr unsigned kK = 4;
    SlicedLlc llc(geom, 2, kK);
    EXPECT_EQ(llc.approxK(), kK);

    for (unsigned slice = 0; slice < geom.num_slices; ++slice) {
        unsigned sampled = 0;
        for (unsigned set = 0; set < geom.sets_per_slice; ++set) {
            const bool expect =
                (set & (kK - 1)) == (slice & (kK - 1));
            EXPECT_EQ(llc.setSampled(slice, set), expect)
                << "slice " << slice << " set " << set;
            sampled += llc.setSampled(slice, set);
        }
        // Exactly 1/K of each slice's sets are modelled, and the
        // rotation keeps the sampled congruence class distinct per
        // slice (mod K), so no hash bucket is globally dark.
        EXPECT_EQ(sampled, geom.sets_per_slice / kK);
    }

    SlicedLlc exact(geom, 2);
    EXPECT_EQ(exact.approxK(), 1u);
    EXPECT_TRUE(exact.setSampled(3, 17));
    EXPECT_TRUE(exact.lineSampled(0xdeadbeefc0ull * 64));
}

TEST(LlcApprox, UnsampledSetsNeverHoldLinesSampledSetsDo)
{
    const CacheGeometry geom = smallGeom();
    SlicedLlc llc(geom, 2, 8);

    iat::Rng rng(17);
    unsigned sampled_seen = 0;
    unsigned unsampled_seen = 0;
    for (int i = 0; i < 4000; ++i) {
        const Addr addr =
            static_cast<Addr>(rng.below(1u << 20)) * 64;
        llc.coreAccess(0, addr, AccessType::Read);
        if (llc.lineSampled(addr)) {
            // A just-touched line in a sampled set is resident.
            EXPECT_TRUE(llc.isPresent(addr)) << "addr " << addr;
            ++sampled_seen;
        } else {
            // Unsampled sets have no tag store: never present.
            EXPECT_FALSE(llc.isPresent(addr)) << "addr " << addr;
            ++unsampled_seen;
        }
    }
    // The hash spreads the universe across both populations.
    EXPECT_GT(sampled_seen, 0u);
    EXPECT_GT(unsampled_seen, 0u);
    // ~1/8 of lines should land in sampled sets; allow wide slack.
    EXPECT_LT(sampled_seen, unsampled_seen);
}

/** Drive an identical randomized mixed stream into both caches. */
void
driveTwin(SlicedLlc &a, SlicedLlc &b, std::uint64_t seed,
          unsigned ops)
{
    iat::Rng rng(seed);
    const unsigned cores = a.numCores();
    for (unsigned i = 0; i < ops; ++i) {
        const Addr addr =
            static_cast<Addr>(rng.below(1u << 18)) * 64;
        const auto core = static_cast<CoreId>(rng.below(cores));
        switch (rng.below(4)) {
        case 0:
            a.coreAccess(core, addr, AccessType::Read);
            b.coreAccess(core, addr, AccessType::Read);
            break;
        case 1:
            a.coreAccess(core, addr, AccessType::Write);
            b.coreAccess(core, addr, AccessType::Write);
            break;
        case 2:
            a.ddioWrite(addr, 0);
            b.ddioWrite(addr, 0);
            break;
        default:
            a.deviceRead(addr, 0);
            b.deviceRead(addr, 0);
            break;
        }
    }
}

TEST(LlcApprox, DeterministicCountersMatchTheExactTwin)
{
    const CacheGeometry geom = smallGeom();
    SlicedLlc exact(geom, 3);
    SlicedLlc approx(geom, 3, 4);
    driveTwin(exact, approx, 99, 20000);

    // Op counts are decided before any sampled/estimated verdict:
    // they must match the exact model bit for bit.
    for (unsigned s = 0; s < geom.num_slices; ++s) {
        const auto &e = exact.sliceCounters(s);
        const auto &a = approx.sliceCounters(s);
        EXPECT_EQ(a.lookups, e.lookups) << "slice " << s;
        EXPECT_EQ(a.ddio_hits + a.ddio_misses,
                  e.ddio_hits + e.ddio_misses)
            << "slice " << s;
    }
    for (unsigned c = 0; c < 3; ++c) {
        EXPECT_EQ(approx.coreCounters(c).llc_refs,
                  exact.coreCounters(c).llc_refs)
            << "core " << c;
    }
}

TEST(LlcApprox, SampledSetsAreBitExactAgainstTheExactTwin)
{
    // Sampled sets of the approx instance see exactly the op
    // subsequence the exact instance's same sets see, so their tag
    // state must agree line for line.
    const CacheGeometry geom = smallGeom();
    SlicedLlc exact(geom, 2);
    SlicedLlc approx(geom, 2, 4);
    driveTwin(exact, approx, 7, 20000);

    iat::Rng probe(8);
    unsigned checked = 0;
    for (int i = 0; i < 8000; ++i) {
        const Addr addr =
            static_cast<Addr>(probe.below(1u << 18)) * 64;
        if (!approx.lineSampled(addr))
            continue;
        EXPECT_EQ(approx.isPresent(addr), exact.isPresent(addr))
            << "addr " << addr;
        ++checked;
    }
    EXPECT_GT(checked, 100u);
}

TEST(LlcApprox, OccupancyExtrapolatesByTheSamplingPeriod)
{
    const CacheGeometry geom = smallGeom();
    SlicedLlc exact(geom, 1);
    SlicedLlc approx(geom, 1, 4);
    exact.assocCoreRmid(0, 5);
    approx.assocCoreRmid(0, 5);

    // Stream far more distinct lines than capacity so both models
    // settle at full occupancy for the single RMID.
    iat::Rng rng(3);
    for (int i = 0; i < 60000; ++i) {
        const Addr addr =
            static_cast<Addr>(rng.below(1u << 20)) * 64;
        exact.coreAccess(0, addr, AccessType::Read);
        approx.coreAccess(0, addr, AccessType::Read);
    }

    const auto exact_lines = exact.rmidLines(5);
    const auto approx_lines = approx.rmidLines(5);
    ASSERT_GT(exact_lines, 0u);
    // The approx figure is (sampled population) * K: with the cache
    // saturated it must land within a tight band of the exact count
    // (the sampled 1/K of sets is a uniform slice of capacity).
    const double rel =
        static_cast<double>(approx_lines > exact_lines
                                ? approx_lines - exact_lines
                                : exact_lines - approx_lines) /
        static_cast<double>(exact_lines);
    EXPECT_LT(rel, 0.05) << "exact " << exact_lines << " approx "
                         << approx_lines;
    // And it is a multiple of K by construction.
    EXPECT_EQ(approx_lines % 4, 0u);
}

TEST(LlcApprox, SampledSlicesUseTheSameBlockFormat)
{
    const SlicedLlc exact(CacheGeometry{}, 1);
    const SlicedLlc llc(CacheGeometry{}, 1, 16);
    for (unsigned s = 0; s < llc.geometry().num_slices; ++s) {
        const TagStore &st = llc.sliceStore(s);
        EXPECT_EQ(st.sets(), llc.geometry().sets_per_slice / 16);
        EXPECT_EQ(st.stride(), exact.sliceStore(s).stride());
        for (unsigned set = 0; set < st.sets(); ++set) {
            ASSERT_EQ(reinterpret_cast<std::uintptr_t>(st.block(set)) %
                          TagStore::kBlockAlign,
                      0u)
                << "slice " << s << " set " << set;
        }
    }
}

TEST(LlcApprox, StaleTagInInvalidWayNeverMatches)
{
    // The exact-model case, run on a sampled set at K = 4.
    SlicedLlc llc(smallGeom(), 1, 4);
    checkStaleTagNeverMatches(llc);
}

} // namespace
} // namespace iat::cache
