/**
 * @file
 * The stale-tag case, run by the exact LLC tests and the set-sampled
 * ones alike.
 *
 * An invalidated way keeps its tag, so only the set's valid mask stops
 * the probe from matching that dead copy. The case parks a stale copy
 * of line X in way 0 (a), re-allocates X into way 1 (b), and moves the
 * set's MRU way to way 2. Every later lookup of X then runs the full
 * masked compare, in which way a is the lowest tag match. A hit, a
 * write, isPresent(), invalidate() and a DDIO-off ddioWrite() must
 * each act on way b and leave way a exactly as it was.
 */

#ifndef IATSIM_TESTS_CACHE_STALE_TAG_CASE_HH
#define IATSIM_TESTS_CACHE_STALE_TAG_CASE_HH

#include <gtest/gtest.h>

#include "cache/llc.hh"

namespace iat::cache {

/** Find the (slice, set) whose @p way holds @p line valid. */
inline bool
findValidLine(const SlicedLlc &llc, LineAddr line, unsigned way,
              unsigned &slice, unsigned &set)
{
    const CacheGeometry &g = llc.geometry();
    for (slice = 0; slice < g.num_slices; ++slice) {
        for (set = 0; set < g.sets_per_slice; ++set) {
            const auto v = llc.lineAt(slice, set, way);
            if (v.valid && v.tag == line)
                return true;
        }
    }
    return false;
}

/** Run the stale-tag case on a fresh LLC with at least three ways. */
inline void
checkStaleTagNeverMatches(SlicedLlc &llc)
{
    const CacheGeometry &g = llc.geometry();
    ASSERT_GE(g.num_ways, 3u);
    const auto only = [](unsigned w) { return WayMask::fromRange(w, 1); };
    constexpr RmidId kRmid = 5;
    llc.assocCoreClos(0, 1);
    llc.assocCoreRmid(0, kRmid);

    // X is the first line whose set is modelled exactly.
    Addr x = 0;
    while (!llc.lineSampled(x))
        x += g.line_bytes;
    const LineAddr line = x / g.line_bytes;

    // Allocate X dirty in way a, then invalidate it: the way keeps its
    // tag and stays the set's MRU way, yet X must read as absent.
    llc.setClosMask(1, only(0));
    llc.coreAccess(0, x, AccessType::Write);
    unsigned slice = 0, set = 0;
    ASSERT_TRUE(findValidLine(llc, line, 0, slice, set));
    llc.invalidate(x);
    const auto stale = llc.lineAt(slice, set, 0);
    ASSERT_FALSE(stale.valid);
    ASSERT_EQ(stale.tag, line);
    EXPECT_FALSE(llc.isPresent(x));

    const auto expectStaleUntouched = [&](const char *step) {
        const auto v = llc.lineAt(slice, set, 0);
        EXPECT_FALSE(v.valid) << step;
        EXPECT_EQ(v.dirty, stale.dirty) << step;
        EXPECT_EQ(v.tag, stale.tag) << step;
        EXPECT_EQ(v.owner, stale.owner) << step;
        EXPECT_EQ(v.ts, stale.ts) << step;
    };
    const auto wayB = [&] { return llc.lineAt(slice, set, 1); };

    // Re-allocate X clean into way b, then point the MRU hint at way 2
    // by filling it with some other line of the same set.
    const auto placeXInWayB = [&] {
        llc.setClosMask(1, only(1));
        EXPECT_FALSE(llc.coreAccess(0, x, AccessType::Read).hit);
        ASSERT_TRUE(wayB().valid);
        ASSERT_EQ(wayB().tag, line);
        if (!llc.lineAt(slice, set, 2).valid) {
            llc.setClosMask(1, only(2));
            for (Addr y = x + g.line_bytes;
                 !llc.lineAt(slice, set, 2).valid; y += g.line_bytes)
                llc.coreAccess(0, y, AccessType::Read);
        }
        const Addr y = llc.lineAt(slice, set, 2).tag * g.line_bytes;
        EXPECT_TRUE(llc.coreAccess(0, y, AccessType::Read).hit);
    };
    placeXInWayB();
    expectStaleUntouched("re-allocate");

    EXPECT_TRUE(llc.coreAccess(0, x, AccessType::Read).hit);
    EXPECT_EQ(wayB().ts, llc.sliceClock(slice));
    EXPECT_FALSE(wayB().dirty);
    expectStaleUntouched("hit");

    EXPECT_TRUE(llc.coreAccess(0, x, AccessType::Write).hit);
    EXPECT_TRUE(wayB().dirty);
    expectStaleUntouched("write");

    EXPECT_TRUE(llc.isPresent(x));
    expectStaleUntouched("isPresent");

    const auto occupancy = llc.rmidLines(kRmid);
    llc.invalidate(x);
    EXPECT_FALSE(wayB().valid);
    EXPECT_FALSE(llc.isPresent(x));
    EXPECT_EQ(llc.rmidLines(kRmid), occupancy - llc.approxK());
    expectStaleUntouched("invalidate");

    placeXInWayB();
    llc.setDdioEnabled(false);
    const auto r = llc.ddioWrite(x, 0);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(wayB().valid);
    EXPECT_FALSE(llc.isPresent(x));
    expectStaleUntouched("ddioWrite with DDIO off");
}

} // namespace iat::cache

#endif // IATSIM_TESTS_CACHE_STALE_TAG_CASE_HH
