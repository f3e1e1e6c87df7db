/**
 * @file
 * Unit tests for the private (L2) cache filter.
 */

#include "cache/private_cache.hh"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/units.hh"

namespace iat::cache {
namespace {

PrivateCacheGeometry
tinyL2()
{
    PrivateCacheGeometry g;
    g.num_sets = 16;
    g.num_ways = 2;
    return g;
}

TEST(PrivateCache, MissThenHit)
{
    PrivateCache l2(tinyL2());
    EXPECT_FALSE(l2.access(64, AccessType::Read).hit);
    EXPECT_TRUE(l2.access(64, AccessType::Read).hit);
    EXPECT_EQ(l2.hits(), 1u);
    EXPECT_EQ(l2.misses(), 1u);
}

TEST(PrivateCache, WriteMakesDirtyVictim)
{
    PrivateCache l2(tinyL2());
    // Fill far past capacity with writes; evictions must surface
    // dirty writebacks.
    bool saw_writeback = false;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const auto r = l2.access(i * 64, AccessType::Write);
        saw_writeback = saw_writeback || r.has_writeback;
    }
    EXPECT_TRUE(saw_writeback);
}

TEST(PrivateCache, CleanLinesEvictSilently)
{
    PrivateCache l2(tinyL2());
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const auto r = l2.access(i * 64, AccessType::Read);
        EXPECT_FALSE(r.has_writeback);
    }
}

TEST(PrivateCache, WritebackAddressIsTheVictim)
{
    PrivateCacheGeometry g;
    g.num_sets = 1;
    g.num_ways = 1;
    PrivateCache l2(g);
    l2.access(64, AccessType::Write);
    const auto r = l2.access(128, AccessType::Read);
    EXPECT_TRUE(r.has_writeback);
    EXPECT_EQ(r.writeback_addr, 64u);
}

TEST(PrivateCache, LruKeepsRecentlyUsed)
{
    PrivateCacheGeometry g;
    g.num_sets = 1;
    g.num_ways = 2;
    PrivateCache l2(g);
    l2.access(0 * 64, AccessType::Read);
    l2.access(1 * 64, AccessType::Read);
    l2.access(0 * 64, AccessType::Read); // refresh line 0
    l2.access(2 * 64, AccessType::Read); // must evict line 1
    EXPECT_TRUE(l2.isPresent(0 * 64));
    EXPECT_FALSE(l2.isPresent(1 * 64));
    EXPECT_TRUE(l2.isPresent(2 * 64));
}

TEST(PrivateCache, InvalidateAllClears)
{
    PrivateCache l2(tinyL2());
    l2.access(64, AccessType::Write);
    l2.invalidateAll();
    EXPECT_FALSE(l2.isPresent(64));
    // And dirty state is dropped: refill then evict shows no
    // stale writeback from the pre-invalidate write.
    EXPECT_FALSE(l2.access(64, AccessType::Read).hit);
}

TEST(PrivateCache, StaleTagInInvalidWayNeverMatches)
{
    // One set, so every line conflicts. Misses fill the highest
    // invalid way: Y1 -> 3, Y2 -> 2, X -> 1.
    PrivateCacheGeometry g;
    g.num_sets = 1;
    g.num_ways = 4;
    PrivateCache l2(g);
    const Addr x = 10 * 64;
    l2.access(11 * 64, AccessType::Read);
    l2.access(12 * 64, AccessType::Read);
    l2.access(x, AccessType::Write);
    ASSERT_EQ(l2.lineAt(0, 1).tag, x / 64);

    // invalidateAll keeps the tags: way 1 holds a stale X and is
    // still the MRU way, yet X must read as absent.
    l2.invalidateAll();
    const auto stale = l2.lineAt(0, 1);
    ASSERT_FALSE(stale.valid);
    ASSERT_EQ(stale.tag, x / 64);
    EXPECT_FALSE(l2.isPresent(x));

    // X refills way 3 and Z way 2, which becomes the MRU way: lookups
    // of X now run the full compare, where stale way 1 matches first.
    EXPECT_FALSE(l2.access(x, AccessType::Read).hit);
    l2.access(13 * 64, AccessType::Read);
    ASSERT_EQ(l2.lineAt(0, 3).tag, x / 64);
    ASSERT_EQ(l2.lineAt(0, 2).tag, 13u);

    const auto expectStaleUntouched = [&](const char *step) {
        const auto v = l2.lineAt(0, 1);
        EXPECT_FALSE(v.valid) << step;
        EXPECT_EQ(v.dirty, stale.dirty) << step;
        EXPECT_EQ(v.tag, stale.tag) << step;
        EXPECT_EQ(v.ts, stale.ts) << step;
    };
    EXPECT_TRUE(l2.access(x, AccessType::Read).hit);
    EXPECT_EQ(l2.lineAt(0, 3).ts, l2.clock());
    EXPECT_FALSE(l2.lineAt(0, 3).dirty);
    expectStaleUntouched("hit");
    EXPECT_TRUE(l2.access(x, AccessType::Write).hit);
    EXPECT_TRUE(l2.lineAt(0, 3).dirty);
    expectStaleUntouched("write");
    EXPECT_TRUE(l2.isPresent(x));
    expectStaleUntouched("isPresent");
}

TEST(PrivateCache, SetBlocksAreAlignedAndAtMostThreeHostLines)
{
    // 12 B header + 16 tags + 16 stamps (4 B each) = 140 B -> 192 B.
    const PrivateCache l2;
    const TagStore &st = l2.store();
    EXPECT_LE(st.stride(), 192u);
    EXPECT_EQ(st.stride() % TagStore::kBlockAlign, 0u);
    ASSERT_EQ(st.sets(), l2.geometry().num_sets);
    for (unsigned set = 0; set < st.sets(); ++set) {
        ASSERT_EQ(reinterpret_cast<std::uintptr_t>(st.block(set)) %
                      TagStore::kBlockAlign,
                  0u)
            << "set " << set;
    }
}

TEST(PrivateCache, TopLineRoundTrips)
{
    // One set of two ways: the top line fills way 1, two more lines
    // evict it dirty, and the writeback names its full address.
    PrivateCacheGeometry g;
    g.num_sets = 1;
    g.num_ways = 2;
    PrivateCache l2(g);
    const LineAddr top = kTagLineLimit - 1;
    EXPECT_FALSE(l2.access(top * 64, AccessType::Write).hit);
    EXPECT_EQ(l2.lineAt(0, 1).tag, top);
    EXPECT_TRUE(l2.isPresent(top * 64));
    EXPECT_FALSE(l2.isPresent(0));
    EXPECT_FALSE(l2.access(64, AccessType::Read).has_writeback);
    const auto r = l2.access(128, AccessType::Read);
    ASSERT_TRUE(r.has_writeback);
    EXPECT_EQ(r.writeback_addr, top * 64);
}

TEST(PrivateCacheDeath, RejectsLinePastTagRange)
{
    PrivateCache l2(tinyL2());
    EXPECT_DEATH(l2.access(kTagLineLimit * 64, AccessType::Read),
                 "32-bit tags.*256 GiB");
    EXPECT_DEATH(l2.isPresent(~Addr{0}), "32-bit tags");
}

TEST(PrivateCache, CapacityBounded)
{
    PrivateCache l2(tinyL2()); // 32 lines
    for (std::uint64_t i = 0; i < 32; ++i)
        l2.access(i * 64, AccessType::Read);
    std::uint64_t resident = 0;
    for (std::uint64_t i = 0; i < 32; ++i)
        resident += l2.isPresent(i * 64);
    EXPECT_LE(resident, 32u);
    EXPECT_GT(resident, 16u); // hash spreads reasonably
}

TEST(PrivateCache, DefaultGeometryMatchesTableI)
{
    PrivateCache l2;
    EXPECT_EQ(l2.geometry().totalBytes(), 1 * MiB);
    EXPECT_EQ(l2.geometry().num_ways, 16u);
}

} // namespace
} // namespace iat::cache
