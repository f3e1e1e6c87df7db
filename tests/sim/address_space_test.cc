/**
 * @file
 * Unit tests for the address-space allocator.
 */

#include "sim/address_space.hh"

#include <gtest/gtest.h>

namespace iat::sim {
namespace {

TEST(AddressSpace, RegionsDoNotOverlap)
{
    AddressSpace aspace;
    const auto a = aspace.alloc(100, "a");
    const auto b = aspace.alloc(5000, "b");
    const auto c = aspace.alloc(1, "c");
    EXPECT_GE(b.base, a.base + a.bytes);
    EXPECT_GE(c.base, b.base + b.bytes);
}

TEST(AddressSpace, PageAlignment)
{
    AddressSpace aspace;
    const auto a = aspace.alloc(1, "a");
    EXPECT_EQ(a.bytes, 4096u);
    EXPECT_EQ(a.base % 4096, 0u);
    const auto b = aspace.alloc(4097, "b");
    EXPECT_EQ(b.bytes, 8192u);
}

TEST(AddressSpace, LineAddressing)
{
    AddressSpace aspace;
    const auto r = aspace.alloc(64 * 10, "r");
    EXPECT_EQ(r.lineAddr(0), r.base);
    EXPECT_EQ(r.lineAddr(3), r.base + 3 * 64);
    EXPECT_EQ(r.lines(), r.bytes / 64);
}

TEST(AddressSpace, TracksRegions)
{
    AddressSpace aspace;
    aspace.alloc(10, "x");
    aspace.alloc(10, "y");
    ASSERT_EQ(aspace.regions().size(), 2u);
    EXPECT_EQ(aspace.regions()[0].name, "x");
    EXPECT_EQ(aspace.regions()[1].name, "y");
    EXPECT_EQ(aspace.allocatedBytes(), 2 * 4096u);
}

TEST(AddressSpace, FillsExactlyTo256GiB)
{
    // The first region starts at 1 GiB; 255 GiB more ends exactly at
    // the limit. Only bookkeeping: nothing is backed by memory.
    AddressSpace aspace;
    const auto r = aspace.alloc(255 * GiB, "all");
    EXPECT_EQ(r.base + r.bytes, AddressSpace::kLimit);
    EXPECT_EQ(AddressSpace::kLimit, 256 * GiB);
    EXPECT_EQ((r.base + r.bytes - 1) / cacheLineBytes,
              cache::kTagLineLimit - 1);
}

TEST(AddressSpaceDeath, RejectsRegionPast256GiB)
{
    AddressSpace aspace;
    aspace.alloc(255 * GiB - 4 * KiB, "most");
    EXPECT_DEATH(aspace.alloc(4 * KiB + 1, "over"),
                 "allocation 'over' .*256 GiB");
    EXPECT_DEATH(aspace.alloc(~std::uint64_t{0}, "huge"), "256 GiB");
}

TEST(AddressSpaceDeath, RejectsEmpty)
{
    AddressSpace aspace;
    EXPECT_DEATH(aspace.alloc(0, "zero"), "empty allocation");
}

} // namespace
} // namespace iat::sim
