/**
 * @file
 * Cache model tests: hit/miss behaviour, LRU victim selection,
 * prefetch metadata (first-touch, useless-eviction, off-chip fill
 * provenance), and a parameterized capacity property over several
 * geometries.
 */

#include <cstdint>
#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace athena
{
namespace
{

CacheParams
tinyCache(unsigned sets, unsigned ways)
{
    CacheParams p;
    p.name = "tiny";
    p.sizeBytes = static_cast<std::uint64_t>(sets) * ways *
                  kLineBytes;
    p.ways = ways;
    p.latency = 5;
    return p;
}

TEST(Cache, MissThenHit)
{
    Cache c(tinyCache(4, 2));
    EXPECT_FALSE(c.access(100, 1).hit);
    c.fill(100, 1, 1, false);
    EXPECT_TRUE(c.access(100, 2).hit);
    EXPECT_EQ(c.statMisses, 1u);
    EXPECT_EQ(c.statHits, 1u);
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(tinyCache(1, 2)); // one set, two ways
    c.fill(0, 1, 1, false);
    c.fill(1, 2, 2, false);
    c.access(0, 3); // touch line 0 -> line 1 becomes LRU
    CacheEviction ev = c.fill(2, 4, 4, false);
    EXPECT_TRUE(ev.evictedValid);
    EXPECT_EQ(ev.evictedLine, 1u);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(2));
    EXPECT_FALSE(c.contains(1));
}

TEST(Cache, SetIndexingSeparatesSets)
{
    Cache c(tinyCache(4, 1));
    // Lines 0..3 map to different sets; filling all evicts nothing.
    for (Addr line = 0; line < 4; ++line) {
        CacheEviction ev = c.fill(line, line, line, false);
        EXPECT_FALSE(ev.evictedValid);
    }
    for (Addr line = 0; line < 4; ++line)
        EXPECT_TRUE(c.contains(line));
}

TEST(Cache, PrefetchFirstTouchSemantics)
{
    Cache c(tinyCache(4, 2));
    c.fill(8, 1, 50, true, 1, 0xbeef, true);
    CacheLookup first = c.access(8, 60);
    EXPECT_TRUE(first.hit);
    EXPECT_TRUE(first.firstPrefetchTouch);
    EXPECT_EQ(first.pfSlot, 1);
    EXPECT_EQ(first.pfMeta, 0xbeefu);
    EXPECT_TRUE(first.pfFromDram);
    EXPECT_EQ(first.readyAt, 50u);
    // Second demand touch is an ordinary hit.
    CacheLookup second = c.access(8, 70);
    EXPECT_TRUE(second.hit);
    EXPECT_FALSE(second.firstPrefetchTouch);
}

TEST(Cache, PrefetchTouchDoesNotClearPrefetchBit)
{
    Cache c(tinyCache(4, 2));
    c.fill(8, 1, 1, true, 0, 7, false);
    EXPECT_TRUE(c.touch(8));
    CacheLookup res = c.access(8, 2);
    EXPECT_TRUE(res.firstPrefetchTouch) << "touch() must not count "
                                           "as a demand use";
}

TEST(Cache, UnusedPrefetchEvictionReported)
{
    Cache c(tinyCache(1, 1));
    c.fill(0, 1, 1, true, 1, 42, true);
    CacheEviction ev = c.fill(1, 2, 2, false);
    EXPECT_TRUE(ev.evictedValid);
    EXPECT_TRUE(ev.evictedUnusedPrefetch);
    EXPECT_EQ(ev.evictedPfMeta, 42u);
    EXPECT_EQ(ev.evictedPfSlot, 1);
    EXPECT_TRUE(ev.evictedPfFromDram);
    EXPECT_EQ(c.statUnusedPrefetchEvictions, 1u);
}

TEST(Cache, UsedPrefetchEvictionNotReportedUnused)
{
    Cache c(tinyCache(1, 1));
    c.fill(0, 1, 1, true, 0, 42, false);
    c.access(0, 2); // demand use clears the prefetch bit
    CacheEviction ev = c.fill(1, 3, 3, false);
    EXPECT_TRUE(ev.evictedValid);
    EXPECT_FALSE(ev.evictedUnusedPrefetch);
}

TEST(Cache, EvictionCausedByPrefetchFlag)
{
    Cache c(tinyCache(1, 1));
    c.fill(0, 1, 1, false);
    CacheEviction ev = c.fill(1, 2, 2, true, 0, 0, true);
    EXPECT_TRUE(ev.causedByPrefetch);
    EXPECT_TRUE(ev.evictedValid);
}

TEST(Cache, RefillOfResidentLineEvictsNothing)
{
    Cache c(tinyCache(1, 2));
    c.fill(0, 1, 1, false);
    CacheEviction ev = c.fill(0, 2, 2, false);
    EXPECT_FALSE(ev.evictedValid);
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(tinyCache(4, 2));
    c.fill(5, 1, 1, false);
    ASSERT_TRUE(c.contains(5));
    c.invalidate(5);
    EXPECT_FALSE(c.contains(5));
}

TEST(Cache, ResetClearsEverything)
{
    Cache c(tinyCache(4, 2));
    c.fill(3, 1, 1, false);
    c.access(3, 2);
    c.reset();
    EXPECT_FALSE(c.contains(3));
    EXPECT_EQ(c.statHits, 0u);
    EXPECT_EQ(c.statMisses, 0u);
}

TEST(Cache, LateReadyAtVisibleToDemand)
{
    Cache c(tinyCache(4, 2));
    c.fill(9, 10, 500, true, 0, 0, true); // data arrives at 500
    CacheLookup res = c.access(9, 100);   // demand at 100: late pf
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.readyAt, 500u);
}

/** Property: capacity is sets x ways distinct lines per set. */
class CacheGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{};

TEST_P(CacheGeometry, CapacityProperty)
{
    auto [sets, ways] = GetParam();
    Cache c(tinyCache(sets, ways));
    ASSERT_EQ(c.numSets(), sets);
    // Fill one set to capacity with same-set lines: no eviction
    // until ways + 1 fills.
    for (unsigned i = 0; i < ways; ++i) {
        CacheEviction ev =
            c.fill(static_cast<Addr>(i) * sets, i, i, false);
        EXPECT_FALSE(ev.evictedValid) << "premature eviction";
    }
    CacheEviction ev =
        c.fill(static_cast<Addr>(ways) * sets, ways, ways, false);
    EXPECT_TRUE(ev.evictedValid) << "capacity not enforced";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(4u, 2u),
                      std::make_pair(64u, 12u),
                      std::make_pair(512u, 20u),
                      std::make_pair(4096u, 12u)));

} // namespace
} // namespace athena
