/**
 * @file
 * StepPicker tests: min-heap and next-bound correctness against a
 * reference scan, deterministic lowest-index-first tie-breaking, and
 * the bounded-skew invariant of loose synchronization (the picked
 * core is never ahead of any other unfinished core).
 */

#include <cstdint>
#include <gtest/gtest.h>
#include <vector>

#include "common/rng.hh"
#include "sim/step_picker.hh"

namespace athena
{
namespace
{

TEST(StepPicker, PicksLeastAdvanced)
{
    StepPicker picker(4);
    picker.advance(0, 40);
    picker.advance(1, 10);
    picker.advance(2, 30);
    picker.advance(3, 20);
    EXPECT_EQ(picker.top(), 1u);
    picker.advance(1, 25);
    EXPECT_EQ(picker.top(), 3u);
    picker.advance(3, 26);
    EXPECT_EQ(picker.top(), 1u);
}

TEST(StepPicker, TiesResolveToLowestIndex)
{
    // All cores start at cycle 0: the first pick must be core 0,
    // not an artifact of scan direction (the old scan picked the
    // *last* tied core).
    StepPicker picker(8);
    EXPECT_EQ(picker.top(), 0u);
    picker.advance(0, 5);
    EXPECT_EQ(picker.top(), 1u);
    // Re-tie cores 2 and 6 at cycle 5 after advancing the rest.
    for (unsigned c = 0; c < 8; ++c)
        picker.advance(c, c == 2 || c == 6 ? 5u : 9u);
    EXPECT_EQ(picker.top(), 2u);
    picker.advance(2, 5); // no progress: still tied, still first
    EXPECT_EQ(picker.top(), 2u);
    picker.advance(2, 6);
    EXPECT_EQ(picker.top(), 6u);
}

TEST(StepPicker, FinishRemovesCore)
{
    StepPicker picker(3);
    picker.advance(0, 1);
    picker.advance(1, 2);
    picker.advance(2, 3);
    picker.finish(0);
    EXPECT_EQ(picker.top(), 1u);
    picker.finish(1);
    EXPECT_EQ(picker.top(), 2u);
    picker.finish(2);
    EXPECT_TRUE(picker.empty());
}

TEST(StepPicker, MatchesReferenceScanUnderRandomAdvances)
{
    // Drive the heap with random monotone advances and check every
    // pick against an O(n) reference scan with the same
    // lowest-index tie-break.
    const unsigned kCores = 6;
    StepPicker picker(kCores);
    std::vector<Cycle> now(kCores, 0);
    std::vector<bool> done(kCores, false);
    unsigned remaining = kCores;
    Rng rng(123);

    while (remaining > 0) {
        unsigned expect = kCores;
        for (unsigned c = 0; c < kCores; ++c) {
            if (done[c])
                continue;
            if (expect == kCores || now[c] < now[expect])
                expect = c;
        }
        ASSERT_EQ(picker.top(), expect);

        // nextBound is the least key among the other cores, or none.
        unsigned second = kCores;
        for (unsigned c = 0; c < kCores; ++c) {
            if (done[c] || c == expect)
                continue;
            if (second == kCores || now[c] < now[second])
                second = c;
        }
        const StepPicker::Key bound = picker.nextBound();
        if (second == kCores) {
            ASSERT_EQ(bound.core, ~0u);
        } else {
            ASSERT_EQ(bound.core, second);
            ASSERT_EQ(bound.cycle, now[second]);
        }

        // The bounded-skew invariant: the picked core is the least
        // advanced, so stepping it can never widen the spread
        // beyond one instruction's worth of cycles.
        for (unsigned c = 0; c < kCores; ++c) {
            if (!done[c]) {
                ASSERT_LE(now[expect], now[c]);
            }
        }

        if (rng.chance(0.05)) {
            done[expect] = true;
            --remaining;
            picker.finish(expect);
        } else {
            now[expect] += rng.below(20);
            picker.advance(expect, now[expect]);
        }
    }
    EXPECT_TRUE(picker.empty());
}

TEST(StepPicker, SkewStaysBoundedByMaxSingleAdvance)
{
    // Always stepping the least-advanced core keeps the max spread
    // between any two unfinished cores bounded by the largest
    // single-step advance — the loose-synchronization guarantee the
    // multi-core scheduler relies on.
    const unsigned kCores = 5;
    const Cycle kMaxAdvance = 50;
    StepPicker picker(kCores);
    std::vector<Cycle> now(kCores, 0);
    Rng rng(7);

    for (int step = 0; step < 20000; ++step) {
        unsigned pick = picker.top();
        now[pick] += 1 + rng.below(kMaxAdvance);
        picker.advance(pick, now[pick]);

        Cycle lo = now[0], hi = now[0];
        for (unsigned c = 1; c < kCores; ++c) {
            lo = now[c] < lo ? now[c] : lo;
            hi = now[c] > hi ? now[c] : hi;
        }
        ASSERT_LE(hi - lo, kMaxAdvance)
            << "spread exceeded one max advance at step " << step;
    }
}

} // namespace
} // namespace athena
