/**
 * @file
 * Pythia-specific tests: the RL loop must learn to prefetch an
 * accurate pattern, learn to hold back on random traffic, and — the
 * regression that mattered for Athena integration — dropped
 * (gated/filtered) decisions must not erase learned Q-values. The
 * delta-sequence feature hash must equal a fold over the unpacked
 * deltas.
 */

#include <array>
#include <cstdint>
#include <gtest/gtest.h>
#include <vector>

#include "common/hashing.hh"
#include "common/rng.hh"
#include "prefetch/pythia.hh"

namespace athena
{
namespace
{

/**
 * Feed a sequential line stream; reward candidates that match the
 * next lines as used, others as useless.
 */
unsigned
runStream(PythiaPrefetcher &pf, unsigned triggers, bool reward_used)
{
    unsigned issued = 0;
    std::vector<PrefetchCandidate> out;
    for (unsigned i = 0; i < triggers; ++i) {
        out.clear();
        pf.observe({0x400, static_cast<Addr>(i) * kLineBytes, false,
                    static_cast<Cycle>(i) * 40},
                   out);
        issued += out.size();
        for (const auto &c : out) {
            // A stream demands every line shortly: any small
            // positive offset lands on a future demand.
            bool accurate =
                c.lineNum > i && c.lineNum < i + 40;
            if (!reward_used)
                continue;
            if (accurate)
                pf.onPrefetchUsed(c.meta, true);
            else
                pf.onPrefetchUseless(c.meta);
        }
    }
    return issued;
}

TEST(Pythia, LearnsToPrefetchStream)
{
    PythiaPrefetcher pf(1);
    runStream(pf, 3000, true);
    // After training, a window of triggers should mostly issue.
    unsigned late = runStream(pf, 500, true);
    EXPECT_GT(late, 300u)
        << "trained Pythia must keep prefetching a stream";
}

TEST(Pythia, LearnsToThrottleOnUselessTraffic)
{
    PythiaPrefetcher pf(2);
    pf.onEpochEnd(0.9); // high bandwidth pressure
    std::vector<PrefetchCandidate> out;
    Rng rng(9);
    // Random addresses: every issued prefetch is useless.
    for (int i = 0; i < 6000; ++i) {
        out.clear();
        pf.observe({0x400, rng.next() % (1ull << 34), false,
                    static_cast<Cycle>(i) * 10},
                   out);
        for (const auto &c : out)
            pf.onPrefetchUseless(c.meta);
    }
    unsigned tail = 0;
    for (int i = 0; i < 500; ++i) {
        out.clear();
        pf.observe({0x400, rng.next() % (1ull << 34), false,
                    static_cast<Cycle>(i) * 10},
                   out);
        tail += out.size();
    }
    EXPECT_LT(tail, 600u)
        << "Pythia must mostly stop prefetching useless traffic";
}

TEST(Pythia, DroppedDecisionsPreserveLearnedPolicy)
{
    PythiaPrefetcher pf(3);
    runStream(pf, 3000, true);
    unsigned before = runStream(pf, 300, true);

    // Simulate a long gated period: decisions made, all dropped.
    std::vector<PrefetchCandidate> out;
    for (int i = 0; i < 4000; ++i) {
        out.clear();
        pf.observe({0x400, static_cast<Addr>(10000 + i) * kLineBytes,
                    false, static_cast<Cycle>(i) * 40},
                   out);
        for (const auto &c : out)
            pf.onPrefetchDropped(c.meta);
    }

    unsigned after = runStream(pf, 300, true);
    EXPECT_GT(after * 3, before)
        << "gating must not erase the learned prefetch policy";
}

TEST(Pythia, MetaTokensSurviveQueueWrap)
{
    PythiaPrefetcher pf(4);
    std::vector<PrefetchCandidate> out;
    std::vector<std::uint64_t> metas;
    for (int i = 0; i < 2000; ++i) {
        out.clear();
        pf.observe({0x400, static_cast<Addr>(i) * kLineBytes, false,
                    static_cast<Cycle>(i) * 40},
                   out);
        for (const auto &c : out)
            metas.push_back(c.meta);
    }
    // Late feedback for long-expired metas must be ignored, not
    // crash or corrupt.
    for (std::uint64_t m : metas)
        pf.onPrefetchUsed(m, true);
    SUCCEED();
}

TEST(Pythia, DeterministicForFixedSeed)
{
    PythiaPrefetcher a(7), b(7);
    unsigned ia = runStream(a, 1000, true);
    unsigned ib = runStream(b, 1000, true);
    EXPECT_EQ(ia, ib);
}

TEST(Pythia, ActionListContainsNoPrefetch)
{
    PythiaPrefetcher pf;
    bool has_zero = false;
    for (unsigned a = 0; a < PythiaPrefetcher::numActions(); ++a) {
        if (pf.actionOffset(a) == 0)
            has_zero = true;
    }
    EXPECT_TRUE(has_zero);
}

TEST(Pythia, ResetClearsQValues)
{
    PythiaPrefetcher pf(5);
    runStream(pf, 2000, true);
    pf.reset();
    PythiaPrefetcher fresh(5);
    unsigned after_reset = runStream(pf, 500, true);
    unsigned from_fresh = runStream(fresh, 500, true);
    EXPECT_EQ(after_reset, from_fresh);
}

TEST(Pythia, DeltaSeqHashMatchesManualFold)
{
    Rng rng(0x77);
    for (int trial = 0; trial < 200; ++trial) {
        // Oldest-first history of four clamped deltas, packed the
        // way observe() packs them (newest in the low byte).
        std::array<int, 4> hist;
        std::uint32_t key = 0;
        for (int &d : hist) {
            d = static_cast<int>(rng.next() % 129) - 64;
            key = (key << 8) |
                  (static_cast<std::uint32_t>(d) & 0xffu);
        }
        std::uint64_t want = 0;
        for (int d : hist) {
            want = hashCombine(want,
                               static_cast<std::uint64_t>(
                                   static_cast<std::int64_t>(d)));
        }
        EXPECT_EQ(PythiaPrefetcher::deltaSeqHash(key), want)
            << "trial " << trial;
    }
}

} // namespace
} // namespace athena
