/**
 * @file
 * Pythia: a customizable hardware prefetching framework using online
 * reinforcement learning (Bera et al., MICRO 2021). L2C prefetcher.
 *
 * Pythia is itself a SARSA agent: program features (PC xor last
 * delta; the sequence of recent deltas) form the state, the action
 * is a prefetch offset from a fixed list (including "no prefetch"),
 * and the reward grades the outcome of each issued prefetch
 * (accurate & timely / accurate but late / inaccurate / no-prefetch)
 * with *bandwidth-aware* reward levels — Pythia's built-in throttle
 * that the Athena paper notes is still insufficient on 40/100
 * workloads (Fig. 1).
 *
 * Q-values live in a two-plane hashed QVStore (the same structure
 * Athena later reuses at the coordination layer); delayed rewards
 * are propagated through an evaluation queue (EQ).
 */

#ifndef ATHENA_PREFETCH_PYTHIA_HH
#define ATHENA_PREFETCH_PYTHIA_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "prefetch/prefetcher.hh"

namespace athena
{

class PythiaPrefetcher final : public Prefetcher
{
  public:
    explicit PythiaPrefetcher(std::uint64_t seed = 1);

    const char *name() const override { return "pythia"; }
    CacheLevel level() const override { return CacheLevel::kL2C; }

    void observeImpl(const PrefetchTrigger &trigger,
                 CandidateVec &out) override;

    void onPrefetchUsed(std::uint64_t meta, bool timely) override;
    void onPrefetchUseless(std::uint64_t meta) override;
    void onPrefetchDropped(std::uint64_t meta) override;
    void onEpochEnd(double bandwidth_usage) override;

    void reset() override;

    /** Snapshot contract: Q planes, the EQ ring, the feature
     *  history and RNG; epsilonThreshold is a constant. */
    void serialize(SnapshotIo &io) override;

    std::size_t
    storageBits() const override
    {
        // Two planes x 128 rows x 16 actions x 8-bit Q + EQ 64 x 40
        // + feature state; ~25.5 KB in the paper's configuration —
        // we account the reduced geometry actually modelled.
        return 2 * kRows * kActions * 8 + kEqCapacity * 40 + 128;
    }

    /**
     * Delta-sequence feature hash (f2): unpack a packed 4-delta
     * history key (deltas clamped to [-64, 64], one signed byte
     * each, newest in the low byte) and fold the deltas oldest
     * first.
     */
    static std::uint64_t deltaSeqHash(std::uint32_t hist_key);

    // --- introspection for tests -----------------------------
    double qValue(std::uint64_t f1, std::uint64_t f2,
                  unsigned action) const;
    static constexpr unsigned numActions() { return kActions; }
    int actionOffset(unsigned a) const { return kOffsets[a]; }

  private:
    static constexpr unsigned kRows = 128;
    static constexpr unsigned kActions = 16;
    static constexpr unsigned kEqCapacity = 256;
    static constexpr double kAlpha = 0.0065 * 16; // scaled for table RL
    static constexpr double kGamma = 0.55;
    static constexpr double kEpsilon = 0.002;

    // Offset action list (0 = no prefetch), after the MICRO'21
    // artifact's default list.
    static constexpr std::array<int, kActions> kOffsets = {
        0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32, -1, -2, -4};

    // Reward levels (bandwidth-aware). The high/low split engages
    // only under heavy bus pressure — Pythia's built-in throttle,
    // which section 2.1.1 of the Athena paper shows is not enough
    // on 40/100 workloads.
    static constexpr double kRewardAccurateTimely = 20.0;
    static constexpr double kRewardAccurateLate = 12.0;
    static constexpr double kRewardInaccurateLow = -8.0;
    static constexpr double kRewardInaccurateHigh = -14.0;
    static constexpr double kRewardNoPrefetchLow = -5.0;
    static constexpr double kRewardNoPrefetchHigh = 6.0;
    static constexpr double kHighBandwidthThreshold = 0.70;

    struct EqEntry
    {
        std::uint64_t f1 = 0;
        std::uint64_t f2 = 0;
        unsigned action = 0;
        bool rewarded = false;
        /** Never issued (gated/filtered/resident): the decision was
         *  untested, so it must not update the Q-values at all —
         *  repeatedly feeding neutral rewards would erase learned
         *  preferences while the prefetcher is gated. */
        bool dropped = false;
        double reward = 0.0;
    };

    /** Summed two-plane Q lookup. */
    double q(std::uint64_t f1, std::uint64_t f2, unsigned a) const;

    /** SARSA update distributed over both planes. */
    void update(const EqEntry &entry, std::uint64_t nf1,
                std::uint64_t nf2, unsigned next_action);

    /** Retire the oldest EQ entry with its (possibly default)
     *  reward. */
    void drainOldest();

    std::array<std::array<double, kActions>, kRows> plane1;
    std::array<std::array<double, kActions>, kRows> plane2;

    /**
     * Evaluation queue as a fixed ring (kEqCapacity is a power of
     * two): bounded FIFO + random access by (meta - eqBase), both
     * O(1) without deque segment bookkeeping on the observe path.
     */
    std::array<EqEntry, kEqCapacity> eqBuf{};
    unsigned eqHead = 0;  ///< Ring index of the oldest entry.
    unsigned eqCount = 0; ///< Occupancy.
    std::uint64_t eqBase = 0; ///< meta id of the oldest entry.

    /** i-th oldest EQ entry (i < eqCount, or the push slot). */
    EqEntry &
    eqAt(unsigned i)
    {
        return eqBuf[(eqHead + i) & (kEqCapacity - 1)];
    }

    Addr lastLine = 0;
    bool highBandwidth = false;
    Rng rng;

    /**
     * Rng::chanceThreshold(kEpsilon), captured at construction so
     * the per-trigger roll pays neither a float conversion nor a
     * magic-static guard (and no static-init-order hazard).
     * Bit-identical outcomes to chance(kEpsilon).
     */
    std::uint64_t epsilonThreshold = Rng::chanceThreshold(kEpsilon);

    /** The last four line deltas, clamped to [-64, 64], one
     *  signed byte each (newest in the low byte). */
    std::uint32_t histKey = 0;

    /** ATHENA_PYTHIA_TRACE's counts for this prefetcher alone
     *  (diagnostics; not part of the snapshot). */
    std::uint64_t traceObserves = 0;
    std::array<std::uint64_t, kActions> traceChosen{};
};

} // namespace athena

#endif // ATHENA_PREFETCH_PYTHIA_HH
