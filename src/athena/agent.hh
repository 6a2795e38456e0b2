/**
 * @file
 * AthenaAgent: the paper's contribution — a SARSA agent that
 * coordinates the off-chip predictor with the prefetcher(s) and
 * simultaneously drives prefetcher aggressiveness from its own
 * Q-values (sections 4 and 5).
 *
 * Per epoch (2 K retired instructions, Table 3):
 *  1. encode the packed feature state from the epoch's telemetry,
 *  2. compute the composite reward for the *previous* action
 *     (R = R_corr - R_uncorr, section 4.3),
 *  3. SARSA-update QVStore[s_{t-1}, a_{t-1}] toward
 *     r + gamma * Q(s_t, a_t),
 *  4. epsilon-greedily select the next action among
 *     {none, OCP-only, PF-only, both},
 *  5. if the action enables prefetching, derive the prefetch degree
 *     from the Q-value separation (Algorithm 1):
 *         dQ = Q(a*) - mean(others);  r = min(1, dQ / tau);
 *         degree = floor(r * dmax).
 *
 * Ablation switches reproduce every bar of Fig. 18: stateless mode,
 * IPC-only reward, feature-subset selection, and disabling the
 * uncorrelated reward component.
 */

#ifndef ATHENA_ATHENA_AGENT_HH
#define ATHENA_ATHENA_AGENT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "athena/features.hh"
#include "athena/qvstore.hh"
#include "athena/reward.hh"
#include "common/rng.hh"
#include "coord/policy.hh"

namespace athena
{

/** Athena configuration (Table 3 defaults). */
struct AthenaConfig
{
    QVStoreParams qv;                     ///< alpha=0.6, gamma=0.6.
    RewardWeights rewardWeights;          ///< Table 3 lambdas.
    std::vector<StateFeature> features = defaultFeatureSet();
    bool useUncorrelatedReward = true;
    /** Ablation: ignore state (single QVStore row) — the
     *  "Stateless Athena" bar of Fig. 18. */
    bool stateless = false;
    /** Ablation: IPC-change-only reward (prior work's signal). */
    bool ipcRewardOnly = false;
    /**
     * Exploration rate epsilon. Table 3 reports 0.0 (pure greedy
     * with optimistic initialization) over a 500 M-instruction
     * horizon where state churn alone re-probes every action. The
     * 0.02 here was meant to stand in for that re-probing at this
     * repository's shorter horizons, but with the default seed (42)
     * the first exploratory draw is draw 164, after the 125 epochs
     * of a default single-core run: there it never fires, and 0.02
     * and 0.0 give bit-identical results.
     */
    double epsilon = 0.02;
    /** Q-separation normalizer tau (Table 3: 0.12). */
    double tau = 0.12;
    /** Coordinate two prefetchers instead of PF-group + OCP
     *  (prefetcher-only management, section 7.6). */
    bool prefetcherOnlyMode = false;
    std::uint64_t seed = 42;
};

class AthenaAgent : public CoordinationPolicy
{
  public:
    explicit AthenaAgent(const AthenaConfig &config = AthenaConfig{});

    const char *name() const override { return "athena"; }

    CoordDecision onEpochEnd(const EpochStats &stats) override;

    void reset() override;

    /** Snapshot walk: the QVStore, RNG, previous-epoch SARSA
     *  context, and the action histogram. */
    void serialize(SnapshotIo &io) override;

    /**
     * Table 4 accounting: QVStore (2 KB) + two 4096-bit Bloom
     * trackers (0.5 KB each) = 3 KB.
     */
    std::size_t
    storageBits() const override
    {
        return qvstore.storageBits() + 2 * 4096;
    }

    // --- introspection ----------------------------------------
    /** Per-action selection counts (Fig. 17 case study). */
    std::array<std::uint64_t, 4>
    actionHistogram() const override
    {
        return actionCounts;
    }
    const QVStore &qv() const { return qvstore; }
    const AthenaConfig &config() const { return cfg; }
    /** Last computed reward (tests). */
    double lastReward() const { return lastRewardValue; }

    /** Decision corresponding to an action index. */
    CoordDecision decisionFor(unsigned action, double degree_scale)
        const;

  private:
    /** Degree scale via Algorithm 1 for the chosen action. */
    double degreeScaleFor(std::uint32_t state, unsigned action) const;

    AthenaConfig cfg;
    StateEncoder encoder;
    QVStore qvstore;
    CompositeReward compositeReward;
    IpcReward ipcReward;
    Rng rng;

    bool havePrev = false;
    EpochStats prevStats;
    std::uint32_t prevState = 0;
    unsigned prevAction = 0;
    double lastRewardValue = 0.0;

    std::array<std::uint64_t, 4> actionCounts{};
};

} // namespace athena

#endif // ATHENA_ATHENA_AGENT_HH
