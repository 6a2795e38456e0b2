/**
 * @file
 * MAB: Micro-Armed Bandit (Gerogiannis & Torrellas, MICRO 2023),
 * adapted for OCP coordination as in section 6.2.3 of the Athena
 * paper.
 *
 * A Discounted-UCB bandit over enable combinations: with one
 * prefetcher the arms are {none, PF, OCP, both} (4 arms); with two
 * prefetchers, all 8 combinations of {PF1, PF2, OCP}. The per-epoch
 * reward is the epoch IPC (normalized online). MAB is
 * state-agnostic by construction — it never looks at accuracy,
 * bandwidth, or pollution — which is the headroom Fig. 18's
 * "Stateless Athena" comparison isolates.
 */

#ifndef ATHENA_COORD_MAB_HH
#define ATHENA_COORD_MAB_HH

#include <cstddef>
#include <vector>

#include "coord/policy.hh"

namespace athena
{

/** DUCB hyperparameters (grid-searched on the tuning set). */
struct MabParams
{
    double discount = 0.992;     ///< Per-epoch decay of counts/sums.
    double explorationC = 0.35;  ///< UCB exploration coefficient.
};

class MabPolicy : public CoordinationPolicy
{
  public:
    /**
     * @param num_prefetchers 1 -> 4 arms, 2 -> 8 arms
     * @param params DUCB hyperparameters
     */
    explicit MabPolicy(unsigned num_prefetchers = 1,
                       const MabParams &params = MabParams{});

    const char *name() const override { return "mab"; }

    CoordDecision onEpochEnd(const EpochStats &stats) override;

    void reset() override;

    void serialize(SnapshotIo &io) override;

    std::size_t
    storageBits() const override
    {
        // Two fixed-point accumulators per arm; 0.1 KB class.
        return arms.size() * 2 * 32;
    }

    /** Currently selected arm (tests peek). */
    unsigned currentArm() const { return current; }
    unsigned numArms() const
    {
        return static_cast<unsigned>(arms.size());
    }

  private:
    struct Arm
    {
        CoordDecision decision;
        double count = 0.0; ///< Discounted pull count.
        double sum = 0.0;   ///< Discounted reward sum.
    };

    unsigned selectArm() const;

    MabParams cfg;
    std::vector<Arm> arms;
    unsigned current = 0;
    double rewardScale = 0.0; ///< Running max IPC for normalization.
};

} // namespace athena

#endif // ATHENA_COORD_MAB_HH
