/**
 * @file
 * HPAC: Hierarchical Prefetcher Aggressiveness Control (Ebrahimi et
 * al., MICRO 2009), adapted for OCP coordination as described in
 * section 6.2.2 of the Athena paper.
 *
 * Local control: each prefetcher's aggressiveness level (1..5,
 * mapped to a degree scale) moves up/down by comparing prefetcher
 * accuracy, pollution and bandwidth usage against static
 * thresholds. The OCP is gated by its accuracy against a static
 * threshold, with periodic probing so a disabled OCP can recover.
 * All thresholds were tuned by grid search on the 20-workload
 * tuning set (tools in bench_fig18's DSE helper), mirroring the
 * paper's methodology; their *static* nature is exactly the
 * weakness Fig. 4 demonstrates.
 */

#ifndef ATHENA_COORD_HPAC_HH
#define ATHENA_COORD_HPAC_HH

#include <array>
#include <cstddef>

#include "coord/policy.hh"

namespace athena
{

/** Tunable thresholds (defaults from our grid search). */
struct HpacThresholds
{
    double accHigh = 0.60;   ///< Accuracy above which to ramp up.
    double accLow = 0.30;    ///< Accuracy below which to ramp down.
    double bwHigh = 0.75;    ///< Bandwidth pressure threshold.
    double pollutionHigh = 0.10;
    double ocpAccGate = 0.50; ///< Min OCP accuracy to stay enabled.
};

class HpacPolicy : public CoordinationPolicy
{
  public:
    explicit HpacPolicy(const HpacThresholds &thresholds =
                            HpacThresholds{})
        : thr(thresholds)
    {
        reset();
    }

    const char *name() const override { return "hpac"; }

    CoordDecision onEpochEnd(const EpochStats &stats) override;

    void reset() override;

    void serialize(SnapshotIo &io) override;

    std::size_t
    storageBits() const override
    {
        // A handful of counters and 3-bit levels; 0.5 KB class.
        return 4096;
    }

    /** Aggressiveness level of a slot (tests peek). */
    unsigned level(unsigned slot) const { return levels[slot]; }

  private:
    static constexpr unsigned kMaxLevel = 5;
    static constexpr unsigned kMinLevel = 1;
    static constexpr unsigned kOcpProbePeriod = 16;

    HpacThresholds thr;
    std::array<unsigned, kMaxPrefetchers> levels{};
    bool ocpOn = true;
    unsigned ocpOffEpochs = 0;
};

} // namespace athena

#endif // ATHENA_COORD_HPAC_HH
