/**
 * @file
 * TLP: a two-level perceptron approach combining off-chip
 * prediction with adaptive prefetch filtering (Jamet et al.,
 * HPCA 2024).
 *
 * Level 1 is a perceptron off-chip predictor over the demand
 * stream. Level 2 filters *L1D prefetch requests* that the
 * perceptron predicts would be filled from off-chip, based on the
 * empirical observation that off-chip prefetch fills into L1D are
 * usually inaccurate. Its key structural limitation — no control
 * over prefetchers beyond L1D — is what Fig. 11 of the Athena paper
 * exposes: in CD4 it cannot throttle the L2C prefetcher at all.
 *
 * Epoch-level knobs are untouched (everything enabled, full
 * degree); all the action is in the per-request filter.
 */

#ifndef ATHENA_COORD_TLP_HH
#define ATHENA_COORD_TLP_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/sat_counter.hh"
#include "coord/policy.hh"

namespace athena
{

class TlpPolicy : public CoordinationPolicy
{
  public:
    TlpPolicy() { reset(); }

    const char *name() const override { return "tlp"; }

    CoordDecision onEpochEnd(const EpochStats &stats) override;

    void onDemandResolved(std::uint64_t pc, Addr addr,
                          bool went_offchip) override;
    bool observesDemandStream() const override { return true; }

    bool filterPrefetch(CacheLevel level, std::uint64_t pc,
                        Addr addr) override;
    bool filtersPrefetches() const override { return true; }

    void reset() override;

    void serialize(SnapshotIo &io) override;

    std::size_t
    storageBits() const override
    {
        // 4 feature tables x 2048 x 6-bit weights + history; ~6.98
        // KB class budget in Table 8.
        return kFeatures * kTableSize * 6 + 64;
    }

    // Thresholds as specified in the TLP paper's configuration.
    static constexpr int kTauLow = -10;
    static constexpr int kTauHigh = 2;
    /** Filtering threshold tau_pref for L1D prefetches. */
    static constexpr int kTauPref = 0;

  private:
    static constexpr unsigned kFeatures = 4;
    static constexpr unsigned kTableSize = 2048;

    std::array<std::uint16_t, kFeatures>
    featureIndices(std::uint64_t pc, Addr addr) const;

    int sum(const std::array<std::uint16_t, kFeatures> &idx) const;

    std::array<std::array<SignedSatCounter<6>, kTableSize>, kFeatures>
        weights;
    std::uint64_t lastPcsHash = 0;
};

} // namespace athena

#endif // ATHENA_COORD_TLP_HH
