/**
 * @file
 * POPET: perceptron-based off-chip predictor (Hermes; Bera et al.,
 * MICRO 2022).
 *
 * A hashed-perceptron over five program features. Each feature
 * indexes a dedicated table of signed weights; the prediction is
 * positive (off-chip) when the summed weights reach the activation
 * threshold. Training follows the standard perceptron rule: update
 * on misprediction or when the magnitude of the sum is below the
 * training threshold. This matches the configuration evaluated in
 * the Athena paper (4 KB, Table 8).
 */

#ifndef ATHENA_OCP_POPET_HH
#define ATHENA_OCP_POPET_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/sat_counter.hh"
#include "ocp/ocp.hh"

namespace athena
{

class PopetPredictor final : public OffChipPredictor
{
  public:
    PopetPredictor() : OffChipPredictor(OcpKind::kPopet) { reset(); }

    const char *name() const override { return "popet"; }

    bool predict(std::uint64_t pc, Addr addr) override;
    void train(std::uint64_t pc, Addr addr, bool went_offchip) override;

    void reset() override;

    /** Snapshot contract: weight tables + PC-history hash. The
     *  one-deep memo is cleared on restore: a train() without its
     *  predict() recomputes, bit-identically. */
    void serialize(SnapshotIo &io) override;

    std::size_t
    storageBits() const override
    {
        // 5 tables x 1024 entries x 6-bit weights + last-PCs reg.
        return kFeatures * kTableSize * 6 + 64;
    }

    /** Activation threshold tau_act (exposed for tests). */
    static constexpr int kActivationThreshold = 2;
    /** Training threshold tau_train. */
    static constexpr int kTrainingThreshold = 14;

  private:
    static constexpr unsigned kFeatures = 5;
    static constexpr unsigned kTableSize = 1024;

    /** Compute the five feature table indices for (pc, addr). */
    std::array<std::uint16_t, kFeatures>
    featureIndices(std::uint64_t pc, Addr addr) const;

    int sum(const std::array<std::uint16_t, kFeatures> &idx) const;

    std::array<std::array<SignedSatCounter<6>, kTableSize>, kFeatures>
        weights;

    /** Rolling hash of the last four load PCs (feature 5). */
    std::uint64_t lastPcsHash = 0;

    /**
     * One-deep feature-index memo: every demand load runs
     * predict(pc, addr) then train(pc, addr, outcome) on the same
     * access, so predict pre-computes the indices train will need
     * (with the PC-history feature already advanced past this
     * load), saving half of the feature hashing on the access path.
     * Without it every repository benchmark workload ran 3-6%
     * slower (README, "Demand path").
     */
    std::uint64_t memoPc = 0;
    Addr memoAddr = 0;
    bool memoValid = false;
    std::array<std::uint16_t, kFeatures> memoIdx{};
    /**
     * Weight sum over the first four (pc, addr)-pure features,
     * captured at predict() time. No weight changes between a
     * load's predict and its train, so train only re-reads the
     * history feature's weight.
     */
    int memoPartialSum = 0;
};

} // namespace athena

#endif // ATHENA_OCP_POPET_HH
