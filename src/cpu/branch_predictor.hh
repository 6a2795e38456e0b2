/**
 * @file
 * gshare conditional branch predictor.
 *
 * Table 5 of the paper uses a perceptron predictor with a 17-cycle
 * misprediction penalty; a well-sized gshare reproduces the relevant
 * property for Athena's reward framework — the misprediction *rate
 * varies with workload phase*, which is exactly the uncorrelated
 * signal the composite reward subtracts out.
 *
 * The PHT is a contiguous byte array (one 2-bit counter per byte,
 * half the footprint of the previous 16-bit SatCounter layout) and
 * predictAndTrain() is header-inline: it sits on the per-branch
 * path of CoreModel's batched stepping loop, where a cross-TU call
 * per branch is measurable.
 */

#ifndef ATHENA_CPU_BRANCH_PREDICTOR_HH
#define ATHENA_CPU_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/hashing.hh"

namespace athena
{

class SnapshotIo;

class BranchPredictor
{
  public:
    /** @param table_bits log2 of the PHT size (default 16K entries). */
    explicit BranchPredictor(unsigned table_bits = 14);

    /**
     * Predict and immediately train on the actual outcome.
     * @return true if the prediction was correct.
     *
     * Each entry is a 2-bit saturating counter in [0, 3], weakly
     * taken (2) at reset; taken() is the upper half, exactly the
     * SatCounter<2> semantics this byte encoding replaces.
     */
    bool
    predictAndTrain(std::uint64_t pc, bool taken)
    {
        std::uint64_t idx = (mix64(pc) ^ history) & mask;
        std::uint8_t v = table[idx];
        bool prediction = v >= 2;
        if (taken) {
            if (v < 3)
                table[idx] = v + 1;
        } else {
            if (v > 0)
                table[idx] = v - 1;
        }
        history = ((history << 1) | (taken ? 1 : 0)) & mask;
        ++statLookups;
        if (prediction != taken)
            ++statMispredicts;
        return prediction == taken;
    }

    void reset();

    /** Snapshot walk: PHT size guard, global history, stats, PHT. */
    void serialize(SnapshotIo &io);

    std::uint64_t statLookups = 0;
    std::uint64_t statMispredicts = 0;

  private:
    std::uint64_t mask;
    std::uint64_t history = 0;
    std::vector<std::uint8_t> table;
};

} // namespace athena

#endif // ATHENA_CPU_BRANCH_PREDICTOR_HH
