/**
 * @file
 * POPET implementation.
 */

#include "ocp/popet.hh"

#include <array>
#include <cstdint>

#include "common/hashing.hh"
#include "snapshot/snapshot.hh"

namespace athena
{

std::array<std::uint16_t, PopetPredictor::kFeatures>
PopetPredictor::featureIndices(std::uint64_t pc, Addr addr) const
{
    unsigned line_off = pageLineOffset(addr);
    unsigned byte_off = static_cast<unsigned>(addr & (kLineBytes - 1));
    return {
        static_cast<std::uint16_t>(mix64(pc) % kTableSize),
        static_cast<std::uint16_t>(hashCombine(pc, line_off) %
                                   kTableSize),
        static_cast<std::uint16_t>(hashCombine(pc, byte_off) %
                                   kTableSize),
        static_cast<std::uint16_t>(mix64(pageNumber(addr)) %
                                   kTableSize),
        static_cast<std::uint16_t>(mix64(lastPcsHash) % kTableSize),
    };
}

int
PopetPredictor::sum(
    const std::array<std::uint16_t, kFeatures> &idx) const
{
    int s = 0;
    for (unsigned f = 0; f < kFeatures; ++f)
        s += weights[f][idx[f]].raw();
    return s;
}

bool
PopetPredictor::predict(std::uint64_t pc, Addr addr)
{
    auto idx = featureIndices(pc, addr);
    int partial = 0;
    for (unsigned f = 0; f + 1 < kFeatures; ++f)
        partial += weights[f][idx[f]].raw();
    int s = partial + weights[kFeatures - 1][idx[kFeatures - 1]].raw();
    bool off_chip = s >= kActivationThreshold;
    // Fold the PC into the history *after* prediction so the
    // prediction uses the preceding context, as in Hermes.
    lastPcsHash = hashCombine(lastPcsHash, pc);
    // Pre-compute what train() will recompute for this access: the
    // first four features are (pc, addr)-pure, and the history
    // feature now reflects the post-fold hash train() would see.
    memoIdx = idx;
    memoIdx[kFeatures - 1] = static_cast<std::uint16_t>(
        mix64(lastPcsHash) % kTableSize);
    memoPartialSum = partial;
    memoPc = pc;
    memoAddr = addr;
    memoValid = true;
    return off_chip;
}

void
PopetPredictor::train(std::uint64_t pc, Addr addr, bool went_offchip)
{
    std::array<std::uint16_t, kFeatures> idx;
    int s;
    if (memoValid && memoPc == pc && memoAddr == addr) {
        // Same access as the last predict(): indices and the
        // first-four-feature sum carry over unchanged.
        idx = memoIdx;
        s = memoPartialSum +
            weights[kFeatures - 1][idx[kFeatures - 1]].raw();
        memoValid = false;
    } else {
        // Unpaired train (not the access predict() last saw):
        // recompute, and drop the memo — its partial sum predates
        // any weight updates made since it was captured.
        memoValid = false;
        idx = featureIndices(pc, addr);
        s = sum(idx);
    }
    bool predicted = s >= kActivationThreshold;
    if (predicted != went_offchip ||
        (s < kTrainingThreshold && s > -kTrainingThreshold)) {
        int dir = went_offchip ? 1 : -1;
        for (unsigned f = 0; f < kFeatures; ++f)
            weights[f][idx[f]].add(dir);
    }
}

void
PopetPredictor::reset()
{
    for (auto &table : weights) {
        for (auto &w : table)
            w = SignedSatCounter<6>{};
    }
    lastPcsHash = 0;
    memoValid = false;
}

void
PopetPredictor::serialize(SnapshotIo &io)
{
    for (auto &table : weights) {
        for (SignedSatCounter<6> &c : table)
            c.serialize(io);
    }
    io.u64(lastPcsHash);
    if (io.loading())
        memoValid = false;
}

} // namespace athena
