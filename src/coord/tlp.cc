/**
 * @file
 * TLP implementation.
 */

#include "coord/tlp.hh"

#include <array>
#include <cstdint>

#include "common/hashing.hh"
#include "snapshot/snapshot.hh"

namespace athena
{

std::array<std::uint16_t, TlpPolicy::kFeatures>
TlpPolicy::featureIndices(std::uint64_t pc, Addr addr) const
{
    unsigned line_off = pageLineOffset(addr);
    Addr page = pageNumber(addr);
    return {
        static_cast<std::uint16_t>(mix64(pc) % kTableSize),
        static_cast<std::uint16_t>(hashCombine(pc, line_off) %
                                   kTableSize),
        static_cast<std::uint16_t>(mix64(page) % kTableSize),
        static_cast<std::uint16_t>(mix64(lastPcsHash) % kTableSize),
    };
}

int
TlpPolicy::sum(const std::array<std::uint16_t, kFeatures> &idx) const
{
    int s = 0;
    for (unsigned f = 0; f < kFeatures; ++f)
        s += weights[f][idx[f]].raw();
    return s;
}

CoordDecision
TlpPolicy::onEpochEnd(const EpochStats &stats)
{
    (void)stats;
    return CoordDecision{}; // everything on; filtering is per-request
}

void
TlpPolicy::onDemandResolved(std::uint64_t pc, Addr addr,
                            bool went_offchip)
{
    auto idx = featureIndices(pc, addr);
    int s = sum(idx);
    bool predicted = s >= kTauHigh;
    if (predicted != went_offchip || (s < kTauHigh && s > kTauLow)) {
        int dir = went_offchip ? 1 : -1;
        for (unsigned f = 0; f < kFeatures; ++f)
            weights[f][idx[f]].add(dir);
    }
    lastPcsHash = hashCombine(lastPcsHash, pc);
}

bool
TlpPolicy::filterPrefetch(CacheLevel level, std::uint64_t pc,
                          Addr addr)
{
    // TLP only filters L1D prefetches; it has, by design, no
    // control over prefetchers at L2C or beyond.
    if (level != CacheLevel::kL1D)
        return false;
    auto idx = featureIndices(pc, addr);
    return sum(idx) >= kTauPref;
}

void
TlpPolicy::reset()
{
    for (auto &table : weights) {
        for (auto &w : table)
            w = SignedSatCounter<6>{};
    }
    lastPcsHash = 0;
}

void
TlpPolicy::serialize(SnapshotIo &io)
{
    for (auto &table : weights) {
        for (SignedSatCounter<6> &c : table)
            c.serialize(io);
    }
    io.u64(lastPcsHash);
}

} // namespace athena
