/**
 * @file
 * HMP implementation.
 */

#include "ocp/hmp.hh"

#include <cstdint>

#include "common/hashing.hh"
#include "snapshot/snapshot.hh"

namespace athena
{

bool
HmpPredictor::localPredict(std::uint64_t pc) const
{
    std::uint64_t li = mix64(pc) % kLocalEntries;
    std::uint8_t hist = localHistory[li];
    std::uint64_t pi = hashCombine(pc, hist) % kPhtSize;
    return localPht[pi].taken();
}

bool
HmpPredictor::gsharePredict(std::uint64_t pc) const
{
    std::uint64_t idx = (mix64(pc) ^ globalHistory) % kPhtSize;
    return gsharePht[idx].taken();
}

bool
HmpPredictor::gskewPredict(std::uint64_t pc, Addr addr) const
{
    std::uint64_t key = hashCombine(pc, lineNumber(addr)) ^
                        globalHistory;
    int votes = 0;
    for (unsigned t = 0; t < 3; ++t) {
        if (gskewPht[t][keyedHash(key, t) % kPhtSize].taken())
            ++votes;
    }
    return votes >= 2;
}

bool
HmpPredictor::predict(std::uint64_t pc, Addr addr)
{
    int votes = 0;
    if (localPredict(pc))
        ++votes;
    if (gsharePredict(pc))
        ++votes;
    if (gskewPredict(pc, addr))
        ++votes;
    return votes >= 2;
}

void
HmpPredictor::train(std::uint64_t pc, Addr addr, bool went_offchip)
{
    std::uint64_t li = mix64(pc) % kLocalEntries;
    std::uint8_t hist = localHistory[li];
    localPht[hashCombine(pc, hist) % kPhtSize].update(went_offchip);
    localHistory[li] = static_cast<std::uint8_t>(
        ((hist << 1) | (went_offchip ? 1 : 0)) &
        ((1u << kHistBits) - 1));

    gsharePht[(mix64(pc) ^ globalHistory) % kPhtSize].update(
        went_offchip);

    std::uint64_t key = hashCombine(pc, lineNumber(addr)) ^
                        globalHistory;
    for (unsigned t = 0; t < 3; ++t)
        gskewPht[t][keyedHash(key, t) % kPhtSize].update(went_offchip);

    globalHistory = ((globalHistory << 1) | (went_offchip ? 1 : 0)) &
                    (kPhtSize - 1);
}

void
HmpPredictor::reset()
{
    localHistory.fill(0);
    for (auto &c : localPht)
        c = SatCounter<2>(0);
    for (auto &c : gsharePht)
        c = SatCounter<2>(0);
    for (auto &t : gskewPht) {
        for (auto &c : t)
            c = SatCounter<2>(0);
    }
    globalHistory = 0;
}

void
HmpPredictor::serialize(SnapshotIo &io)
{
    io.bytes(localHistory.data(), localHistory.size());
    for (SatCounter<2> &c : localPht)
        c.serialize(io);
    for (SatCounter<2> &c : gsharePht)
        c.serialize(io);
    for (auto &t : gskewPht) {
        for (SatCounter<2> &c : t)
            c.serialize(io);
    }
    io.u64(globalHistory);
}

} // namespace athena
