/**
 * @file
 * Berti implementation.
 */

#include "prefetch/berti.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/hashing.hh"
#include "snapshot/snapshot.hh"

namespace athena
{

void
BertiPrefetcher::observeImpl(const PrefetchTrigger &trigger,
                         CandidateVec &out)
{
    Addr line = lineNumber(trigger.addr);
    std::uint64_t idx = mix64(trigger.pc) % kEntries;
    auto tag = static_cast<std::uint16_t>((trigger.pc >> 6) & 0x3ff);
    IpEntry &e = table[idx];

    if (!e.valid || e.tag != tag) {
        e = IpEntry{};
        e.valid = true;
        e.tag = tag;
    }

    // Score timely deltas: for each history entry H, delta =
    // line - H.line is *timely* if a prefetch launched at H.cycle
    // would have arrived by now.
    for (const HistEntry &h : e.hist) {
        if (!h.valid)
            continue;
        std::int64_t delta64 = static_cast<std::int64_t>(line) -
                               static_cast<std::int64_t>(h.line);
        if (delta64 == 0 || delta64 > 63 || delta64 < -63)
            continue;
        if (trigger.cycle < h.cycle + kFillLatency)
            continue; // would have been late
        auto delta = static_cast<std::int32_t>(delta64);
        // Find or allocate a score slot.
        DeltaScore *slot = nullptr;
        for (auto &s : e.scores) {
            if (s.score > 0 && s.delta == delta) {
                slot = &s;
                break;
            }
        }
        if (!slot) {
            slot = &*std::min_element(
                e.scores.begin(), e.scores.end(),
                [](const DeltaScore &a, const DeltaScore &b) {
                    return a.score < b.score;
                });
            if (slot->score > 0)
                slot->score /= 2; // decay the displaced candidate
            if (slot->score == 0) {
                slot->delta = delta;
            } else {
                slot = nullptr;
            }
        }
        if (slot && slot->delta == delta && slot->score < 63)
            ++slot->score;
    }

    // Record this access.
    e.hist[e.histHead] = {line, trigger.cycle, true};
    e.histHead = (e.histHead + 1) % kHistory;

    // End of a learning round: activate the best deltas.
    if (++e.accessesThisRound >= kRoundAccesses) {
        e.accessesThisRound = 0;
        std::array<DeltaScore, kDeltas> sorted = e.scores;
        std::sort(sorted.begin(), sorted.end(),
                  [](const DeltaScore &a, const DeltaScore &b) {
                      return a.score > b.score;
                  });
        e.activeCount = 0;
        for (const auto &s : sorted) {
            if (s.score >= kScoreThreshold && s.delta != 0 &&
                e.activeCount < e.active.size()) {
                e.active[e.activeCount++] = s.delta;
            }
        }
        for (auto &s : e.scores)
            s.score /= 2; // exponential decay between rounds
    }

    // Prefetch using the activated deltas.
    unsigned issued = 0;
    for (unsigned i = 0; i < e.activeCount && issued < degree(); ++i) {
        std::int64_t t = static_cast<std::int64_t>(line) + e.active[i];
        if (t > 0) {
            out.push_back({static_cast<Addr>(t), 0});
            ++issued;
        }
    }
}

void
BertiPrefetcher::reset()
{
    for (auto &e : table)
        e = IpEntry{};
}

void
BertiPrefetcher::serialize(SnapshotIo &io)
{
    Prefetcher::serialize(io);
    for (IpEntry &e : table) {
        io.u16(e.tag);
        io.boolean(e.valid);
        for (HistEntry &h : e.hist) {
            io.u64(h.line);
            io.u64(h.cycle);
            io.boolean(h.valid);
        }
        // observeImpl writes hist[histHead] and reads active[i] for
        // i < activeCount, unchecked.
        io.bounded(e.histHead, kHistory, "Berti history head");
        for (DeltaScore &s : e.scores) {
            io.i32(s.delta);
            io.u32(s.score);
        }
        io.u32(e.accessesThisRound);
        for (std::int32_t &d : e.active)
            io.i32(d);
        io.bounded(e.activeCount, e.active.size() + 1,
                   "Berti active delta count");
    }
}

} // namespace athena
