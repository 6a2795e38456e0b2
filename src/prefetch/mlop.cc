/**
 * @file
 * MLOP implementation.
 */

#include "prefetch/mlop.hh"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/hashing.hh"
#include "snapshot/snapshot.hh"

namespace athena
{

void
MlopPrefetcher::observeImpl(const PrefetchTrigger &trigger,
                        CandidateVec &out)
{
    Addr page = pageNumber(trigger.addr);
    unsigned offset = pageLineOffset(trigger.addr);

    AmtEntry *entry = nullptr;
    AmtEntry *victim = &amt[0];
    for (auto &e : amt) {
        if (e.valid && e.pageTag == page) {
            entry = &e;
            break;
        }
        if (!e.valid || e.lruStamp < victim->lruStamp)
            victim = &e;
    }
    if (!entry) {
        entry = victim;
        entry->valid = true;
        entry->pageTag = page;
        entry->bitmap = 0;
    }
    entry->lruStamp = ++lruClock;

    // Score: for each candidate offset d, an access at
    // (offset - d) in this page means offset d would have
    // prefetched the current line accurately.
    for (int d = -kMaxOffset; d <= kMaxOffset; ++d) {
        if (d == 0)
            continue;
        int src = static_cast<int>(offset) - d;
        if (src < 0 || src >= static_cast<int>(kLinesPerPage))
            continue;
        if (entry->bitmap & (1ull << src))
            ++scores[static_cast<unsigned>(d + kMaxOffset)];
    }
    entry->bitmap |= 1ull << offset;

    // Periodic offset (re)selection.
    if (++roundAccesses >= kRoundLength) {
        roundAccesses = 0;
        activeCount = 0;
        auto remaining = scores;
        for (unsigned k = 0; k < active.size(); ++k) {
            auto it =
                std::max_element(remaining.begin(), remaining.end());
            if (*it < kScoreFloor)
                break;
            int d = static_cast<int>(it - remaining.begin()) -
                    kMaxOffset;
            active[activeCount++] = d;
            *it = 0;
        }
        scores.fill(0);
    }

    // Issue prefetches with the active offsets.
    Addr line = lineNumber(trigger.addr);
    unsigned issued = 0;
    for (unsigned i = 0; i < activeCount && issued < degree(); ++i) {
        std::int64_t t = static_cast<std::int64_t>(line) + active[i];
        if (t > 0) {
            out.push_back({static_cast<Addr>(t), 0});
            ++issued;
        }
    }
}

std::vector<int>
MlopPrefetcher::activeOffsets() const
{
    return {active.begin(), active.begin() + activeCount};
}

void
MlopPrefetcher::reset()
{
    for (auto &e : amt)
        e = AmtEntry{};
    scores.fill(0);
    active.fill(0);
    activeCount = 0;
    roundAccesses = 0;
    lruClock = 0;
}

void
MlopPrefetcher::serialize(SnapshotIo &io)
{
    Prefetcher::serialize(io);
    for (AmtEntry &e : amt) {
        io.u64(e.pageTag);
        io.boolean(e.valid);
        io.u64(e.bitmap);
        io.u64(e.lruStamp);
    }
    for (unsigned &s : scores)
        io.u32(s);
    for (int &a : active)
        io.i32(a);
    io.bounded(activeCount, active.size() + 1,
               "MLOP active offset count");
    io.u32(roundAccesses);
    io.u64(lruClock);
}

} // namespace athena
