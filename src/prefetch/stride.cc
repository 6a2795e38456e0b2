/**
 * @file
 * Stride prefetcher implementation.
 */

#include "prefetch/stride.hh"

#include <cstdint>
#include <vector>

#include "common/hashing.hh"
#include "snapshot/snapshot.hh"

namespace athena
{

void
StridePrefetcher::observeImpl(const PrefetchTrigger &trigger,
                          CandidateVec &out)
{
    Addr line = lineNumber(trigger.addr);
    std::uint64_t idx = mix64(trigger.pc) % kEntries;
    Entry &e = table[idx];
    std::uint64_t tag = trigger.pc >> 6;

    if (!e.valid || e.tag != tag) {
        e = Entry{};
        e.valid = true;
        e.tag = tag;
        e.lastLine = line;
        return;
    }

    std::int64_t observed =
        static_cast<std::int64_t>(line) -
        static_cast<std::int64_t>(e.lastLine);
    if (observed == e.stride && observed != 0) {
        e.conf.increment();
    } else {
        e.conf.decrement();
        if (e.conf.raw() == 0)
            e.stride = observed;
    }
    e.lastLine = line;

    if (e.conf.taken() && e.stride != 0) {
        for (unsigned d = 1; d <= degree(); ++d) {
            std::int64_t target =
                static_cast<std::int64_t>(line) +
                e.stride * static_cast<std::int64_t>(d);
            if (target > 0)
                out.push_back({static_cast<Addr>(target), 0});
        }
    }
}

void
StridePrefetcher::reset()
{
    for (auto &e : table)
        e = Entry{};
}

void
StridePrefetcher::serialize(SnapshotIo &io)
{
    Prefetcher::serialize(io);
    for (Entry &e : table) {
        io.u64(e.tag);
        io.u64(e.lastLine);
        io.i64(e.stride);
        e.conf.serialize(io);
        io.boolean(e.valid);
    }
}

} // namespace athena
