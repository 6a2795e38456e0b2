/**
 * @file
 * SMS implementation.
 */

#include "prefetch/sms.hh"

#include <cstdint>
#include <vector>

#include "common/hashing.hh"
#include "snapshot/snapshot.hh"

namespace athena
{

void
SmsPrefetcher::commit(const AgtEntry &entry)
{
    std::uint64_t h = mix64(entry.key);
    PhtEntry &pe = pht[h % kPhtEntries];
    pe.valid = true;
    pe.tag = static_cast<std::uint16_t>(h >> 48);
    pe.bitmap = entry.bitmap;
}

void
SmsPrefetcher::observeImpl(const PrefetchTrigger &trigger,
                       CandidateVec &out)
{
    Addr region = pageNumber(trigger.addr);
    unsigned offset = pageLineOffset(trigger.addr);

    // Find the active generation for this region.
    AgtEntry *entry = nullptr;
    AgtEntry *victim = &agt[0];
    for (auto &e : agt) {
        if (e.valid && e.region == region) {
            entry = &e;
            break;
        }
        if (!e.valid || e.lruStamp < victim->lruStamp)
            victim = &e;
    }

    if (entry) {
        entry->bitmap |= 1ull << offset;
        entry->lruStamp = ++lruClock;
        return;
    }

    // New generation: retire the victim's footprint, then replay
    // any learned footprint for this (PC, offset) context.
    if (victim->valid)
        commit(*victim);

    std::uint64_t key = keyOf(trigger.pc, offset);
    victim->valid = true;
    victim->region = region;
    victim->key = key;
    victim->bitmap = 1ull << offset;
    victim->lruStamp = ++lruClock;

    std::uint64_t h = mix64(key);
    const PhtEntry &pe = pht[h % kPhtEntries];
    if (!pe.valid || pe.tag != static_cast<std::uint16_t>(h >> 48))
        return;

    Addr region_line_base = region << (kPageShift - kLineShift);
    unsigned issued = 0;
    for (unsigned bit = 0; bit < kLinesPerPage && issued < degree();
         ++bit) {
        if (bit == offset || !(pe.bitmap & (1ull << bit)))
            continue;
        out.push_back({region_line_base + bit, 0});
        ++issued;
    }
}

void
SmsPrefetcher::reset()
{
    for (auto &e : agt)
        e = AgtEntry{};
    for (auto &e : pht)
        e = PhtEntry{};
    lruClock = 0;
}

void
SmsPrefetcher::serialize(SnapshotIo &io)
{
    Prefetcher::serialize(io);
    for (AgtEntry &e : agt) {
        io.u64(e.region);
        io.boolean(e.valid);
        io.u64(e.key);
        io.u64(e.bitmap);
        io.u64(e.lruStamp);
    }
    for (PhtEntry &e : pht) {
        io.u16(e.tag);
        io.boolean(e.valid);
        io.u64(e.bitmap);
    }
    io.u64(lruClock);
}

} // namespace athena
