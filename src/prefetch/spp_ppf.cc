/**
 * @file
 * SPP+PPF implementation.
 */

#include "prefetch/spp_ppf.hh"

#include <array>
#include <cstdint>
#include <vector>

#include "common/hashing.hh"
#include "snapshot/snapshot.hh"

namespace athena
{

int
SppPpfPrefetcher::ppfSum(const std::array<std::uint16_t, 3> &idx) const
{
    int sum = 0;
    for (unsigned t = 0; t < 3; ++t)
        sum += ppf[t][idx[t]].raw();
    return sum;
}

void
SppPpfPrefetcher::ppfTrain(const std::array<std::uint16_t, 3> &idx,
                           bool useful)
{
    for (unsigned t = 0; t < 3; ++t)
        ppf[t][idx[t]].add(useful ? 1 : -1);
}

void
SppPpfPrefetcher::observeImpl(const PrefetchTrigger &trigger,
                          CandidateVec &out)
{
    Addr page = pageNumber(trigger.addr);
    unsigned offset = pageLineOffset(trigger.addr);

    StEntry &se = st[mix64(page) % kStEntries];
    bool new_page = !se.valid || se.pageTag != page;
    std::uint16_t sig;
    if (new_page) {
        se.valid = true;
        se.pageTag = page;
        se.lastOffset = offset;
        se.signature = 0;
        return;
    }

    auto delta = static_cast<std::int32_t>(offset) -
                 static_cast<std::int32_t>(se.lastOffset);
    if (delta == 0)
        return;

    // Train the pattern table under the *old* signature.
    PtEntry &pe = pt[se.signature % kPtEntries];
    if (pe.sigCount < 255)
        ++pe.sigCount;
    bool found = false;
    for (auto &d : pe.deltas) {
        if (d.count > 0 && d.delta == delta) {
            if (d.count < 255)
                ++d.count;
            found = true;
            break;
        }
    }
    if (!found) {
        PtDelta *victim = &pe.deltas[0];
        for (auto &d : pe.deltas) {
            if (d.count < victim->count)
                victim = &d;
        }
        victim->delta = static_cast<std::int8_t>(delta);
        victim->count = 1;
    }

    sig = advanceSignature(se.signature, delta);
    se.signature = sig;
    se.lastOffset = offset;

    // Speculative signature walk with path confidence.
    double confidence = 1.0;
    std::int32_t cursor = static_cast<std::int32_t>(offset);
    std::uint16_t walk_sig = sig;
    unsigned issued = 0;
    for (unsigned depth = 0; depth < degree(); ++depth) {
        const PtEntry &cur = pt[walk_sig % kPtEntries];
        if (cur.sigCount == 0)
            break;
        const PtDelta *best = nullptr;
        for (const auto &d : cur.deltas) {
            if (d.count > 0 && (!best || d.count > best->count))
                best = &d;
        }
        if (!best)
            break;
        confidence *= static_cast<double>(best->count) /
                      static_cast<double>(cur.sigCount);
        if (confidence < kConfThreshold)
            break;
        cursor += best->delta;
        if (cursor < 0 ||
            cursor >= static_cast<std::int32_t>(kLinesPerPage)) {
            break; // SPP does not cross pages
        }
        Addr line = (page << (kPageShift - kLineShift)) +
                    static_cast<Addr>(cursor);

        // PPF gate.
        std::array<std::uint16_t, 3> fidx = {
            static_cast<std::uint16_t>(walk_sig % kPpfTableSize),
            static_cast<std::uint16_t>(
                hashCombine(static_cast<std::uint64_t>(
                                static_cast<std::int64_t>(best->delta)),
                            depth) %
                kPpfTableSize),
            static_cast<std::uint16_t>(
                hashCombine(page, static_cast<std::uint64_t>(cursor)) %
                kPpfTableSize),
        };
        if (ppfSum(fidx) < kPpfThreshold) {
            walk_sig = advanceSignature(walk_sig, best->delta);
            continue; // filtered out
        }

        std::uint64_t meta = ringHead % kRingSize;
        ring[meta] = {fidx, true};
        ++ringHead;
        out.push_back({line, meta});
        ++issued;
        walk_sig = advanceSignature(walk_sig, best->delta);
    }
    (void)issued;
}

void
SppPpfPrefetcher::onPrefetchUsed(std::uint64_t meta, bool timely)
{
    (void)timely;
    Record &r = ring[meta % kRingSize];
    if (r.open) {
        ppfTrain(r.featureIdx, true);
        r.open = false;
    }
}

void
SppPpfPrefetcher::onPrefetchUseless(std::uint64_t meta)
{
    Record &r = ring[meta % kRingSize];
    if (r.open) {
        ppfTrain(r.featureIdx, false);
        r.open = false;
    }
}

void
SppPpfPrefetcher::reset()
{
    for (auto &e : st)
        e = StEntry{};
    for (auto &e : pt)
        e = PtEntry{};
    for (auto &table : ppf) {
        for (auto &w : table)
            w = SignedSatCounter<6>{};
    }
    for (auto &r : ring)
        r = Record{};
    ringHead = 0;
}

void
SppPpfPrefetcher::serialize(SnapshotIo &io)
{
    Prefetcher::serialize(io);
    for (StEntry &e : st) {
        io.u64(e.pageTag);
        io.boolean(e.valid);
        io.u32(e.lastOffset);
        io.u16(e.signature);
    }
    for (PtEntry &e : pt) {
        for (PtDelta &d : e.deltas) {
            auto delta = static_cast<std::uint8_t>(d.delta);
            io.u8(delta);
            d.delta = static_cast<std::int8_t>(delta);
            io.u8(d.count);
        }
        io.u8(e.sigCount);
    }
    for (auto &table : ppf) {
        for (SignedSatCounter<6> &c : table)
            c.serialize(io);
    }
    for (Record &rec : ring) {
        for (std::uint16_t &idx : rec.featureIdx)
            io.bounded(idx, kPpfTableSize, "SPP-PPF feature index");
        io.boolean(rec.open);
    }
    io.u64(ringHead);
}

} // namespace athena
