/**
 * @file
 * Cache model implementation.
 *
 * Layout note: the lookup keys (tag + valid) are split out of the
 * per-line metadata into the packed `tagv` array. Lookups are the
 * hottest operation in the whole simulator — every load scans up to
 * `ways` entries per level — and the split keeps that scan inside
 * one or two cache lines of host memory instead of striding through
 * 40-byte metadata structs.
 */

#include "mem/cache.hh"

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "snapshot/snapshot.hh"

namespace athena
{

Cache::Cache(const CacheParams &params) : cfg(params)
{
    std::uint64_t n_sets =
        cfg.sizeBytes / (static_cast<std::uint64_t>(kLineBytes) * cfg.ways);
    // Round down to a power of two for cheap indexing; the paper's
    // 12-way 48 KB L1 has 64 sets exactly.
    if (n_sets == 0)
        n_sets = 1;
    setBits = static_cast<unsigned>(std::bit_width(n_sets) - 1);
    sets = 1u << setBits;
    tagv.resize(static_cast<std::size_t>(sets) * cfg.ways, 0);
    lru.resize(static_cast<std::size_t>(sets) * cfg.ways, 0);
    mruWay.resize(sets, 0);
    lines.resize(static_cast<std::size_t>(sets) * cfg.ways);
}

CacheLookup
Cache::access(const CacheRef &r, Cycle now)
{
    CacheLookup res;
    const std::size_t base = r.base;
    const unsigned set = setIndex(r.line);
    // Way prediction: probe the set's most-recently-hit way before
    // scanning. The key check makes this a pure shortcut.
    int w = mruWay[set];
    if (tagv[base + static_cast<std::size_t>(w)] != r.key) {
        w = findWay(base, r.key);
        if (w < 0) {
            ++statMisses;
            return res;
        }
        mruWay[set] = static_cast<std::uint8_t>(w);
    }
    ++statHits;
    Line &line = lines[base + static_cast<std::size_t>(w)];
    res.hit = true;
    res.readyAt = line.readyAt;
    if (line.prefetched) {
        res.firstPrefetchTouch = true;
        res.pfMeta = line.pfMeta;
        res.pfSlot = line.pfSlot;
        res.pfFromDram = line.pfFromDram;
        line.prefetched = false;
    }
    lru[base + static_cast<std::size_t>(w)] = ++lruClock;
    if (now > line.readyAt)
        line.readyAt = now;
    return res;
}

bool
Cache::touch(const CacheRef &r)
{
    const std::size_t base = r.base;
    int w = findWay(base, r.key);
    if (w < 0)
        return false;
    lru[base + static_cast<std::size_t>(w)] = ++lruClock;
    return true;
}

CacheEviction
Cache::fill(const CacheRef &r, Cycle now, Cycle ready_at,
            bool is_prefetch, std::uint8_t pf_slot,
            std::uint64_t pf_meta, bool pf_from_dram)
{
    CacheEviction ev;
    ev.causedByPrefetch = is_prefetch;

    const std::size_t base = r.base;
    std::uint64_t *tags = &tagv[base];
    std::uint64_t *stamps = &lru[base];
    Line *set = &lines[base];

    // Single fused way-scan: resident check and victim selection
    // (first invalid way, else LRU) in one pass over the tag array.
    // Fill is the second-hottest cache operation after access, and
    // the common case is a miss-fill that used to scan twice.
    unsigned victim_w = 0;
    bool have_invalid = false;
    for (unsigned w = 0; w < cfg.ways; ++w) {
        if (tags[w] == r.key) {
            // Refill of a resident line: refresh metadata only.
            stamps[w] = ++lruClock;
            return ev;
        }
        if (have_invalid)
            continue;
        if (!(tags[w] & 1)) {
            victim_w = w;
            have_invalid = true;
        } else if (stamps[w] < stamps[victim_w]) {
            victim_w = w;
        }
    }
    Line *victim = &set[victim_w];

    if (tags[victim_w] & 1) {
        ev.evictedValid = true;
        ev.evictedLine =
            ((tags[victim_w] >> 1) << setBits) | setIndex(r.line);
        if (victim->prefetched) {
            ev.evictedUnusedPrefetch = true;
            ev.evictedPfMeta = victim->pfMeta;
            ev.evictedPfSlot = victim->pfSlot;
            ev.evictedPfFromDram = victim->pfFromDram;
            ++statUnusedPrefetchEvictions;
        }
    }

    tags[victim_w] = r.key;
    victim->prefetched = is_prefetch;
    victim->pfSlot = pf_slot;
    victim->pfMeta = pf_meta;
    victim->pfFromDram = pf_from_dram;
    victim->readyAt = ready_at;
    stamps[victim_w] = ++lruClock;
    mruWay[setIndex(r.line)] = static_cast<std::uint8_t>(victim_w);
    if (is_prefetch)
        ++statPrefetchFills;
    (void)now;
    return ev;
}

void
Cache::invalidate(Addr line_num)
{
    const std::size_t base = setBase(line_num);
    if (int w = findWay(base, keyOf(line_num)); w >= 0)
        tagv[base + static_cast<std::size_t>(w)] = 0;
}

void
Cache::reset()
{
    for (auto &t : tagv)
        t = 0;
    for (auto &s : lru)
        s = 0;
    for (auto &m : mruWay)
        m = 0;
    for (auto &line : lines)
        line = Line{};
    lruClock = 0;
    statHits = statMisses = 0;
    statPrefetchFills = statUnusedPrefetchEvictions = 0;
}

void
Cache::serialize(SnapshotIo &io)
{
    io.expectU32(sets, "cache set count");
    io.expectU32(cfg.ways, "cache way count");
    io.u64(lruClock);
    io.u64(statHits);
    io.u64(statMisses);
    io.u64(statPrefetchFills);
    io.u64(statUnusedPrefetchEvictions);
    io.u64Array(tagv.data(), tagv.size());
    io.u64Array(lru.data(), lru.size());
    io.bytes(mruWay.data(), mruWay.size());
    // The hint indexes the way arrays unchecked on every lookup.
    for (std::uint8_t m : mruWay)
        io.check(m < cfg.ways, "cache MRU way hint out of range "
                               "(corrupt snapshot)");
    // Per-line metadata as one block of fixed-layout records:
    // prefetched, pfFromDram, pfSlot (one byte each), pfMeta,
    // readyAt (u64).
    constexpr std::size_t kLineRecordBytes = 3 + 8 + 8;
    const std::size_t n = lines.size() * kLineRecordBytes;
    if (io.loading()) {
        const std::uint8_t *p = io.loadBlock(n);
        for (Line &line : lines) {
            line.prefetched = p[0] != 0;
            line.pfFromDram = p[1] != 0;
            line.pfSlot = p[2];
            line.pfMeta = loadLe64(p + 3);
            line.readyAt = loadLe64(p + 11);
            p += kLineRecordBytes;
        }
    } else {
        std::uint8_t *p = io.saveBlock(n);
        for (const Line &line : lines) {
            p[0] = line.prefetched ? 1 : 0;
            p[1] = line.pfFromDram ? 1 : 0;
            p[2] = line.pfSlot;
            storeLe64(p + 3, line.pfMeta);
            storeLe64(p + 11, line.readyAt);
            p += kLineRecordBytes;
        }
    }
}

BankedLlc::BankedLlc(const CacheParams &total_params,
                     unsigned bank_count)
    : total(total_params), decode(bank_count ? bank_count : 1)
{
    assert(bank_count >= 1);
    CacheParams per_bank = total_params;
    per_bank.sizeBytes = total_params.sizeBytes / decode.count();
    banks.reserve(decode.count());
    for (std::uint64_t b = 0; b < decode.count(); ++b)
        banks.emplace_back(per_bank);
}

} // namespace athena
