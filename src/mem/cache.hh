/**
 * @file
 * Set-associative cache model with LRU replacement and
 * prefetch-fill metadata.
 *
 * The model is functional + latency-annotated: lookups and fills are
 * instantaneous state updates; the timing contribution of each level
 * is the fixed round-trip latency from Table 5, applied by the
 * memory system that composes the levels. Lines carry prefetch
 * provenance so accuracy, timeliness, pollution (section 5.2.3) and
 * the Fig. 3 off-chip-fill statistics can be measured exactly.
 */

#ifndef ATHENA_MEM_CACHE_HH
#define ATHENA_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/shard.hh"

namespace athena
{

class SnapshotIo;

/** Static configuration of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 48 << 10;
    unsigned ways = 12;
    /** Round-trip latency of this level (cycles, cumulative model). */
    Cycle latency = 5;
};

/** Result of a lookup. */
struct CacheLookup
{
    bool hit = false;
    /** The line had been brought in by a prefetch and this is the
     *  first demand touch (prefetch "used"). */
    bool firstPrefetchTouch = false;
    /** Prefetcher credit token stored at fill time. */
    std::uint64_t pfMeta = 0;
    /** Which prefetcher (slot index) filled it. */
    std::uint8_t pfSlot = 0;
    /** Cycle at which the line's data is available (late prefetch). */
    Cycle readyAt = 0;
    /** The prefetch that brought the line was filled from DRAM. */
    bool pfFromDram = false;
};

/** Result of a fill (eviction information). */
struct CacheEviction
{
    bool evictedValid = false;
    Addr evictedLine = 0;
    /** Evicted line was a prefetch never touched by a demand. */
    bool evictedUnusedPrefetch = false;
    std::uint64_t evictedPfMeta = 0;
    std::uint8_t evictedPfSlot = 0;
    bool evictedPfFromDram = false;
    /** The fill that caused this eviction was itself a prefetch. */
    bool causedByPrefetch = false;
};

/**
 * Precomputed lookup coordinates of one line in this cache level:
 * the set base offset, the packed tag key, and the line number.
 * The demand walk computes one CacheRef per level per access and
 * reuses it across the lookup -> fill sequence, so the set/tag
 * arithmetic runs once instead of once per cache operation.
 */
struct CacheRef
{
    std::size_t base = 0;  ///< setIndex * ways into the way arrays.
    std::uint64_t key = 0; ///< Packed (tag << 1) | valid.
    Addr line = 0;         ///< The line number (fill metadata).
};

/**
 * One cache level. Indexed by cache-line number (byte addr >> 6).
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /** Precompute the lookup coordinates of a line (pure). */
    CacheRef
    ref(Addr line_num) const
    {
        return {setBase(line_num), keyOf(line_num), line_num};
    }

    /**
     * Demand lookup: updates LRU and clears the prefetched bit on a
     * hit (first touch is reported).
     */
    CacheLookup access(const CacheRef &ref, Cycle now);
    CacheLookup
    access(Addr line_num, Cycle now)
    {
        return access(ref(line_num), now);
    }

    /**
     * Inline fast path of access() for the dominant case: the
     * MRU-way prediction hits and the line carries no prefetch
     * provenance. Performs exactly the state updates access() would
     * (hit counter, LRU stamp, readyAt refresh) and returns true
     * with the pre-refresh readyAt; returns false with NO state
     * changed when the case is anything else — the caller then runs
     * the full access() and gets an identical outcome.
     */
    bool
    accessHitFast(const CacheRef &r, Cycle now, Cycle &ready)
    {
        const std::size_t idx =
            r.base + mruWay[setIndex(r.line)];
        if (tagv[idx] != r.key)
            return false;
        Line &line = lines[idx];
        if (line.prefetched)
            return false;
        ++statHits;
        lru[idx] = ++lruClock;
        ready = line.readyAt;
        if (now > line.readyAt)
            line.readyAt = now;
        return true;
    }

    /** Probe without disturbing replacement or prefetch state. */
    bool
    contains(const CacheRef &r) const
    {
        return findWay(r.base, r.key) >= 0;
    }
    bool contains(Addr line_num) const
    {
        return contains(ref(line_num));
    }

    /**
     * Prefetch lookup: updates LRU but does NOT clear the
     * prefetched bit (a prefetch touching a prefetched line does
     * not count as a demand use).
     */
    bool touch(const CacheRef &ref);
    bool touch(Addr line_num) { return touch(ref(line_num)); }

    /**
     * Insert a line.
     *
     * @param ref        precomputed coordinates (see ref())
     * @param now        current cycle (LRU stamp)
     * @param ready_at   cycle the data actually arrives
     * @param is_prefetch fill caused by a prefetcher
     * @param pf_slot    prefetcher slot index
     * @param pf_meta    prefetcher credit token
     * @param pf_from_dram the prefetch data came from main memory
     */
    CacheEviction fill(const CacheRef &ref, Cycle now, Cycle ready_at,
                       bool is_prefetch, std::uint8_t pf_slot = 0,
                       std::uint64_t pf_meta = 0,
                       bool pf_from_dram = false);
    CacheEviction
    fill(Addr line_num, Cycle now, Cycle ready_at, bool is_prefetch,
         std::uint8_t pf_slot = 0, std::uint64_t pf_meta = 0,
         bool pf_from_dram = false)
    {
        return fill(ref(line_num), now, ready_at, is_prefetch,
                    pf_slot, pf_meta, pf_from_dram);
    }

    /** Invalidate a single line if present. */
    void invalidate(Addr line_num);

    /** Drop all contents. */
    void reset();

    /**
     * Snapshot walk: geometry guard (sets, ways) followed by the
     * full array state — tags, LRU stamps, MRU hints, per-line
     * prefetch attribution and readyAt — plus the stat counters.
     */
    void serialize(SnapshotIo &io);

    const CacheParams &params() const { return cfg; }
    unsigned numSets() const { return sets; }

    // Cumulative statistics (never reset by epochs).
    std::uint64_t statHits = 0;
    std::uint64_t statMisses = 0;
    std::uint64_t statPrefetchFills = 0;
    std::uint64_t statUnusedPrefetchEvictions = 0;

  private:
    /**
     * Cold per-line metadata. The tag and valid bit live separately
     * in the packed #tagv array (lookup way-scan) and the LRU
     * stamps in the packed #lru array (victim way-scan), so both
     * hot scans stream through 8 bytes per way instead of pulling
     * in this struct.
     */
    struct Line
    {
        bool prefetched = false;
        bool pfFromDram = false;
        std::uint8_t pfSlot = 0;
        std::uint64_t pfMeta = 0;
        Cycle readyAt = 0;
    };

    unsigned setIndex(Addr line_num) const
    {
        return static_cast<unsigned>(line_num & (sets - 1));
    }
    Addr tagOf(Addr line_num) const { return line_num >> setBits; }
    /** Packed (tag << 1) | valid key a resident line matches. */
    std::uint64_t keyOf(Addr line_num) const
    {
        return (tagOf(line_num) << 1) | 1u;
    }

    /** Way holding @p line_num within its set, or -1. */
    int findWay(std::size_t set_base, std::uint64_t key) const
    {
        const std::uint64_t *tags = &tagv[set_base];
        for (unsigned w = 0; w < cfg.ways; ++w) {
            if (tags[w] == key)
                return static_cast<int>(w);
        }
        return -1;
    }

    std::size_t setBase(Addr line_num) const
    {
        return static_cast<std::size_t>(setIndex(line_num)) *
               cfg.ways;
    }

    CacheParams cfg;
    unsigned sets;
    unsigned setBits;
    std::uint64_t lruClock = 0;
    /**
     * Hot lookup keys, sets * ways row-major by set: packed
     * (tag << 1) | valid, 0 when invalid. This is the only array a
     * miss has to scan.
     */
    std::vector<std::uint64_t> tagv;
    /** LRU stamps, sets * ways row-major: the only array the
     *  victim scan of a fill has to read. */
    std::vector<std::uint64_t> lru;
    /**
     * Per-set most-recently-hit way — a way-prediction hint for the
     * demand lookup. Purely an optimization: the probe verifies the
     * full key, so a stale hint only costs the scan it would have
     * done anyway (results are unchanged). Demand streams re-touch
     * the same line often enough that the one-compare fast path
     * wins on every hit-heavy workload.
     */
    std::vector<std::uint8_t> mruWay;
    std::vector<Line> lines; ///< sets * ways, row-major by set.
};

/**
 * Precomputed lookup coordinates of one line in a banked LLC: the
 * bank-local CacheRef plus the owning bank. The embedded ref's
 * `line` field is the bank-local line number; callers that need the
 * global line keep it themselves (they computed it).
 */
struct BankedRef
{
    CacheRef ref;      ///< Bank-local coordinates.
    unsigned bank = 0; ///< Owning bank index.
};

/**
 * The shared LLC as N line-interleaved banks (`bank = line mod N`,
 * bank-local line = `line / N`), each a full Cache of 1/N the total
 * capacity. With a power-of-two bank count the interleave is a pure
 * re-labeling of the monolithic set index — bank bits + bank-local
 * set bits reassemble the monolithic set index and the tags
 * coincide — so lookup/fill/victim behavior is bit-identical across
 * {1, 2, 4, ...} banks (pinned by test_shard_order.cc). Non-pow2
 * counts decode through the exact reciprocal division and simply
 * define a different (still valid) geometry.
 *
 * Bank-local evictions are translated back to global line numbers
 * here, so downstream consumers (OCP eviction feed, pollution
 * tracking) never see bank-local addresses.
 */
class BankedLlc
{
  public:
    BankedLlc(const CacheParams &total, unsigned bank_count);

    unsigned bankCount() const
    {
        return static_cast<unsigned>(banks.size());
    }
    Cache &bank(unsigned i) { return banks[i]; }
    const Cache &bank(unsigned i) const { return banks[i]; }

    unsigned bankOf(Addr line_num) const
    {
        return static_cast<unsigned>(decode.shardOf(line_num));
    }

    /** Precompute the (bank, bank-local) coordinates of a line. */
    BankedRef
    ref(Addr line_num) const
    {
        const unsigned b = bankOf(line_num);
        return {banks[b].ref(decode.localLine(line_num)), b};
    }

    CacheLookup
    access(const BankedRef &r, Cycle now)
    {
        return banks[r.bank].access(r.ref, now);
    }

    bool
    accessHitFast(const BankedRef &r, Cycle now, Cycle &ready)
    {
        return banks[r.bank].accessHitFast(r.ref, now, ready);
    }

    bool touch(const BankedRef &r)
    {
        return banks[r.bank].touch(r.ref);
    }
    bool touch(Addr line_num) { return touch(ref(line_num)); }

    /** Insert a line; eviction addresses come back global. */
    CacheEviction
    fill(const BankedRef &r, Cycle now, Cycle ready_at,
         bool is_prefetch, std::uint8_t pf_slot = 0,
         std::uint64_t pf_meta = 0, bool pf_from_dram = false)
    {
        CacheEviction ev =
            banks[r.bank].fill(r.ref, now, ready_at, is_prefetch,
                               pf_slot, pf_meta, pf_from_dram);
        if (ev.evictedValid)
            ev.evictedLine =
                decode.globalLine(ev.evictedLine, r.bank);
        return ev;
    }

    /** Total-LLC parameters (capacity, latency) as configured. */
    const CacheParams &params() const { return total; }

  private:
    CacheParams total;
    ShardDecode decode;
    std::vector<Cache> banks;
};

} // namespace athena

#endif // ATHENA_MEM_CACHE_HH
