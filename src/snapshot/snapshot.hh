/**
 * @file
 * Versioned, mmap-loadable simulator snapshot format ("ASNP") and
 * the one-walk component contract built on it.
 *
 * Layout (all little-endian fixed-width, in the spirit of the ATRC
 * binary trace format):
 *
 *   offset 0   magic "ASNP" (4 bytes)
 *          4   u16 version (kSnapshotVersion)
 *          6   u16 tag field width (kSnapshotTagBytes)
 *          8   u32 section count
 *         12   u32 reserved (0)
 *         16   section table: count x { char tag[24]; u64 offset;
 *              u64 length; u64 checksum }
 *              payload sections (offsets are absolute)
 *
 * SnapshotWriter accumulates named sections; SnapshotReader reads
 * the file through one MappedFile (common/bytes.hh), verifies a
 * per-section XXH64 checksum (see snapshotChecksum) when a section
 * is opened, and bounds-checks every read against the section
 * extent. Bulk arrays (u64Array, block) take one bounds check per
 * array, not per element, and encode exactly the bytes of the
 * per-element calls. All failure modes — missing file, bad magic,
 * wrong version, truncated table or payload, corrupted bytes,
 * geometry mismatches, out-of-range restored values — raise
 * SnapshotError carrying the offending section's tag, never UB.
 *
 * The component contract: each stateful component implements one
 *   void serialize(SnapshotIo &io);
 * that lists its fields once, in layout order, each by reference.
 * SnapshotIo wraps the writer on save (each call writes the field)
 * and the reader on restore (each call reads into it), so save and
 * restore cannot drift apart. Geometry goes first (expectU32 /
 * expectU64), and each guard sits on the field it guards: bounded
 * and inRange write the value on save and range-check it on
 * restore; check() tests fields already read, on restore only.
 * Work that only a restore needs (rebuilding derived state,
 * dropping memos) stays behind io.loading(). Polymorphic
 * hierarchies (Prefetcher, OffChipPredictor, CoordinationPolicy,
 * WorkloadGenerator) expose serialize as one virtual with a no-op
 * default for stateless implementations; small value types
 * (SatCounter, SignedSatCounter, Rng) carry a template
 * serialize(Io &) so their headers need not include this one.
 */

#ifndef ATHENA_SNAPSHOT_SNAPSHOT_HH
#define ATHENA_SNAPSHOT_SNAPSHOT_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hh"

namespace athena
{

/** Format version: bump on any incompatible layout change.
 *  v2: sharded shared-memory plane — per-shard `llc/b<i>` /
 *  `dram/ch<j>` sections and shard geometry in `meta`.
 *  v3: section checksums are XXH64 (were byte-serial FNV-1a);
 *  payload bytes are unchanged.
 *  v4: the Athena agent section drops its buffered SARSA-triple
 *  list, and Pythia sections drop the unpacked delta history (the
 *  packed history key alone carries it).
 *  v5: `dram/ch<j>` sections drop the per-window counter block
 *  (the lifetime counters remain). */
constexpr std::uint16_t kSnapshotVersion = 5;
/** Width of the section tag field (NUL-padded). */
constexpr std::size_t kSnapshotTagBytes = 24;
/** Snapshot file magic. */
constexpr char kSnapshotMagic[4] = {'A', 'S', 'N', 'P'};

/**
 * Typed snapshot failure: every load/validation error names the
 * section it occurred in (empty for file-level failures such as a
 * bad magic or a truncated header).
 */
class SnapshotError : public std::runtime_error
{
  public:
    SnapshotError(std::string section_tag, const std::string &message)
        : std::runtime_error(
              section_tag.empty()
                  ? message
                  : "section '" + section_tag + "': " + message),
          tag(std::move(section_tag))
    {}

    /** Tag of the offending section ("" = file-level error). */
    const std::string &section() const { return tag; }

  private:
    std::string tag;
};

/**
 * Accumulates named sections of little-endian fixed-width fields
 * and serializes them with the header + section table + checksums.
 */
class SnapshotWriter
{
  public:
    /** Open a new section; sections must not nest. */
    void beginSection(const std::string &tag);
    /** Close the current section (computes its checksum). */
    void endSection();
    /** True between beginSection and endSection. */
    bool sectionOpen() const { return inSection; }

    void u8(std::uint8_t v) { payload.push_back(v); }
    void u16(std::uint16_t v) { storeLe(block(2), v); }
    void u32(std::uint32_t v) { storeLe(block(4), v); }
    void u64(std::uint64_t v) { storeLe64(block(8), v); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    void bytes(const void *p, std::size_t n);
    /** @p n u64 values, the same bytes as @p n u64() calls. */
    void u64Array(const std::uint64_t *p, std::size_t n);

    /**
     * Append @p n bytes and return them for the caller to fill, so
     * a fixed-layout record block encodes in place (see storeLe64);
     * the mirror of SnapshotReader::block. Valid until the next
     * write.
     */
    std::uint8_t *
    block(std::size_t n)
    {
        const std::size_t at = payload.size();
        payload.resize(at + n);
        return payload.data() + at;
    }

    /** Serialize header + table + payload into one buffer. */
    std::vector<std::uint8_t> serialize() const;

    /** Serialize to a file; throws SnapshotError on I/O failure. */
    void writeFile(const std::string &path) const;

  private:
    struct Section
    {
        std::string tag;
        std::size_t start = 0; ///< Payload-relative offset.
        std::size_t length = 0;
        std::uint64_t checksum = 0;
    };

    std::vector<std::uint8_t> payload;
    std::vector<Section> sections;
    bool inSection = false;
};

/**
 * Loads a snapshot file (a MappedFile: mapped, or read whole where
 * mmap refuses) and serves bounds-checked primitive reads from
 * named sections. The mapping is released with the reader.
 */
class SnapshotReader
{
  public:
    /** Open and validate header + table; throws SnapshotError. */
    explicit SnapshotReader(const std::string &path);
    /** In-memory snapshot (tests, benches). */
    explicit SnapshotReader(std::vector<std::uint8_t> buffer);

    SnapshotReader(const SnapshotReader &) = delete;
    SnapshotReader &operator=(const SnapshotReader &) = delete;

    /**
     * Open section @p tag for reading (verifies its checksum;
     * throws SnapshotError when missing, truncated, or corrupt).
     * Subsequent reads consume the section front to back.
     */
    void openSection(const std::string &tag);

    std::uint8_t u8() { return *block(1); }
    std::uint16_t u16() { return loadLe<std::uint16_t>(block(2)); }
    std::uint32_t u32() { return loadLe<std::uint32_t>(block(4)); }
    std::uint64_t u64() { return loadLe64(block(8)); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    double f64() { return std::bit_cast<double>(u64()); }
    bool boolean() { return u8() != 0; }
    void bytes(void *p, std::size_t n) { std::memcpy(p, block(n), n); }
    /** Read what SnapshotWriter::u64Array wrote: one bounds check
     *  for the whole array, then a straight decode loop. */
    void u64Array(std::uint64_t *p, std::size_t n);

    /**
     * Consume the next @p n bytes after one bounds check and return
     * a pointer to them (valid while the reader lives), so a
     * fixed-layout record block decodes in place (see loadLe64).
     */
    const std::uint8_t *
    block(std::size_t n)
    {
        if (n > remaining())
            underflow(n);
        const std::uint8_t *p = file.data() + cursor;
        cursor += n;
        return p;
    }

    /** Bytes left unread in the open section. */
    std::size_t remaining() const { return secEnd - cursor; }

    /** Tag of the currently open section (diagnostics). */
    const std::string &currentSection() const { return curTag; }

  private:
    struct Entry
    {
        std::string tag;
        std::size_t offset = 0;
        std::size_t length = 0;
        std::uint64_t checksum = 0;
        bool verified = false;
    };

    void parse();
    /** Throw a truncation error for the open section. */
    [[noreturn]] void underflow(std::size_t need);

    MappedFile file;
    std::vector<Entry> entries;
    std::string curTag;
    std::size_t cursor = 0;
    std::size_t secEnd = 0;
};

/**
 * One walk over a component's fields, both directions: wraps a
 * SnapshotWriter on save and a SnapshotReader on restore. Every
 * field call takes the field by reference — save writes it, restore
 * reads into it — so a serialize() body is the section layout,
 * spelled once. The per-field calls are inline: a resume runs
 * hundreds of thousands of them.
 */
class SnapshotIo
{
  public:
    explicit SnapshotIo(SnapshotWriter &writer) : w(&writer) {}
    explicit SnapshotIo(SnapshotReader &reader) : r(&reader) {}

    /** True on restore, false on save. */
    bool loading() const { return r != nullptr; }

    /**
     * Start section @p tag: save closes the open section (if any)
     * and begins this one; restore opens it (see openSection).
     */
    void section(const std::string &tag);
    /** Save: close the open section. Restore: nothing to do. */
    void endSection();

    void u8(std::uint8_t &v) { if (r) v = r->u8(); else w->u8(v); }
    void u16(std::uint16_t &v) { if (r) v = r->u16(); else w->u16(v); }
    void u32(std::uint32_t &v) { if (r) v = r->u32(); else w->u32(v); }
    void u64(std::uint64_t &v) { if (r) v = r->u64(); else w->u64(v); }
    void i32(std::int32_t &v) { if (r) v = r->i32(); else w->i32(v); }
    void i64(std::int64_t &v) { if (r) v = r->i64(); else w->i64(v); }
    void f64(double &v) { if (r) v = r->f64(); else w->f64(v); }
    void boolean(bool &v) { if (r) v = r->boolean(); else w->boolean(v); }

    void
    bytes(void *p, std::size_t n)
    {
        if (r)
            r->bytes(p, n);
        else
            w->bytes(p, n);
    }

    void
    u64Array(std::uint64_t *p, std::size_t n)
    {
        if (r)
            r->u64Array(p, n);
        else
            w->u64Array(p, n);
    }

    /** Raw record block of @p n bytes to encode in place (save). */
    std::uint8_t *saveBlock(std::size_t n) { return w->block(n); }
    /** Raw record block of @p n bytes to decode (restore). */
    const std::uint8_t *loadBlock(std::size_t n) { return r->block(n); }

    /**
     * Geometry guards: save writes @p want; restore reads a value
     * and requires it to equal @p want, throwing SnapshotError
     * naming the section and @p what on mismatch.
     */
    void
    expectU32(std::uint32_t want, const char *what)
    {
        std::uint32_t got = want;
        u32(got);
        if (r && got != want)
            mismatch(got, want, what);
    }

    void
    expectU64(std::uint64_t want, const char *what)
    {
        std::uint64_t got = want;
        u64(got);
        if (r && got != want)
            mismatch(got, want, what);
    }

    /**
     * Range guards for an index, cursor or count: save writes @p v;
     * restore reads it and throws SnapshotError naming the section
     * and @p what unless it is below @p limit.
     */
    void
    bounded(std::uint16_t &v, std::uint64_t limit, const char *what)
    {
        u16(v);
        if (r && v >= limit)
            outOfRange(v, limit, what);
    }

    void
    bounded(std::uint32_t &v, std::uint64_t limit, const char *what)
    {
        u32(v);
        if (r && v >= limit)
            outOfRange(v, limit, what);
    }

    /**
     * Range guards with a lower bound too (a signed weight, a
     * level): as bounded(), but restore requires @p v in
     * [@p lo, @p hi].
     */
    void
    inRange(std::int32_t &v, std::int64_t lo, std::int64_t hi,
            const char *what)
    {
        i32(v);
        if (r && (v < lo || v > hi))
            outOfRange(v, lo, hi, what);
    }

    void
    inRange(std::uint32_t &v, std::int64_t lo, std::int64_t hi,
            const char *what)
    {
        u32(v);
        if (r && (v < lo || v > hi))
            outOfRange(v, lo, hi, what);
    }

    /**
     * Restore-only check over fields already read: throws
     * SnapshotError naming the section, with message @p what, when
     * @p ok is false. A save never fails it (the live state it
     * writes is valid by construction).
     */
    void
    check(bool ok, const char *what) const
    {
        if (r && !ok)
            fail(what);
    }

  private:
    // Cold restore-side failures, each naming the open section.
    [[noreturn]] void mismatch(std::uint64_t got, std::uint64_t want,
                               const char *what) const;
    [[noreturn]] void outOfRange(std::uint64_t v, std::uint64_t limit,
                                 const char *what) const;
    [[noreturn]] void outOfRange(std::int64_t v, std::int64_t lo,
                                 std::int64_t hi, const char *what) const;
    [[noreturn]] void fail(const char *what) const;

    SnapshotWriter *w = nullptr;
    SnapshotReader *r = nullptr;
};

/**
 * Section integrity checksum: XXH64 with seed 0 (the 64-bit xxHash
 * algorithm, implemented here). Four independent multiply-rotate
 * lanes consume 32-byte stripes, so the hash runs near memory
 * bandwidth instead of one serial multiply per byte; the ragged
 * tail folds 8, 4, then 1 byte at a time. It catches accidental
 * corruption, not crafted payloads — those are the job of the
 * restore-side range guards (SnapshotIo::bounded and friends).
 */
std::uint64_t snapshotChecksum(const std::uint8_t *p, std::size_t n);

} // namespace athena

#endif // ATHENA_SNAPSHOT_SNAPSHOT_HH
