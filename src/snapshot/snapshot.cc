/**
 * @file
 * Snapshot writer, reader and SnapshotIo implementation.
 */

#include "snapshot/snapshot.hh"

#include <bit>
#include <cstdio>
#include <cstring>

namespace athena
{

namespace
{

constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kTableEntryBytes =
    kSnapshotTagBytes + 8 + 8 + 8;

// XXH64 primes.
constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

/** One XXH64 lane step: fold an 8-byte word into @p acc. */
std::uint64_t
xxRound(std::uint64_t acc, std::uint64_t word)
{
    acc += word * kPrime2;
    return std::rotl(acc, 31) * kPrime1;
}

/** Fold a finished lane into the converged hash. */
std::uint64_t
xxMerge(std::uint64_t h, std::uint64_t lane)
{
    h ^= xxRound(0, lane);
    return h * kPrime1 + kPrime4;
}

/** @p n elements of @p width bytes, saturated (error messages). */
std::size_t
saturatingBytes(std::uint64_t n, std::size_t width)
{
    return n > SIZE_MAX / width ? SIZE_MAX
                                : static_cast<std::size_t>(n) * width;
}

/** The bytes of snapshot @p path; a failure is a SnapshotError. */
MappedFile
mapSnapshot(const std::string &path)
{
    try {
        return MappedFile(path);
    } catch (const std::runtime_error &e) {
        throw SnapshotError("", std::string("snapshot: ") + e.what());
    }
}

} // namespace

std::uint64_t
snapshotChecksum(const std::uint8_t *p, std::size_t n)
{
    const std::uint8_t *const end = p + n;
    std::uint64_t h;
    if (n >= 32) {
        // Four independent lanes keep four multiplies in flight.
        std::uint64_t v1 = kPrime1 + kPrime2;
        std::uint64_t v2 = kPrime2;
        std::uint64_t v3 = 0;
        std::uint64_t v4 = 0 - kPrime1;
        const std::uint8_t *const last_stripe = end - 32;
        do {
            v1 = xxRound(v1, loadLe64(p));
            v2 = xxRound(v2, loadLe64(p + 8));
            v3 = xxRound(v3, loadLe64(p + 16));
            v4 = xxRound(v4, loadLe64(p + 24));
            p += 32;
        } while (p <= last_stripe);
        h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
            std::rotl(v4, 18);
        h = xxMerge(h, v1);
        h = xxMerge(h, v2);
        h = xxMerge(h, v3);
        h = xxMerge(h, v4);
    } else {
        h = kPrime5;
    }
    h += n;
    // Ragged tail (< 32 bytes).
    for (; end - p >= 8; p += 8) {
        h ^= xxRound(0, loadLe64(p));
        h = std::rotl(h, 27) * kPrime1 + kPrime4;
    }
    if (end - p >= 4) {
        h ^= std::uint64_t{loadLe<std::uint32_t>(p)} * kPrime1;
        h = std::rotl(h, 23) * kPrime2 + kPrime3;
        p += 4;
    }
    for (; p < end; ++p) {
        h ^= std::uint64_t{*p} * kPrime5;
        h = std::rotl(h, 11) * kPrime1;
    }
    // Avalanche.
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
}

// ---------------------------------------------------------------
// SnapshotWriter
// ---------------------------------------------------------------

void
SnapshotWriter::beginSection(const std::string &tag)
{
    if (inSection) {
        throw SnapshotError(tag, "beginSection inside open section '" +
                                     sections.back().tag + "'");
    }
    if (tag.empty() || tag.size() >= kSnapshotTagBytes)
        throw SnapshotError(tag, "section tag empty or too long");
    Section s;
    s.tag = tag;
    s.start = payload.size();
    sections.push_back(std::move(s));
    inSection = true;
}

void
SnapshotWriter::endSection()
{
    if (!inSection)
        throw SnapshotError("", "endSection with no open section");
    Section &s = sections.back();
    s.length = payload.size() - s.start;
    s.checksum = snapshotChecksum(payload.data() + s.start, s.length);
    inSection = false;
}

void
SnapshotWriter::bytes(const void *p, std::size_t n)
{
    const auto *b = static_cast<const std::uint8_t *>(p);
    payload.insert(payload.end(), b, b + n);
}

void
SnapshotWriter::u64Array(const std::uint64_t *p, std::size_t n)
{
    std::uint8_t *out = block(n * 8);
    for (std::size_t i = 0; i < n; ++i)
        storeLe64(out + 8 * i, p[i]);
}

std::vector<std::uint8_t>
SnapshotWriter::serialize() const
{
    if (inSection) {
        throw SnapshotError(sections.back().tag,
                            "serialize with section still open");
    }
    const std::size_t payload_base =
        kHeaderBytes + sections.size() * kTableEntryBytes;
    // Pre-size the buffer and fill by offset (rather than growing
    // through insert) so the exact layout is explicit and GCC's LTO
    // alias analysis doesn't misjudge the allocation size.
    std::vector<std::uint8_t> out(payload_base + payload.size());
    std::uint8_t *p = out.data();
    std::memcpy(p, kSnapshotMagic, 4);
    storeLe<std::uint16_t>(p + 4, kSnapshotVersion);
    storeLe<std::uint16_t>(p + 6, kSnapshotTagBytes);
    storeLe<std::uint32_t>(p + 8, sections.size());
    storeLe<std::uint32_t>(p + 12, 0);
    p += kHeaderBytes;
    for (const Section &s : sections) {
        std::memset(p, 0, kSnapshotTagBytes);
        std::memcpy(p, s.tag.data(), s.tag.size());
        storeLe64(p + kSnapshotTagBytes, payload_base + s.start);
        storeLe64(p + kSnapshotTagBytes + 8, s.length);
        storeLe64(p + kSnapshotTagBytes + 16, s.checksum);
        p += kTableEntryBytes;
    }
    if (!payload.empty())
        std::memcpy(p, payload.data(), payload.size());
    return out;
}

void
SnapshotWriter::writeFile(const std::string &path) const
{
    std::vector<std::uint8_t> buf = serialize();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        throw SnapshotError("", "cannot open '" + path +
                                    "' for writing");
    std::size_t wrote = std::fwrite(buf.data(), 1, buf.size(), f);
    bool flush_ok = std::fclose(f) == 0;
    if (wrote != buf.size() || !flush_ok) {
        std::remove(path.c_str());
        throw SnapshotError("", "short write to '" + path + "'");
    }
}

// ---------------------------------------------------------------
// SnapshotReader
// ---------------------------------------------------------------

SnapshotReader::SnapshotReader(const std::string &path)
    : file(mapSnapshot(path))
{
    parse();
}

SnapshotReader::SnapshotReader(std::vector<std::uint8_t> buffer)
    : file(std::move(buffer))
{
    parse();
}

void
SnapshotReader::parse()
{
    const std::uint8_t *const data = file.data();
    const std::size_t size = file.size();
    if (size < kHeaderBytes)
        throw SnapshotError("", "truncated snapshot header");
    if (std::memcmp(data, kSnapshotMagic, 4) != 0)
        throw SnapshotError("", "bad snapshot magic");
    std::uint16_t version = loadLe<std::uint16_t>(data + 4);
    if (version != kSnapshotVersion) {
        throw SnapshotError(
            "", "unsupported snapshot version " +
                    std::to_string(version) + " (expected " +
                    std::to_string(kSnapshotVersion) + ")");
    }
    std::uint16_t tag_bytes = loadLe<std::uint16_t>(data + 6);
    if (tag_bytes != kSnapshotTagBytes)
        throw SnapshotError("", "bad section tag width");
    std::uint32_t count = loadLe<std::uint32_t>(data + 8);
    std::size_t table_end =
        kHeaderBytes + std::size_t{count} * kTableEntryBytes;
    if (table_end > size)
        throw SnapshotError("", "truncated section table");
    entries.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint8_t *e =
            data + kHeaderBytes + std::size_t{i} * kTableEntryBytes;
        Entry entry;
        std::size_t tag_len = 0;
        while (tag_len < kSnapshotTagBytes && e[tag_len] != 0)
            ++tag_len;
        entry.tag.assign(reinterpret_cast<const char *>(e), tag_len);
        entry.offset = loadLe64(e + kSnapshotTagBytes);
        entry.length = loadLe64(e + kSnapshotTagBytes + 8);
        entry.checksum = loadLe64(e + kSnapshotTagBytes + 16);
        if (entry.offset < table_end ||
            entry.offset + entry.length > size ||
            entry.offset + entry.length < entry.offset) {
            throw SnapshotError(entry.tag,
                                "section extends past end of file "
                                "(truncated snapshot)");
        }
        entries.push_back(std::move(entry));
    }
}

void
SnapshotReader::openSection(const std::string &tag)
{
    Entry *e = nullptr;
    for (Entry &entry : entries) {
        if (entry.tag == tag) {
            e = &entry;
            break;
        }
    }
    if (!e)
        throw SnapshotError(tag, "missing section");
    if (!e->verified) {
        std::uint64_t sum =
            snapshotChecksum(file.data() + e->offset, e->length);
        if (sum != e->checksum)
            throw SnapshotError(tag, "checksum mismatch (corrupted "
                                     "snapshot)");
        e->verified = true;
    }
    curTag = tag;
    cursor = e->offset;
    secEnd = e->offset + e->length;
}

void
SnapshotReader::underflow(std::size_t need)
{
    throw SnapshotError(
        curTag.empty() ? std::string("<none>") : curTag,
        "read of " + std::to_string(need) + " bytes past section "
        "end (truncated or mismatched layout)");
}

void
SnapshotReader::u64Array(std::uint64_t *p, std::size_t n)
{
    if (n > remaining() / 8)
        underflow(saturatingBytes(n, 8));
    const std::uint8_t *in = file.data() + cursor;
    for (std::size_t i = 0; i < n; ++i)
        p[i] = loadLe64(in + 8 * i);
    cursor += n * 8;
}

// ---------------------------------------------------------------
// SnapshotIo
// ---------------------------------------------------------------

void
SnapshotIo::section(const std::string &tag)
{
    if (r) {
        r->openSection(tag);
        return;
    }
    endSection();
    w->beginSection(tag);
}

void
SnapshotIo::endSection()
{
    if (w && w->sectionOpen())
        w->endSection();
}

void
SnapshotIo::mismatch(std::uint64_t got, std::uint64_t want,
                     const char *what) const
{
    throw SnapshotError(r->currentSection(),
                        std::string(what) + " mismatch: snapshot "
                        "has " + std::to_string(got) +
                        ", expected " + std::to_string(want) +
                        " (wrong geometry)");
}

void
SnapshotIo::outOfRange(std::uint64_t v, std::uint64_t limit,
                       const char *what) const
{
    throw SnapshotError(r->currentSection(),
                        std::string(what) + " " + std::to_string(v) +
                            " out of range (must be < " +
                            std::to_string(limit) +
                            "; corrupt snapshot)");
}

void
SnapshotIo::outOfRange(std::int64_t v, std::int64_t lo, std::int64_t hi,
                       const char *what) const
{
    throw SnapshotError(r->currentSection(),
                        std::string(what) + " " + std::to_string(v) +
                            " out of range (must be in [" +
                            std::to_string(lo) + ", " +
                            std::to_string(hi) +
                            "]; corrupt snapshot)");
}

void
SnapshotIo::fail(const char *what) const
{
    throw SnapshotError(r->currentSection(), what);
}

} // namespace athena
