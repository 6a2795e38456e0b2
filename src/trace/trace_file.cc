/**
 * @file
 * Trace file reader/writer and replay workload implementation.
 */

#include "trace/trace_file.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <map>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "common/bytes.hh"
#include "snapshot/snapshot.hh"

namespace athena
{

namespace
{

constexpr char kMagic[kTraceMagicBytes + 1] = "ATRC";

/** Packed flags byte: kind in bits 0-1, booleans above. */
constexpr unsigned kFlagTaken = 1u << 2;
constexpr unsigned kFlagDepends = 1u << 3;
constexpr unsigned kFlagCritical = 1u << 4;
constexpr unsigned kKindMask = 0x3;

void
encodeRecord(const TraceRecord &rec, std::uint8_t *out)
{
    storeLe64(out, rec.pc);
    storeLe64(out + 8, rec.addr);
    unsigned flags = static_cast<unsigned>(rec.kind) & kKindMask;
    if (rec.taken)
        flags |= kFlagTaken;
    if (rec.dependsOnPrevLoad)
        flags |= kFlagDepends;
    if (rec.criticalConsumer)
        flags |= kFlagCritical;
    out[16] = static_cast<std::uint8_t>(flags);
}

TraceRecord
decodeRecord(const std::uint8_t *in)
{
    TraceRecord rec;
    rec.pc = loadLe64(in);
    rec.addr = loadLe64(in + 8);
    unsigned flags = in[16];
    rec.kind = static_cast<InstrKind>(flags & kKindMask);
    rec.taken = (flags & kFlagTaken) != 0;
    rec.dependsOnPrevLoad = (flags & kFlagDepends) != 0;
    rec.criticalConsumer = (flags & kFlagCritical) != 0;
    return rec;
}

/** Decode @p n packed records starting at @p in. */
void
decodeRecords(const std::uint8_t *in, TraceRecord *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i, in += kTraceRecordBytes)
        out[i] = decodeRecord(in);
}

[[noreturn]] void
parseError(std::size_t line_no, std::string_view line,
           const std::string &what)
{
    throw std::runtime_error("trace parse error at line " +
                             std::to_string(line_no) + ": " + what +
                             " (\"" + std::string(line) + "\")");
}

/** The next whitespace-delimited token of @p line at or after
 *  @p at; empty at end of line. */
std::string_view
nextToken(std::string_view line, std::size_t &at)
{
    const auto blank = [](char c) {
        return std::isspace(static_cast<unsigned char>(c)) != 0;
    };
    while (at < line.size() && blank(line[at]))
        ++at;
    const std::size_t start = at;
    while (at < line.size() && !blank(line[at]))
        ++at;
    return line.substr(start, at - start);
}

std::uint64_t
parseHex(std::string_view tok, std::size_t line_no,
         std::string_view line, const char *field)
{
    // Bare hex digits with an optional 0x: no sign, which would
    // wrap a negative into a huge address.
    std::string_view digits = tok;
    if (digits.size() > 2 && digits[0] == '0' &&
        (digits[1] == 'x' || digits[1] == 'X'))
        digits.remove_prefix(2);
    std::uint64_t v = 0;
    const char *end = digits.data() + digits.size();
    const auto [stop, ec] = std::from_chars(digits.data(), end, v, 16);
    if (ec != std::errc()) {
        parseError(line_no, line,
                   std::string("bad ") + field + " '" +
                       std::string(tok) + "'");
    }
    if (stop != end) {
        parseError(line_no, line,
                   std::string("trailing junk in ") + field + " '" +
                       std::string(tok) + "'");
    }
    return v;
}

std::vector<TraceRecord>
parseText(std::string_view text)
{
    std::vector<TraceRecord> recs;
    std::size_t line_no = 0;
    for (std::size_t pos = 0; pos < text.size();) {
        const std::size_t eol =
            std::min(text.find('\n', pos), text.size());
        const std::string_view line = text.substr(pos, eol - pos);
        pos = eol + 1;
        ++line_no;
        // '#' comments run to end of line, whole-line or inline
        // ('#' never occurs inside a valid token).
        const std::string_view body = line.substr(0, line.find('#'));
        std::size_t at = 0;
        const std::string_view kind_tok = nextToken(body, at);
        if (kind_tok.empty())
            continue;
        if (kind_tok.size() != 1)
            parseError(line_no, line,
                       "bad kind '" + std::string(kind_tok) + "'");

        TraceRecord rec;
        const std::string_view pc_tok = nextToken(body, at);
        if (pc_tok.empty())
            parseError(line_no, line, "missing pc");
        rec.pc = parseHex(pc_tok, line_no, line, "pc");

        std::string_view tok;
        switch (kind_tok[0]) {
          case 'A':
          case 'a':
            rec.kind = InstrKind::kAlu;
            break;
          case 'L':
          case 'l':
          case 'S':
          case 's':
            rec.kind = (kind_tok[0] == 'L' || kind_tok[0] == 'l')
                           ? InstrKind::kLoad
                           : InstrKind::kStore;
            tok = nextToken(body, at);
            if (tok.empty())
                parseError(line_no, line, "missing address");
            rec.addr = parseHex(tok, line_no, line, "address");
            if (rec.kind != InstrKind::kLoad)
                break;
            for (char c : nextToken(body, at)) {
                if (c == 'd')
                    rec.dependsOnPrevLoad = true;
                else if (c == 'c')
                    rec.criticalConsumer = true;
                else
                    parseError(line_no, line,
                               std::string("bad load flag '") + c +
                                   "'");
            }
            break;
          case 'B':
          case 'b':
            rec.kind = InstrKind::kBranch;
            tok = nextToken(body, at);
            if (tok != "T" && tok != "N")
                parseError(line_no, line,
                           "branch outcome must be T or N");
            rec.taken = tok == "T";
            break;
          default:
            parseError(line_no, line,
                       "bad kind '" + std::string(kind_tok) + "'");
        }
        tok = nextToken(body, at);
        if (!tok.empty())
            parseError(line_no, line,
                       "trailing junk '" + std::string(tok) + "'");
        recs.push_back(rec);
    }
    return recs;
}

void
writeTraceText(std::ostream &os, const TraceRecord *recs,
               std::size_t n)
{
    os << "# athena trace v1\n";
    os << std::hex;
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &rec = recs[i];
        switch (rec.kind) {
          case InstrKind::kAlu:
            os << "A 0x" << rec.pc << "\n";
            break;
          case InstrKind::kLoad:
            os << "L 0x" << rec.pc << " 0x" << rec.addr;
            if (rec.dependsOnPrevLoad || rec.criticalConsumer) {
                os << ' ';
                if (rec.dependsOnPrevLoad)
                    os << 'd';
                if (rec.criticalConsumer)
                    os << 'c';
            }
            os << "\n";
            break;
          case InstrKind::kStore:
            os << "S 0x" << rec.pc << " 0x" << rec.addr << "\n";
            break;
          case InstrKind::kBranch:
            os << "B 0x" << rec.pc << (rec.taken ? " T" : " N")
               << "\n";
            break;
        }
    }
    os << std::dec;
}

void
writeTraceBinary(std::ostream &os, const TraceRecord *recs,
                 std::size_t n)
{
    std::uint8_t header[kTraceHeaderBytes] = {};
    std::memcpy(header, kMagic, kTraceMagicBytes);
    header[4] = kTraceVersion;
    header[5] = static_cast<std::uint8_t>(kTraceRecordBytes);
    storeLe64(header + 8, n);
    os.write(reinterpret_cast<const char *>(header),
             kTraceHeaderBytes);
    std::uint8_t buf[kTraceRecordBytes];
    for (std::size_t i = 0; i < n; ++i) {
        encodeRecord(recs[i], buf);
        os.write(reinterpret_cast<const char *>(buf),
                 kTraceRecordBytes);
    }
}

/** True when @p data starts with the ATRC magic (binary), false
 *  for a text trace. */
bool
isBinary(const std::uint8_t *data, std::size_t len)
{
    return len >= kTraceMagicBytes &&
           std::memcmp(data, kMagic, kTraceMagicBytes) == 0;
}

/** Validate a binary header; returns the record count. */
std::size_t
checkBinaryHeader(const std::uint8_t *data, std::size_t len,
                  const std::string &what)
{
    if (len < kTraceHeaderBytes)
        throw std::runtime_error(what + ": truncated trace header");
    if (data[4] != kTraceVersion) {
        throw std::runtime_error(
            what + ": unsupported trace version " +
            std::to_string(data[4]));
    }
    if (data[5] != kTraceRecordBytes) {
        throw std::runtime_error(
            what + ": unexpected record size " +
            std::to_string(data[5]));
    }
    std::uint64_t n = loadLe64(data + 8);
    // Overflow-safe form of len < header + n * record: a huge
    // claimed count in a corrupt header must not wrap the product
    // and pass validation (copy() would then read far out of
    // bounds).
    if (n > (len - kTraceHeaderBytes) / kTraceRecordBytes)
        throw std::runtime_error(what +
                                 ": trace shorter than its header "
                                 "claims");
    return static_cast<std::size_t>(n);
}

/** Every record of a whole trace image, either format; @p what
 *  names the source in errors. */
std::vector<TraceRecord>
decodeTrace(const std::uint8_t *data, std::size_t len,
            const std::string &what)
{
    if (!isBinary(data, len))
        return parseText({reinterpret_cast<const char *>(data), len});
    std::vector<TraceRecord> recs(checkBinaryHeader(data, len, what));
    decodeRecords(data + kTraceHeaderBytes, recs.data(), recs.size());
    return recs;
}

} // namespace

void
writeTrace(std::ostream &os, const TraceRecord *recs, std::size_t n,
           TraceFormat format)
{
    if (format == TraceFormat::kBinary)
        writeTraceBinary(os, recs, n);
    else
        writeTraceText(os, recs, n);
}

void
writeTraceFile(const std::string &path, const TraceRecord *recs,
               std::size_t n, TraceFormat format)
{
    std::ofstream os(path, format == TraceFormat::kBinary
                               ? std::ios::binary | std::ios::out
                               : std::ios::out);
    if (!os)
        throw std::runtime_error("cannot open trace for writing: " +
                                 path);
    writeTrace(os, recs, n, format);
    os.flush();
    if (!os)
        throw std::runtime_error("error writing trace: " + path);
}

std::vector<TraceRecord>
readTrace(std::istream &is)
{
    const std::vector<std::uint8_t> image(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());
    return decodeTrace(image.data(), image.size(), "stream");
}

std::vector<TraceRecord>
readTraceFile(const std::string &path)
{
    const MappedFile file(path);
    return decodeTrace(file.data(), file.size(), path);
}

TraceFile::TraceFile(const std::string &path)
    : source(path), file(path)
{
    if (!isBinary(file.data(), file.size())) {
        records = parseText(
            {reinterpret_cast<const char *>(file.data()), file.size()});
        count = records.size();
        return;
    }
    fmt = TraceFormat::kBinary;
    count = checkBinaryHeader(file.data(), file.size(), path);
    packed = file.data() + kTraceHeaderBytes;
}

std::size_t
TraceFile::copy(std::size_t pos, TraceRecord *out, std::size_t n) const
{
    if (pos >= count)
        return 0;
    n = std::min(n, count - pos);
    if (packed != nullptr) {
        decodeRecords(packed + pos * kTraceRecordBytes, out, n);
    } else {
        std::copy_n(records.begin() +
                        static_cast<std::ptrdiff_t>(pos),
                    n, out);
    }
    return n;
}

TraceRecord
TraceFile::at(std::size_t pos) const
{
    TraceRecord rec;
    if (copy(pos, &rec, 1) != 1)
        throw std::out_of_range("trace record index out of range");
    return rec;
}

TraceReplayWorkload::TraceReplayWorkload(
    std::shared_ptr<const TraceFile> file_, std::uint64_t loops)
    : file(std::move(file_)), loopCount(loops)
{
    if (!file)
        throw std::invalid_argument("null trace file");
}

std::shared_ptr<const TraceFile>
openTraceShared(const std::string &path)
{
    static std::mutex mutex;
    static std::map<std::string, std::weak_ptr<const TraceFile>>
        cache;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(path);
    if (it != cache.end()) {
        if (auto shared = it->second.lock())
            return shared;
    }
    // Cold open: prune every expired entry (not just this path's),
    // so a sweep over many distinct traces never accumulates dead
    // nodes. Opens are rare; the O(entries) sweep is noise next to
    // reading the file.
    for (auto e = cache.begin(); e != cache.end();) {
        if (e->second.expired())
            e = cache.erase(e);
        else
            ++e;
    }
    auto shared = std::make_shared<const TraceFile>(path);
    cache[path] = shared;
    return shared;
}

TraceReplayWorkload::TraceReplayWorkload(const std::string &path,
                                         std::uint64_t loops)
    : TraceReplayWorkload(openTraceShared(path), loops)
{
}

void
TraceReplayWorkload::reset()
{
    pos = 0;
    passesDone = 0;
}

TraceRecord
TraceReplayWorkload::next()
{
    TraceRecord rec;
    if (nextBatch(&rec, 1) != 1) {
        throw std::runtime_error(
            "TraceReplayWorkload::next(): stream exhausted (" +
            file->path() + ")");
    }
    return rec;
}

std::size_t
TraceReplayWorkload::nextBatch(TraceRecord *out, std::size_t n)
{
    const std::size_t len = file->size();
    if (len == 0)
        return 0;
    std::size_t filled = 0;
    while (filled < n) {
        if (pos == len) {
            ++passesDone;
            if (loopCount != 0 && passesDone >= loopCount)
                break; // end-of-stream: short (or zero) return
            pos = 0;
        }
        std::size_t take =
            file->copy(pos, out + filled,
                       std::min(n - filled, len - pos));
        pos += take;
        filled += take;
    }
    return filled;
}

void
TraceReplayWorkload::serialize(SnapshotIo &io)
{
    io.expectU64(file->size(), "trace record count");
    io.expectU64(loopCount, "trace loop count");
    io.u64(pos);
    io.check(pos <= file->size(),
             "trace cursor past end of trace (corrupted snapshot)");
    io.u64(passesDone);
}

WorkloadSpec
traceWorkloadSpec(const std::string &name, const std::string &path,
                  std::uint64_t loops, Suite suite)
{
    WorkloadSpec spec;
    spec.name = name;
    spec.suite = suite;
    spec.tracePath = path;
    spec.traceLoops = loops;
    return spec;
}

} // namespace athena
