/**
 * @file
 * Trace file reader/writer and replay workload implementation.
 */

#include "trace/trace_file.hh"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "snapshot/snapshot.hh"

#if defined(__unix__) || defined(__APPLE__)
#define ATHENA_TRACE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

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
putLe64(unsigned char *out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint64_t
getLe64(const unsigned char *in)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    return v;
}

void
encodeRecord(const TraceRecord &rec, unsigned char *out)
{
    putLe64(out, rec.pc);
    putLe64(out + 8, rec.addr);
    unsigned flags = static_cast<unsigned>(rec.kind) & kKindMask;
    if (rec.taken)
        flags |= kFlagTaken;
    if (rec.dependsOnPrevLoad)
        flags |= kFlagDepends;
    if (rec.criticalConsumer)
        flags |= kFlagCritical;
    out[16] = static_cast<unsigned char>(flags);
}

TraceRecord
decodeRecord(const unsigned char *in)
{
    TraceRecord rec;
    rec.pc = getLe64(in);
    rec.addr = getLe64(in + 8);
    unsigned flags = in[16];
    rec.kind = static_cast<InstrKind>(flags & kKindMask);
    rec.taken = (flags & kFlagTaken) != 0;
    rec.dependsOnPrevLoad = (flags & kFlagDepends) != 0;
    rec.criticalConsumer = (flags & kFlagCritical) != 0;
    return rec;
}

[[noreturn]] void
parseError(std::size_t line_no, const std::string &line,
           const std::string &what)
{
    std::ostringstream msg;
    msg << "trace parse error at line " << line_no << ": " << what
        << " (\"" << line << "\")";
    throw std::runtime_error(msg.str());
}

std::uint64_t
parseHex(const std::string &tok, std::size_t line_no,
         const std::string &line, const char *field)
{
    // stoull would accept a sign prefix and wrap negatives into
    // huge addresses; only bare hex digits (with optional 0x) are
    // valid here.
    if (tok.empty() || !std::isxdigit(
                           static_cast<unsigned char>(tok[0]))) {
        parseError(line_no, line,
                   std::string("bad ") + field + " '" + tok + "'");
    }
    std::size_t used = 0;
    std::uint64_t v = 0;
    try {
        v = std::stoull(tok, &used, 16);
    } catch (const std::exception &) {
        parseError(line_no, line,
                   std::string("bad ") + field + " '" + tok + "'");
    }
    if (used != tok.size())
        parseError(line_no, line,
                   std::string("trailing junk in ") + field + " '" +
                       tok + "'");
    return v;
}

std::vector<TraceRecord>
readTraceText(std::istream &is)
{
    std::vector<TraceRecord> recs;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        // '#' comments run to end of line, whole-line or inline
        // ('#' never occurs inside a valid token).
        std::istringstream ls(line.substr(0, line.find('#')));
        std::string kind_tok;
        if (!(ls >> kind_tok))
            continue;
        if (kind_tok.size() != 1)
            parseError(line_no, line,
                       "bad kind '" + kind_tok + "'");

        TraceRecord rec;
        std::string pc_tok;
        if (!(ls >> pc_tok))
            parseError(line_no, line, "missing pc");
        rec.pc = parseHex(pc_tok, line_no, line, "pc");

        std::string tok;
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
            if (!(ls >> tok))
                parseError(line_no, line, "missing address");
            rec.addr = parseHex(tok, line_no, line, "address");
            if (rec.kind == InstrKind::kLoad && (ls >> tok)) {
                for (char c : tok) {
                    if (c == 'd')
                        rec.dependsOnPrevLoad = true;
                    else if (c == 'c')
                        rec.criticalConsumer = true;
                    else
                        parseError(line_no, line,
                                   std::string("bad load flag '") +
                                       c + "'");
                }
            }
            break;
          case 'B':
          case 'b':
            rec.kind = InstrKind::kBranch;
            if (!(ls >> tok) || (tok != "T" && tok != "N"))
                parseError(line_no, line,
                           "branch outcome must be T or N");
            rec.taken = tok == "T";
            break;
          default:
            parseError(line_no, line,
                       "bad kind '" + kind_tok + "'");
        }
        if (ls >> tok)
            parseError(line_no, line,
                       "trailing junk '" + tok + "'");
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
    unsigned char header[kTraceHeaderBytes] = {};
    std::memcpy(header, kMagic, kTraceMagicBytes);
    header[4] = kTraceVersion;
    header[5] = static_cast<unsigned char>(kTraceRecordBytes);
    putLe64(header + 8, n);
    os.write(reinterpret_cast<const char *>(header),
             kTraceHeaderBytes);
    unsigned char buf[kTraceRecordBytes];
    for (std::size_t i = 0; i < n; ++i) {
        encodeRecord(recs[i], buf);
        os.write(reinterpret_cast<const char *>(buf),
                 kTraceRecordBytes);
    }
}

/** Validate a binary header; returns the record count. */
std::size_t
checkBinaryHeader(const unsigned char *data, std::size_t len,
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
    std::uint64_t n = getLe64(data + 8);
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
    std::istream::pos_type start = is.tellg();
    char magic[kTraceMagicBytes] = {};
    is.read(magic, kTraceMagicBytes);
    std::size_t got = static_cast<std::size_t>(is.gcount());
    if (got == kTraceMagicBytes &&
        std::memcmp(magic, kMagic, kTraceMagicBytes) == 0) {
        // Binary: slurp the rest and decode.
        std::vector<unsigned char> data(magic, magic + got);
        char buf[4096];
        while (is.read(buf, sizeof(buf)) || is.gcount() > 0) {
            data.insert(data.end(), buf, buf + is.gcount());
            if (!is)
                break;
        }
        std::size_t n =
            checkBinaryHeader(data.data(), data.size(), "stream");
        std::vector<TraceRecord> recs;
        recs.reserve(n);
        const unsigned char *p = data.data() + kTraceHeaderBytes;
        for (std::size_t i = 0; i < n; ++i, p += kTraceRecordBytes)
            recs.push_back(decodeRecord(p));
        return recs;
    }
    // Text: un-read the sniffed prefix (back to where the caller
    // positioned the stream, not offset 0) and line-parse.
    is.clear();
    is.seekg(start == std::istream::pos_type(-1)
                 ? std::istream::pos_type(0)
                 : start);
    if (!is) {
        // Non-seekable stream: reconstruct via a buffer.
        throw std::runtime_error(
            "text trace stream must be seekable");
    }
    return readTraceText(is);
}

std::vector<TraceRecord>
readTraceFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("cannot open trace: " + path);
    return readTrace(is);
}

TraceFile::TraceFile(const std::string &path) : source(path)
{
    // Sniff the magic to pick the decode strategy.
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("cannot open trace: " + path);
    char magic[kTraceMagicBytes] = {};
    is.read(magic, kTraceMagicBytes);
    bool binary =
        static_cast<std::size_t>(is.gcount()) == kTraceMagicBytes &&
        std::memcmp(magic, kMagic, kTraceMagicBytes) == 0;

    if (!binary) {
        fmt = TraceFormat::kText;
        is.clear();
        is.seekg(0);
        records = readTraceText(is);
        count = records.size();
        return;
    }

    fmt = TraceFormat::kBinary;
    is.close();

#ifdef ATHENA_TRACE_HAVE_MMAP
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
        struct stat st;
        if (::fstat(fd, &st) == 0 && st.st_size > 0) {
            void *base =
                ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                       PROT_READ, MAP_PRIVATE, fd, 0);
            if (base != MAP_FAILED) {
                mapBase = base;
                mapLen = static_cast<std::size_t>(st.st_size);
            }
        }
        ::close(fd);
    }
#endif
    if (mapBase == nullptr) {
        // Portable fallback: buffered read of the whole file.
        std::ifstream bin(path, std::ios::binary);
        owned.assign(std::istreambuf_iterator<char>(bin),
                     std::istreambuf_iterator<char>());
    }
    const unsigned char *data =
        mapBase != nullptr
            ? static_cast<const unsigned char *>(mapBase)
            : owned.data();
    std::size_t len = mapBase != nullptr ? mapLen : owned.size();
    try {
        count = checkBinaryHeader(data, len, path);
    } catch (...) {
#ifdef ATHENA_TRACE_HAVE_MMAP
        if (mapBase != nullptr)
            ::munmap(mapBase, mapLen);
        mapBase = nullptr;
#endif
        throw;
    }
    packed = data + kTraceHeaderBytes;
}

TraceFile::~TraceFile()
{
#ifdef ATHENA_TRACE_HAVE_MMAP
    if (mapBase != nullptr)
        ::munmap(mapBase, mapLen);
#endif
}

std::size_t
TraceFile::copy(std::size_t pos, TraceRecord *out, std::size_t n) const
{
    if (pos >= count)
        return 0;
    n = std::min(n, count - pos);
    if (packed != nullptr) {
        const unsigned char *p = packed + pos * kTraceRecordBytes;
        for (std::size_t i = 0; i < n; ++i, p += kTraceRecordBytes)
            out[i] = decodeRecord(p);
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
