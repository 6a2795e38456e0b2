/**
 * @file
 * ChampSim-style trace files: a record-level reader/writer pair for
 * captured instruction streams, and the TraceReplayWorkload that
 * feeds them through the stepping pipeline.
 *
 * The paper's evaluation replays published traces (SPEC CPU
 * 2006/2017, PARSEC, Ligra, CVP) through ChampSim; this module is
 * the equivalent attach point for this simulator. Two on-disk
 * formats share the same TraceRecord in-memory representation.
 * Binary preserves every record verbatim; text spells only the
 * fields meaningful for each record's kind (a load's addr and
 * d/c flags, a branch's outcome), so it is lossless for canonical
 * records — which is everything the readers, the capture path, and
 * the synthetic generators produce — and canonicalizing for
 * hand-built records carrying kind-irrelevant fields:
 *
 *  - Text ("athena trace v1"): one record per line, '#' comments.
 *        A <pc>              plain ALU op
 *        L <pc> <addr> [d][c]  load; d = depends on previous load,
 *                              c = critical consumer
 *        S <pc> <addr>       store
 *        B <pc> T|N          branch taken / not taken
 *    Human-editable; the unit of exchange for tiny checked-in
 *    samples and converter scripts.
 *
 *  - Binary ("ATRC"): a 16-byte header (magic, version, record
 *    size, record count) followed by packed fixed-width
 *    little-endian records (pc u64, addr u64, flags u8 = 17 bytes).
 *    Fixed-size records and an up-front count make the format
 *    mmap-friendly: TraceFile maps the file read-only and decodes
 *    records into TraceRecord batches on demand, so a multi-GB
 *    trace costs address space, not RSS.
 *
 * TraceReplayWorkload implements the finite-stream side of the
 * WorkloadGenerator contract: nextBatch() returns short exactly at
 * end-of-stream (after the configured number of loops), and next()
 * past the end throws.
 */

#ifndef ATHENA_TRACE_TRACE_FILE_HH
#define ATHENA_TRACE_TRACE_FILE_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "trace/workload.hh"

namespace athena
{

/** On-disk trace encodings. */
enum class TraceFormat : std::uint8_t
{
    kText,
    kBinary,
};

/** Binary layout constants (little-endian on disk). */
constexpr std::size_t kTraceMagicBytes = 4;    ///< "ATRC"
constexpr std::size_t kTraceHeaderBytes = 16;
constexpr std::size_t kTraceRecordBytes = 17;  ///< pc + addr + flags.
constexpr std::uint8_t kTraceVersion = 1;

/** Serialize records to a stream in the given format. */
void writeTrace(std::ostream &os, const TraceRecord *recs,
                std::size_t n, TraceFormat format);

/** Serialize records to a file; throws std::runtime_error on I/O
 *  failure. */
void writeTraceFile(const std::string &path, const TraceRecord *recs,
                    std::size_t n, TraceFormat format);

inline void
writeTraceFile(const std::string &path,
               const std::vector<TraceRecord> &recs, TraceFormat format)
{
    writeTraceFile(path, recs.data(), recs.size(), format);
}

/**
 * Parse a trace stream from its current position to its end (the
 * stream need not be seekable). The format is sniffed from the
 * first bytes: "ATRC" magic = binary, anything else = text. Throws
 * std::runtime_error with a line/offset diagnostic on malformed
 * input. The same sniff, header check and decoders serve
 * readTraceFile and TraceFile, so all three accept and reject the
 * same bytes.
 */
std::vector<TraceRecord> readTrace(std::istream &is);

/** Parse an entire trace file into memory; throws
 *  std::runtime_error when the path cannot be read (a directory,
 *  say). */
std::vector<TraceRecord> readTraceFile(const std::string &path);

/**
 * An open trace, servable as TraceRecord batches.
 *
 * The file is opened once, as a MappedFile (mapped read-only, or
 * read whole where mmap refuses). Binary records are decoded from
 * the mapping per copy() call; a text trace is parsed once into a
 * record vector. Immutable after construction, so one TraceFile can
 * back many concurrent replay workloads (the fleet runner
 * constructs one Simulator per thread).
 */
class TraceFile
{
  public:
    /** Open and validate; throws std::runtime_error on malformed
     *  files. */
    explicit TraceFile(const std::string &path);

    TraceFile(const TraceFile &) = delete;
    TraceFile &operator=(const TraceFile &) = delete;

    /** Number of records in the trace. */
    std::size_t size() const { return count; }

    /** The on-disk encoding this file used. */
    TraceFormat format() const { return fmt; }

    /** Path the file was opened from. */
    const std::string &path() const { return source; }

    /**
     * Decode records [pos, pos + n) into @p out; @p n is clamped to
     * the records remaining. Returns the count copied.
     */
    std::size_t copy(std::size_t pos, TraceRecord *out,
                     std::size_t n) const;

    /** Decode one record. @p pos must be < size(). */
    TraceRecord at(std::size_t pos) const;

  private:
    std::string source;
    MappedFile file;
    TraceFormat fmt = TraceFormat::kText;
    std::size_t count = 0;

    /** Text path: decoded records. */
    std::vector<TraceRecord> records;

    /** Binary path: packed record bytes (past the header). */
    const std::uint8_t *packed = nullptr;
};

/**
 * Open @p path through the process-wide trace cache: repeated opens
 * of the same path share one parsed/mmapped TraceFile for as long
 * as any user holds it (entries are weak, so closing the last
 * replayer releases the file). Thread-safe — fleet runs construct
 * Simulators concurrently, each replaying the same trace.
 */
std::shared_ptr<const TraceFile>
openTraceShared(const std::string &path);

/**
 * Replays a TraceFile through the WorkloadGenerator contract.
 *
 * The trace is emitted `loops` times end to end (loops == 0 loops
 * forever, turning any capture into an infinite stream for the
 * fixed-instruction benches); after the final pass nextBatch()
 * returns short, then 0 — the exhausted-stream signal the stepping
 * pipeline terminates on.
 */
class TraceReplayWorkload : public WorkloadGenerator
{
  public:
    TraceReplayWorkload(std::shared_ptr<const TraceFile> file,
                        std::uint64_t loops = 1);
    /** Convenience: open @p path via openTraceShared(). */
    explicit TraceReplayWorkload(const std::string &path,
                                 std::uint64_t loops = 1);

    void reset() override;
    /** Throws std::runtime_error once the stream is exhausted. */
    TraceRecord next() override;
    std::size_t nextBatch(TraceRecord *out, std::size_t n) override;

    /** Snapshot walk: replay cursor + pass count, guarded by the
     *  trace's record count and loop configuration. */
    void serialize(SnapshotIo &io) override;

    const TraceFile &trace() const { return *file; }
    /** Total records this stream will emit (0 when infinite). */
    std::uint64_t totalRecords() const
    {
        return loopCount * static_cast<std::uint64_t>(file->size());
    }

  private:
    std::shared_ptr<const TraceFile> file;
    std::uint64_t loopCount;
    std::size_t pos = 0;        ///< Cursor within the current pass.
    std::uint64_t passesDone = 0;
};

/**
 * Build a WorkloadSpec that replays @p path (the trace-spec
 * counterpart of the zoo's synthetic spec builders, accepted
 * everywhere a WorkloadSpec is — Simulator, ExperimentRunner
 * fleets, benches).
 */
WorkloadSpec traceWorkloadSpec(const std::string &name,
                               const std::string &path,
                               std::uint64_t loops = 1,
                               Suite suite = Suite::kSpec06);

} // namespace athena

#endif // ATHENA_TRACE_TRACE_FILE_HH
