/**
 * @file
 * Trace record format and the synthetic workload generator.
 *
 * The Athena paper evaluates on 100 captured traces (SPEC CPU
 * 2006/2017, PARSEC, Ligra, CVP). Those traces are tens of gigabytes
 * and not redistributable here, so this module synthesizes
 * deterministic instruction streams whose *memory-system behaviour*
 * spans the same population: regular streaming/striding code
 * (prefetcher-friendly), dependent pointer chasing and hashed
 * irregular access (prefetcher-adverse but easy for an off-chip
 * predictor), Ligra-style scan/gather graph phases, and CVP-style
 * branchy compute.
 */

#ifndef ATHENA_TRACE_WORKLOAD_HH
#define ATHENA_TRACE_WORKLOAD_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fast_mod.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace athena
{

class SnapshotIo;

/** Instruction classes the timing model distinguishes. */
enum class InstrKind : std::uint8_t
{
    kAlu,
    kLoad,
    kStore,
    kBranch,
};

/**
 * One instruction of a workload trace. The wide fields lead and the
 * kind/flag bytes pack into the tail word, so a record is 24 bytes —
 * batched generation streams these through a reused buffer, and the
 * core's stepping loop reads them back; 3 cache lines per 8 records
 * instead of 4.
 */
struct TraceRecord
{
    std::uint64_t pc = 0;
    Addr addr = 0;               ///< Effective address (load/store).
    InstrKind kind = InstrKind::kAlu;
    bool taken = false;          ///< Branch outcome.
    /**
     * True when this load consumes the value of the previous load
     * (pointer chasing); the core serializes such loads, which is
     * what destroys memory-level parallelism in mcf-like workloads.
     */
    bool dependsOnPrevLoad = false;
    /**
     * True when near-term work depends on this load's value
     * (a consumer within the issue window): the front end cannot
     * make progress until it completes. This is what makes miss
     * *latency* — and therefore prefetching and off-chip
     * prediction — matter at all in an out-of-order core with a
     * deep ROB; without it every miss is absorbed by MLP.
     */
    bool criticalConsumer = false;
};

/**
 * Abstract instruction stream.
 *
 * Streams may be infinite (the synthetic zoo) or finite (trace
 * replay). End-of-stream is signalled exclusively through
 * nextBatch()'s return value — there is no separate "done" probe,
 * so a consumer learns a stream ended by asking for records and
 * receiving fewer than requested.
 */
class WorkloadGenerator
{
  public:
    virtual ~WorkloadGenerator() = default;

    /** Restart the stream from the beginning (deterministic). */
    virtual void reset() = 0;

    /**
     * Produce the next instruction. Calling next() past the end of
     * a finite stream is a contract violation (finite generators
     * throw); consumers that must handle finite streams use
     * nextBatch(), whose short return is the end-of-stream signal.
     */
    virtual TraceRecord next() = 0;

    /**
     * Fill out[0..n) with the next @p n instructions and return the
     * count produced.
     *
     * Contract:
     *  - @p n == 0 returns 0 and consumes nothing (defined for
     *    every generator; the shim below asserts it never touches
     *    next()).
     *  - A return < @p n is legal *only* at end-of-stream: the
     *    records returned are the stream's last, and every
     *    subsequent call returns 0. Infinite streams (all synthetic
     *    generators) always return exactly @p n.
     *
     * The default is a compatibility shim over next(), so every
     * infinite generator batches correctly; SyntheticWorkload
     * overrides it with a kernel that hoists the per-phase state
     * lookups out of the per-instruction loop, and finite
     * generators (TraceReplayWorkload) override it to report
     * exhaustion. Overrides must produce the exact record sequence
     * next() would.
     */
    virtual std::size_t
    nextBatch(TraceRecord *out, std::size_t n)
    {
        if (n == 0)
            return 0;
        assert(out != nullptr);
        for (std::size_t i = 0; i < n; ++i)
            out[i] = next();
        return n;
    }

    /**
     * Snapshot walk: the stream cursor, so a restored generator
     * resumes emitting the exact record sequence a straight-through
     * run would see. The default is a no-op for stateless
     * generators; every stateful generator overrides it.
     */
    virtual void serialize(SnapshotIo &) {}
};

/** Memory access pattern of a workload phase. */
enum class Pattern : std::uint8_t
{
    kStream,        ///< Sequential lines over the footprint.
    kStride,        ///< Constant stride (possibly > 1 line).
    kChase,         ///< Dependent pointer chase over the footprint.
    kIrregular,     ///< Hashed accesses, hot-set + cold tail.
    kGraph,         ///< Ligra-like alternating scan / zipf gather.
    kCompute,       ///< Mostly cache-resident, branchy (CVP-like).
    kRegionSpatial, ///< Recurring per-region line bitmaps (SMS bait).
};

/** Parameters of one execution phase. */
struct PhaseParams
{
    Pattern pattern = Pattern::kStream;
    std::uint64_t instructions = 100000; ///< Phase length.
    std::uint64_t footprintBytes = 64ull << 20;
    unsigned strideBytes = kLineBytes;   ///< For kStride.
    /** kStream advance per access (8 B elements -> ~8 accesses per
     *  line, giving realistic L1 spatial locality). */
    unsigned elementBytes = 8;
    double loadFrac = 0.30;
    double storeFrac = 0.05;
    double branchFrac = 0.10;
    /** Fraction of loads with a near-term dependent consumer. */
    double criticalFrac = 0.30;
    /** Probability a (predictable) branch is taken. */
    double branchBias = 0.85;
    /** Fraction of branches whose outcome is 50/50 random. */
    double branchNoise = 0.02;
    /**
     * Fraction of data accesses that hit a small hot set
     * (cache-resident operands: locals, stack, node payloads). This
     * is the memory-intensity dial: the remaining accesses follow
     * the phase's pattern over the large footprint.
     */
    double hotFrac = 0.55;
    std::uint64_t hotBytes = 512 << 10;
    /** kGraph: zipf skew of the gather target distribution. */
    double zipfS = 0.75;
    /** kGraph: scan / gather burst lengths (accesses). */
    unsigned scanBurst = 48;
    unsigned gatherBurst = 24;
    /** kRegionSpatial: distinct lines touched per 4 KB region. */
    unsigned regionLines = 12;
    /** Number of distinct load PCs the phase rotates through. */
    unsigned loadPcs = 4;
};

/** Benchmark suite tags mirroring Table 6 of the paper. */
enum class Suite : std::uint8_t
{
    kSpec06,
    kSpec17,
    kParsec,
    kLigra,
    kCvp,
    kDpc4,   ///< Unseen Google-like traces (Fig. 21).
    kTuning, ///< 20-workload DSE set (never in the 100).
};

/** Printable suite name. */
const char *suiteName(Suite suite);

/**
 * Full description of a workload: either a synthetic phase program
 * (tracePath empty) or a captured trace to replay (tracePath set —
 * makeWorkload() then builds a TraceReplayWorkload and ignores
 * phases/seed).
 */
struct WorkloadSpec
{
    std::string name;
    Suite suite = Suite::kSpec06;
    std::uint64_t seed = 1;
    std::vector<PhaseParams> phases;
    /** Trace file (text or binary, see trace/trace_file.hh). */
    std::string tracePath;
    /** Times the trace is replayed end to end; 0 = loop forever
     *  (lets finite traces feed fixed-instruction benches). */
    std::uint64_t traceLoops = 1;
};

/**
 * The synthetic workload generator.
 *
 * Cycles deterministically through the spec's phases. Address
 * streams live in disjoint virtual regions per phase so that
 * different phases do not alias in the caches.
 */
class SyntheticWorkload : public WorkloadGenerator
{
  public:
    explicit SyntheticWorkload(WorkloadSpec spec);

    void reset() override;
    TraceRecord next() override;
    std::size_t nextBatch(TraceRecord *out, std::size_t n) override;

    /** Snapshot walk: RNG state, phase cursor, and the mutable
     *  per-phase pattern cursors; derived reducers, thresholds and
     *  zipf tables are rebuilt from the spec. */
    void serialize(SnapshotIo &io) override;

  private:
    /**
     * Pattern state of one phase. Persistent across phase
     * re-entries: when execution returns to a phase, its cursors
     * resume where they left off, so a large footprint keeps being
     * toured instead of re-touching the same warm prefix.
     */
    struct PhaseState
    {
        Addr base = 0;            ///< Disjoint region base.
        std::uint64_t cursor = 0; ///< Stream/stride/LCG position.
        Addr chasePtr = 0;        ///< Current pointer-chase node.
        std::unique_ptr<ZipfSampler> zipf;
        bool inScan = true;       ///< kGraph mode flag.
        unsigned burstLeft = 0;
        std::uint64_t scanCursor = 0;
        Addr regionBase = 0;      ///< kRegionSpatial current region.
        unsigned regionStep = 0;
        std::uint64_t regionPattern = 0; ///< Region line bitmap.
        unsigned pcRotor = 0;
        // Precomputed reducers for the per-access RNG -> range
        // mappings (the raw 64-bit modulo was a top-five hot-path
        // cost); results are bit-identical to `%`.
        FastMod hotMod;       ///< % hotBytes.
        FastMod footprintMod; ///< % footprintBytes.
        FastMod chaseMod;     ///< % (footprint lines), kChase.
        FastMod scanMod;      ///< % (footprintBytes / 4), kGraph.
        FastMod regionMod;    ///< % (footprint pages), kRegion*.
        // Precomputed Rng::chanceThreshold values for the per-
        // instruction Bernoulli rolls (bit-identical outcomes, no
        // per-roll float conversion). tLoad/tLoadStore/tLSB are the
        // cumulative kind-roll boundaries.
        std::uint64_t tLoad = 0;
        std::uint64_t tLoadStore = 0;
        std::uint64_t tLSB = 0;
        std::uint64_t tCritical = 0;
        std::uint64_t tHot = 0;
        std::uint64_t tNoise = 0;
        std::uint64_t tBias = 0;
    };

    /** Switch to a phase (state persists across entries). */
    void enterPhase(std::size_t index);

    /**
     * Produce the next data address of phase (p, st) with the
     * pattern fixed at compile time (P = static_cast<int>(Pattern)).
     */
    template <int P>
    Addr patternAddr(const PhaseParams &p, PhaseState &st,
                     bool &depends_on_prev);

    /**
     * Emit one record of phase (p, st): the kind roll plus all
     * record fields. The caller (emitRun) owns the phase-boundary
     * bookkeeping.
     */
    template <int P>
    void emitOne(const PhaseParams &p, PhaseState &st,
                 std::uint64_t pc_region, TraceRecord &rec);

    /** Emit a span of records with the pattern kernel fixed. */
    template <int P>
    void emitRun(const PhaseParams &p, PhaseState &st,
                 std::uint64_t pc_region, TraceRecord *out,
                 std::size_t run);

    WorkloadSpec spec;
    Rng rng;
    std::size_t phaseIndex = 0;
    std::uint64_t phaseInstrsLeft = 0;
    std::vector<PhaseState> phaseStates;
    std::uint64_t globalInstr = 0;
};

/**
 * Convenience factory: a SyntheticWorkload for phase-program specs,
 * a TraceReplayWorkload when spec.tracePath is set.
 */
std::unique_ptr<WorkloadGenerator> makeWorkload(const WorkloadSpec &spec);

/**
 * Stable content hash of a workload spec: every field that affects
 * the emitted record stream (name, suite, seed, all phase
 * parameters, trace path and loop count). Used to key the
 * warmup-snapshot cache — two specs with equal keys produce
 * identical streams.
 */
std::uint64_t workloadKey(const WorkloadSpec &spec);

} // namespace athena

#endif // ATHENA_TRACE_WORKLOAD_HH
