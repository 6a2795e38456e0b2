/**
 * @file
 * SyntheticWorkload implementation.
 */

#include "trace/workload.hh"

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/hashing.hh"
#include "snapshot/snapshot.hh"
#include "trace/trace_file.hh"

namespace athena
{

namespace
{

/** Rng::chanceThreshold(0.5): a fair coin for branch noise. */
constexpr std::uint64_t kHalfThreshold = 1ull << 52;

} // namespace

const char *
suiteName(Suite suite)
{
    switch (suite) {
      case Suite::kSpec06: return "SPEC06";
      case Suite::kSpec17: return "SPEC17";
      case Suite::kParsec: return "PARSEC";
      case Suite::kLigra:  return "Ligra";
      case Suite::kCvp:    return "CVP";
      case Suite::kDpc4:   return "DPC4";
      case Suite::kTuning: return "Tuning";
    }
    return "?";
}

SyntheticWorkload::SyntheticWorkload(WorkloadSpec spec_)
    : spec(std::move(spec_)), rng(spec.seed)
{
    reset();
}

void
SyntheticWorkload::reset()
{
    rng = Rng(spec.seed);
    globalInstr = 0;
    phaseStates.clear();
    phaseStates.resize(spec.phases.size());
    for (std::size_t i = 0; i < spec.phases.size(); ++i) {
        const PhaseParams &p = spec.phases[i];
        PhaseState &st = phaseStates[i];
        // Disjoint 1 TB-aligned virtual region per phase keeps
        // phases from aliasing; the seed salt keeps workloads
        // disjoint too.
        st.base = (mix64(spec.seed * 1315423911ull + i) & 0xfffull)
                  << 40;
        st.chasePtr = st.base;
        st.burstLeft = p.scanBurst;
        st.regionBase = st.base;
        st.hotMod.init(p.hotBytes);
        st.footprintMod.init(p.footprintBytes);
        st.chaseMod.init(p.footprintBytes >> kLineShift);
        st.scanMod.init(p.footprintBytes / 4);
        st.regionMod.init(p.footprintBytes >> kPageShift);
        // Thresholds mirror the original double comparisons,
        // including the cumulative kind-roll boundaries.
        st.tLoad = Rng::chanceThreshold(p.loadFrac);
        st.tLoadStore =
            Rng::chanceThreshold(p.loadFrac + p.storeFrac);
        st.tLSB = Rng::chanceThreshold(p.loadFrac + p.storeFrac +
                                       p.branchFrac);
        st.tCritical = Rng::chanceThreshold(p.criticalFrac);
        st.tHot = Rng::chanceThreshold(p.hotFrac);
        st.tNoise = Rng::chanceThreshold(p.branchNoise);
        st.tBias = Rng::chanceThreshold(p.branchBias);
        if (p.pattern == Pattern::kGraph) {
            // Zipf over destination *pages* keeps the table small
            // while preserving a heavy-tailed reuse distribution.
            std::uint64_t pages = p.footprintBytes >> kPageShift;
            if (pages < 2)
                pages = 2;
            if (pages > 16384)
                pages = 16384;
            st.zipf = std::make_unique<ZipfSampler>(pages, p.zipfS);
        }
    }
    enterPhase(0);
}

void
SyntheticWorkload::enterPhase(std::size_t index)
{
    phaseIndex = index % spec.phases.size();
    phaseInstrsLeft = spec.phases[phaseIndex].instructions;
}

template <int P>
inline Addr
SyntheticWorkload::patternAddr(const PhaseParams &p, PhaseState &st,
                               bool &depends_on_prev)
{
    constexpr Pattern kPat = static_cast<Pattern>(P);
    depends_on_prev = false;

    // The hot-set roll models cache-resident operand traffic
    // (stack, locals, node payloads) shared by all patterns; the
    // remaining accesses follow the pattern over the big footprint.
    if constexpr (kPat != Pattern::kGraph) {
        if (p.hotFrac > 0.0 && rng.chanceT(st.tHot))
            return st.base + (1ull << 38) + st.hotMod.mod(rng.next());
    }

    if constexpr (kPat == Pattern::kStream) {
        Addr a = st.base + st.cursor;
        // Wrap by conditional subtract — free of the 64-bit
        // division a modulo would cost on every access. The
        // rare-path modulo keeps user-supplied steps >= the
        // footprint exact.
        st.cursor += p.elementBytes;
        if (st.cursor >= p.footprintBytes) {
            st.cursor -= p.footprintBytes;
            if (st.cursor >= p.footprintBytes)
                st.cursor %= p.footprintBytes;
        }
        return a;
    } else if constexpr (kPat == Pattern::kStride) {
        Addr a = st.base + st.cursor;
        st.cursor += p.strideBytes;
        if (st.cursor >= p.footprintBytes) {
            st.cursor -= p.footprintBytes;
            if (st.cursor >= p.footprintBytes)
                st.cursor %= p.footprintBytes;
        }
        return a;
    } else if constexpr (kPat == Pattern::kChase) {
        // Walk an implicit permutation: the node index advances
        // through a full-period LCG and is scattered over the
        // footprint by a hash. The address sequence is
        // unpredictable for an address prefetcher and never
        // collapses into a short cycle (a naive
        // "next = hash(current)" walk would close a ~sqrt(N)
        // loop that fits in the L2). The core serializes these
        // loads.
        Addr a = st.chasePtr;
        st.cursor = st.cursor * 6364136223846793005ull +
                    1442695040888963407ull;
        st.chasePtr =
            st.base +
            st.chaseMod.mod(mix64(st.cursor ^ spec.seed)) *
                kLineBytes;
        depends_on_prev = true;
        return a;
    } else if constexpr (kPat == Pattern::kIrregular) {
        // Hashed cold accesses over the whole footprint: hard for
        // an address prefetcher, easy for an off-chip predictor
        // (the miss PCs are stable).
        return st.base + (1ull << 36) +
               st.footprintMod.mod(rng.next());
    } else if constexpr (kPat == Pattern::kGraph) {
        if (st.burstLeft == 0) {
            st.inScan = !st.inScan;
            st.burstLeft = st.inScan ? p.scanBurst : p.gatherBurst;
        }
        --st.burstLeft;
        if (st.inScan) {
            Addr a = st.base + st.scanCursor;
            st.scanCursor =
                st.scanMod.mod(st.scanCursor + p.elementBytes);
            return a;
        }
        std::uint64_t page = st.zipf->sample(rng);
        std::uint64_t off = rng.next() % kPageBytes;
        return st.base + (1ull << 36) + page * kPageBytes + off;
    } else if constexpr (kPat == Pattern::kCompute) {
        // Cold random tail past the shared hot-set roll; supplies
        // the >= 3 MPKI the paper's selection criterion requires.
        return st.base + (1ull << 36) +
               st.footprintMod.mod(rng.next());
    } else {
        static_assert(kPat == Pattern::kRegionSpatial);
        if (st.regionStep == 0) {
            // Pick a fresh region; its line bitmap is a pure
            // function of the region id, so SMS-style pattern
            // history is profitable.
            std::uint64_t region = st.regionMod.mod(rng.next());
            st.regionBase = st.base + region * kPageBytes;
            st.regionPattern = mix64(region ^ (spec.seed << 1));
        }
        unsigned line =
            (st.regionPattern >> ((st.regionStep * 6) % 58)) &
            (kLinesPerPage - 1);
        // Conditional wrap (regionStep < regionLines invariant).
        st.regionStep =
            st.regionStep + 1 == p.regionLines ? 0
                                               : st.regionStep + 1;
        return st.regionBase + static_cast<Addr>(line) * kLineBytes;
    }
}

template <int P>
inline void
SyntheticWorkload::emitOne(const PhaseParams &p, PhaseState &st,
                           std::uint64_t pc_region, TraceRecord &rec)
{
    // One draw for the kind roll, compared against the precomputed
    // cumulative thresholds (bit-identical to the double compares).
    // Every field is written on every path so callers can hand in
    // an uninitialized record (the batch path fills a reused
    // buffer).
    std::uint64_t roll = rng.next() >> 11;

    if (roll < st.tLoad) {
        rec.kind = InstrKind::kLoad;
        rec.taken = false;
        rec.addr = patternAddr<P>(p, st, rec.dependsOnPrevLoad);
        rec.criticalConsumer = rng.chanceT(st.tCritical);
        // Conditional wrap instead of a per-load 64-bit modulo;
        // pcRotor < loadPcs is invariant, so the result is the same.
        st.pcRotor = st.pcRotor + 1 == p.loadPcs ? 0
                                                 : st.pcRotor + 1;
        rec.pc = 0x400000 + pc_region + 0x10 * st.pcRotor;
    } else if (roll < st.tLoadStore) {
        rec.kind = InstrKind::kStore;
        rec.taken = false;
        rec.dependsOnPrevLoad = false;
        rec.criticalConsumer = false;
        bool dep = false;
        rec.addr = patternAddr<P>(p, st, dep);
        rec.pc = 0x500000 + pc_region;
    } else if (roll < st.tLSB) {
        rec.kind = InstrKind::kBranch;
        rec.addr = 0;
        rec.dependsOnPrevLoad = false;
        rec.criticalConsumer = false;
        // A small family of static branches; most follow their
        // bias, a noise fraction flips a fair coin (the gshare
        // predictor in the core turns that into real
        // mispredictions).
        rec.pc = 0x600000 + pc_region + 0x8 * (rng.next() % 16);
        if (rng.chanceT(st.tNoise))
            rec.taken = rng.chanceT(kHalfThreshold);
        else
            rec.taken = rng.chanceT(st.tBias);
    } else {
        rec.kind = InstrKind::kAlu;
        rec.addr = 0;
        rec.taken = false;
        rec.dependsOnPrevLoad = false;
        rec.criticalConsumer = false;
        rec.pc = 0x700000 + pc_region;
    }
}

template <int P>
void
SyntheticWorkload::emitRun(const PhaseParams &p, PhaseState &st,
                           std::uint64_t pc_region, TraceRecord *out,
                           std::size_t run)
{
    for (std::size_t i = 0; i < run; ++i)
        emitOne<P>(p, st, pc_region, out[i]);
}

TraceRecord
SyntheticWorkload::next()
{
    TraceRecord rec;
    nextBatch(&rec, 1);
    return rec;
}

std::size_t
SyntheticWorkload::nextBatch(TraceRecord *out, std::size_t n)
{
    // Chunk by phase boundary so the phase lookups, the pc_region
    // computation, the per-instruction counters, and — through the
    // per-pattern emitRun instantiations — the pattern dispatch all
    // hoist out of the inner loop. next() is a one-record batch.
    std::size_t filled = 0;
    while (filled < n) {
        if (phaseInstrsLeft == 0)
            enterPhase(phaseIndex + 1);
        std::size_t run = n - filled;
        if (phaseInstrsLeft == 0) {
            // Degenerate zero-instruction phase: the counter wraps
            // through zero, so the phase behaves as if it had 2^64
            // instructions (any batch size emits the same stream).
            phaseInstrsLeft -= run;
        } else {
            if (run > phaseInstrsLeft)
                run = static_cast<std::size_t>(phaseInstrsLeft);
            phaseInstrsLeft -= run;
        }
        globalInstr += run;

        const PhaseParams &p = spec.phases[phaseIndex];
        PhaseState &st = phaseStates[phaseIndex];
        const std::uint64_t pc_region =
            (spec.seed << 20) ^ (phaseIndex << 12);
        TraceRecord *dst = out + filled;
        switch (p.pattern) {
          case Pattern::kStream:
            emitRun<static_cast<int>(Pattern::kStream)>(
                p, st, pc_region, dst, run);
            break;
          case Pattern::kStride:
            emitRun<static_cast<int>(Pattern::kStride)>(
                p, st, pc_region, dst, run);
            break;
          case Pattern::kChase:
            emitRun<static_cast<int>(Pattern::kChase)>(
                p, st, pc_region, dst, run);
            break;
          case Pattern::kIrregular:
            emitRun<static_cast<int>(Pattern::kIrregular)>(
                p, st, pc_region, dst, run);
            break;
          case Pattern::kGraph:
            emitRun<static_cast<int>(Pattern::kGraph)>(
                p, st, pc_region, dst, run);
            break;
          case Pattern::kCompute:
            emitRun<static_cast<int>(Pattern::kCompute)>(
                p, st, pc_region, dst, run);
            break;
          case Pattern::kRegionSpatial:
            emitRun<static_cast<int>(Pattern::kRegionSpatial)>(
                p, st, pc_region, dst, run);
            break;
        }
        filled += run;
    }
    return n;
}

void
SyntheticWorkload::serialize(SnapshotIo &io)
{
    // Rebuild the derived per-phase state (region bases, reducers,
    // thresholds, zipf tables) from the spec, then overwrite the
    // mutable cursors with the snapshotted values.
    if (io.loading())
        reset();
    io.expectU64(phaseStates.size(), "workload phase count");
    rng.serialize(io);
    io.u64(phaseIndex);
    io.check(phaseIndex < phaseStates.size(),
             "workload phase index out of range (corrupted snapshot)");
    io.u64(phaseInstrsLeft);
    io.u64(globalInstr);
    for (PhaseState &st : phaseStates) {
        io.u64(st.cursor);
        io.u64(st.chasePtr);
        io.boolean(st.inScan);
        io.u32(st.burstLeft);
        io.u64(st.scanCursor);
        io.u64(st.regionBase);
        io.u32(st.regionStep);
        io.u64(st.regionPattern);
        io.u32(st.pcRotor);
    }
}

std::unique_ptr<WorkloadGenerator>
makeWorkload(const WorkloadSpec &spec)
{
    if (!spec.tracePath.empty()) {
        return std::make_unique<TraceReplayWorkload>(spec.tracePath,
                                                     spec.traceLoops);
    }
    return std::make_unique<SyntheticWorkload>(spec);
}

std::uint64_t
workloadKey(const WorkloadSpec &spec)
{
    Fnv1a h;
    h.str(spec.name);
    h.u64(static_cast<std::uint64_t>(spec.suite));
    h.u64(spec.seed);
    h.u64(spec.phases.size());
    for (const PhaseParams &p : spec.phases) {
        h.u64(static_cast<std::uint64_t>(p.pattern));
        h.u64(p.instructions);
        h.u64(p.footprintBytes);
        h.u64(p.strideBytes);
        h.u64(p.elementBytes);
        h.f64(p.loadFrac);
        h.f64(p.storeFrac);
        h.f64(p.branchFrac);
        h.f64(p.criticalFrac);
        h.f64(p.branchBias);
        h.f64(p.branchNoise);
        h.f64(p.hotFrac);
        h.u64(p.hotBytes);
        h.f64(p.zipfS);
        h.u64(p.scanBurst);
        h.u64(p.gatherBurst);
        h.u64(p.regionLines);
        h.u64(p.loadPcs);
    }
    h.str(spec.tracePath);
    h.u64(spec.traceLoops);
    return h.h;
}

} // namespace athena
