/**
 * @file
 * The benchmark's traced replay: a single-threaded re-drive of one
 * workload's record stream through the simulator modules' public calls,
 * with a span recorded around every call into a layer.
 *
 * The replay owns its own components (generators, CoreModel, private
 * Cache levels, BankedLlc, ChanneledDram, prefetchers, OCP, policy) and
 * a MemoryInterface that walks them in the workload's topology. Its
 * timing model is a simplified copy of Simulator's memory walk, so its
 * simulated cycles differ; its instruction, load and store counts do
 * not, because the same generators feed the same CoreModel.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/system_config.hh"
#include "trace/workload.hh"

namespace perfbench
{

/** One benchmark workload: a system, its per-core streams, a budget. */
struct Workload
{
    std::string name;
    athena::SystemConfig cfg;
    std::vector<athena::WorkloadSpec> specs; ///< One per core.
    std::uint64_t measured = 0; ///< Measured instructions per core.
    std::uint64_t warmup = 0;   ///< Warmup instructions per core.
    /** Timed runs resume from a warmup snapshot (multi-core mix). */
    bool resume = false;
};

/** Layers the replay puts spans around, named by module. */
enum class Layer : std::uint8_t
{
    kTrace,   ///< WorkloadGenerator::nextBatch
    kCpu,     ///< CoreModel::stepN / step
    kMem,     ///< the benchmark's own memory walk (one per access)
    kL1d,     ///< Cache calls on the private L1D
    kL2c,     ///< Cache calls on the private L2C
    kLlc,     ///< BankedLlc calls
    kDram,    ///< ChanneledDram::serve
    kPf0,     ///< Prefetcher::observe, slot 0
    kPf1,     ///< Prefetcher::observe, slot 1
    kOcp,     ///< OffChipPredictor predict/train/fill/evict
    kCoord,   ///< CoordinationPolicy::onEpochEnd
    kPick,    ///< StepPicker calls
    kSnapshotSave,    ///< Simulator::snapshot
    kSnapshotRestore, ///< Simulator resume constructor
    kCount
};

/** One recorded span. Times are ns since the tracer was created. */
struct Span
{
    Layer layer = Layer::kCpu;
    std::uint32_t core = 0;   ///< ~0u for scheduler spans.
    std::uint64_t instr = 0;  ///< Instruction (or step) index.
    std::int64_t parent = -1; ///< Index of the enclosing stored span.
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/**
 * Span recorder. A default-constructed tracer is off and every scope
 * is a no-op; an enabled one times every scope, folds each span's self
 * time (its duration minus the time its child spans cover) into a
 * per-layer total, and keeps in memory the spans of a fixed 1-in-N
 * sample of instructions plus every span of the rare layers.
 *
 * A clock read costs tens of nanoseconds on a virtual machine, as much
 * as a cache lookup, so the tracer measures its own cost per span at
 * construction and takes it out of the self times it reports.
 */
class Tracer
{
  public:
    Tracer() = default;
    Tracer(std::uint64_t sample_every, std::size_t max_spans);

    bool enabled() const { return on; }

    /** Core and instruction index the next spans belong to. */
    void
    setInstr(std::uint32_t core, std::uint64_t instr)
    {
        curCore = core;
        curInstr = instr;
    }

    class Scope
    {
      public:
        explicit Scope(Tracer *t) : tracer(t) {}
        ~Scope()
        {
            if (tracer)
                tracer->end();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer;
    };

    /** Open a span around the enclosing C++ scope. */
    [[nodiscard]] Scope
    scope(Layer layer)
    {
        if (!on)
            return Scope(nullptr);
        begin(layer);
        return Scope(this);
    }

    /** Self time of a layer's spans, less the tracer's own cost. */
    double
    selfNs(Layer l) const
    {
        const auto i = static_cast<unsigned>(l);
        return static_cast<double>(self[i]) -
               static_cast<double>(count[i]) * costSelf -
               static_cast<double>(kids[i]) * costChild;
    }
    std::uint64_t calls(Layer l) const
    {
        return count[static_cast<unsigned>(l)];
    }
    /** Durations of every CoordinationPolicy::onEpochEnd span, less
     *  the tracer's own cost. */
    const std::vector<double> &epochNs() const { return epochs; }

    /** Write the kept spans as CSV; false on I/O failure. */
    bool writeCsv(const std::string &path) const;

  private:
    struct Frame
    {
        Layer layer;
        std::int64_t start;
        std::int64_t childNs;
        std::int64_t span;    ///< Kept span index, or -1.
        std::int64_t keptAnc; ///< Innermost kept span at or above.
    };

    static constexpr unsigned kMaxDepth = 16;

    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin)
            .count();
    }

    void begin(Layer layer);
    void end();
    /** Measure costSelf and costChild with empty spans. */
    void calibrate();

    bool on = false;
    std::uint64_t sampleEvery = 1;
    std::size_t maxSpans = 0;
    std::chrono::steady_clock::time_point origin;
    std::uint32_t curCore = 0;
    std::uint64_t curInstr = 0;
    std::array<Frame, kMaxDepth> stack{};
    unsigned depth = 0;
    std::array<std::int64_t, static_cast<unsigned>(Layer::kCount)> self{};
    std::array<std::uint64_t, static_cast<unsigned>(Layer::kCount)>
        count{};
    /** Child spans ended directly under each layer's spans. */
    std::array<std::uint64_t, static_cast<unsigned>(Layer::kCount)>
        kids{};
    /** Tracer time inside an empty span, and added to its parent. */
    double costSelf = 0.0;
    double costChild = 0.0;
    std::vector<double> epochs;
    std::vector<Span> kept;
};

/** What one replay did. Counts are summed over cores. */
struct ReplayStats
{
    double wallSeconds = 0.0;
    /** Instructions replayed (warmup included). */
    std::uint64_t instructions = 0;
    /** Measured-window counts, comparable to SimResult's. */
    std::uint64_t measuredInstructions = 0;
    std::uint64_t measuredLoads = 0;
    std::uint64_t measuredStores = 0;
    /** Records the generators produced (all of nextBatch). */
    std::uint64_t records = 0;
    /** Demand loads issued (warmup included). */
    std::uint64_t loads = 0;
    /** Multi-core scheduler steps (0 on one core). */
    std::uint64_t steps = 0;
    /** Prefetcher::observe calls per slot. */
    std::array<std::uint64_t, 2> observes{};
};

/**
 * Replay @p w from a cold start through warmup + measured instructions
 * per core, recording spans into @p tracer (pass a default-constructed
 * tracer for the untraced replay).
 */
ReplayStats replay(const Workload &w, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
