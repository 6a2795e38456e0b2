/**
 * @file
 * The simulator: composes workload generators, core timing models,
 * the private L1D/L2 + shared LLC hierarchy, the DRAM channel, the
 * prefetchers, the off-chip predictor, and the coordination policy
 * into a runnable single- or multi-core system.
 *
 * This is the substitution for ChampSim (DESIGN.md section 3): a
 * cycle-approximate model that preserves the three first-order
 * effects the paper's results hinge on — prediction accuracy, DRAM
 * bandwidth occupancy, and the on-chip/off-chip latency split.
 */

#ifndef ATHENA_SIM_SIMULATOR_HH
#define ATHENA_SIM_SIMULATOR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "athena/bloom.hh"
#include "coord/policy.hh"
#include "cpu/core_model.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "ocp/ocp.hh"
#include "prefetch/prefetcher.hh"
#include "sim/parallel_step.hh"
#include "sim/system_config.hh"
#include "trace/workload.hh"

namespace athena
{

class SnapshotReader;
class SnapshotWriter;

/** Cumulative per-prefetcher-slot statistics. */
struct PrefetcherSlotStats
{
    std::uint64_t issued = 0;
    std::uint64_t used = 0;
    std::uint64_t usedTimely = 0;
    std::uint64_t uselessEvictions = 0;
    /** Fills into the prefetcher's level that came from DRAM. */
    std::uint64_t fillsFromDram = 0;
    /** Of those, evicted without any demand touch (Fig. 3). */
    std::uint64_t fillsFromDramUnused = 0;

    double
    accuracy() const
    {
        return issued == 0 ? 0.0
                           : static_cast<double>(used) /
                                 static_cast<double>(issued);
    }

    double
    offChipFillInaccuracy() const
    {
        return fillsFromDram == 0
                   ? 0.0
                   : static_cast<double>(fillsFromDramUnused) /
                         static_cast<double>(fillsFromDram);
    }
};

/** Results of one simulation run. */
struct SimResult
{
    struct PerCore
    {
        std::string workload;
        double ipc = 0.0;
        std::uint64_t instructions = 0;
        std::uint64_t cycles = 0;
        /**
         * Lifetime retired-instruction count (warmup included).
         * Equals warmup + measured instructions for infinite
         * synthetic streams; for finite trace replays it is the
         * exact record count the stream produced before
         * exhausting.
         */
        std::uint64_t completedInstructions = 0;
        /** True when the core's workload stream ended before the
         *  requested instruction budget (finite trace replay). */
        bool streamExhausted = false;
        std::uint64_t loads = 0;
        std::uint64_t stores = 0;
        std::uint64_t branchMispredicts = 0;
        std::uint64_t llcMisses = 0;
        std::uint64_t llcMissLatency = 0;
        std::array<PrefetcherSlotStats, kMaxPrefetchers> pf{};
        std::uint64_t ocpPredictions = 0;
        std::uint64_t ocpCorrect = 0;
        /** Athena's per-action selection counts (Fig. 17). */
        std::array<std::uint64_t, 4> actionHistogram{};

        double
        avgLlcMissLatency() const
        {
            return llcMisses == 0
                       ? 0.0
                       : static_cast<double>(llcMissLatency) /
                             static_cast<double>(llcMisses);
        }

        double
        ocpAccuracy() const
        {
            return ocpPredictions == 0
                       ? 0.0
                       : static_cast<double>(ocpCorrect) /
                             static_cast<double>(ocpPredictions);
        }
    };

    std::vector<PerCore> cores;
    /** DRAM traffic during the measurement window. */
    DramCounters dram;
    /** Data-bus utilization over the measurement window. */
    double busUtilization = 0.0;

    /** Single-core convenience accessor. */
    double ipc() const { return cores.empty() ? 0.0 : cores[0].ipc; }
};

/**
 * One run's per-core instruction budget. Measured instructions are
 * counted after the warmup boundary; a non-empty snapshotAfterWarmup
 * writes a full-state snapshot (see Simulator::snapshot) the moment
 * every core has crossed that boundary (or exhausted its stream),
 * so a later Simulator constructed with the resume overload replays
 * only the measured window — bit-identically to the straight-through
 * run.
 */
struct RunPlan
{
    RunPlan() = default;
    /** The common case: measured + warmup, defaults elsewhere. */
    RunPlan(std::uint64_t measured_instr, std::uint64_t warmup_instr)
        : measured(measured_instr), warmup(warmup_instr)
    {}

    std::uint64_t measured = 0;
    std::uint64_t warmup = 0;
    /** Snapshot destination path; empty = no snapshot. */
    std::string snapshotAfterWarmup;
    /**
     * Stepping thread budget for multi-core runs.
     *
     *   0       auto: honor ATHENA_STEP_THREADS if set, else use
     *           std::thread::hardware_concurrency() — i.e. the
     *           parallel engine is on by default for cores >= 2
     *           whenever the host has enough hardware threads.
     *   1       force the sequential StepPicker engine.
     *   >= cores  run the parallel engine (one stepping context
     *           per core).
     *
     * Values in (1, cores) fall back to sequential: the engine is
     * thread-per-core and does not multiplex cores onto fewer
     * threads. Either engine produces bit-identical results; the
     * knob only selects the execution strategy. The parallel
     * engine also self-disables inside ExperimentRunner fleets
     * (ThreadPool::onWorkerThread/inPooledRun) so fleet parallelism
     * is never oversubscribed, and for single-core runs.
     */
    unsigned stepThreads = 0;
};

/**
 * One simulated system instance. Construct, then run() once;
 * construct a fresh Simulator for each run (or resume one from a
 * snapshot).
 */
class Simulator
{
  public:
    /**
     * @param config    the system configuration
     * @param workloads one spec per core (size must equal
     *                  config.cores)
     */
    Simulator(const SystemConfig &config,
              const std::vector<WorkloadSpec> &workloads);

    /**
     * Resume a previously snapshotted system: constructs the
     * identical component tree and restores every section of the
     * snapshot at @p resume_from into it. The config/workloads must
     * match the ones the snapshot was taken under (checked via
     * SystemConfig::configKey and per-section geometry guards;
     * SnapshotError otherwise). The subsequent run() must use the
     * warmup length the snapshot was taken at and continues the
     * original schedule bit-identically.
     */
    Simulator(const SystemConfig &config,
              const std::vector<WorkloadSpec> &workloads,
              const std::string &resume_from);
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Run the plan's warmup + measured instructions per core and
     * return the measured-window results.
     *
     * A core whose workload stream ends early (finite trace
     * replay) retires from the stepping loop deterministically: it
     * leaves the multi-core pick set the moment it exhausts, the
     * remaining cores keep their exact least-advanced ordering,
     * and its PerCore result reports the exact completed
     * instruction count with streamExhausted set. A core that
     * exhausts before crossing the warmup boundary reports its
     * whole run as the measured window.
     *
     * On a resumed simulator the plan's warmup must equal the
     * snapshot's (std::invalid_argument otherwise); the warmup
     * instructions are already retired, so only the measured span
     * is simulated.
     */
    SimResult run(const RunPlan &plan);

    /**
     * Attach a per-shard shared-step commit-order log (test
     * oracle). Both engines append one (core, pre-step frontier)
     * entry to every shard (LLC bank / DRAM channel) a multi-core
     * step touches, in that shard's commit order; the parallel
     * engine must reproduce the sequential engine's per-shard
     * projections verbatim. Must be set before run(); the caller
     * owns the log. Single-core runs record nothing (there is no
     * cross-core schedule to verify).
     */
    void setSharedStepLog(SharedStepLog *log) { stepLog = log; }

    /**
     * Write the complete simulator state — every core, cache,
     * prefetcher, predictor, policy, workload cursor, the DRAM
     * channel, and the measurement bookkeeping — to @p path in the
     * versioned ASNP format (see snapshot/snapshot.hh). Only legal
     * between instruction steps. Throws SnapshotError on I/O
     * failure.
     */
    void snapshot(const std::string &path) const;

    /** The coordination policy of a core (tests introspect). */
    CoordinationPolicy &policy(unsigned core = 0);

  private:
    friend class CoreMemAdapter;

    struct CoreCtx;

    // Memory-path internals (called via the per-core adapter).
    Cycle doLoad(unsigned core, std::uint64_t pc, Addr addr,
                 Cycle issue, bool &l1_miss);
    void doStore(unsigned core, std::uint64_t pc, Addr addr,
                 Cycle cycle);

    void triggerLevel(unsigned core, CacheLevel level,
                      std::uint64_t pc, Addr addr, bool hit,
                      Cycle cycle);
    void issuePrefetch(unsigned core, unsigned slot,
                       const PrefetchCandidate &cand,
                       std::uint64_t trigger_pc, Cycle cycle);
    void handleLlcEviction(unsigned core, const CacheEviction &ev);
    void dispatchPrefetchFeedbackUsed(unsigned core,
                                      const CacheLookup &res,
                                      Cycle demand_cycle);
    void maybeEndEpoch(unsigned core);

    // Parallel stepping engine (tentpole of PR 7; see
    // parallel_step.hh for the determinism argument).
    /** Effective stepping-thread budget for @p plan (knob doc on
     *  RunPlan::stepThreads). */
    static unsigned resolveStepThreads(const RunPlan &plan);
    /** True when this run should use the parallel engine. */
    bool useParallelEngine(const RunPlan &plan) const;
    /** Step all cores to completion concurrently, bit-identically
     *  to the sequential schedule. */
    void runMultiParallel(std::uint64_t total_per_core,
                          std::uint64_t warmup_per_core);
    /** Latch a core's measurement-window start once it crosses the
     *  warmup boundary (engine-agnostic; ordered via sharedTurn). */
    void checkWarmup(unsigned core, std::uint64_t warmup_per_core);

    /**
     * Shared-state gate, called at every shared touch point on the
     * memory path with the shard (LLC bank / DRAM channel in the
     * SharedShard id space) being touched. Under the parallel
     * engine it parks the core until its step's turn in the
     * sequential commit order (the wait is global — see
     * parallel_step.hh on why per-shard grants are unsound without
     * footprint declaration — so only the first shared touch of a
     * step can block) and records the touch on the shard's commit
     * log; under the sequential engine it only feeds the per-shard
     * commit-order oracle. No-op (one predicted branch) when
     * neither is active.
     */
    void
    sharedTurn(unsigned core, unsigned shard)
    {
        if (par)
            par->ensureTurn(core, shard);
        else if (stepLog && seqLogOpen)
            seqLogCommit(core, shard);
    }

    /** Shard id of DRAM channel @p ch (LLC banks occupy [0, B)). */
    unsigned dramShard(unsigned ch) const
    {
        return cfg.llcBanks + ch;
    }

    /** Total shard count: LLC banks + DRAM channels. */
    unsigned totalShards() const
    {
        return cfg.llcBanks + cfg.dramChannels;
    }

    /**
     * Order + log a read of every DRAM channel (epoch/warmup
     * lifetime sampling reads the aggregate counters): one global
     * wait, one commit-log entry per channel shard.
     */
    void
    sharedTurnAllDram(unsigned core)
    {
        for (unsigned ch = 0; ch < cfg.dramChannels; ++ch)
            sharedTurn(core, dramShard(ch));
    }

    void seqLogCommit(unsigned core, unsigned shard);

    // Snapshot plumbing (section layout in simulator.cc).
    void saveTo(SnapshotWriter &w) const;
    void restoreFrom(SnapshotReader &r);

    /** Measurement-window start sample of one core. */
    struct MeasureStart
    {
        std::uint64_t instr = 0;
        Cycle cycle = 0;
        std::uint64_t loads = 0;
        std::uint64_t stores = 0;
        std::uint64_t mispredicts = 0;
        std::uint64_t llcMisses = 0;
        std::uint64_t llcMissLatency = 0;
    };

    /**
     * The run's measurement bookkeeping. A member (not run()-local)
     * so a warmup snapshot captures it and a resumed run continues
     * the same measurement window.
     */
    struct MeasureState
    {
        std::vector<MeasureStart> starts;
        std::vector<std::uint8_t> started;
        DramCounters dramAtStart;
        Cycle maxNowAtStart = 0;
        bool anyStarted = false;
    };

    SystemConfig cfg;
    std::vector<std::unique_ptr<CoreCtx>> coreCtxs;

    MeasureState measure;
    /** Active parallel-stepping coordinator, or null (sequential). */
    ParallelStepper *par = nullptr;
    /** Commit-order oracle sink (tests), or null. */
    SharedStepLog *stepLog = nullptr;
    /** Sequential-engine oracle bookkeeping: the in-flight step's
     *  key, whether a step is open, and which shards the step has
     *  already logged (bit per shard id). */
    Cycle seqLogKey = 0;
    bool seqLogOpen = false;
    std::uint64_t seqLoggedMask = 0;
    /** True when this instance was restored from a snapshot. */
    bool resumed = false;
    /** Warmup length the snapshot (or current run) was taken at. */
    std::uint64_t resumeWarmup = 0;

    // Cumulative round-trip latencies (Table 5), hoisted out of the
    // per-access path: identical for every core and every access.
    Cycle latL1 = 0;  ///< L1 round trip.
    Cycle latL2 = 0;  ///< L1 + L2.
    Cycle latLlc = 0; ///< L1 + L2 + LLC.

    // Shared resources: the sharded shared-memory plane. With the
    // default 1-bank/1-channel geometry both behave bit-identically
    // to the former monolithic Cache/Dram singletons.
    std::unique_ptr<BankedLlc> llc;
    std::unique_ptr<ChanneledDram> dram;
};

} // namespace athena

#endif // ATHENA_SIM_SIMULATOR_HH
