/**
 * @file
 * The simulator: composes workload generators, core timing models,
 * the private L1D/L2 + shared LLC hierarchy, the DRAM channel, the
 * prefetchers, the off-chip predictor, and the coordination policy
 * into a runnable single- or multi-core system.
 *
 * This is the substitution for ChampSim: a cycle-approximate model
 * that preserves the three first-order effects the paper's results
 * hinge on — prediction accuracy, DRAM bandwidth occupancy, and the
 * on-chip/off-chip latency split.
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
#include "sim/system_config.hh"
#include "trace/workload.hh"

namespace athena
{

class SnapshotIo;

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
     * Write the complete simulator state — every core, cache,
     * prefetcher, predictor, policy, workload cursor, the DRAM
     * channel, and the measurement bookkeeping — to @p path in the
     * versioned ASNP format (see snapshot/snapshot.hh). Only legal
     * between instruction steps. Throws SnapshotError on I/O
     * failure.
     */
    void snapshot(const std::string &path);

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

    /** Snapshot walk over every section (layout in simulator.cc). */
    void serialize(SnapshotIo &io);

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
