/**
 * @file
 * ExperimentRunner: drives fleets of simulations and reduces them
 * into the paper's reporting format — geomean speedup over the
 * no-prefetching / no-OCP baseline, broken down by suite and by the
 * prefetcher-adverse / prefetcher-friendly split of Fig. 1.
 *
 * Baseline runs are cached (keyed by the baseline config's content
 * hash and the workload's spec hash) and independent workloads run
 * in parallel across hardware threads. Simulation length is
 * controlled by the ATHENA_SIM_INSTR / ATHENA_WARMUP_INSTR
 * environment variables (see RunBudget::fromEnv) so the benches
 * scale from smoke-test to full-fidelity.
 *
 * When ATHENA_SNAPSHOT_DIR names a writable directory, runs
 * additionally cache their post-warmup state as ASNP snapshots
 * keyed by (config hash, workload hash(es), warmup length): the
 * first run of a (config, workload) pair — or multi-core mix, via
 * runMix — simulates the warmup and snapshots it; every later run
 * — e.g. the same sweep at a new policy configuration that shares
 * the baseline — resumes from the snapshot and simulates only the
 * measured window.
 */

#ifndef ATHENA_SIM_RUNNER_HH
#define ATHENA_SIM_RUNNER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hh"
#include "trace/mixes.hh"
#include "trace/zoo.hh"

namespace athena
{

/** One workload's speedup under some configuration. */
struct SpeedupRow
{
    std::string workload;
    Suite suite = Suite::kSpec06;
    double speedup = 1.0;
    SimResult result;     ///< Full diagnostics of the policy run.
    double baselineIpc = 0.0;
};

/** Geomean speedups per reporting category (Fig. 7 etc.). */
struct CategorySummary
{
    double spec = 1.0;
    double parsec = 1.0;
    double ligra = 1.0;
    double cvp = 1.0;
    double adverse = 1.0;
    double friendly = 1.0;
    double overall = 1.0;
};

/**
 * Run fn(i) once for each i in [0, n) across hardware threads.
 *
 * Each call starts min(n, hardware threads) - 1 helper threads that
 * drain one shared index cursor together with the calling thread,
 * and joins them before it returns. A call made from inside fn, on
 * any thread, runs inline on that thread, as does a call with
 * n <= 1 or on a one-CPU host. When fn throws, no further indices
 * start; the indices already running finish, and the first
 * exception is rethrown on the caller after every helper joined.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/**
 * Instruction budgets for runner-driven simulations: the
 * measured/warmup lengths of single-core runs and the reduced
 * lengths used for multi-core mixes.
 */
struct RunBudget
{
    std::uint64_t simInstructions = 800000;
    std::uint64_t warmupInstructions = 200000;
    std::uint64_t mcSimInstructions = 250000;
    std::uint64_t mcWarmupInstructions = 60000;

    /**
     * Budgets from the ATHENA_SIM_INSTR / ATHENA_WARMUP_INSTR /
     * ATHENA_MC_INSTR / ATHENA_MC_WARMUP environment variables,
     * with the defaults above where unset.
     */
    static RunBudget fromEnv();
};

class ExperimentRunner
{
  public:
    explicit ExperimentRunner(
        const RunBudget &run_budget = RunBudget::fromEnv());

    /** Instruction budgets applied to every simulation. */
    RunBudget budget;

    /** Run one workload under one configuration. */
    SimResult runOne(const SystemConfig &config,
                     const WorkloadSpec &spec) const;

    /**
     * Baseline (no prefetch, no OCP) IPC for a workload at the
     * config's bandwidth; cached across calls.
     */
    double baselineIpc(const SystemConfig &config,
                       const WorkloadSpec &spec);

    /** Speedups of a config across a workload list (parallel). */
    std::vector<SpeedupRow>
    speedups(const SystemConfig &config,
             const std::vector<WorkloadSpec> &specs);

    /**
     * Classify workloads by the sign of the prefetcher-only
     * speedup under @p base_config (Fig. 1's split). Cached.
     */
    std::set<std::string>
    adverseSet(const SystemConfig &base_config,
               const std::vector<WorkloadSpec> &specs);

    /** Reduce rows into the per-category geomeans. */
    static CategorySummary
    summarize(const std::vector<SpeedupRow> &rows,
              const std::set<std::string> &adverse);

    /**
     * Run one multi-core mix (one spec per core) at the mix
     * budget, through the same ATHENA_SNAPSHOT_DIR warmup cache as
     * runOne — keyed by (config hash, order-sensitive combination
     * of the per-core workload hashes, mix warmup length) — so the
     * per-figure multi-core benches stop re-simulating warmup on
     * every invocation.
     */
    SimResult runMix(const SystemConfig &config,
                     const std::vector<WorkloadSpec> &specs) const;

    /**
     * Multi-core mix speedup: geomean over cores of per-core IPC
     * relative to the same mix under the all-off policy. Both runs
     * go through the runMix warmup cache.
     */
    double mixSpeedup(const SystemConfig &config,
                      const std::vector<WorkloadSpec> &mix_specs);

    /**
     * Warmup instructions this runner actually simulated, summed
     * over cores (runOne counts its single core, runMix counts
     * every core of the mix). A run resumed from a warmup-snapshot
     * cache hit contributes nothing — which is how the tests
     * verify the cache really skips warmup simulation.
     */
    std::uint64_t
    warmupInstructionsSimulated() const
    {
        return warmupSimulated.load(std::memory_order_relaxed);
    }

  private:
    /** Shared warmup-snapshot-cache machinery behind runOne and
     *  runMix: resume from dir/cache_key.asnp when present, else
     *  simulate warmup and publish the snapshot (temp + rename). */
    SimResult runCached(const SystemConfig &config,
                        const std::vector<WorkloadSpec> &specs,
                        std::uint64_t measured, std::uint64_t warm,
                        const std::string &cache_key) const;

    /**
     * Reader-writer lock: cache hits (the overwhelmingly common
     * case in fleet sweeps) take a shared lock and proceed in
     * parallel; only the insert after a cold simulation takes the
     * exclusive side.
     */
    std::shared_mutex cacheMutex;
    /**
     * (workload spec hash, baseline config hash) -> baseline IPC.
     * Content hashes, not labels: two configs that differ in any
     * behavior-affecting field get distinct entries, while sweeps
     * differing only in policy hyperparameters share the kAllOff
     * baseline (SystemConfig::configKey hashes policy-specific
     * config only for the selected policy).
     */
    std::map<std::pair<std::uint64_t, std::uint64_t>, double>
        baselineCache;
    /** pf-only config hash -> adverse workload names. */
    std::map<std::uint64_t, std::set<std::string>> adverseCache;

    mutable std::atomic<std::uint64_t> warmupSimulated{0};
};

} // namespace athena

#endif // ATHENA_SIM_RUNNER_HH
