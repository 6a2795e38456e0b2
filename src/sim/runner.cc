/**
 * @file
 * ExperimentRunner implementation.
 */

#include "sim/runner.hh"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "snapshot/snapshot.hh"

namespace athena
{

namespace
{

std::uint64_t
envOr(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    return std::strtoull(v, nullptr, 10);
}

/** Warmup-snapshot cache directory ("" = caching disabled). */
std::string
snapshotDir()
{
    const char *v = std::getenv("ATHENA_SNAPSHOT_DIR");
    return v && *v ? v : "";
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** True while this thread drains a parallelFor: nested calls run
 *  inline instead of starting threads of their own. */
thread_local bool tls_draining = false;

} // namespace

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    const std::size_t hw = std::thread::hardware_concurrency();
    if (n <= 1 || hw <= 1 || tls_draining) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    // Set by the first index that throws; that thread alone writes
    // `first`, which the caller reads only after every join.
    std::atomic<bool> failed{false};
    std::exception_ptr first;
    const auto drain = [&] {
        tls_draining = true;
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            try {
                fn(i);
            } catch (...) {
                if (!failed.exchange(true))
                    first = std::current_exception();
            }
        }
        tls_draining = false;
    };
    {
        // Declared after everything drain() uses, so the helpers
        // join here even if starting one of them throws.
        const std::size_t threads = std::min(n, hw);
        std::vector<std::jthread> helpers;
        helpers.reserve(threads - 1);
        for (std::size_t t = 1; t < threads; ++t)
            helpers.emplace_back(drain);
        drain();
    }
    if (first)
        std::rethrow_exception(first);
}

RunBudget
RunBudget::fromEnv()
{
    RunBudget b;
    b.simInstructions = envOr("ATHENA_SIM_INSTR", b.simInstructions);
    b.warmupInstructions =
        envOr("ATHENA_WARMUP_INSTR", b.warmupInstructions);
    b.mcSimInstructions =
        envOr("ATHENA_MC_INSTR", b.mcSimInstructions);
    b.mcWarmupInstructions =
        envOr("ATHENA_MC_WARMUP", b.mcWarmupInstructions);
    return b;
}

ExperimentRunner::ExperimentRunner(const RunBudget &run_budget)
    : budget(run_budget)
{}

SimResult
ExperimentRunner::runCached(const SystemConfig &config,
                            const std::vector<WorkloadSpec> &specs,
                            std::uint64_t measured,
                            std::uint64_t warm,
                            const std::string &cache_key) const
{
    const std::string dir = snapshotDir();
    if (!dir.empty() && warm > 0) {
        // Warmup-snapshot cache: keyed strictly by content (see
        // the callers' key construction) — a hit is guaranteed to
        // be the exact state a fresh run would reach at its warmup
        // boundary.
        const std::string path = dir + "/" + cache_key + ".asnp";
        std::error_code ec;
        if (std::filesystem::exists(path, ec)) {
            try {
                Simulator sim(config, specs, path);
                RunPlan plan;
                plan.measured = measured;
                plan.warmup = warm;
                return sim.run(plan);
            } catch (const SnapshotError &) {
                // Stale or corrupt cache entry (e.g. written by an
                // older format version): fall through to a fresh
                // run, which overwrites it.
            }
        }
        Simulator sim(config, specs);
        warmupSimulated.fetch_add(warm * specs.size(),
                                  std::memory_order_relaxed);
        // Write-to-temp + atomic rename so concurrent sweep workers
        // never observe (or resume from) a half-written snapshot.
        static std::atomic<std::uint64_t> tmpSeq{0};
        const std::string tmp =
            path + ".tmp" +
            std::to_string(
                tmpSeq.fetch_add(1, std::memory_order_relaxed));
        RunPlan plan;
        plan.measured = measured;
        plan.warmup = warm;
        plan.snapshotAfterWarmup = tmp;
        SimResult res = sim.run(plan);
        std::rename(tmp.c_str(), path.c_str());
        return res;
    }

    Simulator sim(config, specs);
    warmupSimulated.fetch_add(warm * specs.size(),
                              std::memory_order_relaxed);
    RunPlan plan;
    plan.measured = measured;
    plan.warmup = warm;
    return sim.run(plan);
}

SimResult
ExperimentRunner::runOne(const SystemConfig &config,
                         const WorkloadSpec &spec) const
{
    // Key: config hash, workload spec hash, warmup length
    // (unchanged from when runOne carried the cache inline, so
    // existing cache directories stay valid).
    const std::uint64_t warm = budget.warmupInstructions;
    return runCached(config, {spec}, budget.simInstructions, warm,
                     hex64(config.configKey()) + "-" +
                         hex64(workloadKey(spec)) + "-" +
                         std::to_string(warm));
}

SimResult
ExperimentRunner::runMix(const SystemConfig &config,
                         const std::vector<WorkloadSpec> &specs) const
{
    // Mix key: config hash plus an order-sensitive combination of
    // the per-core workload hashes (core assignment matters — the
    // mix [a,b] is not the mix [b,a]) plus the mix warmup length.
    std::uint64_t mix_key = 1469598103934665603ull;
    for (const WorkloadSpec &s : specs) {
        mix_key ^= workloadKey(s);
        mix_key *= 1099511628211ull;
    }
    const std::uint64_t warm = budget.mcWarmupInstructions;
    return runCached(config, specs, budget.mcSimInstructions, warm,
                     hex64(config.configKey()) + "-mix" +
                         std::to_string(specs.size()) + "-" +
                         hex64(mix_key) + "-" +
                         std::to_string(warm));
}

double
ExperimentRunner::baselineIpc(const SystemConfig &config,
                              const WorkloadSpec &spec)
{
    SystemConfig base = config;
    base.policy = PolicyKind::kAllOff;
    auto key = std::make_pair(workloadKey(spec), base.configKey());
    {
        std::shared_lock<std::shared_mutex> lock(cacheMutex);
        auto it = baselineCache.find(key);
        if (it != baselineCache.end())
            return it->second;
    }
    double ipc = runOne(base, spec).ipc();
    std::unique_lock<std::shared_mutex> lock(cacheMutex);
    baselineCache[key] = ipc;
    return ipc;
}

std::vector<SpeedupRow>
ExperimentRunner::speedups(const SystemConfig &config,
                           const std::vector<WorkloadSpec> &specs)
{
    // Baseline and policy runs are *separate* work items (even
    // indices baseline, odd indices policy), so a worker never
    // serializes a workload's baseline behind its policy run:
    // cold baselines for some workloads overlap with policy runs
    // for others, and cached baselines cost one shared-lock lookup.
    std::vector<SpeedupRow> rows(specs.size());
    std::vector<double> base(specs.size(), 0.0);
    parallelFor(2 * specs.size(), [&](std::size_t k) {
        const std::size_t i = k >> 1;
        const WorkloadSpec &spec = specs[i];
        if ((k & 1) == 0) {
            base[i] = baselineIpc(config, spec);
            return;
        }
        SpeedupRow row;
        row.workload = spec.name;
        row.suite = spec.suite;
        row.result = runOne(config, spec);
        rows[i] = std::move(row);
    });
    for (std::size_t i = 0; i < specs.size(); ++i) {
        rows[i].baselineIpc = base[i];
        rows[i].speedup = base[i] > 0.0
                              ? rows[i].result.ipc() / base[i]
                              : 1.0;
    }
    return rows;
}

std::set<std::string>
ExperimentRunner::adverseSet(const SystemConfig &base_config,
                             const std::vector<WorkloadSpec> &specs)
{
    SystemConfig pf_only = base_config;
    pf_only.policy = PolicyKind::kPfOnly;
    std::uint64_t key = pf_only.configKey();
    {
        std::shared_lock<std::shared_mutex> lock(cacheMutex);
        auto it = adverseCache.find(key);
        if (it != adverseCache.end())
            return it->second;
    }
    auto rows = speedups(pf_only, specs);
    std::set<std::string> adverse;
    for (const auto &row : rows) {
        if (row.speedup < 1.0)
            adverse.insert(row.workload);
    }
    std::unique_lock<std::shared_mutex> lock(cacheMutex);
    adverseCache[key] = adverse;
    return adverse;
}

CategorySummary
ExperimentRunner::summarize(const std::vector<SpeedupRow> &rows,
                            const std::set<std::string> &adverse)
{
    std::vector<double> spec, parsec, ligra, cvp, adv, fri, all;
    for (const auto &row : rows) {
        all.push_back(row.speedup);
        switch (row.suite) {
          case Suite::kSpec06:
          case Suite::kSpec17:
            spec.push_back(row.speedup);
            break;
          case Suite::kParsec:
            parsec.push_back(row.speedup);
            break;
          case Suite::kLigra:
            ligra.push_back(row.speedup);
            break;
          case Suite::kCvp:
            cvp.push_back(row.speedup);
            break;
          default:
            break;
        }
        if (adverse.count(row.workload))
            adv.push_back(row.speedup);
        else
            fri.push_back(row.speedup);
    }
    CategorySummary s;
    s.spec = geomean(spec);
    s.parsec = geomean(parsec);
    s.ligra = geomean(ligra);
    s.cvp = geomean(cvp);
    s.adverse = geomean(adv);
    s.friendly = geomean(fri);
    s.overall = geomean(all);
    return s;
}

double
ExperimentRunner::mixSpeedup(const SystemConfig &config,
                             const std::vector<WorkloadSpec> &mix_specs)
{
    SystemConfig base = config;
    base.policy = PolicyKind::kAllOff;

    SimResult base_res = runMix(base, mix_specs);
    SimResult res = runMix(config, mix_specs);

    std::vector<double> per_core;
    for (std::size_t c = 0; c < res.cores.size(); ++c) {
        double b = base_res.cores[c].ipc;
        per_core.push_back(b > 0.0 ? res.cores[c].ipc / b : 1.0);
    }
    return geomean(per_core);
}

} // namespace athena
