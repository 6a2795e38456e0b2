/**
 * @file
 * Simulation-engine throughput harness: drives Simulator end-to-end
 * over a matrix of configs x workloads x core counts and reports
 * simulated-accesses/sec (the engine's hot-path rate) plus
 * simulated-instructions/sec into a machine-readable
 * BENCH_throughput.json.
 *
 * This is the perf trajectory every engine-speed PR is judged
 * against. The matrix covers the distinct hot paths: cache-resident
 * streaming (prefetcher traffic dominates), DRAM-bound pointer
 * chasing (OCP + DRAM model dominate), the full learning stack
 * (Athena agent in the loop, including a short-epoch policy-heavy
 * case and a two-prefetcher CD3 case), and multi-core mixes — 4-core
 * synthetic, the 8-core Fig-16 shape, a 4-core trace-replay mix
 * (multi-core burst stepping plus shared LLC/DRAM contention),
 * and the 16/32-core sharded presets (banked LLC + channeled DRAM
 * via makeManyCoreConfig — the scaled shared-memory plane).
 *
 * Every case runs ATHENA_BENCH_REPEATS times (default 3) and reports
 * the best (minimum-wall) run, which is robust to scheduler noise on
 * shared hosts. Perf claims against a parent build are made with
 * alternated perfbench pairs (perfbench/README.md), not with this
 * matrix.
 *
 * Knobs:
 *  - ATHENA_SIM_INSTR      measured instructions per run (default 2M)
 *  - ATHENA_WARMUP_INSTR   warmup instructions per run (default 50k)
 *  - ATHENA_BENCH_REPEATS  repeats per case (default 3; 1 in CI)
 *  - ATHENA_BENCH_JSON     output path (default BENCH_throughput.json)
 *  - ATHENA_BENCH_FILTER   comma-separated list of substrings: run
 *                          only cases whose name contains at least
 *                          one of them (CI smoke runs)
 */

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "trace/trace_file.hh"
#include "trace/zoo.hh"

namespace
{

using namespace athena;

std::uint64_t
envOr(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    return std::strtoull(v, nullptr, 10);
}

struct Case
{
    std::string name;
    SystemConfig cfg;
    std::vector<WorkloadSpec> specs; ///< One per core.
    /** Per-core instruction scale (multi-core cases run shorter
     *  per core so total simulated work stays comparable). */
    unsigned instrDivisor = 1;
};

struct CaseResult
{
    std::string name;
    unsigned cores = 1;
    std::uint64_t instructions = 0;
    std::uint64_t accesses = 0;
    double wallSeconds = 0.0;
    double ipc = 0.0;
};

CaseResult
runCase(const Case &c, std::uint64_t instr, std::uint64_t warmup)
{
    Simulator sim(c.cfg, c.specs);
    RunPlan plan(instr / c.instrDivisor, warmup / c.instrDivisor);
    auto t0 = std::chrono::steady_clock::now();
    SimResult res = sim.run(plan);
    auto t1 = std::chrono::steady_clock::now();

    CaseResult out;
    out.name = c.name;
    out.cores = c.cfg.cores;
    std::uint64_t cycles_max = 1;
    for (const auto &core : res.cores) {
        out.instructions += core.instructions;
        out.accesses += core.loads + core.stores;
        cycles_max = std::max(cycles_max, core.cycles);
    }
    out.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    out.ipc = static_cast<double>(out.instructions) /
              static_cast<double>(cycles_max);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t instr = envOr("ATHENA_SIM_INSTR", 2000000);
    std::uint64_t warmup = envOr("ATHENA_WARMUP_INSTR", 50000);
    auto repeats =
        static_cast<unsigned>(envOr("ATHENA_BENCH_REPEATS", 3));
    if (repeats == 0)
        repeats = 1;
    const char *json_env = std::getenv("ATHENA_BENCH_JSON");
    std::string json_path =
        argc > 1 ? argv[1]
                 : (json_env && *json_env ? json_env
                                          : "BENCH_throughput.json");

    auto workloads = evalWorkloads();
    const WorkloadSpec &stream = workloads.front();
    const WorkloadSpec *chase = &workloads.front();
    for (const WorkloadSpec &w : workloads) {
        if (w.name.find("mcf") != std::string::npos ||
            w.name.find("chase") != std::string::npos) {
            chase = &w;
            break;
        }
    }
    // A 4-core mix of distinct workloads (fig15-style stepping).
    std::vector<WorkloadSpec> mix4;
    for (std::size_t i = 0; mix4.size() < 4 && i < workloads.size();
         i += workloads.size() / 4)
        mix4.push_back(workloads[i]);
    while (mix4.size() < 4)
        mix4.push_back(workloads.front());
    // An 8-core mix spread across the zoo (fig16-style stepping).
    std::vector<WorkloadSpec> mix8;
    for (std::size_t i = 0; i < 8; ++i)
        mix8.push_back(workloads[(i * workloads.size()) / 8]);

    std::vector<Case> cases;
    auto add_sc = [&](std::string name, SystemConfig cfg,
                      const WorkloadSpec &spec) {
        cases.push_back({std::move(name), std::move(cfg), {spec}, 1});
    };
    // Single-core: streaming and pointer chasing under CD1 naive and
    // Athena, and chasing under CD4 Athena.
    add_sc("cd1_naive_" + stream.name,
           makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive),
           stream);
    add_sc("cd1_naive_" + chase->name,
           makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive),
           *chase);
    add_sc("cd1_athena_" + stream.name,
           makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena),
           stream);
    add_sc("cd4_athena_" + chase->name,
           makeDesignConfig(CacheDesign::kCd4, PolicyKind::kAthena),
           *chase);
    // Athena-policy-heavy: 500-instruction epochs run the full
    // agent decision loop ~16x more often per simulated
    // instruction.
    {
        SystemConfig cfg =
            makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
        cfg.epochInstructions = 500;
        add_sc("cd1_athena_epoch500_" + stream.name, cfg, stream);
    }
    // Two coordinated L2C prefetchers (CD3) under Athena.
    add_sc("cd3_athena_" + stream.name,
           makeDesignConfig(CacheDesign::kCd3, PolicyKind::kAthena),
           stream);
    // 4-core mixes: the multi-core step picker inner loop.
    {
        SystemConfig cfg =
            makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
        cfg.cores = 4;
        cases.push_back({"mc4_cd1_naive_mix", cfg, mix4, 4});
        SystemConfig acfg =
            makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
        acfg.cores = 4;
        cases.push_back({"mc4_cd1_athena_mix", acfg, mix4, 4});
        // Policy-heavy multi-core: 500-instruction epochs on every
        // core put the agent + predictor decision loop under
        // multi-core stepping.
        SystemConfig ecfg = acfg;
        ecfg.epochInstructions = 500;
        cases.push_back(
            {"mc4_cd1_athena_epoch500_mix", ecfg, mix4, 4});
    }
    // DRAM-pressure case: two L2C prefetchers (CD3) x 4 cores at a
    // bandwidth-starved 1.6 GB/s/core — prefetch bursts pile onto
    // the shared data bus, so off-chip prefetch service is the
    // dominant DRAM path.
    {
        SystemConfig cfg =
            makeDesignConfig(CacheDesign::kCd3, PolicyKind::kNaive);
        cfg.cores = 4;
        cfg.bandwidthGBps = 1.6;
        cases.push_back({"mc4_cd3_naive_lowbw_mix", cfg, mix4, 4});
    }
    // 8-core Fig-16-style case: eight private hierarchies
    // contending on the shared LLC/DRAM under the full Athena
    // learning stack.
    {
        SystemConfig cfg =
            makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
        cfg.cores = 8;
        cases.push_back({"mc8_cd1_athena_fig16_mix", cfg, mix8, 8});
    }
    // 16/32-core sharded presets: the scaled shared-memory plane
    // (banked LLC + channeled DRAM): many cores stepping against
    // per-bank/per-channel shared state. Per-core budget
    // shrinks with the core count so total simulated work stays
    // comparable to the rest of the matrix.
    {
        auto strided = [&](std::size_t n) {
            std::vector<WorkloadSpec> mix;
            for (std::size_t i = 0; i < n; ++i)
                mix.push_back(workloads[(i * workloads.size()) / n]);
            return mix;
        };
        cases.push_back({"mc16_cd1_athena_sharded_mix",
                         makeManyCoreConfig(16, CacheDesign::kCd1,
                                            PolicyKind::kAthena),
                         strided(16), 16});
        cases.push_back({"mc32_cd1_naive_sharded_mix",
                         makeManyCoreConfig(32), strided(32), 32});
    }
    // Trace replay smoke: the checked-in sample looped infinitely,
    // so the TraceFile decode + replay refill path sits in the
    // guarded throughput aggregate alongside the synthetic kernels.
    // The sample resolves via ATHENA_TRACE_SMOKE, the working
    // directory, then the compiled-in source tree. An unresolvable
    // sample is a hard error: silently dropping the fastest case
    // would shrink the aggregate and trip the regression guard with
    // a phantom regression.
    {
        const char *trace_env = std::getenv("ATHENA_TRACE_SMOKE");
        std::string trace_path;
        if (trace_env && *trace_env) {
            trace_path = trace_env; // explicit choice: no fallback
        } else {
            trace_path = "tests/data/sample_mix.bin";
            if (!std::ifstream(trace_path).good()) {
                trace_path = std::string(ATHENA_SOURCE_DIR) +
                             "/tests/data/sample_mix.bin";
            }
        }
        if (!std::ifstream(trace_path).good()) {
            std::cerr << "cannot resolve trace smoke sample: "
                      << trace_path
                      << " (set ATHENA_TRACE_SMOKE)\n";
            return 1;
        }
        WorkloadSpec replay =
            traceWorkloadSpec("sample_mix.bin", trace_path, 0);
        add_sc("cd1_naive_trace_replay",
               makeDesignConfig(CacheDesign::kCd1,
                                PolicyKind::kNaive),
               replay);
        // 4-core trace-replay mix: the finite-stream replay refill
        // path under multi-core stepping. Cores alternate the
        // binary sample with its text sibling when that resolves
        // (distinct decode paths), else replay the same sample.
        {
            WorkloadSpec alt = replay;
            auto slash = trace_path.find_last_of('/');
            std::string loop_path =
                (slash == std::string::npos
                     ? std::string()
                     : trace_path.substr(0, slash + 1)) +
                "sample_loop.txt";
            if (std::ifstream(loop_path).good()) {
                alt = traceWorkloadSpec("sample_loop.txt",
                                        loop_path, 0);
            }
            SystemConfig cfg = makeDesignConfig(
                CacheDesign::kCd1, PolicyKind::kNaive);
            cfg.cores = 4;
            cases.push_back({"mc4_cd1_naive_trace_replay_mix", cfg,
                             {replay, alt, replay, alt}, 4});
        }
    }

    // Case filter (CI smoke): a comma-separated list of substrings;
    // keep cases whose name contains at least one of them. An empty
    // match is a hard error — a typo'd filter silently benchmarking
    // nothing would look like a perf miracle.
    const char *filter_env = std::getenv("ATHENA_BENCH_FILTER");
    if (filter_env && *filter_env) {
        std::vector<std::string> tokens;
        std::string filter = filter_env;
        for (std::size_t pos = 0; pos <= filter.size();) {
            std::size_t comma = filter.find(',', pos);
            if (comma == std::string::npos)
                comma = filter.size();
            if (comma > pos)
                tokens.push_back(filter.substr(pos, comma - pos));
            pos = comma + 1;
        }
        std::vector<Case> kept;
        for (Case &c : cases) {
            for (const std::string &t : tokens) {
                if (c.name.find(t) != std::string::npos) {
                    kept.push_back(std::move(c));
                    break;
                }
            }
        }
        if (kept.empty()) {
            std::cerr << "ATHENA_BENCH_FILTER='" << filter_env
                      << "' matches no case\n";
            return 1;
        }
        cases = std::move(kept);
    }

    std::vector<CaseResult> best(cases.size());
    for (unsigned r = 0; r < repeats; ++r) {
        for (std::size_t i = 0; i < cases.size(); ++i) {
            CaseResult res = runCase(cases[i], instr, warmup);
            if (best[i].name.empty() ||
                res.wallSeconds < best[i].wallSeconds)
                best[i] = res;
        }
    }

    std::uint64_t total_instr = 0, total_accesses = 0;
    std::uint64_t sc_accesses = 0, mc_accesses = 0;
    double total_wall = 0.0, sc_wall = 0.0, mc_wall = 0.0;
    for (const CaseResult &res : best) {
        std::cout << res.name << ": "
                  << static_cast<std::uint64_t>(
                         static_cast<double>(res.accesses) /
                         res.wallSeconds)
                  << " accesses/sec (" << res.cores << " core, ipc "
                  << res.ipc << ", " << res.wallSeconds << " s)\n";
        total_instr += res.instructions;
        total_accesses += res.accesses;
        total_wall += res.wallSeconds;
        if (res.cores == 1) {
            sc_accesses += res.accesses;
            sc_wall += res.wallSeconds;
        } else {
            mc_accesses += res.accesses;
            mc_wall += res.wallSeconds;
        }
    }

    auto rate = [](std::uint64_t n, double wall) {
        return wall > 0.0 ? static_cast<double>(n) / wall : 0.0;
    };
    double accesses_per_sec = rate(total_accesses, total_wall);
    double instr_per_sec = rate(total_instr, total_wall);
    double sc_rate = rate(sc_accesses, sc_wall);
    double mc_rate = rate(mc_accesses, mc_wall);

    std::ofstream json(json_path);
    if (!json) {
        std::cerr << "cannot open " << json_path << "\n";
        return 1;
    }
    json << "{\n"
         << "  \"benchmark\": \"bench_throughput\",\n"
         << "  \"sim_instructions\": " << instr << ",\n"
         << "  \"warmup_instructions\": " << warmup << ",\n"
         << "  \"repeats\": " << repeats << ",\n"
         << "  \"accesses_per_sec\": " << accesses_per_sec << ",\n"
         << "  \"instructions_per_sec\": " << instr_per_sec << ",\n"
         << "  \"single_core_accesses_per_sec\": " << sc_rate
         << ",\n"
         << "  \"multi_core_accesses_per_sec\": " << mc_rate
         << ",\n"
         << "  \"wall_seconds\": " << total_wall << ",\n";
    json << "  \"cases\": [\n";
    for (std::size_t i = 0; i < best.size(); ++i) {
        const CaseResult &r = best[i];
        json << "    {\"name\": \"" << r.name << "\", "
             << "\"cores\": " << r.cores << ", "
             << "\"instructions\": " << r.instructions << ", "
             << "\"accesses\": " << r.accesses << ", "
             << "\"wall_seconds\": " << r.wallSeconds << ", "
             << "\"ipc\": " << r.ipc << "}"
             << (i + 1 < best.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";

    std::cout << "TOTAL: "
              << static_cast<std::uint64_t>(accesses_per_sec)
              << " accesses/sec (sc "
              << static_cast<std::uint64_t>(sc_rate) << ", mc "
              << static_cast<std::uint64_t>(mc_rate) << ") over "
              << total_wall << " s -> " << json_path << "\n";
    return 0;
}
