/**
 * @file
 * The repository benchmark: runs one workload through the public
 * Simulator / RunPlan / SimResult API in a closed loop with one client
 * (each simulation starts after the previous one returns), checks every
 * run's output against a digest, and prints one JSON result line.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
 *   perfbench --selftest --out DIR
 *
 * --trace 0 reports the end-to-end metrics from untraced runs.
 * --trace 1 reports the per-layer metrics: counters from the untraced
 * runs' SimResult, host times from the traced replay (replay.hh).
 * perfbench/run.py builds this binary and is the entry point.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "replay.hh"
#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "trace/zoo.hh"

namespace perfbench
{
namespace
{

using namespace athena;
using Clock = std::chrono::steady_clock;

/** The seed that reproduces the zoo's own streams. */
constexpr std::uint64_t kDefaultSeed = 0;
/** Timed runs per invocation, however short --seconds is. */
constexpr unsigned kMinRuns = 3;
/**
 * Typical HostGauge::time() and HostGauge::fillTime() on a 4-CPU Xeon
 * virtual machine: the host speed the end-to-end times are normalized
 * to.
 */
constexpr double kGaugeNominalS = 0.015;
constexpr double kFillNominalS = 0.001;
/** Replay spans are kept for 1 in this many instructions. */
constexpr std::uint64_t kSpanSample = 64;
constexpr std::size_t kMaxSpans = 1u << 21;

/**
 * Digest of every workload's SimResult at kDefaultSeed and the full
 * budget. A change that alters simulated behaviour changes these.
 */
const std::map<std::string, std::uint64_t> kPinnedDigests = {
    {"chase_cd4_athena_e500", 0x0279a716d34fddf5ull},
    {"stream_cd3_pfonly", 0xa78de0c46d9b51aeull},
    {"mix16_cd1_athena_resume", 0x1880c7bfd8cfa2f6ull},
};

const std::vector<std::string> kWorkloads = {
    "chase_cd4_athena_e500", "stream_cd3_pfonly",
    "mix16_cd1_athena_resume"};

std::uint64_t
foldSeed(std::uint64_t base, std::uint64_t seed)
{
    return base ^ (seed * 0x9e3779b97f4a7c15ull);
}

/**
 * Build a workload. The seed is folded into every stream seed and the
 * system seed; the simulator sees only the resulting specs.
 */
Workload
makeBenchWorkload(const std::string &name, std::uint64_t seed)
{
    const std::vector<WorkloadSpec> zoo = evalWorkloads();
    Workload w;
    w.name = name;
    if (name == "chase_cd4_athena_e500") {
        // Pointer chasing: most loads go off-chip, and 500-instruction
        // epochs make the agent decide 16x as often as the default.
        w.cfg = makeDesignConfig(CacheDesign::kCd4, PolicyKind::kAthena);
        w.cfg.epochInstructions = 500;
        w.specs = {findWorkload(zoo, "429.mcf-184B")};
        w.measured = 2'000'000;
        w.warmup = 200'000;
    } else if (name == "stream_cd3_pfonly") {
        // Streaming under the static pf-only policy: prefetchers and a
        // bandwidth-bound DRAM queue work, the OCP and the agent idle.
        w.cfg = makeDesignConfig(CacheDesign::kCd3, PolicyKind::kPfOnly);
        w.specs = {findWorkload(zoo, "410.bwaves-1963B")};
        w.measured = 4'000'000;
        w.warmup = 200'000;
    } else if (name == "mix16_cd1_athena_resume") {
        // 16 cores over 4 LLC banks and 2 DRAM channels, the strided
        // zoo mix, timed from a warmup snapshot.
        w.cfg = makeManyCoreConfig(16, CacheDesign::kCd1,
                                   PolicyKind::kAthena);
        for (std::size_t i = 0; i < 16; ++i)
            w.specs.push_back(zoo[(i * zoo.size()) / 16]);
        w.measured = 250'000;
        w.warmup = 60'000;
        w.resume = true;
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    w.cfg.seed = foldSeed(w.cfg.seed, seed);
    for (WorkloadSpec &s : w.specs)
        s.seed = foldSeed(s.seed, seed);
    return w;
}

/** FNV-1a over the little-endian bytes of each field. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
        }
    }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (unsigned char c : s)
            h = (h ^ c) * 1099511628211ull;
    }
};

/** Digest over every counter of every core plus the DRAM counters. */
std::uint64_t
digest(const SimResult &r)
{
    Fnv f;
    for (const SimResult::PerCore &c : r.cores) {
        f.str(c.workload);
        f.f64(c.ipc);
        f.u64(c.instructions);
        f.u64(c.cycles);
        f.u64(c.completedInstructions);
        f.u64(c.streamExhausted);
        f.u64(c.loads);
        f.u64(c.stores);
        f.u64(c.branchMispredicts);
        f.u64(c.llcMisses);
        f.u64(c.llcMissLatency);
        for (const PrefetcherSlotStats &p : c.pf) {
            f.u64(p.issued);
            f.u64(p.used);
            f.u64(p.usedTimely);
            f.u64(p.uselessEvictions);
            f.u64(p.fillsFromDram);
            f.u64(p.fillsFromDramUnused);
        }
        f.u64(c.ocpPredictions);
        f.u64(c.ocpCorrect);
        for (std::uint64_t a : c.actionHistogram)
            f.u64(a);
    }
    f.u64(r.dram.demandRequests);
    f.u64(r.dram.prefetchRequests);
    f.u64(r.dram.ocpRequests);
    f.u64(r.dram.rowHits);
    f.u64(r.dram.rowMisses);
    f.u64(r.dram.busBusyCycles);
    f.f64(r.busUtilization);
    return f.h;
}

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Restart the kernel's peak-RSS mark (VmHWM) at the current RSS. */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/**
 * From here on, keep freed memory in the process. By default glibc
 * raises its mmap and trim thresholds when it first frees a large
 * block, at a run that varies between invocations, and every later
 * set-up switches from faulting its tables in afresh (about 0.9 ms on
 * chase) to reusing memory the process holds (about 0.2 ms).
 */
void
holdFreedMemory()
{
    // Sanitizer allocators refuse mallopt; the runs stay correct.
    if (!mallopt(M_MMAP_THRESHOLD, 32 << 20) ||
        !mallopt(M_TRIM_THRESHOLD, 1 << 30))
        std::cerr << "perfbench: mallopt refused, freed memory not held\n";
}

/** Peak resident set since the last reset, in MB (10^6 bytes). */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) * 1024.0 / 1e6;
    }
    throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linearly interpolated percentile, p in [0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/** Simulated instructions over the slowest core's cycles. */
double
simIpc(const SimResult &r)
{
    std::uint64_t instr = 0;
    std::uint64_t cycles = 0;
    for (const SimResult::PerCore &c : r.cores) {
        instr += c.instructions;
        cycles = std::max(cycles, c.cycles);
    }
    return ratio(static_cast<double>(instr), static_cast<double>(cycles));
}

std::uint64_t
completedInstructions(const SimResult &r)
{
    std::uint64_t n = 0;
    for (const SimResult::PerCore &c : r.cores)
        n += c.completedInstructions;
    return n;
}

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/**
 * Host-speed gauge. The benchmark shares a host whose speed drifts by
 * up to +-20% within a minute and by 2-2.6x between busy and quiet
 * periods as other tenants come and go, and every workload's rate
 * moves with it. The gauge times fixed units of work shaped like the
 * simulator's own host work: a synthetic stream of strided and random
 * lines walked through three levels of set-associative LRU tags plus
 * a table of 2-bit counters, and a table fill. It lives here, apart
 * from src/, so no change to the simulator moves it. Timed between
 * runs, it tracks the drift closely enough to cancel most of it: on a
 * 4-CPU Xeon virtual machine, ten 40 s runs that spanned a change from
 * quiet to busy spread 52-83% IQR raw and 5-18% normalized.
 */
class HostGauge
{
  public:
    HostGauge()
        : l1(64, 8), l2(1024, 8), l3(32768, 16), counters(1u << 16),
          table(1u << 20)
    {
        time(); // first touch of the tables
        fillTime();
    }

    /** Host seconds for one fixed walk of the cache hierarchy. */
    double
    time()
    {
        const auto t0 = Clock::now();
        std::uint64_t acc = 0;
        for (unsigned i = 0; i < kSteps; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const std::uint64_t line =
                (x & 3) ? (stride++ & ((1u << 22) - 1))
                        : (x >> 20) & ((1u << 24) - 1);
            std::uint8_t &c = counters[(x >> 8) & 0xffff];
            const bool taken = (x >> 40) & 1;
            if ((c >= 2) != taken)
                acc += 7;
            c = taken ? (c < 3 ? c + 1 : 3) : (c ? c - 1 : 0);
            if (!l1.access(line)) {
                ++acc;
                if (!l2.access(line)) {
                    acc += 3;
                    if (!l3.access(line))
                        acc += 11;
                }
            }
        }
        sink = acc;
        return seconds(t0, Clock::now());
    }

    /**
     * Host seconds to fill a held 8 MB table: the memory-bound work
     * that dominates a fresh single-core constructor, which moves
     * further with the host than the cache walk does (3.2x against
     * 2.2x between a busy and a quiet period).
     */
    double
    fillTime()
    {
        const auto t0 = Clock::now();
        std::fill(table.begin(), table.end(), ++fills);
        sink = table[fills % table.size()];
        return seconds(t0, Clock::now());
    }

  private:
    static constexpr unsigned kSteps = 200'000;

    struct Level
    {
        unsigned sets;
        unsigned ways;
        std::vector<std::uint64_t> tags;
        std::vector<std::uint32_t> stamps;
        std::uint32_t clock = 0;

        Level(unsigned s, unsigned w)
            : sets(s), ways(w), tags(std::size_t{s} * w, ~0ull),
              stamps(std::size_t{s} * w, 0)
        {}

        /** True on a hit; a miss replaces the least recently used. */
        bool
        access(std::uint64_t line)
        {
            const std::size_t base =
                static_cast<std::size_t>(line & (sets - 1)) * ways;
            ++clock;
            unsigned victim = 0;
            std::uint32_t oldest = ~0u;
            for (unsigned w = 0; w < ways; ++w) {
                if (tags[base + w] == line) {
                    stamps[base + w] = clock;
                    return true;
                }
                if (stamps[base + w] < oldest) {
                    oldest = stamps[base + w];
                    victim = w;
                }
            }
            tags[base + victim] = line;
            stamps[base + victim] = clock;
            return false;
        }
    };

    Level l1, l2, l3;
    std::vector<std::uint8_t> counters;
    std::vector<std::uint64_t> table;
    std::uint64_t fills = 0;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::uint64_t stride = 0;
    volatile std::uint64_t sink = 0;
};

/** One timed simulation. */
struct RunSample
{
    double setupS = 0.0;
    double runS = 0.0;
    double cpuS = 0.0;
    /** Instructions Simulator::run simulated, summed over cores. */
    std::uint64_t simulated = 0;
    SimResult result;
};

/**
 * A workload made ready to run: for a resumed workload, the warmup
 * snapshot of this seed is written once here and every run resumes
 * from it.
 */
class Bench
{
  public:
    Bench(Workload workload, const std::string &dir, std::uint64_t seed)
        : w(std::move(workload))
    {
        if (!w.resume)
            return;
        snapPath = dir + "/" + w.name + "-seed" + std::to_string(seed) +
                   ".asnp";
        // The straight-through run that writes the snapshot is also
        // the reference every resumed run must reproduce.
        {
            Simulator sim(w.cfg, w.specs);
            RunPlan plan(w.measured, w.warmup);
            plan.snapshotAfterWarmup = snapPath;
            straightDigest = digest(sim.run(plan));
        }
        // A zero-length resumed run reports the snapshot's retired
        // counts, which the timed runs subtract.
        Simulator probe(w.cfg, w.specs, snapPath);
        resumedFrom = completedInstructions(
            probe.run(RunPlan(0, w.warmup)));
    }

    ~Bench()
    {
        if (!snapPath.empty()) {
            std::error_code ec;
            std::filesystem::remove(snapPath, ec);
        }
    }

    Bench(const Bench &) = delete;
    Bench &operator=(const Bench &) = delete;

    const Workload &workload() const { return w; }
    const std::string &snapshotPath() const { return snapPath; }
    /** Digest of the straight-through run (resumed workloads). */
    std::optional<std::uint64_t> reference() const
    {
        return straightDigest;
    }

    /**
     * Construct (timed as set-up), run (timed), and hand the simulator
     * to @p after before it is destroyed.
     */
    template <class After>
    RunSample
    runOnce(After &&after)
    {
        RunSample s;
        const auto t0 = Clock::now();
        auto sim =
            w.resume
                ? std::make_unique<Simulator>(w.cfg, w.specs, snapPath)
                : std::make_unique<Simulator>(w.cfg, w.specs);
        const auto t1 = Clock::now();
        const double cpu0 = processCpuSeconds();
        s.result = sim->run(RunPlan(w.measured, w.warmup));
        const auto t2 = Clock::now();
        s.cpuS = processCpuSeconds() - cpu0;
        s.setupS = seconds(t0, t1);
        s.runS = seconds(t1, t2);
        s.simulated = completedInstructions(s.result) - resumedFrom;
        after(*sim);
        return s;
    }

    RunSample
    runOnce()
    {
        return runOnce([](Simulator &) {});
    }

  private:
    Workload w;
    std::string snapPath;
    std::optional<std::uint64_t> straightDigest;
    std::uint64_t resumedFrom = 0;
};

/** What one invocation measured. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::uint64_t digest = 0;
    std::vector<Metric> metrics;
    /** Figures stored with the result but not guarded. */
    std::vector<Metric> notes;
};

/**
 * Checks each run's digest against one reference: the pinned digest on
 * the default seed, the straight-through run on a resumed workload, and
 * otherwise the invocation's first run.
 */
class OutputCheck
{
  public:
    OutputCheck(Outcome &o, std::optional<std::uint64_t> expect)
        : out(o), want(expect)
    {}

    /** Record one attempt; true when its output is correct. */
    bool
    pass(const SimResult &r)
    {
        ++out.attempted;
        const std::uint64_t d = digest(r);
        if (!want)
            want = d;
        out.digest = d;
        if (d == *want)
            return true;
        fail("digest " + hex(d) + " != expected " + hex(*want));
        return false;
    }

    void
    fail(const std::string &why)
    {
        ++out.failed;
        out.correct = false;
        std::cerr << "perfbench: run failed: " << why << "\n";
    }

    /** An attempt that threw. */
    void
    error(const std::exception &e)
    {
        ++out.attempted;
        fail(e.what());
    }

    static std::string
    hex(std::uint64_t v)
    {
        char buf[19];
        std::snprintf(buf, sizeof(buf), "0x%016llx",
                      static_cast<unsigned long long>(v));
        return buf;
    }

  private:
    Outcome &out;
    std::optional<std::uint64_t> want;
};

std::optional<std::uint64_t>
expectedDigest(const Bench &b, std::uint64_t seed)
{
    if (seed == kDefaultSeed)
        return kPinnedDigests.at(b.workload().name);
    return b.reference();
}

/**
 * End-to-end metrics from untraced runs only. Each run's rate and
 * set-up time are normalized to the nominal host speed: scaled by a
 * gauge timed on either side of the run (geometric mean) relative to
 * its nominal time. The rate and a snapshot resume use the cache walk;
 * a fresh constructor uses the table fill. The raw medians and the
 * gauges are kept as notes.
 */
Outcome
measureEndToEnd(Bench &b, std::optional<std::uint64_t> expect,
                double budget_s)
{
    Outcome o;
    OutputCheck check(o, expect);
    std::vector<double> rates, raw_rates, gauges, fills, setups, raw_setups;
    double ipc = 0.0;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(budget_s);
    // Peak memory of one untimed run, taken with the default allocator
    // and before the gauge allocates its tables; the run also warms the
    // host caches.
    resetPeakRss();
    try {
        check.pass(b.runOnce().result);
    } catch (const std::exception &e) {
        check.error(e);
    }
    const double peak_mb = peakRssMb();
    holdFreedMemory();
    {
        HostGauge gauge;
        double before = gauge.time();
        double fill_before = gauge.fillTime();
        while (o.attempted < 1 + kMinRuns || Clock::now() < deadline) {
            try {
                const RunSample s = b.runOnce();
                const double after = gauge.time();
                const double fill_after = gauge.fillTime();
                const double g = std::sqrt(before * after);
                const double f = std::sqrt(fill_before * fill_after);
                before = after;
                fill_before = fill_after;
                if (!check.pass(s.result))
                    continue;
                const double rate =
                    static_cast<double>(s.simulated) / s.runS / 1e6;
                raw_rates.push_back(rate);
                rates.push_back(rate * g / kGaugeNominalS);
                gauges.push_back(g);
                fills.push_back(f);
                raw_setups.push_back(s.setupS);
                setups.push_back(b.workload().resume
                                     ? s.setupS * kGaugeNominalS / g
                                     : s.setupS * kFillNominalS / f);
                ipc = simIpc(s.result);
            } catch (const std::exception &e) {
                check.error(e);
            }
        }
    }
    o.metrics = {
        {"sim_minstr_per_s", "Minstr/s", median(rates)},
        {"setup_s", "s", median(setups)},
        {"peak_rss_mb", "MB", peak_mb},
        {"sim_ipc", "instr/cycle", ipc},
    };
    o.notes = {
        {"raw_sim_minstr_per_s", "Minstr/s", median(raw_rates)},
        {"raw_setup_s", "s", median(raw_setups)},
        {"gauge_s", "s", median(gauges)},
        {"fill_s", "s", median(fills)},
    };
    return o;
}

/** Sums of the traced replays' layer totals. */
struct LayerTotals
{
    std::array<double, static_cast<unsigned>(Layer::kCount)> selfNs{};
    std::array<double, static_cast<unsigned>(Layer::kCount)> calls{};
    std::vector<double> epochUs;
    ReplayStats stats;
    unsigned replays = 0;

    void
    add(const Tracer &t, const ReplayStats &s)
    {
        for (unsigned l = 0; l < selfNs.size(); ++l) {
            selfNs[l] += t.selfNs(Layer(l));
            calls[l] += static_cast<double>(t.calls(Layer(l)));
        }
        for (double ns : t.epochNs())
            epochUs.push_back(ns / 1e3);
        stats.instructions += s.instructions;
        stats.records += s.records;
        stats.loads += s.loads;
        stats.steps += s.steps;
        stats.observes[0] += s.observes[0];
        stats.observes[1] += s.observes[1];
        ++replays;
    }

    /** Never below zero, though the tracer-cost correction can be. */
    double
    self(Layer l) const
    {
        return std::max(0.0, selfNs[static_cast<unsigned>(l)]);
    }
    double count(Layer l) const { return calls[static_cast<unsigned>(l)]; }
};

/** Per-layer metrics: SimResult counters plus the traced replay. */
Outcome
measurePerLayer(Bench &b, std::optional<std::uint64_t> expect,
                double budget_s, const std::string &span_csv)
{
    Outcome o;
    OutputCheck check(o, expect);
    const Workload &w = b.workload();
    std::optional<SimResult> first;
    std::vector<double> cpu_per_wall, run_ns_per_instr;
    std::vector<double> replay_s, replay_ns_per_instr, traced_s;
    LayerTotals tot;
    /** The first traced replay's spans, written out at the end. */
    std::optional<Tracer> kept;
    const std::string resave =
        b.snapshotPath().empty() ? "" : b.snapshotPath() + ".resave";
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(budget_s);
    while (o.attempted < kMinRuns || Clock::now() < deadline) {
        try {
            Tracer tracer(kSpanSample, kMaxSpans);
            // Snapshot spans (resumed workload only): save the run's
            // final state and resume a simulator from it.
            auto snap = [&](Simulator &sim) {
                if (resave.empty())
                    return;
                tracer.setInstr(0, 0);
                {
                    auto s = tracer.scope(Layer::kSnapshotSave);
                    sim.snapshot(resave);
                }
                std::unique_ptr<Simulator> again;
                {
                    auto s = tracer.scope(Layer::kSnapshotRestore);
                    again = std::make_unique<Simulator>(w.cfg, w.specs,
                                                        resave);
                }
            };
            const RunSample s = b.runOnce(snap);
            if (!check.pass(s.result))
                continue;
            if (!first)
                first = s.result;
            cpu_per_wall.push_back(s.cpuS / s.runS);
            run_ns_per_instr.push_back(s.runS * 1e9 /
                                       static_cast<double>(s.simulated));

            Tracer off;
            const ReplayStats plain = replay(w, off);
            replay_s.push_back(plain.wallSeconds);
            replay_ns_per_instr.push_back(
                plain.wallSeconds * 1e9 /
                static_cast<double>(plain.instructions));

            const ReplayStats traced = replay(w, tracer);
            traced_s.push_back(traced.wallSeconds);
            tot.add(tracer, traced);
            if (!kept)
                kept = std::move(tracer);
        } catch (const std::exception &e) {
            check.error(e);
        }
    }
    if (kept && !span_csv.empty() && !kept->writeCsv(span_csv))
        std::cerr << "perfbench: cannot write " << span_csv << "\n";
    if (!resave.empty()) {
        std::error_code ec;
        std::filesystem::remove(resave, ec);
    }

    const SimResult r = first.value_or(SimResult{});
    double instr = 0, mispredicts = 0, accesses = 0, llc_misses = 0,
           llc_miss_cycles = 0, ocp_pred = 0, ocp_correct = 0;
    std::array<PrefetcherSlotStats, 2> pf{};
    std::array<double, 4> actions{};
    for (const SimResult::PerCore &c : r.cores) {
        instr += static_cast<double>(c.instructions);
        mispredicts += static_cast<double>(c.branchMispredicts);
        accesses += static_cast<double>(c.loads + c.stores);
        llc_misses += static_cast<double>(c.llcMisses);
        llc_miss_cycles += static_cast<double>(c.llcMissLatency);
        ocp_pred += static_cast<double>(c.ocpPredictions);
        ocp_correct += static_cast<double>(c.ocpCorrect);
        for (unsigned k = 0; k < 2; ++k) {
            pf[k].issued += c.pf[k].issued;
            pf[k].used += c.pf[k].used;
            pf[k].usedTimely += c.pf[k].usedTimely;
            pf[k].fillsFromDram += c.pf[k].fillsFromDram;
            pf[k].fillsFromDramUnused += c.pf[k].fillsFromDramUnused;
        }
        for (unsigned a = 0; a < 4; ++a)
            actions[a] += static_cast<double>(c.actionHistogram[a]);
    }
    const DramCounters &d = r.dram;
    const double dram_total = static_cast<double>(d.totalRequests());
    const double per_replay = tot.replays ? tot.replays : 1;

    auto &m = o.metrics;
    m.push_back({"trace.ns_per_record", "ns",
                 ratio(tot.self(Layer::kTrace),
                       static_cast<double>(tot.stats.records))});
    m.push_back({"cpu.self_ns_per_instr", "ns",
                 ratio(tot.self(Layer::kCpu),
                       static_cast<double>(tot.stats.instructions))});
    m.push_back({"cpu.branch_mpki", "1/kinstr",
                 ratio(mispredicts * 1e3, instr)});
    const std::pair<const char *, Layer> caches[] = {
        {"mem.l1d.ns_per_access", Layer::kL1d},
        {"mem.l2c.ns_per_access", Layer::kL2c},
        {"mem.llc.ns_per_access", Layer::kLlc}};
    for (const auto &[name, layer] : caches)
        m.push_back(
            {name, "ns", ratio(tot.self(layer), tot.count(layer))});
    m.push_back({"mem.accesses", "count", accesses});
    m.push_back({"mem.llc_mpki", "1/kinstr",
                 ratio(llc_misses * 1e3, instr)});
    m.push_back({"mem.llc_miss_cycles", "cycles",
                 ratio(llc_miss_cycles, llc_misses)});
    m.push_back({"mem.dram.ns_per_request", "ns",
                 ratio(tot.self(Layer::kDram), tot.count(Layer::kDram))});
    m.push_back({"mem.dram.requests", "count", dram_total});
    m.push_back({"mem.dram.prefetch_frac", "frac",
                 ratio(static_cast<double>(d.prefetchRequests),
                       dram_total)});
    m.push_back({"mem.dram.ocp_frac", "frac",
                 ratio(static_cast<double>(d.ocpRequests), dram_total)});
    m.push_back({"mem.dram.row_hit_frac", "frac",
                 ratio(static_cast<double>(d.rowHits),
                       static_cast<double>(d.rowHits + d.rowMisses))});
    m.push_back({"mem.dram.bus_util", "frac", r.busUtilization});
    for (unsigned k = 0; k < 2; ++k) {
        const std::string p = "prefetch.s" + std::to_string(k) + ".";
        const PrefetcherSlotStats &s = pf[k];
        m.push_back({p + "issued", "count", static_cast<double>(s.issued)});
        m.push_back({p + "accuracy", "frac", s.accuracy()});
        m.push_back({p + "timely_frac", "frac",
                     ratio(static_cast<double>(s.usedTimely),
                           static_cast<double>(s.used))});
        m.push_back({p + "dram_fill_unused_frac", "frac",
                     s.offChipFillInaccuracy()});
        m.push_back({p + "ns_per_observe", "ns",
                     ratio(tot.self(k == 0 ? Layer::kPf0 : Layer::kPf1),
                           static_cast<double>(tot.stats.observes[k]))});
    }
    m.push_back({"ocp.ns_per_load", "ns",
                 ratio(tot.self(Layer::kOcp),
                       static_cast<double>(tot.stats.loads))});
    m.push_back({"ocp.predictions", "count", ocp_pred});
    m.push_back({"ocp.accuracy", "frac", ratio(ocp_correct, ocp_pred)});
    m.push_back({"coord.epochs", "count",
                 tot.count(Layer::kCoord) / per_replay});
    m.push_back({"coord.epoch_us.p50", "us", percentile(tot.epochUs, 50)});
    m.push_back({"coord.epoch_us.p99", "us", percentile(tot.epochUs, 99)});
    for (unsigned a = 0; a < 4; ++a)
        m.push_back({"athena.action." + std::to_string(a), "count",
                     actions[a]});
    m.push_back({"sim.pick_ns_per_step", "ns",
                 ratio(tot.self(Layer::kPick),
                       static_cast<double>(tot.stats.steps))});
    m.push_back({"sim.cpu_per_wall", "ratio", median(cpu_per_wall)});
    m.push_back({"snapshot.save_s", "s",
                 ratio(tot.self(Layer::kSnapshotSave),
                       tot.count(Layer::kSnapshotSave)) / 1e9});
    m.push_back({"snapshot.restore_s", "s",
                 ratio(tot.self(Layer::kSnapshotRestore),
                       tot.count(Layer::kSnapshotRestore)) / 1e9});
    double snap_mb = 0.0;
    if (!b.snapshotPath().empty())
        snap_mb = static_cast<double>(
                      std::filesystem::file_size(b.snapshotPath())) / 1e6;
    m.push_back({"snapshot.mb", "MB", snap_mb});
    m.push_back({"bench.tracing_overhead", "ratio",
                 ratio(median(traced_s), median(replay_s))});
    m.push_back({"bench.replay_coverage", "ratio",
                 ratio(median(replay_ns_per_instr),
                       median(run_ns_per_instr))});
    return o;
}

void
printJsonNumber(double v)
{
    std::printf("%.17g", std::isfinite(v) ? v : 0.0);
}

void
printResult(const Outcome &o)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                o.correct ? "true" : "false",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed));
    for (std::size_t i = 0; i < o.metrics.size(); ++i) {
        const Metric &m = o.metrics[i];
        std::printf("%s\"%s\": {\"value\": ", i ? ", " : "",
                    m.name.c_str());
        printJsonNumber(m.value);
        std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    }
    std::printf("}}\n");
}

void
printBuildInfo()
{
    std::printf("{\"build\": {\"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"lto\": %s}}\n",
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                PERFBENCH_LTO ? "true" : "false");
}

std::string
jsonList(const std::vector<std::string> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? ", \"" : "\"") + v[i] + "\"";
    return s + "]";
}

std::vector<std::string>
names(const Outcome &o)
{
    std::vector<std::string> v;
    for (const Metric &m : o.metrics)
        v.push_back(m.name);
    return v;
}

/**
 * Short-budget checks: the replay's measured instruction, load and
 * store counts equal SimResult's; two runs give the same digest (and a
 * resumed run the straight-through one); every metric name is legal
 * and the counts stay within 16 end-to-end and 128 per-layer metrics.
 */
int
selftest(const std::string &dir)
{
    std::vector<std::string> failures;
    auto check = [&](bool ok, const std::string &what) {
        std::cerr << (ok ? "ok   " : "FAIL ") << what << "\n";
        if (!ok)
            failures.push_back(what);
    };
    std::vector<std::string> e2e_names, layer_names;
    for (const std::string &name : kWorkloads) {
        Workload w = makeBenchWorkload(name, kDefaultSeed);
        w.measured = w.resume ? 4'000 : 40'000;
        w.warmup = w.resume ? 1'000 : 5'000;
        Bench b(std::move(w), dir, kDefaultSeed);

        const SimResult a = b.runOnce().result;
        const SimResult c = b.runOnce().result;
        check(digest(a) == digest(c), name + ": two runs, one digest");
        if (b.reference())
            check(digest(a) == *b.reference(),
                  name + ": resumed run reproduces the straight-through "
                         "run");

        std::uint64_t instr = 0, loads = 0, stores = 0;
        for (const SimResult::PerCore &pc : a.cores) {
            instr += pc.instructions;
            loads += pc.loads;
            stores += pc.stores;
        }
        Tracer off;
        Tracer on(kSpanSample, kMaxSpans);
        for (Tracer *t : {&off, &on}) {
            const ReplayStats r = replay(b.workload(), *t);
            const std::string mode = t->enabled() ? "traced" : "untraced";
            check(r.measuredInstructions == instr &&
                      r.measuredLoads == loads &&
                      r.measuredStores == stores,
                  name + ": " + mode +
                      " replay counts equal SimResult's (instr " +
                      std::to_string(r.measuredInstructions) + "/" +
                      std::to_string(instr) + ", loads " +
                      std::to_string(r.measuredLoads) + "/" +
                      std::to_string(loads) + ", stores " +
                      std::to_string(r.measuredStores) + "/" +
                      std::to_string(stores) + ")");
        }

        const Outcome e = measureEndToEnd(b, b.reference(), 0.0);
        const Outcome l = measurePerLayer(b, b.reference(), 0.0, "");
        check(e.correct && l.correct, name + ": metric runs correct");
        if (e2e_names.empty()) {
            e2e_names = names(e);
            layer_names = names(l);
        }
        check(names(e) == e2e_names && names(l) == layer_names,
              name + ": same metric names as every workload");
    }
    auto legal = [](const std::string &n) {
        return !n.empty() &&
               std::all_of(n.begin(), n.end(), [](char c) {
                   return (c >= 'A' && c <= 'Z') ||
                          (c >= 'a' && c <= 'z') ||
                          (c >= '0' && c <= '9') || c == '_' ||
                          c == '.' || c == '-';
               });
    };
    bool legal_names = true;
    for (const auto *list : {&e2e_names, &layer_names})
        legal_names = legal_names &&
                      std::all_of(list->begin(), list->end(), legal);
    check(legal_names, "metric names match [A-Za-z0-9_.-]+");
    check(!e2e_names.empty() && e2e_names.size() <= 16,
          "1 to 16 end-to-end metrics");
    check(!layer_names.empty() && layer_names.size() <= 128,
          "1 to 128 per-layer metrics");

    std::printf("{\"selftest\": {\"passed\": %s, \"failures\": %zu, "
                "\"end_to_end\": %s, \"per_layer\": %s}}\n",
                failures.empty() ? "true" : "false", failures.size(),
                jsonList(e2e_names).c_str(),
                jsonList(layer_names).c_str());
    return failures.empty() ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string workload, out = ".";
    std::uint64_t seed = kDefaultSeed;
    double secs = 10.0;
    bool trace = false, self_test = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--selftest") {
                self_test = true;
                continue;
            }
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for " + arg);
            const std::string val = argv[++i];
            if (arg == "--workload")
                workload = val;
            else if (arg == "--seed")
                seed = std::stoull(val);
            else if (arg == "--seconds")
                secs = std::stod(val);
            else if (arg == "--trace")
                trace = std::stoi(val) != 0;
            else if (arg == "--out")
                out = val;
            else
                throw std::invalid_argument("unknown argument " + arg);
        }
        std::filesystem::create_directories(out);
        printBuildInfo();
        if (self_test)
            return selftest(out);

        Bench b(makeBenchWorkload(workload, seed), out, seed);
        const auto expect = expectedDigest(b, seed);
        const Outcome o =
            trace ? measurePerLayer(b, expect, secs,
                                    out + "/spans-" + workload + "-seed" +
                                        std::to_string(seed) + ".csv")
                  : measureEndToEnd(b, expect, secs);
        std::printf("{\"digest\": \"%s\"",
                    OutputCheck::hex(o.digest).c_str());
        for (const Metric &n : o.notes) {
            std::printf(", \"%s\": ", n.name.c_str());
            printJsonNumber(n.value);
        }
        std::printf("}\n");
        printResult(o);
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
