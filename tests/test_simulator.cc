/**
 * @file
 * Simulator integration tests at small scale: policy knobs actually
 * gate traffic, prefetching/off-chip prediction move performance in
 * the right direction on the right patterns, determinism, and
 * multi-core bandwidth contention.
 */

#include <cstdint>
#include <functional>
#include <gtest/gtest.h>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "trace/zoo.hh"

namespace athena
{
namespace
{

constexpr std::uint64_t kInstr = 60000;
constexpr std::uint64_t kWarmup = 15000;

WorkloadSpec
streamSpec()
{
    WorkloadSpec spec;
    spec.name = "stream";
    spec.seed = 11;
    PhaseParams p;
    p.pattern = Pattern::kStream;
    p.instructions = 1u << 20;
    p.footprintBytes = 256ull << 20;
    p.hotFrac = 0.6;
    p.criticalFrac = 0.3;
    p.loadFrac = 0.33;
    spec.phases = {p};
    return spec;
}

WorkloadSpec
chaseSpec()
{
    WorkloadSpec spec;
    spec.name = "chase";
    spec.seed = 13;
    PhaseParams p;
    p.pattern = Pattern::kChase;
    p.instructions = 1u << 20;
    p.footprintBytes = 256ull << 20;
    p.hotFrac = 0.6;
    p.criticalFrac = 0.1;
    p.loadFrac = 0.25;
    spec.phases = {p};
    return spec;
}

SimResult
run(SystemConfig cfg, const WorkloadSpec &spec)
{
    Simulator sim(cfg, {spec});
    return sim.run({kInstr, kWarmup});
}

TEST(Simulator, AllOffIssuesNoSpeculativeTraffic)
{
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAllOff);
    SimResult res = run(cfg, streamSpec());
    EXPECT_EQ(res.dram.prefetchRequests, 0u);
    EXPECT_EQ(res.dram.ocpRequests, 0u);
    EXPECT_EQ(res.cores[0].pf[0].issued, 0u);
    EXPECT_EQ(res.cores[0].ocpPredictions, 0u);
    EXPECT_GT(res.cores[0].llcMisses, 100u);
}

TEST(Simulator, PrefetchingSpeedsUpStreams)
{
    SystemConfig base =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAllOff);
    SystemConfig pf =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kPfOnly);
    double ipc_base = run(base, streamSpec()).ipc();
    SimResult res_pf = run(pf, streamSpec());
    EXPECT_GT(res_pf.ipc(), ipc_base * 1.15);
    EXPECT_GT(res_pf.cores[0].pf[0].accuracy(), 0.8);
}

TEST(Simulator, OcpSpeedsUpPointerChase)
{
    SystemConfig base =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAllOff);
    SystemConfig ocp =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kOcpOnly);
    double ipc_base = run(base, chaseSpec()).ipc();
    SimResult res = run(ocp, chaseSpec());
    EXPECT_GT(res.ipc(), ipc_base * 1.03);
    EXPECT_GT(res.cores[0].ocpAccuracy(), 0.8);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    SimResult a = run(cfg, streamSpec());
    SimResult b = run(cfg, streamSpec());
    EXPECT_EQ(a.cores[0].cycles, b.cores[0].cycles);
    EXPECT_EQ(a.cores[0].llcMisses, b.cores[0].llcMisses);
    EXPECT_EQ(a.dram.totalRequests(), b.dram.totalRequests());
}

TEST(Simulator, OcpLatencyMattersForChase)
{
    SystemConfig fast =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kOcpOnly);
    fast.ocpIssueLatency = 6;
    SystemConfig slow = fast;
    slow.ocpIssueLatency = 60;
    double ipc_fast = run(fast, chaseSpec()).ipc();
    double ipc_slow = run(slow, chaseSpec()).ipc();
    EXPECT_GT(ipc_fast, ipc_slow);
}

TEST(Simulator, BandwidthScalesPerformance)
{
    SystemConfig narrow =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    narrow.bandwidthGBps = 1.6;
    SystemConfig wide = narrow;
    wide.bandwidthGBps = 12.8;
    double ipc_narrow = run(narrow, streamSpec()).ipc();
    double ipc_wide = run(wide, streamSpec()).ipc();
    EXPECT_GT(ipc_wide, ipc_narrow * 1.3);
}

TEST(Simulator, Cd4HasTwoPrefetcherSlots)
{
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd4, PolicyKind::kNaive);
    EXPECT_EQ(cfg.numPrefetchers(), 2u);
    SimResult res = run(cfg, streamSpec());
    EXPECT_GT(res.cores[0].pf[0].issued, 0u) << "L1D slot idle";
    EXPECT_GT(res.cores[0].pf[1].issued, 0u) << "L2C slot idle";
}

TEST(Simulator, TlpFiltersL1dPrefetchesOnChase)
{
    // Use an unconditional next-line L1D prefetcher so there is
    // prefetch traffic for TLP to filter (IPCP correctly finds no
    // pattern in a chase and stays quiet).
    SystemConfig naive =
        makeDesignConfig(CacheDesign::kCd2, PolicyKind::kNaive);
    naive.l1dPf = PrefetcherKind::kNextLine;
    SystemConfig tlp = naive;
    tlp.policy = PolicyKind::kTlp;
    // A pure chase (no hot set) makes every demand load off-chip,
    // so TLP's perceptron unambiguously learns to predict off-chip
    // for these PCs and filters their L1D prefetches.
    WorkloadSpec spec = chaseSpec();
    spec.phases[0].hotFrac = 0.0;
    SimResult res_naive = run(naive, spec);
    SimResult res_tlp = run(tlp, spec);
    // On a chase, TLP's perceptron predicts off-chip and drops L1D
    // prefetches, so fewer prefetches reach DRAM.
    EXPECT_LT(res_tlp.dram.prefetchRequests,
              res_naive.dram.prefetchRequests);
}

TEST(Simulator, MulticoreContendsForBandwidth)
{
    SystemConfig solo =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAllOff);
    double ipc_solo = run(solo, streamSpec()).ipc();

    SystemConfig quad = solo;
    quad.cores = 4;
    std::vector<WorkloadSpec> specs(4, streamSpec());
    Simulator sim(quad, specs);
    SimResult res = sim.run({kInstr / 2, kWarmup / 2});
    ASSERT_EQ(res.cores.size(), 4u);
    for (const auto &core : res.cores) {
        EXPECT_LT(core.ipc, ipc_solo * 1.02)
            << "sharing one channel cannot be faster than solo";
    }
    EXPECT_GT(res.busUtilization, 0.4);
}

TEST(Simulator, WorkloadCountMustMatchCores)
{
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    cfg.cores = 2;
    std::vector<WorkloadSpec> one = {streamSpec()};
    EXPECT_THROW(Simulator(cfg, one), std::invalid_argument);
}

TEST(Simulator, AthenaHistogramExported)
{
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    SimResult res = run(cfg, streamSpec());
    std::uint64_t total = 0;
    for (auto v : res.cores[0].actionHistogram)
        total += v;
    EXPECT_GT(total, 5u) << "epochs should have elapsed";
}

TEST(Simulator, PollutionMeasuredOnAdversePrefetching)
{
    // Force an always-on dumb next-line prefetcher on a chase: its
    // fills evict useful lines, and the pollution tracker must see
    // some of the resulting demand misses.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    cfg.l2cPf = PrefetcherKind::kNextLine;
    SimResult res = run(cfg, chaseSpec());
    EXPECT_GT(res.dram.prefetchRequests, 1000u);
}

TEST(Simulator, RejectsConfigsThatCrashedReleaseBuilds)
{
    // Each value once died in Release (SIGFPE in QVStore::rowOf,
    // SIGSEGV in QVStore::argmax or on a null prefetcher) or, for
    // the OCP, silently ran without one. Now the constructor or
    // factory that owns the field throws, naming it.
    struct Row
    {
        const char *names;
        std::function<void(SystemConfig &)> set;
    };
    const Row rows[] = {
        {"QVStoreParams::rows",
         [](SystemConfig &c) { c.athena.qv.rows = 0; }},
        {"QVStoreParams::actions",
         [](SystemConfig &c) { c.athena.qv.actions = 0; }},
        {"PrefetcherKind 200",
         [](SystemConfig &c) { c.l1dPf = PrefetcherKind{200}; }},
        {"PrefetcherKind 255",
         [](SystemConfig &c) { c.l2cPf = PrefetcherKind{255}; }},
        {"PrefetcherKind 9",
         [](SystemConfig &c) { c.l2cPf2 = PrefetcherKind{9}; }},
        {"OcpKind 4", [](SystemConfig &c) { c.ocp = OcpKind{4}; }},
    };
    for (const Row &row : rows) {
        SystemConfig cfg =
            makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
        row.set(cfg);
        try {
            Simulator sim(cfg, {streamSpec()});
            ADD_FAILURE() << row.names << ": accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(row.names),
                      std::string::npos)
                << e.what();
        }
    }
}

} // namespace
} // namespace athena
