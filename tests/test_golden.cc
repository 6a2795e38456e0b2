/**
 * @file
 * Golden-result regression tests: for fixed seeds and fixed run
 * lengths, the simulator's measured counters must stay bit-identical
 * across engine refactors (devirtualized prefetch dispatch, fused
 * cache walks, QVStore row memoization, ...). Perf PRs may make the
 * engine faster, never different.
 *
 * The expected values were captured from the PR 1 engine. To
 * regenerate after an *intentional* semantic change, run with
 * ATHENA_GOLDEN_PRINT=1 and paste the printed table.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "trace/trace_file.hh"
#include "trace/zoo.hh"

namespace athena
{
namespace
{

constexpr std::uint64_t kInstr = 60000;
constexpr std::uint64_t kWarmup = 15000;

/** Integer fingerprint of one run; every field is exact. */
struct Golden
{
    std::uint64_t instructions;
    std::uint64_t cycles;
    std::uint64_t loads;
    std::uint64_t stores;
    std::uint64_t branchMispredicts;
    std::uint64_t llcMisses;
    std::uint64_t llcMissLatency;
    std::uint64_t pf0Issued;
    std::uint64_t pf0Used;
    std::uint64_t pf1Issued;
    std::uint64_t dramDemand;
    std::uint64_t dramPrefetch;
    std::uint64_t dramOcp;
};

bool
printMode()
{
    const char *v = std::getenv("ATHENA_GOLDEN_PRINT");
    return v && *v && *v != '0';
}

Golden
fingerprint(const SimResult &res, unsigned core = 0)
{
    const SimResult::PerCore &c = res.cores[core];
    return {c.instructions,      c.cycles,
            c.loads,             c.stores,
            c.branchMispredicts, c.llcMisses,
            c.llcMissLatency,    c.pf[0].issued,
            c.pf[0].used,        c.pf[1].issued,
            res.dram.demandRequests,
            res.dram.prefetchRequests,
            res.dram.ocpRequests};
}

void
checkOrPrint(const char *name, const Golden &got,
             const Golden &want)
{
    if (printMode()) {
        std::printf("    // %s\n"
                    "    {%lluu, %lluu, %lluu, %lluu, %lluu, %lluu, "
                    "%lluu, %lluu, %lluu, %lluu, %lluu, %lluu, "
                    "%lluu},\n",
                    name,
                    static_cast<unsigned long long>(got.instructions),
                    static_cast<unsigned long long>(got.cycles),
                    static_cast<unsigned long long>(got.loads),
                    static_cast<unsigned long long>(got.stores),
                    static_cast<unsigned long long>(
                        got.branchMispredicts),
                    static_cast<unsigned long long>(got.llcMisses),
                    static_cast<unsigned long long>(
                        got.llcMissLatency),
                    static_cast<unsigned long long>(got.pf0Issued),
                    static_cast<unsigned long long>(got.pf0Used),
                    static_cast<unsigned long long>(got.pf1Issued),
                    static_cast<unsigned long long>(got.dramDemand),
                    static_cast<unsigned long long>(got.dramPrefetch),
                    static_cast<unsigned long long>(got.dramOcp));
        return;
    }
    EXPECT_EQ(got.instructions, want.instructions) << name;
    EXPECT_EQ(got.cycles, want.cycles) << name;
    EXPECT_EQ(got.loads, want.loads) << name;
    EXPECT_EQ(got.stores, want.stores) << name;
    EXPECT_EQ(got.branchMispredicts, want.branchMispredicts) << name;
    EXPECT_EQ(got.llcMisses, want.llcMisses) << name;
    EXPECT_EQ(got.llcMissLatency, want.llcMissLatency) << name;
    EXPECT_EQ(got.pf0Issued, want.pf0Issued) << name;
    EXPECT_EQ(got.pf0Used, want.pf0Used) << name;
    EXPECT_EQ(got.pf1Issued, want.pf1Issued) << name;
    EXPECT_EQ(got.dramDemand, want.dramDemand) << name;
    EXPECT_EQ(got.dramPrefetch, want.dramPrefetch) << name;
    EXPECT_EQ(got.dramOcp, want.dramOcp) << name;
}

std::string
dataPath(const std::string &name)
{
    return std::string(ATHENA_TEST_DATA_DIR) + "/" + name;
}

WorkloadSpec
pickWorkload(const char *substr)
{
    auto workloads = evalWorkloads();
    for (const WorkloadSpec &w : workloads) {
        if (w.name.find(substr) != std::string::npos)
            return w;
    }
    return workloads.front();
}

Golden
runSingle(CacheDesign design, PolicyKind policy, const char *wl)
{
    SystemConfig cfg = makeDesignConfig(design, policy);
    Simulator sim(cfg, {pickWorkload(wl)});
    return fingerprint(sim.run({kInstr, kWarmup}));
}

// Expected fingerprints, captured from the PR 1 engine (seeds and
// run lengths fixed above). Order matches the Golden struct.
constexpr Golden kCd1NaiveStream = {
    60000u, 86530u, 21580u, 3015u, 743u, 3u, 3074u, 1386u, 1353u,
    0u, 3u, 1074u, 0u};
constexpr Golden kCd1NaiveChase = {
    60000u, 1195260u, 13408u, 2394u, 1493u, 3200u, 8844916u, 12407u,
    238u, 0u, 579u, 8551u, 3191u};
constexpr Golden kCd1AthenaStream = {
    60000u, 125395u, 21580u, 3015u, 743u, 160u, 34442u, 1184u, 1179u,
    0u, 112u, 878u, 72u};
constexpr Golden kCd4AthenaChase = {
    60000u, 1103223u, 13408u, 2394u, 1493u, 3203u, 7831901u, 14u, 8u,
    9852u, 1368u, 7318u, 2394u};
constexpr Golden kCd3TlpStream = {
    60000u, 86879u, 21580u, 3015u, 743u, 2u, 1848u, 0u, 0u, 1377u,
    2u, 1067u, 0u};

TEST(GoldenResult, Cd1NaiveStream)
{
    checkOrPrint("kCd1NaiveStream",
                 runSingle(CacheDesign::kCd1, PolicyKind::kNaive,
                           "bwaves"),
                 kCd1NaiveStream);
}

TEST(GoldenResult, Cd1NaiveChase)
{
    checkOrPrint("kCd1NaiveChase",
                 runSingle(CacheDesign::kCd1, PolicyKind::kNaive,
                           "mcf"),
                 kCd1NaiveChase);
}

TEST(GoldenResult, Cd1AthenaStream)
{
    checkOrPrint("kCd1AthenaStream",
                 runSingle(CacheDesign::kCd1, PolicyKind::kAthena,
                           "bwaves"),
                 kCd1AthenaStream);
}

TEST(GoldenResult, Cd4AthenaChase)
{
    checkOrPrint("kCd4AthenaChase",
                 runSingle(CacheDesign::kCd4, PolicyKind::kAthena,
                           "mcf"),
                 kCd4AthenaChase);
}

TEST(GoldenResult, Cd3TlpStream)
{
    checkOrPrint("kCd3TlpStream",
                 runSingle(CacheDesign::kCd3, PolicyKind::kTlp,
                           "bwaves"),
                 kCd3TlpStream);
}

/**
 * Multi-core fingerprint: one Golden per core, then the DRAM totals
 * {rowHits, rowMisses, busBusyCycles}. Together they pin the order in
 * which the cores reached the shared LLC banks and DRAM channels.
 */
void
checkOrPrintCores(const SimResult &res, const Golden *want,
                  const std::uint64_t (&want_dram)[3])
{
    for (unsigned c = 0; c < res.cores.size(); ++c) {
        const std::string name = "core " + std::to_string(c);
        checkOrPrint(name.c_str(), fingerprint(res, c), want[c]);
    }
    const std::uint64_t dram[3] = {res.dram.rowHits,
                                   res.dram.rowMisses,
                                   res.dram.busBusyCycles};
    if (printMode()) {
        std::printf("    // dram\n    {%lluu, %lluu, %lluu};\n",
                    static_cast<unsigned long long>(dram[0]),
                    static_cast<unsigned long long>(dram[1]),
                    static_cast<unsigned long long>(dram[2]));
        return;
    }
    for (unsigned i = 0; i < 3; ++i)
        EXPECT_EQ(dram[i], want_dram[i]) << "dram " << i;
}

// Sharded prefetch path: 4 cores of CD3 (two L2C prefetchers) at
// half the default bandwidth over 2 LLC banks and 2 DRAM channels,
// so trigger windows often send several prefetches to DRAM across
// both channels. Captured while each trigger window's off-chip
// prefetches were queued and drained together.
constexpr Golden kCd3NaiveSharded[4] = {
    {60000u, 254078u, 21580u, 3015u, 743u, 2u, 6899u, 0u, 0u,
     1377u, 2304u, 41841u, 10397u},
    {60000u, 3636436u, 13408u, 2394u, 1493u, 3199u, 26818309u, 738u,
     0u, 15050u, 2304u, 41841u, 10397u},
    {60000u, 3318908u, 16926u, 3013u, 1820u, 2828u, 9055020u, 2793u,
     40u, 11882u, 2304u, 41841u, 10397u},
    {60000u, 3001760u, 18034u, 3025u, 1131u, 1883u, 9080428u, 877u,
     99u, 10513u, 2304u, 41841u, 10397u},
};
constexpr std::uint64_t kCd3NaiveShardedDram[3] = {36703u, 17839u,
                                                   8726720u};

TEST(GoldenResult, Cd3NaiveShardedFourCore)
{
    SystemConfig cfg = makeManyCoreConfig(4, CacheDesign::kCd3,
                                          PolicyKind::kNaive);
    cfg.bandwidthGBps = 1.6;
    cfg.llcBanks = 2;
    cfg.dramChannels = 2;
    Simulator sim(cfg, {pickWorkload("bwaves"), pickWorkload("mcf"),
                        pickWorkload("xalancbmk"),
                        pickWorkload("gromacs")});
    checkOrPrintCores(sim.run({kInstr, kWarmup}), kCd3NaiveSharded,
                      kCd3NaiveShardedDram);
}

// The multi-core shapes below were captured on the engine that
// stepped one instruction per pick; they pin the core interleaving
// at the shared LLC and DRAM.

// Two pointer-chasing cores under the naive policy: every OCP
// false positive is a DRAM transfer that competes with the other
// core's demand misses.
constexpr Golden kCd1NaiveChaseTwoCore[2] = {
    {60000u, 1879493u, 13408u, 2394u, 1493u, 3193u, 14159316u, 15086u,
     241u, 0u, 579u, 18470u, 3191u},
    {60000u, 1879493u, 13408u, 2394u, 1493u, 1u, 2126u, 14717u, 235u,
     0u, 579u, 18470u, 3191u},
};
constexpr std::uint64_t kCd1NaiveChaseTwoCoreDram[3] = {
    12852u, 9388u, 1779200u};

TEST(GoldenResult, Cd1NaiveChaseTwoCore)
{
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    cfg.cores = 2;
    Simulator sim(cfg, {pickWorkload("mcf"), pickWorkload("mcf")});
    checkOrPrintCores(sim.run({kInstr, kWarmup}),
                      kCd1NaiveChaseTwoCore, kCd1NaiveChaseTwoCoreDram);
}

// Four cores striding across the zoo under Athena with
// 500-instruction epochs: every epoch end samples the shared DRAM
// counters, hundreds of times per core.
constexpr Golden kCd1AthenaShortEpochsFourCore[4] = {
    {60000u, 356907u, 21580u, 3015u, 743u, 471u, 229109u, 809u, 789u,
     0u, 6488u, 4668u, 1495u},
    {60000u, 647240u, 19083u, 3738u, 2330u, 3323u, 1604662u, 2573u,
     1913u, 0u, 6488u, 4668u, 1495u},
    {60000u, 211144u, 17389u, 2991u, 1077u, 44u, 66010u, 1161u, 1145u,
     0u, 6488u, 4668u, 1495u},
    {60000u, 255143u, 17002u, 3035u, 1231u, 65u, 116593u, 976u, 960u,
     0u, 6488u, 4668u, 1495u},
};
constexpr std::uint64_t kCd1AthenaShortEpochsFourCoreDram[3] = {
    4358u, 8293u, 1012080u};

TEST(GoldenResult, Cd1AthenaShortEpochsFourCore)
{
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = 4;
    cfg.epochInstructions = 500;
    auto workloads = evalWorkloads();
    std::vector<WorkloadSpec> mix;
    for (unsigned i = 0; i < 4; ++i)
        mix.push_back(workloads[(i * workloads.size()) / 4]);
    Simulator sim(cfg, mix);
    checkOrPrintCores(sim.run({kInstr, kWarmup}),
                      kCd1AthenaShortEpochsFourCore,
                      kCd1AthenaShortEpochsFourCoreDram);
}

// Four finite trace replays that end at staggered counts: two
// before the 1,000-instruction warmup, two inside the measured
// window. Each core leaves the schedule the moment its stream ends.
constexpr std::uint64_t kStaggeredWarmup = 1000;
constexpr Golden kCd1NaiveStaggeredTraces[4] = {
    {400u, 45093u, 174u, 38u, 8u, 171u, 203489u, 4u, 0u, 0u, 4u, 0u,
     26u},
    {200u, 124u, 90u, 19u, 0u, 0u, 0u, 4u, 0u, 0u, 4u, 0u, 26u},
    {512u, 49704u, 201u, 51u, 11u, 196u, 178519u, 4u, 0u, 0u, 4u, 0u,
     26u},
    {1048u, 621u, 416u, 103u, 0u, 0u, 0u, 0u, 0u, 0u, 4u, 0u, 26u},
};
constexpr std::uint64_t kCd1NaiveStaggeredTracesDram[3] = {
    0u, 30u, 2400u};

TEST(GoldenResult, Cd1NaiveStaggeredTraceExhaustion)
{
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    cfg.cores = 4;
    Simulator sim(
        cfg,
        {traceWorkloadSpec("t.a", dataPath("sample_loop.txt"), 1),
         traceWorkloadSpec("t.b", dataPath("sample_loop.txt"), 3),
         traceWorkloadSpec("t.c", dataPath("sample_mix.bin"), 1),
         traceWorkloadSpec("t.d", dataPath("sample_mix.bin"), 4)});
    const SimResult res = sim.run({50000, kStaggeredWarmup});
    // The case only pins staggered exhaustion if every stream ended,
    // cores 0 and 2 before the warmup boundary, 1 and 3 after it.
    for (unsigned c = 0; c < 4; ++c) {
        EXPECT_TRUE(res.cores[c].streamExhausted) << "core " << c;
        EXPECT_EQ(res.cores[c].completedInstructions >=
                      kStaggeredWarmup,
                  c % 2 == 1)
            << "core " << c;
    }
    checkOrPrintCores(res, kCd1NaiveStaggeredTraces,
                      kCd1NaiveStaggeredTracesDram);
}

TEST(GoldenResult, RepeatRunsAreBitIdentical)
{
    // The golden values above are only meaningful if a single build
    // reproduces itself exactly.
    Golden a = runSingle(CacheDesign::kCd1, PolicyKind::kAthena,
                         "bwaves");
    Golden b = runSingle(CacheDesign::kCd1, PolicyKind::kAthena,
                         "bwaves");
    checkOrPrint("repeat", a, b);
}

} // namespace
} // namespace athena
