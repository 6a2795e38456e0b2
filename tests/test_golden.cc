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
#include <vector>

#include "sim/simulator.hh"
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

// Sharded prefetch path: 4 cores of CD3 (two L2C prefetchers) at
// half the default bandwidth over 2 LLC banks and 2 DRAM channels,
// so trigger windows often send several prefetches to DRAM across
// both channels. Captured while each trigger window's off-chip
// prefetches were queued and drained together. One fingerprint per
// core, then the DRAM totals {rowHits, rowMisses, busBusyCycles}.
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
    RunPlan plan(kInstr, kWarmup);
    // Sequential engine; the shard suites pin the parallel engine
    // to it.
    plan.stepThreads = 1;
    const SimResult res = sim.run(plan);
    const char *names[4] = {"core 0", "core 1", "core 2", "core 3"};
    for (unsigned c = 0; c < 4; ++c)
        checkOrPrint(names[c], fingerprint(res, c),
                     kCd3NaiveSharded[c]);
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
        EXPECT_EQ(dram[i], kCd3NaiveShardedDram[i]) << "dram " << i;
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
