/**
 * @file
 * Full-SimResult equality for the bit-identity suites: every
 * counter of every core, the DRAM totals and the bus utilization,
 * exact, with the failing core and slot named. Also the
 * snapshot-resume contract built on it.
 */

#ifndef ATHENA_TESTS_SIM_RESULT_EQUAL_HH
#define ATHENA_TESTS_SIM_RESULT_EQUAL_HH

#include <cstdint>
#include <cstdio>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace athena
{

inline void
expectSlotEqual(const PrefetcherSlotStats &a,
                const PrefetcherSlotStats &b, const char *ctx,
                unsigned core, unsigned slot)
{
    EXPECT_EQ(a.issued, b.issued)
        << ctx << " c" << core << " pf" << slot;
    EXPECT_EQ(a.used, b.used) << ctx << " c" << core << " pf" << slot;
    EXPECT_EQ(a.usedTimely, b.usedTimely)
        << ctx << " c" << core << " pf" << slot;
    EXPECT_EQ(a.uselessEvictions, b.uselessEvictions)
        << ctx << " c" << core << " pf" << slot;
    EXPECT_EQ(a.fillsFromDram, b.fillsFromDram)
        << ctx << " c" << core << " pf" << slot;
    EXPECT_EQ(a.fillsFromDramUnused, b.fillsFromDramUnused)
        << ctx << " c" << core << " pf" << slot;
}

inline void
expectResultsIdentical(const SimResult &a, const SimResult &b,
                       const char *ctx)
{
    ASSERT_EQ(a.cores.size(), b.cores.size()) << ctx;
    for (unsigned c = 0; c < a.cores.size(); ++c) {
        const SimResult::PerCore &x = a.cores[c];
        const SimResult::PerCore &y = b.cores[c];
        EXPECT_EQ(x.workload, y.workload) << ctx << " c" << c;
        EXPECT_EQ(x.instructions, y.instructions) << ctx << " c" << c;
        EXPECT_EQ(x.cycles, y.cycles) << ctx << " c" << c;
        EXPECT_EQ(x.completedInstructions, y.completedInstructions)
            << ctx << " c" << c;
        EXPECT_EQ(x.streamExhausted, y.streamExhausted)
            << ctx << " c" << c;
        EXPECT_EQ(x.ipc, y.ipc) << ctx << " c" << c;
        EXPECT_EQ(x.loads, y.loads) << ctx << " c" << c;
        EXPECT_EQ(x.stores, y.stores) << ctx << " c" << c;
        EXPECT_EQ(x.branchMispredicts, y.branchMispredicts)
            << ctx << " c" << c;
        EXPECT_EQ(x.llcMisses, y.llcMisses) << ctx << " c" << c;
        EXPECT_EQ(x.llcMissLatency, y.llcMissLatency)
            << ctx << " c" << c;
        for (unsigned s = 0; s < x.pf.size(); ++s)
            expectSlotEqual(x.pf[s], y.pf[s], ctx, c, s);
        EXPECT_EQ(x.ocpPredictions, y.ocpPredictions)
            << ctx << " c" << c;
        EXPECT_EQ(x.ocpCorrect, y.ocpCorrect) << ctx << " c" << c;
        EXPECT_EQ(x.actionHistogram, y.actionHistogram)
            << ctx << " c" << c;
    }
    EXPECT_EQ(a.dram.demandRequests, b.dram.demandRequests) << ctx;
    EXPECT_EQ(a.dram.prefetchRequests, b.dram.prefetchRequests) << ctx;
    EXPECT_EQ(a.dram.ocpRequests, b.dram.ocpRequests) << ctx;
    EXPECT_EQ(a.dram.rowHits, b.dram.rowHits) << ctx;
    EXPECT_EQ(a.dram.rowMisses, b.dram.rowMisses) << ctx;
    EXPECT_EQ(a.dram.busBusyCycles, b.dram.busBusyCycles) << ctx;
    EXPECT_EQ(a.busUtilization, b.busUtilization) << ctx;
}

/**
 * The snapshot-resume contract: the straight-through run, the same
 * run taking a snapshot at the warmup boundary, and a resume of the
 * measured window from that snapshot give the same SimResult.
 */
inline void
checkResumeEquivalence(const SystemConfig &cfg,
                       const std::vector<WorkloadSpec> &specs,
                       std::uint64_t measured, std::uint64_t warmup,
                       const char *ctx)
{
    const RunPlan plan(measured, warmup);
    Simulator straight(cfg, specs);
    const SimResult want = straight.run(plan);

    const std::string path =
        testing::TempDir() + "resume_" + ctx + ".asnp";
    RunPlan snap_plan = plan;
    snap_plan.snapshotAfterWarmup = path;
    Simulator source(cfg, specs);
    // Taking the snapshot must not perturb the run that takes it.
    expectResultsIdentical(want, source.run(snap_plan), ctx);

    Simulator resumed(cfg, specs, path);
    expectResultsIdentical(want, resumed.run(plan), ctx);
    std::remove(path.c_str());
}

} // namespace athena

#endif // ATHENA_TESTS_SIM_RESULT_EQUAL_HH
