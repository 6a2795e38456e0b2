/**
 * @file
 * Snapshot-resume equivalence: resuming from a post-warmup snapshot
 * must reproduce the straight-through run bit-identically — the
 * full SimResult, every counter — across the five pinned golden
 * configurations, a cut inside a core's record batch, finite trace
 * replay that exhausts mid-stream, and a 4-core mix combining
 * synthetic and trace-replay cores.
 */

#include <cstdint>
#include <cstdio>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "trace/trace_file.hh"
#include "trace/workload.hh"
#include "trace/zoo.hh"

namespace athena
{
namespace
{

constexpr std::uint64_t kInstr = 60000;
constexpr std::uint64_t kWarmup = 15000;

std::string
dataPath(const std::string &name)
{
    return std::string(ATHENA_TEST_DATA_DIR) + "/" + name;
}

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "resume_" + name + ".asnp";
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

void
expectSlotEqual(const PrefetcherSlotStats &a,
                const PrefetcherSlotStats &b, const char *ctx,
                unsigned core, unsigned slot)
{
    EXPECT_EQ(a.issued, b.issued) << ctx << " c" << core << " pf"
                                  << slot;
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

/** Full-SimResult equality: every counter, every core, exact. */
void
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
    EXPECT_EQ(a.dram.prefetchRequests, b.dram.prefetchRequests)
        << ctx;
    EXPECT_EQ(a.dram.ocpRequests, b.dram.ocpRequests) << ctx;
    EXPECT_EQ(a.dram.rowHits, b.dram.rowHits) << ctx;
    EXPECT_EQ(a.dram.rowMisses, b.dram.rowMisses) << ctx;
    EXPECT_EQ(a.dram.busBusyCycles, b.dram.busBusyCycles) << ctx;
    EXPECT_EQ(a.busUtilization, b.busUtilization) << ctx;
}

/**
 * The contract under test: straight-through run vs. snapshot at the
 * warmup boundary + resume of the measured window.
 */
void
checkResumeEquivalence(const SystemConfig &cfg,
                       const std::vector<WorkloadSpec> &specs,
                       std::uint64_t measured, std::uint64_t warmup,
                       const char *ctx)
{
    RunPlan plan;
    plan.measured = measured;
    plan.warmup = warmup;

    Simulator straight(cfg, specs);
    SimResult want = straight.run(plan);

    const std::string path = tmpPath(ctx);
    RunPlan snap_plan = plan;
    snap_plan.snapshotAfterWarmup = path;
    Simulator source(cfg, specs);
    SimResult via_snapshot = source.run(snap_plan);
    // Taking the snapshot must not perturb the run that takes it.
    expectResultsIdentical(want, via_snapshot, ctx);

    Simulator resumed(cfg, specs, path);
    SimResult got = resumed.run(plan);
    expectResultsIdentical(want, got, ctx);
    std::remove(path.c_str());
}

void
checkGoldenConfig(CacheDesign design, PolicyKind policy,
                  const char *wl, const char *ctx)
{
    SystemConfig cfg = makeDesignConfig(design, policy);
    checkResumeEquivalence(cfg, {pickWorkload(wl)}, kInstr, kWarmup,
                           ctx);
}

// The same five pinned configurations as test_golden.cc.

TEST(SnapshotResume, Cd1NaiveStream)
{
    checkGoldenConfig(CacheDesign::kCd1, PolicyKind::kNaive,
                      "bwaves", "cd1_naive_stream");
}

TEST(SnapshotResume, Cd1NaiveChase)
{
    checkGoldenConfig(CacheDesign::kCd1, PolicyKind::kNaive, "mcf",
                      "cd1_naive_chase");
}

TEST(SnapshotResume, Cd1AthenaStream)
{
    checkGoldenConfig(CacheDesign::kCd1, PolicyKind::kAthena,
                      "bwaves", "cd1_athena_stream");
}

TEST(SnapshotResume, Cd4AthenaChase)
{
    checkGoldenConfig(CacheDesign::kCd4, PolicyKind::kAthena, "mcf",
                      "cd4_athena_chase");
}

TEST(SnapshotResume, Cd3TlpStream)
{
    checkGoldenConfig(CacheDesign::kCd3, PolicyKind::kTlp, "bwaves",
                      "cd3_tlp_stream");
}

TEST(SnapshotResume, CutInsideRecordBatchAthenaEpoch500)
{
    // Warmup 1300 is not a multiple of the core's 256-record refill,
    // so the snapshot lands mid record batch: the restored core
    // resumes from a partial buffer. 500-instruction epochs also
    // close RL epochs inside that buffer.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.epochInstructions = 500;
    checkResumeEquivalence(cfg, {pickWorkload("bwaves")}, 40000, 1300,
                           "mid_record_batch");
}

// --------------------------------------------- finite trace replay

TEST(SnapshotResume, FiniteTraceExhaustsMidMeasurement)
{
    // Two looped passes over the checked-in sample: the stream
    // exhausts after the warmup boundary but before the measured
    // budget, so the resumed run must replay the partial window and
    // the exact completed-instruction count.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    WorkloadSpec spec = traceWorkloadSpec(
        "sample_loop.x2", dataPath("sample_loop.txt"), 2);
    checkResumeEquivalence(cfg, {spec}, 1000000, 100,
                           "finite_mid_stream");
}

TEST(SnapshotResume, FiniteTraceExhaustsBeforeWarmup)
{
    // The stream ends inside the warmup span: the snapshot is taken
    // at the terminal state and the resumed run is a no-op that
    // must still report identical results.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    WorkloadSpec spec = traceWorkloadSpec(
        "sample_loop.x1", dataPath("sample_loop.txt"), 1);
    checkResumeEquivalence(cfg, {spec}, 1000, 5000,
                           "finite_pre_warmup");
}

// --------------------------------------------------- 4-core mixes

TEST(SnapshotResume, FourCoreSyntheticMix)
{
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = 4;
    auto workloads = evalWorkloads();
    std::vector<WorkloadSpec> mix = {
        pickWorkload("bwaves"), pickWorkload("mcf"),
        workloads[2 % workloads.size()],
        workloads[5 % workloads.size()]};
    checkResumeEquivalence(cfg, mix, 20000, 6000, "mc_synth");
}

TEST(SnapshotResume, FourCoreMixWithFiniteTraces)
{
    // Mixed synthetic + finite trace-replay cores: two cores
    // exhaust their streams at different times (one before, one
    // after its warmup crossing), exercising the picker-rebuild
    // path for already-retired cores.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    cfg.cores = 4;
    std::vector<WorkloadSpec> mix = {
        traceWorkloadSpec("t.a", dataPath("sample_loop.txt"), 1),
        pickWorkload("bwaves"),
        traceWorkloadSpec("t.c", dataPath("sample_mix.bin"), 3),
        pickWorkload("mcf")};
    checkResumeEquivalence(cfg, mix, 20000, 1000, "mc_traces");
}

} // namespace
} // namespace athena
