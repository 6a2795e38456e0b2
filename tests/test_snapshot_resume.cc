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
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "sim_result_equal.hh"
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
