/**
 * @file
 * ExperimentRunner tests: baseline caching, category reduction,
 * adverse-set classification, parallel determinism, and the
 * multi-core mix speedup metric.
 */


#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <gtest/gtest.h>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/hashing.hh"
#include "sim/runner.hh"
#include "sim/system_config.hh"
#include "trace/trace_file.hh"
#include "trace/zoo.hh"

namespace athena
{
namespace
{

class RunnerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Keep runner-level tests fast regardless of the ambient
        // environment.
        setenv("ATHENA_SIM_INSTR", "40000", 1);
        setenv("ATHENA_WARMUP_INSTR", "10000", 1);
        setenv("ATHENA_MC_INSTR", "20000", 1);
        setenv("ATHENA_MC_WARMUP", "5000", 1);
    }

    void
    TearDown() override
    {
        unsetenv("ATHENA_SIM_INSTR");
        unsetenv("ATHENA_WARMUP_INSTR");
        unsetenv("ATHENA_MC_INSTR");
        unsetenv("ATHENA_MC_WARMUP");
    }
};

TEST_F(RunnerTest, EnvControlsInstructionCounts)
{
    ExperimentRunner runner;
    EXPECT_EQ(runner.budget.simInstructions, 40000u);
    EXPECT_EQ(runner.budget.warmupInstructions, 10000u);
    EXPECT_EQ(runner.budget.mcSimInstructions, 20000u);
    EXPECT_EQ(runner.budget.mcWarmupInstructions, 5000u);
}

TEST_F(RunnerTest, ExplicitBudgetOverridesEnv)
{
    RunBudget b;
    b.simInstructions = 123;
    b.warmupInstructions = 45;
    ExperimentRunner runner(b);
    EXPECT_EQ(runner.budget.simInstructions, 123u);
    EXPECT_EQ(runner.budget.warmupInstructions, 45u);
}

TEST_F(RunnerTest, BaselineCacheIsConsistent)
{
    ExperimentRunner runner;
    auto workloads = evalWorkloads();
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    double a = runner.baselineIpc(cfg, workloads[0]);
    double b = runner.baselineIpc(cfg, workloads[0]);
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GT(a, 0.0);
}

TEST_F(RunnerTest, BaselineDiffersAcrossBandwidths)
{
    ExperimentRunner runner;
    auto workloads = evalWorkloads();
    SystemConfig narrow =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    narrow.bandwidthGBps = 1.6;
    SystemConfig wide = narrow;
    wide.bandwidthGBps = 12.8;
    double ipc_n = runner.baselineIpc(narrow, workloads[0]);
    double ipc_w = runner.baselineIpc(wide, workloads[0]);
    EXPECT_NE(ipc_n, ipc_w) << "cache key must include bandwidth";
}

TEST_F(RunnerTest, SpeedupsCoverAllWorkloads)
{
    ExperimentRunner runner;
    auto workloads = evalWorkloads();
    std::vector<WorkloadSpec> subset(workloads.begin(),
                                     workloads.begin() + 8);
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kOcpOnly);
    auto rows = runner.speedups(cfg, subset);
    ASSERT_EQ(rows.size(), subset.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].workload, subset[i].name);
        EXPECT_GT(rows[i].speedup, 0.2);
        EXPECT_LT(rows[i].speedup, 5.0);
    }
}

TEST_F(RunnerTest, SweepOverRejectedConfigThrows)
{
    // The Simulator constructor rejects the config on whichever
    // thread runs an index; the sweep must hand that error to the
    // caller rather than end the process.
    ExperimentRunner runner;
    auto workloads = evalWorkloads();
    std::vector<WorkloadSpec> subset(workloads.begin(),
                                     workloads.begin() + 8);
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kOcpOnly);
    cfg.bandwidthGBps = 0.0;
    EXPECT_THROW(runner.speedups(cfg, subset), std::invalid_argument);
}

TEST_F(RunnerTest, SummarizeSplitsCategories)
{
    std::vector<SpeedupRow> rows;
    auto add = [&](const char *name, Suite suite, double speedup) {
        SpeedupRow row;
        row.workload = name;
        row.suite = suite;
        row.speedup = speedup;
        rows.push_back(row);
    };
    add("a", Suite::kSpec06, 2.0);
    add("b", Suite::kParsec, 1.0);
    add("c", Suite::kLigra, 0.5);
    add("d", Suite::kCvp, 1.0);
    std::set<std::string> adverse = {"c"};
    CategorySummary s = ExperimentRunner::summarize(rows, adverse);
    EXPECT_DOUBLE_EQ(s.spec, 2.0);
    EXPECT_DOUBLE_EQ(s.parsec, 1.0);
    EXPECT_DOUBLE_EQ(s.ligra, 0.5);
    EXPECT_DOUBLE_EQ(s.adverse, 0.5);
    EXPECT_NEAR(s.friendly, std::pow(2.0, 1.0 / 3.0), 1e-9);
    EXPECT_NEAR(s.overall, 1.0, 1e-9);
}

TEST_F(RunnerTest, AdverseSetIsCachedAndSane)
{
    ExperimentRunner runner;
    auto workloads = evalWorkloads();
    std::vector<WorkloadSpec> subset(workloads.begin(),
                                     workloads.begin() + 12);
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kPfOnly);
    auto a = runner.adverseSet(cfg, subset);
    auto b = runner.adverseSet(cfg, subset);
    EXPECT_EQ(a, b);
    EXPECT_LE(a.size(), subset.size());
}

TEST_F(RunnerTest, MixSpeedupIsPositive)
{
    ExperimentRunner runner;
    auto workloads = evalWorkloads();
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kOcpOnly);
    cfg.cores = 2;
    std::vector<WorkloadSpec> mix = {workloads[0], workloads[15]};
    double s = runner.mixSpeedup(cfg, mix);
    EXPECT_GT(s, 0.3);
    EXPECT_LT(s, 4.0);
}

TEST_F(RunnerTest, BaselineCacheSafeUnderConcurrentCalls)
{
    // Hammer the baseline cache from many threads with a mix of
    // repeated and distinct keys: every call must return the same
    // value a cold sequential runner computes, with no torn reads
    // or lost inserts.
    ExperimentRunner runner;
    auto workloads = evalWorkloads();
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);

    const std::size_t kWorkloads = 4;
    const std::size_t kRepeats = 8;
    std::vector<double> got(kWorkloads * kRepeats, 0.0);
    parallelFor(got.size(), [&](std::size_t i) {
        got[i] = runner.baselineIpc(cfg, workloads[i % kWorkloads]);
    });

    ExperimentRunner fresh;
    for (std::size_t w = 0; w < kWorkloads; ++w) {
        double expect = fresh.baselineIpc(cfg, workloads[w]);
        EXPECT_GT(expect, 0.0);
        for (std::size_t r = 0; r < kRepeats; ++r)
            EXPECT_DOUBLE_EQ(got[r * kWorkloads + w], expect)
                << "workload " << workloads[w].name;
    }
}

TEST_F(RunnerTest, SpeedupsDeterministicRegardlessOfThreading)
{
    // speedups() fans the workloads out over hardware threads; each
    // simulation is self-contained, so the result must be exactly
    // the serial reference no matter how the indices interleave.
    ExperimentRunner runner;
    auto workloads = evalWorkloads();
    std::vector<WorkloadSpec> subset(workloads.begin(),
                                     workloads.begin() + 6);
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kOcpOnly);

    auto rows = runner.speedups(cfg, subset);
    ASSERT_EQ(rows.size(), subset.size());

    ExperimentRunner serial;
    for (std::size_t i = 0; i < subset.size(); ++i) {
        double base = serial.baselineIpc(cfg, subset[i]);
        SimResult res = serial.runOne(cfg, subset[i]);
        double expect = base > 0.0 ? res.ipc() / base : 1.0;
        EXPECT_DOUBLE_EQ(rows[i].speedup, expect)
            << subset[i].name;
    }

    // And a second parallel pass reproduces the first exactly.
    auto again = runner.speedups(cfg, subset);
    for (std::size_t i = 0; i < subset.size(); ++i)
        EXPECT_DOUBLE_EQ(rows[i].speedup, again[i].speedup);
}

TEST(ParallelFor, CoversAllIndicesOnce)
{
    std::vector<std::atomic<int>> hits(257);
    parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, HandlesEmptyAndSingle)
{
    parallelFor(0, [](std::size_t) { FAIL(); });
    int count = 0;
    parallelFor(1, [&](std::size_t) { ++count; });
    EXPECT_EQ(count, 1);
}

TEST(ParallelFor, NeverExceedsHardwareThreads)
{
    // Each call runs its indices on the caller plus at most
    // hardware_concurrency - 1 helpers it starts itself.
    const std::size_t hw =
        std::max(1u, std::thread::hardware_concurrency());
    for (int round = 0; round < 8; ++round) {
        std::mutex mtx;
        std::set<std::thread::id> seen;
        parallelFor(64, [&](std::size_t) {
            std::lock_guard<std::mutex> lock(mtx);
            seen.insert(std::this_thread::get_id());
        });
        EXPECT_LE(seen.size(), hw) << "round " << round;
    }
}

TEST(ParallelFor, RethrowsFirstExceptionAfterJoin)
{
    // Every third index throws, every other one outlasts the
    // throwers: the call must throw only after every running index
    // returned, and must not start any index twice.
    const std::size_t n = 48;
    std::vector<std::atomic<int>> hits(n);
    std::atomic<int> running{0};
    bool caught = false;
    try {
        parallelFor(n, [&](std::size_t i) {
            ++running;
            ++hits[i];
            if (i % 3 == 1) {
                --running;
                throw std::runtime_error("index " + std::to_string(i));
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            --running;
        });
    } catch (const std::runtime_error &) {
        caught = true;
        EXPECT_EQ(running.load(), 0) << "an index outlived the call";
    }
    EXPECT_TRUE(caught);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_LE(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock)
{
    // A parallelFor issued from inside a running index must complete
    // (it runs serially inline on the thread that drains the outer
    // call) and still cover every index exactly once.
    const std::size_t outer = 6, inner = 17;
    std::vector<std::atomic<int>> hits(outer * inner);
    parallelFor(outer, [&](std::size_t i) {
        parallelFor(inner, [&](std::size_t j) {
            ++hits[i * inner + j];
        });
    });
    for (const auto &h : hits)
        ASSERT_EQ(h.load(), 1);
}

TEST(ParallelFor, SequentialCallsSeeAllPriorWrites)
{
    // Joining the helper threads must publish their writes to the
    // caller before parallelFor returns.
    std::vector<int> data(1000, 0);
    parallelFor(data.size(), [&](std::size_t i) {
        data[i] = static_cast<int>(i) + 1;
    });
    long long sum = 0;
    for (int v : data)
        sum += v;
    EXPECT_EQ(sum, 1000LL * 1001 / 2);
}

TEST_F(RunnerTest, ConcurrentWarmBaselineReadsAreSharedLockFast)
{
    // After one cold miss fills the cache, a storm of concurrent
    // readers (shared_lock path) must all observe the same value.
    ExperimentRunner runner;
    auto workloads = evalWorkloads();
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    double expect = runner.baselineIpc(cfg, workloads[0]);
    std::vector<double> got(128, 0.0);
    parallelFor(got.size(), [&](std::size_t i) {
        got[i] = runner.baselineIpc(cfg, workloads[0]);
    });
    for (double v : got)
        EXPECT_DOUBLE_EQ(v, expect);
}

TEST(ParallelFor, ManyMoreIndicesThanThreads)
{
    // Work-stealing via the shared atomic counter must cover a range
    // far larger than the thread count exactly once, and the call
    // must not return before every index ran.
    const std::size_t n = 10007;
    std::vector<std::atomic<int>> hits(n);
    std::atomic<std::size_t> done{0};
    parallelFor(n, [&](std::size_t i) {
        ++hits[i];
        ++done;
    });
    EXPECT_EQ(done.load(), n);
    for (const auto &h : hits)
        ASSERT_EQ(h.load(), 1);
}

// The runner's caches (in memory and ATHENA_SNAPSHOT_DIR file names)
// are keyed by configKey() and workloadKey(). Any change to either
// hash orphans every cached snapshot and baseline, so the values are
// pinned here for every design x policy and every zoo spec.
TEST(CacheKeys, ConfigKeysArePinned)
{
    static const std::uint64_t kPinned[4][8] = {
        {0xa6f656f5ec6fc178ull, 0x5bfba5e19ae46269ull,
         0x108faf24c264caeaull, 0x50abcc0514231d83ull,
         0x6d4a5d308a87557cull, 0x425e49f7975f09c8ull,
         0x3cca970265053e88ull, 0x4d78210d4bbf6029ull},
        {0x836f17f17a59f2ceull, 0x31dd2239bc043df7ull,
         0xe05886a7769644dcull, 0xb75067ab414d08bdull,
         0xb2f966b5237e93caull, 0x16c2767d7176d6ceull,
         0xccb6b70ebbf4fb72ull, 0x01ddab2be9c93f8bull},
        {0x963a59aa1a570ee0ull, 0x4863d7aa9e65b291ull,
         0xa519ff93662bc6d2ull, 0x6e50e344babe610bull,
         0x7ff5123f85226524ull, 0x74ec6b0dfbe60e00ull,
         0x75160050ffd105c0ull, 0xdbb99c78d01cdcb1ull},
        {0xf9d43b624d9a7e83ull, 0xb9b81e81fbdc2beaull,
         0x0524153ed45bc369ull, 0x501ec65325e72278ull,
         0xdc35e1258ef7db97ull, 0xf647ea347853eca7ull,
         0xec61268205b8cea3ull, 0xc9b86c690b219742ull},
    };
    for (unsigned d = 0; d < 4; ++d) {
        for (unsigned p = 0; p < 8; ++p) {
            const auto design = static_cast<CacheDesign>(d);
            const auto policy = static_cast<PolicyKind>(p);
            EXPECT_EQ(makeDesignConfig(design, policy).configKey(),
                      kPinned[d][p])
                << cacheDesignName(design) << " x "
                << policyKindName(policy);
        }
    }
}

TEST(CacheKeys, WorkloadKeysArePinned)
{
    // One ordered digest per zoo list covers every spec's key (and
    // with it every seed the zoo derives from a name); the first
    // spec of each list is pinned on its own for a readable diff.
    struct Row
    {
        std::vector<WorkloadSpec> list;
        std::size_t size;
        std::uint64_t firstKey;
        std::uint64_t digest;
    };
    const Row rows[] = {
        {evalWorkloads(), 100, 0xc1250be14edf562bull,
         0x3f3d7d3d67f9bd03ull},
        {tuningWorkloads(), 20, 0xba343e27c6fc04c7ull,
         0xfb294940c3cea424ull},
        {dpc4Workloads(), 24, 0xc938e051f01a76a1ull,
         0xb7b68333abe5a90full},
    };
    for (const Row &row : rows) {
        ASSERT_EQ(row.list.size(), row.size);
        EXPECT_EQ(workloadKey(row.list.front()), row.firstKey)
            << row.list.front().name;
        std::uint64_t digest = 0;
        for (const WorkloadSpec &spec : row.list)
            digest = hashCombine(digest, workloadKey(spec));
        EXPECT_EQ(digest, row.digest) << row.list.front().name;
    }
    EXPECT_EQ(workloadKey(traceWorkloadSpec(
                  "sample_mix", "tests/data/sample_mix.bin", 3)),
              0x128ef3fa88289128ull);
}

} // namespace
} // namespace athena
