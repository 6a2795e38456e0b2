/**
 * @file
 * The sharded shared-memory plane: banked LLC + channeled DRAM.
 *
 * Four contracts are pinned here:
 *
 *  1. Exact decode for any shard count: shardOf/localLine is a true
 *     divmod and globalLine its inverse, on the shift/mask path
 *     (power-of-two counts) and the reciprocal-division path alike.
 *
 *  2. Bank-count bit-invariance. With a power-of-two bank count the
 *     interleave is a pure re-labeling of the monolithic set index
 *     (bank bits + bank-local set bits = monolithic set index, tags
 *     coincide), so {1, 2, 4, 8} banks produce the same SimResult to
 *     the last counter. Note there is NO analogous invariance across
 *     channel counts: bandwidthGBps is per channel, so adding
 *     channels adds aggregate bandwidth by design.
 *
 *  3. Snapshot/resume on every geometry in {1, 2, 4, 8} banks x
 *     {1, 2, 4} channels, plus 3 x 3 on the division decode: the
 *     straight-through, snapshot-taking and resumed runs agree.
 *
 *  4. The named geometry-mismatch errors a wrong-shaped restore
 *     must raise.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mem/shard.hh"
#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "sim_result_equal.hh"
#include "snapshot/snapshot.hh"
#include "trace/workload.hh"
#include "trace/zoo.hh"

namespace athena
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "shardord_" + name + ".asnp";
}

/** An n-core mix striding across the synthetic workload zoo. */
std::vector<WorkloadSpec>
stridedMix(unsigned n)
{
    auto workloads = evalWorkloads();
    std::vector<WorkloadSpec> mix;
    for (unsigned i = 0; i < n; ++i)
        mix.push_back(workloads[(i * workloads.size()) / n]);
    return mix;
}

SimResult
runStraight(const SystemConfig &cfg,
            const std::vector<WorkloadSpec> &specs,
            std::uint64_t measured, std::uint64_t warmup)
{
    Simulator sim(cfg, specs);
    return sim.run({measured, warmup});
}

// ----------------------------------------------- decode algebra

TEST(ShardDecode, DivisionMatchesShiftOnPow2Counts)
{
    // The reciprocal-division path must agree with the shift/mask
    // path everywhere it can be cross-checked: every pow2 count.
    const std::uint64_t lines[] = {
        0,       1,        2,          3,          63,
        64,      65,       1000003,    (1ull << 32) - 1,
        1ull << 32,        (1ull << 52) + 12345,
        ~std::uint64_t{0} >> 6};
    for (std::uint64_t count : {1u, 2u, 4u, 8u, 16u, 64u}) {
        ShardDecode fast(count);
        ShardDecode slow(count, /*force_division=*/true);
        for (std::uint64_t line : lines) {
            EXPECT_EQ(fast.shardOf(line), slow.shardOf(line))
                << "count=" << count << " line=" << line;
            EXPECT_EQ(fast.localLine(line), slow.localLine(line))
                << "count=" << count << " line=" << line;
        }
    }
}

TEST(ShardDecode, ExactPartitionForAnyCount)
{
    // shardOf/localLine must be a true divmod (exact partition of
    // the line space) and globalLine its exact inverse — including
    // odd and composite non-pow2 counts.
    const std::uint64_t lines[] = {
        0,  1,  2,  6,  7,  8,  41, 97, 1000000007ull,
        (1ull << 40) + 17, ~std::uint64_t{0} >> 8};
    for (std::uint64_t count : {1u, 3u, 5u, 6u, 7u, 12u, 33u}) {
        ShardDecode d(count);
        for (std::uint64_t line : lines) {
            const std::uint64_t shard = d.shardOf(line);
            const std::uint64_t local = d.localLine(line);
            EXPECT_LT(shard, count) << "count=" << count;
            EXPECT_EQ(local * count + shard, line)
                << "count=" << count << " line=" << line;
            EXPECT_EQ(d.globalLine(local, shard), line)
                << "count=" << count << " line=" << line;
        }
    }
}

// ------------------------------------- bank-count bit-invariance

TEST(ShardOrder, Pow2BankCountIsBitInvariant)
{
    // With pow2 banks the interleave re-labels the monolithic set
    // index without changing any lookup/victim decision, so the
    // entire SimResult is invariant in the bank count. Channels are
    // held fixed (channel count changes aggregate bandwidth).
    SystemConfig base =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    base.cores = 4;
    base.dramChannels = 2;
    std::vector<WorkloadSpec> mix = stridedMix(4);

    base.llcBanks = 1;
    const SimResult want = runStraight(base, mix, 16000, 4000);
    for (unsigned banks : {2u, 4u, 8u}) {
        SystemConfig cfg = base;
        cfg.llcBanks = banks;
        std::string ctx = "banks=" + std::to_string(banks);
        expectResultsIdentical(want, runStraight(cfg, mix, 16000, 4000),
                               ctx.c_str());
    }
}

// ------------------------------------------- snapshot / resume

TEST(ShardOrder, GeometryMatrixResumeEquality)
{
    // Results differ ACROSS channel counts (bandwidth is per
    // channel), but within each geometry resuming from the warmup
    // snapshot must reproduce the straight-through run.
    SystemConfig base =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    base.cores = 4;
    std::vector<WorkloadSpec> mix = stridedMix(4);
    std::vector<std::pair<unsigned, unsigned>> geometries;
    for (unsigned banks : {1u, 2u, 4u, 8u}) {
        for (unsigned channels : {1u, 2u, 4u})
            geometries.emplace_back(banks, channels);
    }
    // Non-pow2 counts: the reciprocal-division decode on every
    // shared access.
    geometries.emplace_back(3u, 3u);
    for (const auto &[banks, channels] : geometries) {
        SystemConfig cfg = base;
        cfg.llcBanks = banks;
        cfg.dramChannels = channels;
        std::string ctx = "shard_b" + std::to_string(banks) + "ch" +
                          std::to_string(channels);
        checkResumeEquivalence(cfg, mix, 6000, 1500, ctx.c_str());
    }
}

TEST(ShardOrder, SnapshotResumeOnShardedGeometry)
{
    // Snapshot-at-warmup on a sharded geometry at the suite's longer
    // budget: the straight-through, snapshot-taking and resumed runs
    // agree.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = 4;
    cfg.llcBanks = 4;
    cfg.dramChannels = 2;
    checkResumeEquivalence(cfg, stridedMix(4), 16000, 4000,
                           "shard_long_b4ch2");
}

TEST(ShardOrder, GeometryMismatchRestoreIsNamedError)
{
    // Restoring a snapshot into a configuration with a different
    // shard geometry must fail with an error that names the
    // mismatched dimension, not a generic config-key complaint.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = 2;
    cfg.llcBanks = 2;
    cfg.dramChannels = 2;
    std::vector<WorkloadSpec> mix = stridedMix(2);

    const std::string path = tmpPath("geom_mismatch");
    RunPlan plan(4000, 1000);
    plan.snapshotAfterWarmup = path;
    Simulator source(cfg, mix);
    source.run(plan);

    SystemConfig wrong_banks = cfg;
    wrong_banks.llcBanks = 4;
    try {
        Simulator bad(wrong_banks, mix, path);
        FAIL() << "restore with wrong bank count did not throw";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "LLC bank count mismatch"),
                  std::string::npos)
            << e.what();
    }

    SystemConfig wrong_channels = cfg;
    wrong_channels.dramChannels = 4;
    try {
        Simulator bad(wrong_channels, mix, path);
        FAIL() << "restore with wrong channel count did not throw";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "DRAM channel count mismatch"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace athena
