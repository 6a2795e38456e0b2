/**
 * @file
 * Snapshot format and robustness tests: ASNP header/section-table
 * validation, the XXH64 section checksum and bulk-array primitives,
 * typed SnapshotError reporting that names the offending section,
 * geometry guards, range guards on restored indices (crafted
 * mutations of a real snapshot with the checksum recomputed), and
 * save -> restore -> save byte identity of the full simulator state
 * under randomized configurations.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "mem/cache.hh"
#include "prefetch/pythia.hh"
#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "snapshot/snapshot.hh"
#include "trace/trace_file.hh"
#include "trace/zoo.hh"

namespace athena
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "asnp_" + name;
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<std::uint8_t> &b)
{
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(b.data()),
              static_cast<std::streamsize>(b.size()));
}

/** Where one section lives in a serialized snapshot. */
struct SectionLoc
{
    std::size_t entry = 0;  ///< Offset of its section-table entry.
    std::size_t offset = 0; ///< Absolute payload offset.
    std::size_t length = 0;
};

/** Locate section @p tag by walking the ASNP section table. */
SectionLoc
locateSection(const std::vector<std::uint8_t> &b, const std::string &tag)
{
    constexpr std::size_t kHeader = 16;
    constexpr std::size_t kEntry = kSnapshotTagBytes + 24;
    const std::uint32_t count = loadLe<std::uint32_t>(&b[8]);
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::size_t e = kHeader + std::size_t{i} * kEntry;
        const std::string name(reinterpret_cast<const char *>(&b[e]));
        if (name == tag) {
            return {e, static_cast<std::size_t>(
                           loadLe64(&b[e + kSnapshotTagBytes])),
                    static_cast<std::size_t>(
                        loadLe64(&b[e + kSnapshotTagBytes + 8]))};
        }
    }
    ADD_FAILURE() << "no section " << tag;
    return {};
}

/** Recompute a section's table checksum after editing its bytes,
 *  so only the restore-side guards can reject the edit. */
void
resealSection(std::vector<std::uint8_t> &b, const SectionLoc &s)
{
    storeLe64(&b[s.entry + kSnapshotTagBytes + 16],
              snapshotChecksum(&b[s.offset], s.length));
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

// ---------------------------------------------------- writer/reader

TEST(SnapshotFormat, PrimitiveRoundTrip)
{
    SnapshotWriter w;
    w.beginSection("prims");
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.i64(-42);
    w.i32(-7);
    w.f64(3.25);
    w.boolean(true);
    w.boolean(false);
    const std::uint8_t raw[4] = {1, 2, 3, 4};
    w.bytes(raw, sizeof(raw));
    w.endSection();

    SnapshotReader r(w.serialize());
    r.openSection("prims");
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.i32(), -7);
    EXPECT_EQ(r.f64(), 3.25);
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    std::uint8_t back[4] = {};
    r.bytes(back, sizeof(back));
    EXPECT_EQ(back[0], 1);
    EXPECT_EQ(back[3], 4);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(SnapshotFormat, MultipleSectionsReadInAnyOrder)
{
    SnapshotWriter w;
    w.beginSection("a");
    w.u32(1);
    w.endSection();
    w.beginSection("b");
    w.u32(2);
    w.endSection();

    SnapshotReader r(w.serialize());
    r.openSection("b");
    EXPECT_EQ(r.u32(), 2u);
    r.openSection("a");
    EXPECT_EQ(r.u32(), 1u);
}

TEST(SnapshotFormat, FileRoundTrip)
{
    const std::string path = tmpPath("file_round_trip");
    SnapshotWriter w;
    w.beginSection("s");
    w.u64(77);
    w.endSection();
    w.writeFile(path);

    SnapshotReader r(path);
    r.openSection("s");
    EXPECT_EQ(r.u64(), 77u);
    std::remove(path.c_str());
}

TEST(SnapshotFormat, ChecksumIsXxh64)
{
    // Reference values of the published XXH64 algorithm, seed 0.
    // The 77-byte input covers two 32-byte lane stripes plus a
    // 13-byte tail (one 8-byte, one 4-byte and one 1-byte fold).
    auto sum = [](const std::string &text) {
        return snapshotChecksum(
            reinterpret_cast<const std::uint8_t *>(text.data()),
            text.size());
    };
    EXPECT_EQ(sum(""), 0xef46db3751d8e999ull);
    EXPECT_EQ(sum("a"), 0xd24ec4f1a98c6e5bull);
    EXPECT_EQ(sum("abc"), 0x44bc2cf5ad770999ull);
    std::vector<std::uint8_t> pattern(77);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 37 + 11);
    EXPECT_EQ(snapshotChecksum(pattern.data(), pattern.size()),
              0x531f82751546d548ull);
}

TEST(SnapshotFormat, BulkArraysRoundTripAtOddLengths)
{
    for (std::size_t n : {0u, 1u, 3u, 5u, 7u, 33u, 77u}) {
        std::vector<std::uint64_t> values(n);
        for (std::size_t i = 0; i < n; ++i)
            values[i] = (0x0123456789abcdefull * (i + 1)) ^ (i << 59);

        SnapshotWriter bulk;
        bulk.beginSection("arr");
        bulk.u8(0x5a); // misalign the array within the payload
        bulk.u64Array(values.data(), n);
        bulk.endSection();
        SnapshotWriter scalar;
        scalar.beginSection("arr");
        scalar.u8(0x5a);
        for (std::uint64_t v : values)
            scalar.u64(v);
        scalar.endSection();
        // Same bytes as the per-element encoding.
        EXPECT_EQ(bulk.serialize(), scalar.serialize()) << "n=" << n;

        SnapshotReader r(bulk.serialize());
        r.openSection("arr");
        EXPECT_EQ(r.u8(), 0x5a);
        std::vector<std::uint64_t> back(n, 0);
        r.u64Array(back.data(), n);
        EXPECT_EQ(back, values) << "n=" << n;
        EXPECT_EQ(r.remaining(), 0u);
    }
}

TEST(SnapshotFormat, BlockReadsInPlace)
{
    SnapshotWriter w;
    w.beginSection("blk");
    w.u8(7);
    w.u64(0x1122334455667788ull);
    w.endSection();
    SnapshotReader r(w.serialize());
    r.openSection("blk");
    const std::uint8_t *p = r.block(9);
    EXPECT_EQ(p[0], 7);
    EXPECT_EQ(loadLe64(p + 1), 0x1122334455667788ull);
    EXPECT_EQ(r.remaining(), 0u);
}

// ------------------------------------------------------- robustness

TEST(SnapshotRobustness, MissingFileIsTypedError)
{
    EXPECT_THROW(SnapshotReader("/nonexistent/path/x.asnp"),
                 SnapshotError);
}

TEST(SnapshotRobustness, BadMagicIsFileLevelError)
{
    SnapshotWriter w;
    w.beginSection("s");
    w.u64(1);
    w.endSection();
    auto bytes = w.serialize();
    bytes[0] = 'X';
    try {
        SnapshotReader r(std::move(bytes));
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError &e) {
        EXPECT_TRUE(e.section().empty());
    }
}

TEST(SnapshotRobustness, WrongVersionIsRejected)
{
    // v2 files carry FNV-1a checksums, v3 files the older agent
    // and Pythia layouts, and v4 files a DRAM window-counter block:
    // they are refused, not read.
    SnapshotWriter w;
    w.beginSection("s");
    w.u64(1);
    w.endSection();
    for (unsigned version : {2u, 3u, 4u, kSnapshotVersion + 1u}) {
        auto bytes = w.serialize();
        bytes[4] = static_cast<std::uint8_t>(version);
        bytes[5] = static_cast<std::uint8_t>(version >> 8);
        try {
            SnapshotReader r(std::move(bytes));
            ADD_FAILURE() << "version " << version << " accepted";
        } catch (const SnapshotError &e) {
            EXPECT_TRUE(e.section().empty());
            EXPECT_NE(std::string(e.what()).find(
                          "version " + std::to_string(version)),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(SnapshotRobustness, EveryByteFlipAcrossLaneStripesIsDetected)
{
    // 77 bytes: two 32-byte lane stripes and a ragged 13-byte tail.
    SnapshotWriter w;
    w.beginSection("lead");
    w.u32(1);
    w.endSection();
    w.beginSection("body");
    for (int i = 0; i < 77; ++i)
        w.u8(static_cast<std::uint8_t>(i * 29 + 3));
    w.endSection();
    const auto clean = w.serialize();
    const SectionLoc body = locateSection(clean, "body");
    ASSERT_EQ(body.length, 77u);

    for (std::size_t i = 0; i < body.length; ++i) {
        for (int mask : {0x01, 0x80, 0xff}) {
            auto bytes = clean;
            bytes[body.offset + i] ^= static_cast<std::uint8_t>(mask);
            SnapshotReader r(std::move(bytes));
            r.openSection("lead"); // neighbours still verify
            try {
                r.openSection("body");
                ADD_FAILURE() << "flip 0x" << std::hex << mask
                              << " at byte " << std::dec << i
                              << " not detected";
            } catch (const SnapshotError &e) {
                EXPECT_EQ(e.section(), "body");
            }
        }
    }
}

TEST(SnapshotRobustness, TruncatedBulkArrayNamesSection)
{
    SnapshotWriter w;
    w.beginSection("arr");
    for (std::uint64_t i = 0; i < 5; ++i)
        w.u64(i);
    w.endSection();
    SnapshotReader r(w.serialize());
    r.openSection("arr");
    std::vector<std::uint64_t> out(6);
    try {
        r.u64Array(out.data(), out.size());
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.section(), "arr");
        EXPECT_NE(std::string(e.what()).find("past section end"),
                  std::string::npos)
            << e.what();
    }
    // The failed read consumed nothing; a count whose byte size
    // overflows size_t must fail the same way, not wrap.
    EXPECT_EQ(r.remaining(), 40u);
    EXPECT_THROW(r.u64Array(out.data(), SIZE_MAX / 4), SnapshotError);
    EXPECT_THROW((void)r.block(41), SnapshotError);
}

TEST(SnapshotRobustness, TruncatedPayloadNamesSection)
{
    SnapshotWriter w;
    w.beginSection("tail");
    for (int i = 0; i < 32; ++i)
        w.u64(static_cast<std::uint64_t>(i));
    w.endSection();
    auto bytes = w.serialize();
    bytes.resize(bytes.size() - 40); // chop into the payload
    try {
        SnapshotReader r(std::move(bytes));
        r.openSection("tail");
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.section(), "tail");
    }
}

TEST(SnapshotRobustness, CorruptedByteNamesSection)
{
    SnapshotWriter w;
    w.beginSection("good");
    w.u64(123);
    w.endSection();
    w.beginSection("bad");
    for (int i = 0; i < 8; ++i)
        w.u64(static_cast<std::uint64_t>(i) * 1000003u);
    w.endSection();
    auto bytes = w.serialize();
    bytes.back() ^= 0x5a; // flip a bit inside section "bad"
    SnapshotReader r(std::move(bytes));
    r.openSection("good"); // untouched section still verifies
    EXPECT_EQ(r.u64(), 123u);
    try {
        r.openSection("bad");
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.section(), "bad");
    }
}

TEST(SnapshotRobustness, ReadPastSectionEndNamesSection)
{
    SnapshotWriter w;
    w.beginSection("short");
    w.u32(9);
    w.endSection();
    SnapshotReader r(w.serialize());
    r.openSection("short");
    EXPECT_EQ(r.u32(), 9u);
    try {
        (void)r.u64();
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.section(), "short");
    }
}

TEST(SnapshotRobustness, MissingSectionNamesIt)
{
    SnapshotWriter w;
    w.beginSection("present");
    w.u8(1);
    w.endSection();
    SnapshotReader r(w.serialize());
    try {
        r.openSection("absent");
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.section(), "absent");
    }
}

TEST(SnapshotRobustness, GeometryGuardNamesSectionAndQuantity)
{
    // A cache snapshotted at one geometry must refuse to restore
    // into another, naming the offending section.
    Cache small({"L1D", 16 << 10, 8, 5});
    SnapshotWriter w;
    SnapshotIo save(w);
    save.section("c0/l1");
    small.serialize(save);
    save.endSection();

    Cache other({"L1D", 32 << 10, 8, 5});
    SnapshotReader r(w.serialize());
    SnapshotIo restore(r);
    restore.section("c0/l1");
    try {
        other.serialize(restore);
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.section(), "c0/l1");
        EXPECT_NE(std::string(e.what()).find("mismatch"),
                  std::string::npos);
    }
}

TEST(SnapshotRobustness, ConfigMismatchIsRejectedAtMeta)
{
    const std::string path = tmpPath("config_mismatch");
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    Simulator sim(cfg, {pickWorkload("bwaves")});
    RunPlan plan;
    plan.measured = 0;
    plan.warmup = 2000;
    plan.snapshotAfterWarmup = path;
    sim.run(plan);

    SystemConfig other = cfg;
    other.bandwidthGBps = 12.8;
    try {
        Simulator resume(other, {pickWorkload("bwaves")}, path);
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.section(), "meta");
    }
    std::remove(path.c_str());
}

TEST(SnapshotRobustness, ResumedRunRequiresMatchingWarmup)
{
    const std::string path = tmpPath("warmup_mismatch");
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    Simulator sim(cfg, {pickWorkload("bwaves")});
    RunPlan plan;
    plan.measured = 1000;
    plan.warmup = 2000;
    plan.snapshotAfterWarmup = path;
    sim.run(plan);

    Simulator resume(cfg, {pickWorkload("bwaves")}, path);
    RunPlan bad;
    bad.measured = 1000;
    bad.warmup = 999;
    EXPECT_THROW(resume.run(bad), std::invalid_argument);
    std::remove(path.c_str());
}

// ---------------------------------- range guards on restored state

/** One bwaves core under @p cfg, snapshotted after warmup. */
std::vector<std::uint8_t>
warmupSnapshot(const SystemConfig &cfg)
{
    const std::string path = tmpPath("mutation_base");
    Simulator sim(cfg, {pickWorkload("bwaves")});
    RunPlan plan;
    plan.measured = 0;
    plan.warmup = 4000;
    plan.snapshotAfterWarmup = path;
    sim.run(plan);
    auto bytes = readFile(path);
    std::remove(path.c_str());
    return bytes;
}

/** Reseal section @p tag of @p bytes and resume from the result. */
void
resumeResealed(const SystemConfig &cfg, std::vector<std::uint8_t> bytes,
               const std::string &tag)
{
    resealSection(bytes, locateSection(bytes, tag));
    const std::string path = tmpPath("mutated");
    writeFile(path, bytes);
    struct Remove
    {
        std::string path;
        ~Remove() { std::remove(path.c_str()); }
    } remove{path};
    Simulator resumed(cfg, {pickWorkload("bwaves")}, path);
}

/** Reseal section @p tag of @p bytes, resume, and run @p measured
 *  instructions past the warmupSnapshot cut; returns how many the
 *  core measured. */
std::uint64_t
runResealed(const SystemConfig &cfg, std::vector<std::uint8_t> bytes,
            const std::string &tag, std::uint64_t measured)
{
    resealSection(bytes, locateSection(bytes, tag));
    const std::string path = tmpPath("mutated_run");
    writeFile(path, bytes);
    Simulator resumed(cfg, {pickWorkload("bwaves")}, path);
    std::remove(path.c_str());
    RunPlan plan;
    plan.measured = measured;
    plan.warmup = 4000;
    return resumed.run(plan).cores[0].instructions;
}

/** The edit must fail the resume with an error naming the section
 *  and the field (@p what), not a checksum mismatch. */
void
expectRejected(const SystemConfig &cfg, std::vector<std::uint8_t> bytes,
               const std::string &tag, const char *what)
{
    try {
        resumeResealed(cfg, std::move(bytes), tag);
        ADD_FAILURE() << tag << ": expected SnapshotError on " << what;
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.section(), tag);
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(SnapshotRangeGuards, MruWayHintPastTheSetIsRejected)
{
    // Lookups index tagv[set base + mruWay[set]] unchecked: a hint
    // >= ways reads past its set (past the array on the last set)
    // and, on a tag match, writes lines/lru out of bounds.
    const SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    const auto clean = warmupSnapshot(cfg);
    for (const char *tag : {"c0/l1", "c0/l2", "llc/b0"}) {
        const SectionLoc loc = locateSection(clean, tag);
        // Cache::serialize: u32 sets, u32 ways, five u64 counters,
        // the tag and LRU arrays (sets x ways u64 each), one MRU
        // byte per set, then 19 bytes of metadata per line.
        const std::size_t sets = loadLe<std::uint32_t>(&clean[loc.offset]);
        const std::size_t ways = loadLe<std::uint32_t>(&clean[loc.offset + 4]);
        ASSERT_EQ(loc.length, 48 + sets * ways * (16 + 19) + sets)
            << tag;
        const std::size_t last_hint =
            loc.offset + 48 + sets * ways * 16 + sets - 1;
        ASSERT_LT(clean[last_hint], ways);

        auto valid = clean;
        valid[last_hint] = static_cast<std::uint8_t>(ways - 1);
        EXPECT_NO_THROW(resumeResealed(cfg, valid, tag)) << tag;

        auto bad = clean;
        bad[last_hint] = static_cast<std::uint8_t>(ways);
        expectRejected(cfg, bad, tag, "MRU way hint");
        bad[last_hint] = 0xff;
        expectRejected(cfg, bad, tag, "MRU way hint");
    }
}

TEST(SnapshotRangeGuards, PythiaQueueFieldsAreRangeChecked)
{
    // CD4 runs IPCP at L1D (pf0) and Pythia at L2C (pf1).
    const SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd4, PolicyKind::kAthena);
    const auto clean = warmupSnapshot(cfg);
    const std::string tag = "c0/pf1";
    const SectionLoc loc = locateSection(clean, tag);
    // PythiaPrefetcher::serialize: u32 degree, two 128 x 16 f64 Q
    // planes, 256 queue entries {u64 f1, u64 f2, u32 action, bool
    // rewarded, bool dropped, f64 reward}, u32 head, u32 count, then
    // 29 bytes (eqBase, lastLine, flag, RNG, histKey).
    constexpr std::size_t kQueue = 4 + 2 * 128 * 16 * 8;
    constexpr std::size_t kEntry = 30;
    constexpr std::size_t kEntries = 256;
    constexpr std::size_t kHead = kQueue + kEntries * kEntry;
    constexpr std::size_t kCount = kHead + 4;
    ASSERT_EQ(loc.length, kCount + 4 + 29);
    ASSERT_LT(loadLe<std::uint32_t>(&clean[loc.offset + kHead]), kEntries);
    ASSERT_LE(loadLe<std::uint32_t>(&clean[loc.offset + kCount]), kEntries);

    auto with = [&](std::size_t field, std::uint32_t v) {
        auto bytes = clean;
        storeLe<std::uint32_t>(&bytes[loc.offset + field], v);
        return bytes;
    };
    const auto action = [](std::size_t entry) {
        return kQueue + entry * kEntry + 16;
    };
    const std::uint32_t actions = PythiaPrefetcher::numActions();

    // In-range edits resume: only the range guards reject below.
    EXPECT_NO_THROW(resumeResealed(cfg, with(kHead, kEntries - 1), tag));
    EXPECT_NO_THROW(resumeResealed(cfg, with(kCount, kEntries), tag));
    EXPECT_NO_THROW(
        resumeResealed(cfg, with(action(0), actions - 1), tag));

    expectRejected(cfg, with(kHead, kEntries), tag, "Pythia EQ head");
    expectRejected(cfg, with(kCount, kEntries + 1), tag,
                   "Pythia EQ occupancy");
    expectRejected(cfg, with(action(0), actions), tag,
                   "Pythia EQ action");
    expectRejected(cfg, with(action(kEntries - 1), 0xffffffffu), tag,
                   "Pythia EQ action");
}

TEST(SnapshotRangeGuards, AthenaPrevActionIsRangeChecked)
{
    // The first epoch after resume applies the SARSA update of the
    // restored previous action, which indexes the Q-table with it.
    // Short epochs put several rewarded epochs inside the warmup.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.epochInstructions = 1000;
    const auto clean = warmupSnapshot(cfg);
    const std::string tag = "c0/policy";
    const SectionLoc loc = locateSection(clean, tag);
    // AthenaAgent::serialize ends with u32 prevState, u32
    // prevAction, f64 last reward and four u64 action counts.
    const std::size_t prev_action = loc.offset + loc.length - 44;
    const std::uint32_t actions = cfg.athena.qv.actions;
    ASSERT_LT(loadLe<std::uint32_t>(&clean[prev_action]), actions);

    auto with = [&](std::uint32_t v) {
        auto bytes = clean;
        storeLe<std::uint32_t>(&bytes[prev_action], v);
        return bytes;
    };

    // Control: an in-range edit resumes and runs past the first
    // post-resume epoch.
    const std::uint64_t two_epochs = 2 * cfg.epochInstructions;
    EXPECT_GE(runResealed(cfg, with(actions - 1), tag, two_epochs),
              two_epochs);
    expectRejected(cfg, with(actions), tag, "Athena previous action");
    expectRejected(cfg, with(0xffffffffu), tag,
                   "Athena previous action");
}

TEST(SnapshotRangeGuards, CoreCursorsAreRangeChecked)
{
    // execute() indexes the ROB ring with robHead/robCount and the
    // MSHR list with mshrCount, unchecked.
    const SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    const auto clean = warmupSnapshot(cfg);
    const std::string tag = "c0/core";
    const SectionLoc loc = locateSection(clean, tag);
    // CoreModel::serialize: u32 robSize, u32 l1Mshrs, u64 dispatch
    // cycle, u32 dispatch slots, u32 robHead, u32 robCount, u64
    // last retire cycle, u32 retire slots, u32 mshrCount.
    constexpr std::size_t kRobHead = 20;
    constexpr std::size_t kRobCount = 24;
    constexpr std::size_t kMshrCount = 40;
    const std::uint32_t rob = cfg.core.robSize;
    const std::uint32_t mshrs = cfg.core.l1Mshrs;
    ASSERT_EQ(loadLe<std::uint32_t>(&clean[loc.offset]), rob);
    ASSERT_EQ(loadLe<std::uint32_t>(&clean[loc.offset + 4]), mshrs);

    auto with = [&](std::size_t field, std::uint32_t v) {
        auto bytes = clean;
        storeLe<std::uint32_t>(&bytes[loc.offset + field], v);
        return bytes;
    };

    // Control: in-range edits resume and run.
    const std::pair<std::size_t, std::uint32_t> valid[] = {
        {kRobHead, rob - 1}, {kRobCount, rob}, {kMshrCount, mshrs}};
    for (const auto &[field, v] : valid) {
        EXPECT_GE(runResealed(cfg, with(field, v), tag, 2000), 2000u)
            << "offset " << field;
    }
    expectRejected(cfg, with(kRobHead, rob), tag, "core ROB head");
    expectRejected(cfg, with(kRobHead, 0x40000000u), tag,
                   "core ROB head");
    expectRejected(cfg, with(kRobCount, rob + 1), tag,
                   "core ROB count");
    expectRejected(cfg, with(kMshrCount, mshrs + 1), tag,
                   "core MSHR count");
    expectRejected(cfg, with(kMshrCount, 5000), tag,
                   "core MSHR count");
}

TEST(SnapshotRangeGuards, BertiCursorsAreRangeChecked)
{
    // observeImpl writes hist[histHead] and reads active[i] for
    // i < activeCount, unchecked.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    cfg.l1dPf = PrefetcherKind::kBerti;
    const auto clean = warmupSnapshot(cfg);
    const std::string tag = "c0/pf0";
    const SectionLoc loc = locateSection(clean, tag);
    // BertiPrefetcher::serialize: u32 degree, then per table entry
    // u16 tag, bool valid, 8 x (u64 line, u64 cycle, bool valid),
    // u32 histHead, 16 x (i32 delta, u32 score), u32 round accesses,
    // 4 x i32 active deltas, u32 activeCount. Entry 0's fields:
    constexpr std::size_t kHistHead = 4 + 2 + 1 + 8 * 17;
    constexpr std::size_t kActiveCount = kHistHead + 4 + 16 * 8 + 4 +
                                         4 * 4;
    static_assert(kHistHead == 143 && kActiveCount == 295);
    ASSERT_LT(loadLe<std::uint32_t>(&clean[loc.offset + kHistHead]), 8u);
    ASSERT_LE(loadLe<std::uint32_t>(&clean[loc.offset + kActiveCount]), 4u);

    auto with = [&](std::size_t field, std::uint32_t v) {
        auto bytes = clean;
        storeLe<std::uint32_t>(&bytes[loc.offset + field], v);
        return bytes;
    };

    // Control: in-range edits resume and run.
    const std::pair<std::size_t, std::uint32_t> valid[] = {
        {kHistHead, 7}, {kActiveCount, 4}};
    for (const auto &[field, v] : valid) {
        EXPECT_GE(runResealed(cfg, with(field, v), tag, 2000), 2000u)
            << "offset " << field;
    }
    expectRejected(cfg, with(kHistHead, 8), tag, "Berti history head");
    expectRejected(cfg, with(kHistHead, 0xffffffffu), tag,
                   "Berti history head");
    expectRejected(cfg, with(kActiveCount, 5), tag,
                   "Berti active delta count");
    expectRejected(cfg, with(kActiveCount, 0xffffffffu), tag,
                   "Berti active delta count");
}

TEST(SnapshotRangeGuards, PerceptronWeightsAreRangeChecked)
{
    // predict() and train() sum five restored weights into an int:
    // weights near INT32_MAX overflow it. POPET, TLP and SPP-PPF
    // restore their weights through the same checked path.
    const SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    const auto clean = warmupSnapshot(cfg);
    const std::string tag = "c0/ocp";
    const SectionLoc loc = locateSection(clean, tag);
    // PopetPredictor::serialize: 5 x 1024 i32 weights, u64 history.
    ASSERT_EQ(loc.length, 5 * 1024 * 4 + 8u);
    using Weight = SignedSatCounter<6>;

    auto with = [&](std::int32_t v) {
        auto bytes = clean;
        storeLe<std::uint32_t>(&bytes[loc.offset],
                               static_cast<std::uint32_t>(v));
        return bytes;
    };

    // Control: the extreme valid weights resume and run.
    for (std::int32_t v : {Weight::kMax, Weight::kMin})
        EXPECT_GE(runResealed(cfg, with(v), tag, 2000), 2000u) << v;
    expectRejected(cfg, with(Weight::kMax + 1), tag, "perceptron weight");
    expectRejected(cfg, with(INT32_MAX), tag, "perceptron weight");
}

TEST(SnapshotRangeGuards, MlopActiveCountIsRangeChecked)
{
    // observeImpl reads active[i] for i < activeCount, and
    // activeOffsets() copies that range, unchecked.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    cfg.l1dPf = PrefetcherKind::kMlop;
    const auto clean = warmupSnapshot(cfg);
    const std::string tag = "c0/pf0";
    const SectionLoc loc = locateSection(clean, tag);
    // MlopPrefetcher::serialize: u32 degree, 32 x (u64 tag, bool
    // valid, u64 bitmap, u64 LRU stamp), 63 x u32 scores, 4 x i32
    // active offsets, u32 activeCount, u32 round accesses, u64 LRU
    // clock.
    constexpr std::size_t kActiveCount = 4 + 32 * 25 + 63 * 4 + 4 * 4;
    ASSERT_EQ(loc.length, kActiveCount + 16);
    ASSERT_LE(loadLe<std::uint32_t>(&clean[loc.offset + kActiveCount]), 4u);

    auto with = [&](std::uint32_t v) {
        auto bytes = clean;
        storeLe<std::uint32_t>(&bytes[loc.offset + kActiveCount], v);
        return bytes;
    };

    EXPECT_GE(runResealed(cfg, with(4), tag, 2000), 2000u);
    expectRejected(cfg, with(5), tag, "MLOP active offset count");
    expectRejected(cfg, with(0xffffffffu), tag,
                   "MLOP active offset count");
}

TEST(SnapshotRangeGuards, SppPpfFeatureIndicesAreRangeChecked)
{
    // Useful/useless feedback on a ring record trains
    // ppf[t][featureIdx[t]], unchecked.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    cfg.l2cPf = PrefetcherKind::kSppPpf;
    const auto clean = warmupSnapshot(cfg);
    const std::string tag = "c0/pf0";
    const SectionLoc loc = locateSection(clean, tag);
    // SppPpfPrefetcher::serialize: u32 degree, 64 signature-table
    // entries of 15 bytes, 512 pattern-table entries of 9 bytes,
    // 3 x 1024 i32 weights, 128 ring records {3 x u16 feature
    // index, bool open}, u64 ring head.
    constexpr std::size_t kRing = 4 + 64 * 15 + 512 * 9 + 3 * 1024 * 4;
    ASSERT_EQ(loc.length, kRing + 128 * 7 + 8);
    const std::size_t first = kRing;            // record 0, index 0
    const std::size_t last = kRing + 127 * 7 + 4; // record 127, index 2

    auto with = [&](std::size_t field, std::uint16_t v) {
        auto bytes = clean;
        bytes[loc.offset + field] = static_cast<std::uint8_t>(v);
        bytes[loc.offset + field + 1] = static_cast<std::uint8_t>(v >> 8);
        return bytes;
    };

    for (std::size_t field : {first, last}) {
        EXPECT_GE(runResealed(cfg, with(field, 1023), tag, 2000), 2000u)
            << "offset " << field;
        expectRejected(cfg, with(field, 1024), tag,
                       "SPP-PPF feature index");
        expectRejected(cfg, with(field, 0xffff), tag,
                       "SPP-PPF feature index");
    }
}

TEST(SnapshotRangeGuards, HpacLevelsAreRangeChecked)
{
    // The next epoch turns each level into a degree scale of
    // level / kMaxLevel; a level near 2^32 makes SMS's degree (up to
    // 8) overflow the unsigned it is converted to. CD3 runs SMS
    // (slot 0) and Pythia (slot 1).
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd3, PolicyKind::kHpac);
    cfg.epochInstructions = 1000;
    const auto clean = warmupSnapshot(cfg);
    const std::string tag = "c0/policy";
    const SectionLoc loc = locateSection(clean, tag);
    // HpacPolicy::serialize: 2 x u32 levels, bool OCP on, u32 OCP
    // off epochs.
    ASSERT_EQ(loc.length, 2 * 4 + 1 + 4u);

    auto with = [&](std::size_t slot, std::uint32_t v) {
        auto bytes = clean;
        storeLe<std::uint32_t>(&bytes[loc.offset + 4 * slot], v);
        return bytes;
    };

    const std::uint64_t two_epochs = 2 * cfg.epochInstructions;
    for (std::size_t slot : {0u, 1u}) {
        for (std::uint32_t v : {1u, 5u}) {
            EXPECT_GE(runResealed(cfg, with(slot, v), tag, two_epochs),
                      two_epochs)
                << "slot " << slot << " level " << v;
        }
        for (std::uint32_t v : {0u, 6u, 0xffffffffu})
            expectRejected(cfg, with(slot, v), tag, "HPAC level");
    }
}

TEST(SnapshotRangeGuards, SaturatingCountersAreRangeChecked)
{
    // An unsigned 2-bit counter is stored as its raw u16; a value
    // above 3 is no state the counter can reach. IPCP, Stride and
    // HMP restore theirs through the same checked path.
    auto with = [](std::vector<std::uint8_t> bytes, std::size_t at,
                   std::uint16_t v) {
        bytes[at] = static_cast<std::uint8_t>(v);
        bytes[at + 1] = static_cast<std::uint8_t>(v >> 8);
        return bytes;
    };

    // CD2 runs IPCP at L1D (pf0) and POPET.
    const SystemConfig ipcp =
        makeDesignConfig(CacheDesign::kCd2, PolicyKind::kNaive);
    const auto ipcp_clean = warmupSnapshot(ipcp);
    const SectionLoc pf = locateSection(ipcp_clean, "c0/pf0");
    // IpcpPrefetcher::serialize: u32 degree, 64 IP entries {u16 tag,
    // bool valid, u64 last page, u32 last offset, i32 stride, u16
    // csConf, u16 signature, u8 class}, 128 CSPT entries {i32
    // stride, u16 conf}, u64 + 2 x i32 stream state.
    ASSERT_EQ(pf.length, 4 + 64 * 24 + 128 * 6 + 16u);
    const std::size_t cs_conf = pf.offset + 4 + 2 + 1 + 8 + 4 + 4;
    ASSERT_LE(ipcp_clean[cs_conf], 3u);
    EXPECT_GE(runResealed(ipcp, with(ipcp_clean, cs_conf, 3), "c0/pf0",
                          2000),
              2000u);
    for (std::uint16_t v : {std::uint16_t{4}, std::uint16_t{0xffff}}) {
        expectRejected(ipcp, with(ipcp_clean, cs_conf, v), "c0/pf0",
                       "saturating counter");
    }

    SystemConfig hmp = ipcp;
    hmp.ocp = OcpKind::kHmp;
    const auto hmp_clean = warmupSnapshot(hmp);
    const SectionLoc ocp = locateSection(hmp_clean, "c0/ocp");
    // HmpPredictor::serialize: 1024 local-history bytes, five 4096
    // x u16 PHTs (local, gshare, three gskew banks), u64 history.
    ASSERT_EQ(ocp.length, 1024 + 5 * 4096 * 2 + 8u);
    const std::size_t local0 = ocp.offset + 1024;
    EXPECT_GE(runResealed(hmp, with(hmp_clean, local0, 3), "c0/ocp",
                          2000),
              2000u);
    expectRejected(hmp, with(hmp_clean, local0, 4), "c0/ocp",
                   "saturating counter");
}

TEST(SnapshotRangeGuards, CoreRestoredPastWarmupStopStillRuns)
{
    // A hand-edited snapshot can leave a core that has not latched
    // its warmup crossing already past the warmup stop of its first
    // burst. The run must step it once, latch, and measure up to the
    // budget; a burst length of stop - retired would underflow and
    // the single-core burst would never return.
    const SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    auto bytes = warmupSnapshot(cfg);
    // CoreModel::serialize: u32 robSize, u32 l1Mshrs, u64 dispatch
    // cycle, three u32, u64 last retire cycle, two u32, u64
    // prevLoadComplete, u64 frontier, then u64 retired instructions.
    constexpr std::size_t kRetired = 60;
    const SectionLoc core = locateSection(bytes, "c0/core");
    ASSERT_EQ(loadLe<std::uint32_t>(&bytes[core.offset + kRetired]), 4000u);
    storeLe<std::uint32_t>(&bytes[core.offset + kRetired], 4500);
    resealSection(bytes, core);
    // Simulator::serialize's resume section: u64 warmup, bool
    // anyStarted, six u64 DRAM counters, u64 frontier, then per core
    // bool started and seven u64 start samples.
    constexpr std::size_t kStarted0 = 8 + 1 + 6 * 8 + 8;
    const SectionLoc resume = locateSection(bytes, "resume");
    ASSERT_EQ(resume.length, kStarted0 + 1 + 7 * 8);
    ASSERT_EQ(bytes[resume.offset + kStarted0], 1u);
    bytes[resume.offset + kStarted0] = 0;
    // One step re-latches the start at 4501 of the 6000 budget.
    EXPECT_EQ(runResealed(cfg, bytes, "resume", 2000), 1499u);
}

// -------------------------------------------- randomized round-trip

/**
 * Property: for a randomized configuration, snapshotting after
 * warmup and immediately re-snapshotting the restored simulator
 * yields byte-identical files — i.e. restore loses nothing that
 * save records, across every component the config instantiates.
 */
TEST(SnapshotProperty, SaveRestoreSaveIsByteIdentical)
{
    Rng rng(20260807);
    auto workloads = evalWorkloads();
    constexpr PolicyKind kPolicies[] = {
        PolicyKind::kNaive, PolicyKind::kTlp,  PolicyKind::kHpac,
        PolicyKind::kMab,   PolicyKind::kAthena};
    constexpr CacheDesign kDesigns[] = {
        CacheDesign::kCd1, CacheDesign::kCd2, CacheDesign::kCd3,
        CacheDesign::kCd4};
    constexpr OcpKind kOcps[] = {OcpKind::kNone, OcpKind::kPopet,
                                 OcpKind::kHmp, OcpKind::kTtp};

    for (int trial = 0; trial < 8; ++trial) {
        SystemConfig cfg = makeDesignConfig(
            kDesigns[rng.below(4)],
            kPolicies[rng.below(5)]);
        cfg.ocp = kOcps[rng.below(4)];
        cfg.seed = 7 + rng.below(1000);
        cfg.bandwidthGBps = 1.6 * static_cast<double>(
            1 + rng.below(4));
        const WorkloadSpec &wl =
            workloads[rng.below(workloads.size())];

        const std::string p1 = tmpPath("prop_a");
        const std::string p2 = tmpPath("prop_b");

        Simulator sim(cfg, {wl});
        RunPlan plan;
        plan.measured = 0;
        plan.warmup = 4000 + 1000 * rng.below(4);
        plan.snapshotAfterWarmup = p1;
        sim.run(plan);

        Simulator restored(cfg, {wl}, p1);
        restored.snapshot(p2);

        EXPECT_EQ(readFile(p1), readFile(p2))
            << "trial " << trial << " policy "
            << static_cast<int>(cfg.policy) << " wl " << wl.name;
        std::remove(p1.c_str());
        std::remove(p2.c_str());
    }
}

// ------------------------------------------------------ layout pin

/** Length and whole-file checksum of one pinned snapshot. */
struct PinnedSnapshot
{
    const char *name;
    std::uint64_t bytes;
    std::uint64_t checksum;
};

/** One pinned configuration: its system and one workload per core. */
struct PinCase
{
    const char *name;
    SystemConfig cfg;
    std::vector<WorkloadSpec> workloads;
};

/** Design @p d under policy @p p with the given component kinds. */
SystemConfig
pinConfig(CacheDesign d, PolicyKind p, PrefetcherKind l1d,
          PrefetcherKind l2c, OcpKind ocp)
{
    SystemConfig cfg = makeDesignConfig(d, p);
    cfg.l1dPf = l1d;
    cfg.l2cPf = l2c;
    cfg.l2cPf2 = PrefetcherKind::kNone;
    cfg.ocp = ocp;
    // Short epochs put several policy decisions inside the warmup.
    cfg.epochInstructions = 1000;
    return cfg;
}

std::vector<PinCase>
pinCases()
{
    using PK = PrefetcherKind;
    const WorkloadSpec stream = pickWorkload("bwaves");
    const WorkloadSpec chase = pickWorkload("mcf");
    std::vector<PinCase> cases;
    // Every prefetcher kind in one of the two slots, every OCP kind
    // and every policy kind.
    cases.push_back({"nextline_stride_hmp_tlp",
                     pinConfig(CacheDesign::kCd4, PolicyKind::kTlp,
                               PK::kNextLine, PK::kStride, OcpKind::kHmp),
                     {stream}});
    cases.push_back({"ipcp_sppppf_ttp_hpac",
                     pinConfig(CacheDesign::kCd4, PolicyKind::kHpac,
                               PK::kIpcp, PK::kSppPpf, OcpKind::kTtp),
                     {chase}});
    cases.push_back({"berti_mlop_none_mab",
                     pinConfig(CacheDesign::kCd4, PolicyKind::kMab,
                               PK::kBerti, PK::kMlop, OcpKind::kNone),
                     {stream}});
    SystemConfig cd3 = makeDesignConfig(CacheDesign::kCd3,
                                        PolicyKind::kAthena);
    cd3.epochInstructions = 1000;
    cases.push_back({"sms_pythia_popet_athena_float", cd3, {chase}});
    SystemConfig quantized = makeDesignConfig(CacheDesign::kCd4,
                                              PolicyKind::kAthena);
    quantized.epochInstructions = 1000;
    quantized.athena.qv.quantized = true;
    cases.push_back(
        {"ipcp_pythia_popet_athena_quantized", quantized, {stream}});
    cases.push_back({"stride_pythia_hmp_naive",
                     pinConfig(CacheDesign::kCd1, PolicyKind::kNaive,
                               PK::kStride, PK::kPythia, OcpKind::kHmp),
                     {chase}});
    cases.push_back({"berti_sms_ttp_alloff",
                     pinConfig(CacheDesign::kCd4, PolicyKind::kAllOff,
                               PK::kBerti, PK::kSms, OcpKind::kTtp),
                     {stream}});
    cases.push_back({"ipcp_mlop_popet_pfonly",
                     pinConfig(CacheDesign::kCd4, PolicyKind::kPfOnly,
                               PK::kIpcp, PK::kMlop, OcpKind::kPopet),
                     {chase}});
    cases.push_back({"nextline_sppppf_hmp_ocponly",
                     pinConfig(CacheDesign::kCd4, PolicyKind::kOcpOnly,
                               PK::kNextLine, PK::kSppPpf,
                               OcpKind::kHmp),
                     {stream}});
    cases.push_back({"berti_pythia_popet_athena",
                     pinConfig(CacheDesign::kCd4, PolicyKind::kAthena,
                               PK::kBerti, PK::kPythia, OcpKind::kPopet),
                     {chase}});
    cases.push_back({"ipcp_stride_popet_mab",
                     pinConfig(CacheDesign::kCd4, PolicyKind::kMab,
                               PK::kIpcp, PK::kStride, OcpKind::kPopet),
                     {chase}});
    // Four cores over two LLC banks and two DRAM channels.
    SystemConfig mix = makeManyCoreConfig(4, CacheDesign::kCd3,
                                          PolicyKind::kHpac);
    mix.llcBanks = 2;
    mix.dramChannels = 2;
    mix.epochInstructions = 1000;
    cases.push_back({"mix4_b2_ch2_hpac", mix,
                     {stream, chase, pickWorkload("xalancbmk"),
                      pickWorkload("gromacs")}});
    // A trace replayed in an endless loop: the warmup wraps it.
    cases.push_back(
        {"trace_loop_naive",
         makeDesignConfig(CacheDesign::kCd2, PolicyKind::kNaive),
         {traceWorkloadSpec("t.mix",
                            std::string(ATHENA_TEST_DATA_DIR) +
                                "/sample_mix.bin",
                            0)}});
    SystemConfig tlp = makeDesignConfig(CacheDesign::kCd2,
                                        PolicyKind::kTlp);
    tlp.epochInstructions = 1000;
    cases.push_back({"ipcp_popet_tlp", tlp, {stream}});
    return cases;
}

/**
 * The ASNP v5 bytes of every component kind, pinned by file length
 * and whole-file checksum. SaveRestoreSaveIsByteIdentical only
 * proves one build agrees with itself: a layout change made on both
 * the save and the restore side would pass it, and a resume from a
 * stale ATHENA_SNAPSHOT_DIR entry would then read shifted fields
 * without an error. A deliberate layout change bumps
 * kSnapshotVersion and regenerates this table (run with
 * ATHENA_GOLDEN_PRINT=1 and paste the printed rows).
 */
TEST(SnapshotLayout, BytesArePinned)
{
    constexpr PinnedSnapshot kPinned[] = {
        {"nextline_stride_hmp_tlp", 2570033u, 0x3eaa2ffe0b9a9a1cull},
        {"ipcp_sppppf_ttp_hpac", 2711246u, 0xd6531b487a49d39cull},
        {"berti_mlop_none_mab", 2513601u, 0xd286b00a6fb61261ull},
        {"sms_pythia_popet_athena_float", 2575004u,
         0x59e7d122790e97efull},
        {"ipcp_pythia_popet_athena_quantized", 2559108u,
         0x6a6db43f128cfa64ull},
        {"stride_pythia_hmp_naive", 2577742u, 0x7d2040da2711fb11ull},
        {"berti_sms_ttp_alloff", 2712913u, 0xe5b742704e5f0118ull},
        {"ipcp_mlop_popet_pfonly", 2517429u, 0x9f2c7aa773c05342ull},
        {"nextline_sppppf_hmp_ocponly", 2554289u, 0xd78b66c8d109a212ull},
        {"berti_pythia_popet_athena", 2590004u, 0x68c75d9d3c08afdaull},
        {"ipcp_stride_popet_mab", 2518221u, 0x7dc59023081bc984ull},
        {"mix4_b2_ch2_hpac", 10232357u, 0xb7426b7029e7ee97ull},
        {"trace_loop_naive", 2516232u, 0x85d73d7057e18e05ull},
        {"ipcp_popet_tlp", 2549069u, 0xcc1c71bac757c062ull},
    };
    const char *print = std::getenv("ATHENA_GOLDEN_PRINT");
    const bool print_mode = print && *print && *print != '0';

    const std::vector<PinCase> cases = pinCases();
    ASSERT_TRUE(print_mode || std::size(kPinned) == cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const PinCase &pc = cases[i];
        const std::string path = tmpPath(std::string("pin_") + pc.name);
        Simulator sim(pc.cfg, pc.workloads);
        RunPlan plan;
        plan.measured = 0;
        plan.warmup = 3000;
        plan.snapshotAfterWarmup = path;
        sim.run(plan);
        const auto bytes = readFile(path);
        std::remove(path.c_str());
        const std::uint64_t sum =
            snapshotChecksum(bytes.data(), bytes.size());
        if (print_mode) {
            std::printf("        {\"%s\", %lluu, 0x%016llxull},\n",
                        pc.name,
                        static_cast<unsigned long long>(bytes.size()),
                        static_cast<unsigned long long>(sum));
            continue;
        }
        const PinnedSnapshot &want = kPinned[i];
        EXPECT_STREQ(pc.name, want.name);
        EXPECT_EQ(bytes.size(), want.bytes) << pc.name;
        EXPECT_EQ(sum, want.checksum)
            << pc.name << ": got {\"" << pc.name << "\", "
            << bytes.size() << "u, 0x" << std::hex << sum << "ull}";
    }
}

} // namespace
} // namespace athena
