/**
 * @file
 * Tests for the trace file reader/writer: lossless round-trips
 * between the in-memory records and both on-disk formats, pinned
 * checks on the checked-in sample traces (so the formats cannot
 * drift silently), the mmap-backed TraceFile batch API,
 * malformed-input diagnostics, and a table of hostile headers and
 * paths that every trace and snapshot reader must agree on.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "snapshot/snapshot.hh"
#include "trace/trace_file.hh"
#include "trace/workload.hh"

namespace athena
{
namespace
{

#ifndef ATHENA_TEST_DATA_DIR
#error "ATHENA_TEST_DATA_DIR must be defined by the build"
#endif

std::string
dataPath(const std::string &name)
{
    return std::string(ATHENA_TEST_DATA_DIR) + "/" + name;
}

/** A scratch file deleted at scope exit. */
class TempPath
{
  public:
    explicit TempPath(const std::string &suffix)
        : path_(std::string(::testing::TempDir()) +
                "athena_trace_test_" + suffix)
    {
    }
    ~TempPath() { std::remove(path_.c_str()); }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

bool
sameRecord(const TraceRecord &a, const TraceRecord &b)
{
    return a.pc == b.pc && a.addr == b.addr && a.kind == b.kind &&
           a.taken == b.taken &&
           a.dependsOnPrevLoad == b.dependsOnPrevLoad &&
           a.criticalConsumer == b.criticalConsumer;
}

/** Records exercising every kind and flag combination. */
std::vector<TraceRecord>
exhaustiveRecords()
{
    std::vector<TraceRecord> recs;
    TraceRecord r;
    r.kind = InstrKind::kAlu;
    r.pc = 0x700000;
    recs.push_back(r);
    for (bool dep : {false, true}) {
        for (bool crit : {false, true}) {
            TraceRecord l;
            l.kind = InstrKind::kLoad;
            l.pc = 0x400010;
            l.addr = 0x7f0000400040ull + recs.size() * 64;
            l.dependsOnPrevLoad = dep;
            l.criticalConsumer = crit;
            recs.push_back(l);
        }
    }
    TraceRecord s;
    s.kind = InstrKind::kStore;
    s.pc = 0x500000;
    s.addr = 0xffffffffffffffc0ull; // top-of-range address survives
    recs.push_back(s);
    for (bool taken : {false, true}) {
        TraceRecord b;
        b.kind = InstrKind::kBranch;
        b.pc = 0x600008;
        b.taken = taken;
        recs.push_back(b);
    }
    return recs;
}

TEST(TraceFileFormat, TextRoundTripsLosslessly)
{
    auto recs = exhaustiveRecords();
    std::stringstream ss;
    writeTrace(ss, recs.data(), recs.size(), TraceFormat::kText);
    auto back = readTrace(ss);
    ASSERT_EQ(back.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i)
        EXPECT_TRUE(sameRecord(recs[i], back[i])) << "record " << i;
}

TEST(TraceFileFormat, BinaryRoundTripsLosslessly)
{
    auto recs = exhaustiveRecords();
    std::stringstream ss;
    writeTrace(ss, recs.data(), recs.size(), TraceFormat::kBinary);
    auto back = readTrace(ss);
    ASSERT_EQ(back.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i)
        EXPECT_TRUE(sameRecord(recs[i], back[i])) << "record " << i;
}

TEST(TraceFileFormat, CrossFormatConversionIsExact)
{
    // text -> records -> binary -> records: the two decodes agree,
    // which is what the converter script relies on.
    auto text_recs = readTraceFile(dataPath("sample_loop.txt"));
    TempPath bin("conv.bin");
    writeTraceFile(bin.str(), text_recs, TraceFormat::kBinary);
    auto bin_recs = readTraceFile(bin.str());
    ASSERT_EQ(bin_recs.size(), text_recs.size());
    for (std::size_t i = 0; i < text_recs.size(); ++i)
        EXPECT_TRUE(sameRecord(text_recs[i], bin_recs[i]))
            << "record " << i;
}

TEST(TraceFileFormat, CheckedInTextSamplePinned)
{
    TraceFile trace(dataPath("sample_loop.txt"));
    EXPECT_EQ(trace.format(), TraceFormat::kText);
    ASSERT_EQ(trace.size(), 400u);
    // First record of the committed sample (regenerate with
    // scripts/gen_sample_trace.py if the format ever changes).
    TraceRecord first = trace.at(0);
    EXPECT_EQ(first.kind, InstrKind::kLoad);
    EXPECT_EQ(first.pc, 0x400020u);
    EXPECT_EQ(first.addr, 0x7f0000012b82ull);
    EXPECT_FALSE(first.dependsOnPrevLoad);
    EXPECT_TRUE(first.criticalConsumer);
    // The sample contains every record kind.
    bool kinds[4] = {};
    std::vector<TraceRecord> all(trace.size());
    EXPECT_EQ(trace.copy(0, all.data(), all.size()), all.size());
    for (const TraceRecord &r : all)
        kinds[static_cast<int>(r.kind)] = true;
    EXPECT_TRUE(kinds[0] && kinds[1] && kinds[2] && kinds[3]);
}

TEST(TraceFileFormat, CheckedInBinarySamplePinned)
{
    TraceFile trace(dataPath("sample_mix.bin"));
    EXPECT_EQ(trace.format(), TraceFormat::kBinary);
    ASSERT_EQ(trace.size(), 512u);
    // Round-trip the committed binary through text and back.
    std::vector<TraceRecord> all(trace.size());
    ASSERT_EQ(trace.copy(0, all.data(), all.size()), all.size());
    TempPath txt("roundtrip.txt");
    writeTraceFile(txt.str(), all, TraceFormat::kText);
    auto back = readTraceFile(txt.str());
    ASSERT_EQ(back.size(), all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_TRUE(sameRecord(all[i], back[i])) << "record " << i;
}

TEST(TraceFileFormat, CopyClampsAndAt)
{
    TraceFile trace(dataPath("sample_mix.bin"));
    TraceRecord buf[64];
    // Mid-file batch.
    EXPECT_EQ(trace.copy(100, buf, 64), 64u);
    EXPECT_TRUE(sameRecord(buf[0], trace.at(100)));
    // Ragged tail.
    EXPECT_EQ(trace.copy(trace.size() - 10, buf, 64), 10u);
    // Past the end.
    EXPECT_EQ(trace.copy(trace.size(), buf, 64), 0u);
    EXPECT_THROW(trace.at(trace.size()), std::out_of_range);
}

TEST(TraceFileFormat, TextParseErrorsAreDiagnosed)
{
    auto parse = [](const std::string &text) {
        std::stringstream ss(text);
        return readTrace(ss);
    };
    EXPECT_NO_THROW(parse("# comment only\n\n"));
    // Inline comments (as in the README examples) are valid.
    {
        auto recs =
            parse("A 0x700000  # plain ALU op\n"
                  "B 0x600008 T # branch taken\n");
        ASSERT_EQ(recs.size(), 2u);
        EXPECT_EQ(recs[0].kind, InstrKind::kAlu);
        EXPECT_TRUE(recs[1].taken);
    }
    EXPECT_THROW(parse("X 0x1\n"), std::runtime_error);
    EXPECT_THROW(parse("L 0x1\n"), std::runtime_error);        // no addr
    EXPECT_THROW(parse("L 0x1 zzz\n"), std::runtime_error);    // bad hex
    EXPECT_THROW(parse("L 0x1 -5\n"), std::runtime_error);     // signed
    EXPECT_THROW(parse("L -1 0x2\n"), std::runtime_error);     // signed pc
    EXPECT_THROW(parse("L 0x1 0x2 q\n"), std::runtime_error);  // bad flag
    EXPECT_THROW(parse("B 0x1 maybe\n"), std::runtime_error);
    EXPECT_THROW(parse("A 0x1 junk\n"), std::runtime_error);
    // The diagnostic names the offending line.
    try {
        parse("A 0x1\nB 0x2 maybe\n");
        FAIL() << "expected parse error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceFileFormat, TruncatedBinaryIsRejected)
{
    auto recs = exhaustiveRecords();
    std::stringstream ss;
    writeTrace(ss, recs.data(), recs.size(), TraceFormat::kBinary);
    std::string bytes = ss.str();

    TempPath cut("truncated.bin");
    std::ofstream os(cut.str(), std::ios::binary);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size() - 5));
    os.close();
    EXPECT_THROW(TraceFile trace(cut.str()), std::runtime_error);
    EXPECT_THROW(readTraceFile(cut.str()), std::runtime_error);
}

TEST(TraceFileFormat, ReadTraceHonoursStreamPosition)
{
    // A text trace embedded after a preamble in one stream: the
    // sniff must rewind to the caller's position, not offset 0.
    std::stringstream ss("PREAMBLE\nA 0x700000\nB 0x600000 T\n");
    std::string preamble;
    std::getline(ss, preamble);
    ASSERT_EQ(preamble, "PREAMBLE");
    auto recs = readTrace(ss);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].kind, InstrKind::kAlu);
    EXPECT_EQ(recs[1].kind, InstrKind::kBranch);
}

TEST(TraceFileFormat, HugeClaimedCountIsRejected)
{
    // A corrupt header whose record count makes
    // header + count * record wrap 2^64 must fail validation, not
    // pass it and read out of bounds in copy().
    TempPath evil("overflow.bin");
    std::ofstream os(evil.str(), std::ios::binary);
    unsigned char header[16] = {'A', 'T', 'R', 'C', 1, 17, 0, 0};
    // count = 0x0f0f0f0f0f0f0f10: 16 + count * 17 == 32 mod 2^64.
    for (int i = 0; i < 8; ++i)
        header[8 + i] = i == 7 ? 0x0f : (i == 0 ? 0x10 : 0x0f);
    os.write(reinterpret_cast<const char *>(header), 16);
    const char padding[64] = {};
    os.write(padding, sizeof(padding));
    os.close();
    EXPECT_THROW(TraceFile trace(evil.str()), std::runtime_error);
    EXPECT_THROW(readTraceFile(evil.str()), std::runtime_error);
}

TEST(TraceFileFormat, MissingFileIsDiagnosed)
{
    EXPECT_THROW(TraceFile trace("/nonexistent/trace.bin"),
                 std::runtime_error);
    EXPECT_THROW(readTraceFile("/nonexistent/trace.bin"),
                 std::runtime_error);
}

// ------------------------------------------------- hostile inputs

/** Marks a row every reader must reject with std::runtime_error. */
constexpr std::size_t kRejected = SIZE_MAX;

/** One ATRC header boundary: the file's bytes and the number of
 *  records every reader must decode from them (or kRejected). */
struct HeaderRow
{
    const char *name;
    std::string bytes;
    std::size_t records;
};

std::vector<HeaderRow>
headerRows(const std::vector<TraceRecord> &recs)
{
    std::stringstream ss;
    writeTrace(ss, recs.data(), recs.size(), TraceFormat::kBinary);
    const std::string valid = ss.str();
    auto with_byte = [&](std::size_t at, unsigned char v) {
        std::string b = valid;
        b[at] = static_cast<char>(v);
        return b;
    };
    auto with_count = [&](std::uint64_t n) {
        std::string b = valid;
        storeLe64(reinterpret_cast<std::uint8_t *>(b.data() + 8), n);
        return b;
    };
    return {
        {"count 0", with_count(0), 0},
        {"count exact", valid, recs.size()},
        {"count exact+1", with_count(recs.size() + 1), kRejected},
        {"count 2^64-1", with_count(UINT64_MAX), kRejected},
        {"record size 0", with_byte(5, 0), kRejected},
        {"record size 16", with_byte(5, 16), kRejected},
        {"record size 18", with_byte(5, 18), kRejected},
        {"record size 255", with_byte(5, 255), kRejected},
        {"version 0", with_byte(4, 0), kRejected},
        {"version 2", with_byte(4, 2), kRejected},
        {"magic only", valid.substr(0, kTraceMagicBytes), kRejected},
        {"empty file", "", 0},
    };
}

TEST(TraceFileHostile, HeaderBoundariesAgreeAcrossReaders)
{
    const auto recs = exhaustiveRecords();
    for (const HeaderRow &row : headerRows(recs)) {
        SCOPED_TRACE(row.name);
        TempPath path("hostile.bin");
        {
            std::ofstream os(path.str(), std::ios::binary);
            os.write(row.bytes.data(),
                     static_cast<std::streamsize>(row.bytes.size()));
        }
        std::stringstream stream(row.bytes);
        if (row.records == kRejected) {
            EXPECT_THROW(TraceFile trace(path.str()), std::runtime_error);
            EXPECT_THROW(readTraceFile(path.str()), std::runtime_error);
            EXPECT_THROW(readTrace(stream), std::runtime_error);
            continue;
        }
        const TraceFile trace(path.str());
        std::vector<TraceRecord> mapped(trace.size());
        EXPECT_EQ(trace.copy(0, mapped.data(), mapped.size()),
                  mapped.size());
        for (const auto &got :
             {mapped, readTraceFile(path.str()), readTrace(stream)}) {
            ASSERT_EQ(got.size(), row.records);
            for (std::size_t i = 0; i < got.size(); ++i)
                EXPECT_TRUE(sameRecord(got[i], recs[i])) << "record " << i;
        }
    }
}

TEST(TraceFileHostile, PathsThatAreNotTracesAreRejected)
{
    // A directory opens but cannot be read: every path-taking reader
    // throws its own error type instead of reading zero bytes.
    const std::string dir = ::testing::TempDir();
    EXPECT_THROW(TraceFile trace(dir), std::runtime_error);
    EXPECT_THROW(readTraceFile(dir), std::runtime_error);
    EXPECT_THROW(SnapshotReader reader(dir), SnapshotError);

    // An empty file is an empty text trace, but no snapshot.
    TempPath empty("empty");
    std::ofstream(empty.str(), std::ios::binary).close();
    EXPECT_EQ(TraceFile(empty.str()).size(), 0u);
    EXPECT_THROW(SnapshotReader reader(empty.str()), SnapshotError);
}

} // namespace
} // namespace athena
