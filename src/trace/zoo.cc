/**
 * @file
 * Workload zoo construction.
 *
 * Each archetype builder takes a per-workload seed and applies small
 * seed-derived jitter to footprints and instruction fractions so no
 * two workloads are identical. The archetype assignment below is
 * calibrated so the friendly / adverse split at 3.2 GB/s
 * approximates Fig. 1 (bench_fig01_motivation prints the split).
 */

#include "trace/zoo.hh"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/hashing.hh"

namespace athena
{

namespace
{

/** Deterministic jitter in [lo, hi] derived from (seed, salt). */
double
jitter(std::uint64_t seed, std::uint64_t salt, double lo, double hi)
{
    double u = static_cast<double>(mix64(seed ^ (salt * 0x9e37ull)) >> 11) *
               0x1.0p-53;
    return lo + u * (hi - lo);
}

std::uint64_t
seedOf(const std::string &name)
{
    // Not the FNV offset basis, but every zoo workload is defined
    // by the seeds this start gives.
    Fnv1a h{1469598103934665603ull};
    h.bytes(name.data(), name.size());
    return h.h | 1;
}

WorkloadSpec
streamy(const std::string &name, Suite suite)
{
    std::uint64_t s = seedOf(name);
    PhaseParams p;
    p.pattern = Pattern::kStream;
    p.instructions = 400000;
    p.footprintBytes =
        static_cast<std::uint64_t>(jitter(s, 1, 48, 160)) << 20;
    p.hotFrac = jitter(s, 5, 0.55, 0.70);
    p.hotBytes = 24 << 10;
    p.criticalFrac = jitter(s, 6, 0.22, 0.34);
    p.loadFrac = jitter(s, 2, 0.28, 0.38);
    p.storeFrac = 0.05;
    p.branchFrac = jitter(s, 3, 0.06, 0.12);
    p.branchNoise = jitter(s, 4, 0.005, 0.02);
    return {name, suite, s, {p}, {}, 1};
}

WorkloadSpec
stridey(const std::string &name, Suite suite, unsigned stride_lines)
{
    std::uint64_t s = seedOf(name);
    PhaseParams p;
    p.pattern = Pattern::kStride;
    p.instructions = 400000;
    p.strideBytes = stride_lines * kLineBytes;
    p.footprintBytes =
        static_cast<std::uint64_t>(jitter(s, 1, 64, 192)) << 20;
    p.hotFrac = jitter(s, 5, 0.84, 0.92);
    p.hotBytes = 24 << 10;
    p.criticalFrac = jitter(s, 6, 0.25, 0.38);
    p.loadFrac = jitter(s, 2, 0.26, 0.36);
    p.storeFrac = 0.05;
    p.branchFrac = 0.08;
    p.branchNoise = 0.01;
    return {name, suite, s, {p}, {}, 1};
}

WorkloadSpec
chasey(const std::string &name, Suite suite)
{
    std::uint64_t s = seedOf(name);
    PhaseParams p;
    p.pattern = Pattern::kChase;
    p.instructions = 400000;
    p.footprintBytes =
        static_cast<std::uint64_t>(jitter(s, 1, 96, 256)) << 20;
    p.hotFrac = jitter(s, 5, 0.70, 0.80);
    p.hotBytes = 32 << 10;
    p.criticalFrac = 0.10; // the chase itself already serializes
    p.loadFrac = jitter(s, 2, 0.22, 0.30);
    p.storeFrac = 0.04;
    p.branchFrac = jitter(s, 3, 0.10, 0.16);
    p.branchNoise = jitter(s, 4, 0.03, 0.08);
    return {name, suite, s, {p}, {}, 1};
}

WorkloadSpec
irregular(const std::string &name, Suite suite)
{
    std::uint64_t s = seedOf(name);
    PhaseParams p;
    p.pattern = Pattern::kIrregular;
    p.instructions = 400000;
    p.footprintBytes =
        static_cast<std::uint64_t>(jitter(s, 1, 96, 224)) << 20;
    p.hotFrac = jitter(s, 2, 0.74, 0.84);
    p.hotBytes = 96 << 10;
    p.criticalFrac = jitter(s, 6, 0.28, 0.40);
    p.loadFrac = jitter(s, 3, 0.26, 0.36);
    p.storeFrac = 0.05;
    p.branchFrac = 0.14;
    p.branchNoise = jitter(s, 4, 0.04, 0.09);
    return {name, suite, s, {p}, {}, 1};
}

WorkloadSpec
graphy(const std::string &name, Suite suite)
{
    std::uint64_t s = seedOf(name);
    PhaseParams p;
    p.pattern = Pattern::kGraph;
    p.instructions = 400000;
    p.footprintBytes =
        static_cast<std::uint64_t>(jitter(s, 1, 64, 192)) << 20;
    p.zipfS = jitter(s, 2, 0.55, 0.95);
    p.criticalFrac = jitter(s, 6, 0.30, 0.42);
    p.scanBurst = static_cast<unsigned>(jitter(s, 3, 48, 160));
    p.gatherBurst = static_cast<unsigned>(jitter(s, 4, 8, 24));
    p.loadFrac = 0.30;
    p.storeFrac = 0.05;
    p.branchFrac = 0.12;
    p.branchNoise = 0.04;
    return {name, suite, s, {p}, {}, 1};
}

WorkloadSpec
computey(const std::string &name, Suite suite)
{
    std::uint64_t s = seedOf(name);
    PhaseParams p;
    p.pattern = Pattern::kCompute;
    p.instructions = 400000;
    p.footprintBytes =
        static_cast<std::uint64_t>(jitter(s, 1, 48, 128)) << 20;
    p.hotFrac = jitter(s, 2, 0.88, 0.95);
    p.hotBytes = 384 << 10;
    p.criticalFrac = jitter(s, 6, 0.30, 0.42);
    p.loadFrac = jitter(s, 3, 0.24, 0.34);
    p.storeFrac = 0.06;
    p.branchFrac = jitter(s, 4, 0.14, 0.22);
    p.branchNoise = jitter(s, 5, 0.05, 0.12);
    return {name, suite, s, {p}, {}, 1};
}

WorkloadSpec
regiony(const std::string &name, Suite suite)
{
    std::uint64_t s = seedOf(name);
    PhaseParams p;
    p.pattern = Pattern::kRegionSpatial;
    p.instructions = 400000;
    p.footprintBytes =
        static_cast<std::uint64_t>(jitter(s, 1, 64, 160)) << 20;
    p.regionLines = static_cast<unsigned>(jitter(s, 2, 8, 16));
    p.hotFrac = jitter(s, 3, 0.82, 0.90);
    p.hotBytes = 24 << 10;
    p.criticalFrac = jitter(s, 6, 0.25, 0.35);
    p.loadFrac = 0.30;
    p.storeFrac = 0.05;
    p.branchFrac = 0.10;
    p.branchNoise = 0.02;
    return {name, suite, s, {p}, {}, 1};
}

/** Two-phase workload alternating friendly and adverse behaviour. */
WorkloadSpec
phased(const std::string &name, Suite suite)
{
    std::uint64_t s = seedOf(name);
    PhaseParams a;
    a.pattern = Pattern::kStream;
    a.instructions =
        static_cast<std::uint64_t>(jitter(s, 1, 40000, 90000));
    a.footprintBytes = 96ull << 20;
    a.hotFrac = 0.62;
    a.hotBytes = 24 << 10;
    a.criticalFrac = 0.28;
    a.loadFrac = 0.32;
    a.branchFrac = 0.08;
    a.branchNoise = 0.01;

    PhaseParams b;
    b.pattern = Pattern::kChase;
    b.instructions =
        static_cast<std::uint64_t>(jitter(s, 2, 40000, 90000));
    b.footprintBytes = 160ull << 20;
    b.hotFrac = 0.80;
    b.hotBytes = 32 << 10;
    b.criticalFrac = 0.10;
    b.loadFrac = 0.24;
    b.branchFrac = 0.15;
    b.branchNoise = 0.07;
    return {name, suite, s, {a, b}, {}, 1};
}

} // namespace

std::vector<WorkloadSpec>
evalWorkloads()
{
    std::vector<WorkloadSpec> w;
    w.reserve(100);

    // ---- SPEC CPU 2006: 29 traces -------------------------------
    // Friendly (streaming / strided FP codes).
    w.push_back(streamy("410.bwaves-1963B", Suite::kSpec06));
    w.push_back(streamy("433.milc-127B", Suite::kSpec06));
    w.push_back(streamy("434.zeusmp-10B", Suite::kSpec06));
    w.push_back(streamy("437.leslie3d-134B", Suite::kSpec06));
    w.push_back(streamy("459.GemsFDTD-765B", Suite::kSpec06));
    w.push_back(streamy("462.libquantum-714B", Suite::kSpec06));
    w.push_back(streamy("470.lbm-1274B", Suite::kSpec06));
    w.push_back(stridey("436.cactusADM-732B", Suite::kSpec06, 2));
    w.push_back(stridey("481.wrf-816B", Suite::kSpec06, 3));
    w.push_back(stridey("454.calculix-104B", Suite::kSpec06, 2));
    w.push_back(regiony("435.gromacs-111B", Suite::kSpec06));
    w.push_back(regiony("447.dealII-3B", Suite::kSpec06));
    w.push_back(streamy("482.sphinx3-1100B", Suite::kSpec06));
    w.push_back(phased("450.soplex-247B", Suite::kSpec06));
    w.push_back(phased("453.povray-252B", Suite::kSpec06));
    // Adverse (irregular integer codes).
    w.push_back(chasey("429.mcf-184B", Suite::kSpec06));
    w.push_back(chasey("429.mcf-217B", Suite::kSpec06));
    w.push_back(chasey("471.omnetpp-188B", Suite::kSpec06));
    w.push_back(irregular("483.xalancbmk-127B", Suite::kSpec06));
    w.push_back(irregular("483.xalancbmk-736B", Suite::kSpec06));
    w.push_back(chasey("473.astar-153B", Suite::kSpec06));
    w.push_back(irregular("403.gcc-17B", Suite::kSpec06));
    w.push_back(irregular("445.gobmk-17B", Suite::kSpec06));
    w.push_back(irregular("458.sjeng-767B", Suite::kSpec06));
    w.push_back(irregular("464.h264ref-97B", Suite::kSpec06));
    w.push_back(computey("400.perlbench-50B", Suite::kSpec06));
    w.push_back(computey("401.bzip2-38B", Suite::kSpec06));
    w.push_back(computey("456.hmmer-88B", Suite::kSpec06));
    w.push_back(graphy("465.tonto-1914B", Suite::kSpec06));

    // ---- SPEC CPU 2017: 20 traces -------------------------------
    w.push_back(streamy("603.bwaves_s-2609B", Suite::kSpec17));
    w.push_back(streamy("619.lbm_s-2676B", Suite::kSpec17));
    w.push_back(streamy("621.wrf_s-6673B", Suite::kSpec17));
    w.push_back(streamy("654.roms_s-1007B", Suite::kSpec17));
    w.push_back(stridey("607.cactuBSSN_s-2421B", Suite::kSpec17, 2));
    w.push_back(stridey("628.pop2_s-17B", Suite::kSpec17, 4));
    w.push_back(streamy("649.fotonik3d_s-1176B", Suite::kSpec17));
    w.push_back(regiony("638.imagick_s-10316B", Suite::kSpec17));
    w.push_back(phased("627.cam4_s-573B", Suite::kSpec17));
    w.push_back(phased("644.nab_s-5853B", Suite::kSpec17));
    w.push_back(chasey("605.mcf_s-1554B", Suite::kSpec17));
    w.push_back(chasey("605.mcf_s-472B", Suite::kSpec17));
    w.push_back(chasey("620.omnetpp_s-874B", Suite::kSpec17));
    w.push_back(irregular("623.xalancbmk_s-700B", Suite::kSpec17));
    w.push_back(irregular("602.gcc_s-734B", Suite::kSpec17));
    w.push_back(irregular("631.deepsjeng_s-928B", Suite::kSpec17));
    w.push_back(irregular("641.leela_s-800B", Suite::kSpec17));
    w.push_back(computey("600.perlbench_s-210B", Suite::kSpec17));
    w.push_back(computey("657.xz_s-3167B", Suite::kSpec17));
    w.push_back(graphy("648.exchange2_s-1699B", Suite::kSpec17));

    // ---- PARSEC: 13 traces --------------------------------------
    w.push_back(streamy("streamcluster-10B", Suite::kParsec));
    w.push_back(streamy("blackscholes-2B", Suite::kParsec));
    w.push_back(streamy("fluidanimate-7B", Suite::kParsec));
    w.push_back(stridey("facesim-14B", Suite::kParsec, 2));
    w.push_back(regiony("bodytrack-4B", Suite::kParsec));
    w.push_back(regiony("vips-5B", Suite::kParsec));
    w.push_back(streamy("swaptions-3B", Suite::kParsec));
    w.push_back(phased("ferret-6B", Suite::kParsec));
    w.push_back(phased("x264-9B", Suite::kParsec));
    w.push_back(chasey("canneal-18B", Suite::kParsec));
    w.push_back(irregular("dedup-8B", Suite::kParsec));
    w.push_back(irregular("raytrace-11B", Suite::kParsec));
    w.push_back(computey("freqmine-12B", Suite::kParsec));

    // ---- Ligra: 13 traces ---------------------------------------
    w.push_back(graphy("BC-20B", Suite::kLigra));
    w.push_back(graphy("BFS-15B", Suite::kLigra));
    w.push_back(graphy("BFSCC-26B", Suite::kLigra));
    w.push_back(graphy("BellmanFord-17B", Suite::kLigra));
    w.push_back(graphy("CF-11B", Suite::kLigra));
    w.push_back(graphy("Components-21B", Suite::kLigra));
    w.push_back(chasey("KCore-33B", Suite::kLigra));
    w.push_back(chasey("MIS-12B", Suite::kLigra));
    w.push_back(graphy("PageRank-14B", Suite::kLigra));
    w.push_back(phased("PageRankDelta-24B", Suite::kLigra));
    w.push_back(graphy("Radii-23B", Suite::kLigra));
    w.push_back(chasey("Triangle-44B", Suite::kLigra));
    w.push_back(streamy("CFSweep-9B", Suite::kLigra));

    // ---- CVP: 25 traces -----------------------------------------
    // The CVP suite in Fig. 1 contains both friendly and adverse
    // members; compute_fp_78 is the Fig. 17 case-study workload.
    const struct { const char *name; int kind; } cvp[] = {
        {"compute_fp_1", 0},   {"compute_fp_11", 0},
        {"compute_fp_34", 1},  {"compute_fp_45", 0},
        {"compute_fp_78", 5},  {"compute_fp_92", 1},
        {"compute_int_4", 2},  {"compute_int_12", 3},
        {"compute_int_19", 2}, {"compute_int_23", 4},
        {"compute_int_37", 3}, {"compute_int_41", 2},
        {"compute_int_52", 3}, {"compute_int_68", 4},
        {"compute_int_77", 2}, {"compute_int_84", 4},
        {"srv_64", 3},         {"srv_127", 2},
        {"srv_233", 4},        {"srv_301", 3},
        {"srv_402", 0},        {"srv_480", 1},
        {"srv_516", 4},        {"srv_559", 2},
        {"srv_620", 5},
    };
    for (const auto &c : cvp) {
        switch (c.kind) {
          case 0: w.push_back(streamy(c.name, Suite::kCvp)); break;
          case 1: w.push_back(stridey(c.name, Suite::kCvp, 2)); break;
          case 2: w.push_back(computey(c.name, Suite::kCvp)); break;
          case 3: w.push_back(irregular(c.name, Suite::kCvp)); break;
          case 4: w.push_back(chasey(c.name, Suite::kCvp)); break;
          case 5: w.push_back(phased(c.name, Suite::kCvp)); break;
        }
    }
    return w;
}

std::vector<WorkloadSpec>
tuningWorkloads()
{
    std::vector<WorkloadSpec> w;
    w.reserve(20);
    const char *names[20] = {
        "tune_stream_a", "tune_stream_b", "tune_stream_c",
        "tune_stride_a", "tune_stride_b",
        "tune_chase_a", "tune_chase_b", "tune_chase_c", "tune_chase_d",
        "tune_irr_a", "tune_irr_b", "tune_irr_c",
        "tune_graph_a", "tune_graph_b", "tune_graph_c",
        "tune_compute_a", "tune_compute_b",
        "tune_phased_a", "tune_phased_b", "tune_region_a",
    };
    for (int i = 0; i < 3; ++i)
        w.push_back(streamy(names[i], Suite::kTuning));
    for (int i = 3; i < 5; ++i)
        w.push_back(stridey(names[i], Suite::kTuning, 2 + (i - 3)));
    for (int i = 5; i < 9; ++i)
        w.push_back(chasey(names[i], Suite::kTuning));
    for (int i = 9; i < 12; ++i)
        w.push_back(irregular(names[i], Suite::kTuning));
    for (int i = 12; i < 15; ++i)
        w.push_back(graphy(names[i], Suite::kTuning));
    for (int i = 15; i < 17; ++i)
        w.push_back(computey(names[i], Suite::kTuning));
    for (int i = 17; i < 19; ++i)
        w.push_back(phased(names[i], Suite::kTuning));
    w.push_back(regiony(names[19], Suite::kTuning));
    return w;
}

std::vector<WorkloadSpec>
dpc4Workloads()
{
    // 12 groups a la Fig. 21; two traces per group. Google server
    // workloads are front-end bound with moderate, irregular data
    // footprints — modelled as compute/irregular blends.
    std::vector<WorkloadSpec> w;
    const struct { const char *group; int kind; } groups[] = {
        {"sierra.a.3", 2}, {"sierra.a.4", 3}, {"sierra.a.6", 2},
        {"bravo.a", 4},    {"arizona", 3},    {"charlie", 2},
        {"delta", 5},      {"merced", 3},     {"tahoe", 0},
        {"tango", 2},      {"whiskey", 3},    {"yankee", 4},
    };
    for (const auto &g : groups) {
        for (int t = 0; t < 2; ++t) {
            std::string name =
                std::string(g.group) + ".t" + std::to_string(t);
            switch (g.kind) {
              case 0: w.push_back(streamy(name, Suite::kDpc4)); break;
              case 2: w.push_back(computey(name, Suite::kDpc4)); break;
              case 3: w.push_back(irregular(name, Suite::kDpc4)); break;
              case 4: w.push_back(chasey(name, Suite::kDpc4)); break;
              case 5: w.push_back(phased(name, Suite::kDpc4)); break;
            }
        }
    }
    return w;
}

namespace
{

/** Levenshtein distance, for did-you-mean suggestions. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t sub =
                diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            diag = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
        }
    }
    return row[b.size()];
}

} // namespace

const WorkloadSpec &
findWorkload(const std::vector<WorkloadSpec> &list, const std::string &name)
{
    for (const auto &spec : list) {
        if (spec.name == name)
            return spec;
    }
    // Benches are driven by workload-name strings from scripts and
    // env vars; a typo used to surface as a bare out_of_range.
    // Name the request and the nearest candidates instead.
    std::vector<std::pair<std::size_t, const std::string *>> ranked;
    for (const auto &spec : list)
        ranked.emplace_back(editDistance(name, spec.name),
                            &spec.name);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first < b.first
                                            : *a.second < *b.second;
              });
    std::string msg = "no such workload: '" + name + "' (" +
                      std::to_string(list.size()) +
                      " candidates in list";
    if (!ranked.empty()) {
        msg += "; nearest:";
        for (std::size_t i = 0; i < ranked.size() && i < 3; ++i)
            msg += std::string(i == 0 ? " " : ", ") + "'" +
                   *ranked[i].second + "'";
    }
    msg += ")";
    throw std::out_of_range(msg);
}

} // namespace athena
