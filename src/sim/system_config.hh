/**
 * @file
 * SystemConfig: everything that defines one simulated system —
 * cache design (CD1-CD4, Table 7), prefetcher/OCP selection
 * (sections 6.4/6.5), coordination policy, memory bandwidth, core
 * count, and epoch length.
 */

#ifndef ATHENA_SIM_SYSTEM_CONFIG_HH
#define ATHENA_SIM_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>

#include "athena/agent.hh"
#include "coord/hpac.hh"
#include "coord/mab.hh"
#include "cpu/core_model.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "ocp/ocp.hh"
#include "prefetch/prefetcher.hh"

namespace athena
{

/** The four evaluated cache designs (Table 7). */
enum class CacheDesign : std::uint8_t
{
    kCd1, ///< OCP + 1 L2C prefetcher (default: POPET + Pythia).
    kCd2, ///< OCP + 1 L1D prefetcher (default: POPET + IPCP).
    kCd3, ///< OCP + 2 L2C prefetchers (POPET + SMS + Pythia).
    kCd4, ///< OCP + 1 L1D + 1 L2C prefetcher (POPET+IPCP+Pythia).
};

const char *cacheDesignName(CacheDesign design);

struct SystemConfig
{
    std::string label = "cd1";

    // Component selection.
    PrefetcherKind l1dPf = PrefetcherKind::kNone;
    PrefetcherKind l2cPf = PrefetcherKind::kPythia;
    PrefetcherKind l2cPf2 = PrefetcherKind::kNone;
    OcpKind ocp = OcpKind::kPopet;
    PolicyKind policy = PolicyKind::kNaive;

    // Policy configurations (used when the matching policy is
    // selected).
    AthenaConfig athena;
    HpacThresholds hpac;
    MabParams mab;

    // System parameters (Table 5 defaults).
    double bandwidthGBps = 3.2;
    /**
     * DRAM geometry (Table 5 defaults). Non-power-of-two values are
     * fully supported — the controller falls back from the
     * shift/mask decode to the general division decode — and are
     * validated by the Dram constructor (release-mode throw).
     */
    unsigned dramBanks = 8;
    std::uint64_t dramRowBytes = 2048;
    /**
     * Shared-memory-plane shard geometry. The LLC splits into
     * `llcBanks` line-interleaved banks (`bank = line mod llcBanks`,
     * the bank sees `line / llcBanks`) and DRAM into `dramChannels`
     * independent channels (same interleave), each channel owning
     * its own bus, bank state, and counters at the full
     * per-channel `bandwidthGBps` — so aggregate bandwidth scales
     * with the channel count. Defaults of 1/1 are bit-identical to
     * the pre-sharding monolithic plane; power-of-two LLC bank
     * counts up to the set count are bit-invariant among themselves
     * (the interleave is a pure re-labeling of the set index).
     * Non-power-of-two counts are supported via the division decode.
     * llcBanks + dramChannels must not exceed 64, a cap on outside
     * input that the Simulator constructor enforces.
     */
    unsigned llcBanks = 1;
    unsigned dramChannels = 1;
    Cycle ocpIssueLatency = 6;
    unsigned cores = 1;
    std::uint64_t epochInstructions = 8000;
    CoreParams core;
    std::uint64_t seed = 7;

    /** Number of prefetcher slots in use. */
    unsigned numPrefetchers() const;

    /**
     * Stable content hash over every behavior-affecting field.
     * The cosmetic label is excluded, and each policy-specific
     * configuration (athena/hpac/mab) is hashed only when that
     * policy is selected — so e.g. two sweeps that differ only in
     * their Athena hyperparameters share baseline (kAllOff) keys.
     * Used to key the ExperimentRunner result caches and the
     * warmup-snapshot cache.
     */
    std::uint64_t configKey() const;
};

/** Build the config for a given cache design with defaults. */
SystemConfig makeDesignConfig(CacheDesign design,
                              PolicyKind policy = PolicyKind::kNaive);

/**
 * Build a many-core Fig-16-style preset: a design config scaled to
 * `cores` with a sharded shared-memory plane sized for it (16 cores:
 * 4 LLC banks / 2 DRAM channels; 32 cores: 8 banks / 4 channels;
 * below 16: the legacy 1/1 monolithic plane). `cores` must be
 * 2..64.
 */
SystemConfig makeManyCoreConfig(unsigned cores,
                                CacheDesign design = CacheDesign::kCd1,
                                PolicyKind policy = PolicyKind::kNaive);

/** Cache parameters of Table 5 (LLC size scales with cores). */
CacheParams l1dParams();
CacheParams l2cParams();
CacheParams llcParams(unsigned cores);

/** DRAM parameters of Table 5 at a given bandwidth. */
DramParams dramParams(double bandwidth_gbps);

/** DRAM parameters from a full SystemConfig (bandwidth + geometry). */
DramParams dramParams(const SystemConfig &cfg);

} // namespace athena

#endif // ATHENA_SIM_SYSTEM_CONFIG_HH
