/**
 * @file
 * Coordination policy interface: the decision layer that enables /
 * disables the prefetcher(s) and the off-chip predictor and sets
 * prefetcher aggressiveness at epoch granularity.
 *
 * The memory system collects EpochStats over each fixed-length
 * epoch (2 K retired instructions by default, Table 3) and hands
 * them to the policy, which returns a CoordDecision applied for the
 * next epoch. Policies that filter individual prefetch requests
 * (TLP) additionally implement the per-request hook.
 */

#ifndef ATHENA_COORD_POLICY_HH
#define ATHENA_COORD_POLICY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hh"

namespace athena
{

class SnapshotIo;

/** Maximum prefetchers per core across the evaluated designs. */
constexpr unsigned kMaxPrefetchers = 2;

/** System-level telemetry for one epoch. */
struct EpochStats
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t loads = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;

    /** LLC demand misses and their total latency (cycles). */
    std::uint64_t llcMisses = 0;
    std::uint64_t llcMissLatency = 0;
    std::uint64_t llcDemandAccesses = 0;

    /** Per-prefetcher issue/use counters. */
    std::array<std::uint64_t, kMaxPrefetchers> pfIssued{};
    std::array<std::uint64_t, kMaxPrefetchers> pfUsed{};

    std::uint64_t ocpPredictions = 0;
    std::uint64_t ocpCorrect = 0;

    /** DRAM request mix during the epoch. */
    std::uint64_t dramDemand = 0;
    std::uint64_t dramPrefetch = 0;
    std::uint64_t dramOcp = 0;

    /** Data-bus occupancy fraction in [0, 1]. */
    double bandwidthUsage = 0.0;

    /** Demand misses that hit the pollution filter (section 5.2.3) */
    std::uint64_t pollutionMisses = 0;

    /** Prefetcher accuracy per slot in [0, 1] (0 when idle). */
    double
    pfAccuracy(unsigned slot) const
    {
        return pfIssued[slot] == 0
                   ? 0.0
                   : static_cast<double>(pfUsed[slot]) /
                         static_cast<double>(pfIssued[slot]);
    }

    /** OCP accuracy in [0, 1] (0 when idle). */
    double
    ocpAccuracy() const
    {
        return ocpPredictions == 0
                   ? 0.0
                   : static_cast<double>(ocpCorrect) /
                         static_cast<double>(ocpPredictions);
    }

    /** Pollution fraction of demand misses. */
    double
    pollutionFraction() const
    {
        std::uint64_t misses = llcMisses ? llcMisses : 1;
        return static_cast<double>(pollutionMisses) /
               static_cast<double>(misses);
    }

    double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instructions) /
                                 static_cast<double>(cycles);
    }

    /**
     * Snapshot walk (fixed field order). Shared by the simulator's
     * epoch-window section and policies that keep a previous-epoch
     * copy (the Athena agent).
     */
    void serialize(SnapshotIo &io);
};

/** The knob settings applied for the next epoch. */
struct CoordDecision
{
    /** Bit i enables prefetcher slot i. */
    std::uint32_t pfEnableMask = ~0u;
    bool ocpEnable = true;
    /**
     * Degree scale per prefetcher slot in [0, 1]; the memory system
     * sets each prefetcher's degree to floor(scale * dmax)
     * (Algorithm 1's output r).
     */
    std::array<double, kMaxPrefetchers> degreeScale = {1.0, 1.0};

    bool
    pfEnabled(unsigned slot) const
    {
        return (pfEnableMask >> slot) & 1u;
    }

    /** Snapshot walk (fixed field order). */
    void serialize(SnapshotIo &io);
};

/**
 * Base class of all coordination policies.
 */
class CoordinationPolicy
{
  public:
    virtual ~CoordinationPolicy() = default;

    virtual const char *name() const = 0;

    /** Epoch boundary: observe stats, decide the next epoch. */
    virtual CoordDecision onEpochEnd(const EpochStats &stats) = 0;

    /**
     * Per-demand-load observation hook: the resolved outcome of
     * every demand load (TLP trains its internal perceptron here).
     * A policy that overrides this must also override
     * observesDemandStream() to return true, or the memory system
     * skips the call on the access path.
     */
    virtual void
    onDemandResolved(std::uint64_t pc, Addr addr, bool went_offchip)
    {
        (void)pc;
        (void)addr;
        (void)went_offchip;
    }

    /** Capability flag gating the per-load onDemandResolved call. */
    virtual bool observesDemandStream() const { return false; }

    /**
     * Per-request prefetch filter hook (TLP). Return true to DROP
     * the prefetch to @p addr triggered at @p level. A policy that
     * overrides this must also override filtersPrefetches() to
     * return true, or the memory system never consults the filter.
     */
    virtual bool
    filterPrefetch(CacheLevel level, std::uint64_t pc, Addr addr)
    {
        (void)level;
        (void)pc;
        (void)addr;
        return false;
    }

    /** Capability flag gating the per-prefetch filter call. */
    virtual bool filtersPrefetches() const { return false; }

    /** Clear learned state. */
    virtual void reset() = 0;

    /**
     * Snapshot walk: learned state and decision history, so a
     * restored policy decides bit-identically. The no-op default
     * covers the stateless fixed policies (naive, all-off, pf-only,
     * ocp-only); learning policies override it.
     */
    virtual void serialize(SnapshotIo &) {}

    /** Metadata budget in bits (Table 8 accounting). */
    virtual std::size_t storageBits() const = 0;

    /**
     * Per-action selection counts for policies that choose among
     * discrete actions (Fig. 17 reporting). Default: all zeros.
     * Virtual so the result path needs no RTTI probe for specific
     * policy types.
     */
    virtual std::array<std::uint64_t, 4>
    actionHistogram() const
    {
        return {};
    }
};

/** Built-in policy kinds. */
enum class PolicyKind : std::uint8_t
{
    kNaive,     ///< Everything always on, full degree.
    kAllOff,    ///< Baseline: no prefetch, no OCP.
    kPfOnly,    ///< Prefetchers on, OCP off.
    kOcpOnly,   ///< OCP on, prefetchers off.
    kTlp,
    kHpac,
    kMab,
    kAthena,
};

const char *policyKindName(PolicyKind kind);

} // namespace athena

#endif // ATHENA_COORD_POLICY_HH
