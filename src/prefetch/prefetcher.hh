/**
 * @file
 * Hardware prefetcher interface.
 *
 * Prefetchers observe demand accesses at their cache level and emit
 * prefetch candidates. The memory system issues the candidates
 * (subject to the coordination policy's enable/degree decisions),
 * tags the filled lines with the prefetcher's credit token, and
 * feeds usage feedback back through onPrefetchUsed /
 * onPrefetchUseless — which is how Pythia's RL reward and PPF's
 * perceptron training close their loops.
 */

#ifndef ATHENA_PREFETCH_PREFETCHER_HH
#define ATHENA_PREFETCH_PREFETCHER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace athena
{

class SnapshotIo;

/**
 * One prefetch candidate emitted by a prefetcher. Deliberately
 * trivial (no default member initializers): CandidateVec keeps an
 * uninitialized array of these on the access path's stack, and
 * zero-filling it per trigger would cost more than the dispatch it
 * optimizes.
 */
struct PrefetchCandidate
{
    Addr lineNum;      ///< Target cache-line number.
    std::uint64_t meta; ///< Credit token echoed in feedback.
};

/**
 * Fixed-capacity inline candidate buffer used on the per-access hot
 * path. A hardware prefetcher emits at most degree() candidates per
 * trigger (degree <= 8 across every implemented design), so the
 * buffer lives on the stack of the access path instead of a heap
 * vector. Appends past capacity are dropped — which models a full
 * prefetch queue and keeps the type total.
 */
class CandidateVec
{
  public:
    static constexpr unsigned kCapacity = 32;

    void clear() { count = 0; }

    void
    push_back(const PrefetchCandidate &c)
    {
        if (count < kCapacity)
            buf[count++] = c;
    }

    unsigned size() const { return count; }
    bool empty() const { return count == 0; }
    bool full() const { return count == kCapacity; }

    const PrefetchCandidate &operator[](unsigned i) const
    {
        return buf[i];
    }

    const PrefetchCandidate *begin() const { return buf; }
    const PrefetchCandidate *end() const { return buf + count; }

  private:
    PrefetchCandidate buf[kCapacity];
    unsigned count = 0;
};

/** Known prefetcher kinds, for factory construction and for the
 *  devirtualized observe() dispatch tag. */
enum class PrefetcherKind : std::uint8_t
{
    kNone,
    kNextLine,
    kStride,
    kIpcp,
    kBerti,
    kPythia,
    kSppPpf,
    kMlop,
    kSms,
};

/** Context of the demand access that triggers training/prediction. */
struct PrefetchTrigger
{
    std::uint64_t pc = 0;
    Addr addr = 0;    ///< Byte address.
    bool hit = false; ///< Hit at the prefetcher's level.
    Cycle cycle = 0;
};

/**
 * Base class of all prefetchers.
 */
class Prefetcher
{
  public:
    /**
     * @param max_degree prefetches per trigger at full throttle.
     * @param kind       dispatch tag for the devirtualized observe()
     *                   front door; kNone routes through the virtual
     *                   observeImpl() (external subclasses).
     */
    explicit Prefetcher(unsigned max_degree,
                        PrefetcherKind kind = PrefetcherKind::kNone)
        : maxDeg(max_degree), currentDegree(max_degree), kindTag(kind)
    {}
    virtual ~Prefetcher() = default;

    virtual const char *name() const = 0;

    /** Cache level this prefetcher trains on and fills into. */
    virtual CacheLevel level() const = 0;

    /**
     * Observe a demand access; append up to degree() candidates.
     *
     * Non-virtual front door: dispatches on the construction-time
     * kind tag to the concrete observeImpl() with a direct
     * (devirtualized, LTO-inlinable) call. This is the hottest call
     * in the whole simulator — it runs once per prefetcher slot per
     * demand access.
     */
    void observe(const PrefetchTrigger &trigger, CandidateVec &out);

    /** Convenience overload for tests and offline tools: appends
     *  this trigger's candidates to a growable vector. */
    void
    observe(const PrefetchTrigger &trigger,
            std::vector<PrefetchCandidate> &out)
    {
        CandidateVec vec;
        observe(trigger, vec);
        out.insert(out.end(), vec.begin(), vec.end());
    }

    /**
     * Prediction kernel: append up to degree() candidates for this
     * trigger. Public so the tag-dispatched front door can reach the
     * concrete implementation; call observe() instead.
     */
    virtual void observeImpl(const PrefetchTrigger &trigger,
                             CandidateVec &out) = 0;

    /** Dispatch tag (kNone for external subclasses). */
    PrefetcherKind kind() const { return kindTag; }

    /** A demand touched a line this prefetcher brought in. */
    virtual void
    onPrefetchUsed(std::uint64_t meta, bool timely)
    {
        (void)meta;
        (void)timely;
    }

    /** A prefetched line was evicted without any demand touch. */
    virtual void onPrefetchUseless(std::uint64_t meta) { (void)meta; }

    /**
     * An emitted candidate was never issued (coordination gating,
     * per-request filtering, or already resident). Learning
     * prefetchers must treat this as a neutral outcome, not an
     * inaccuracy — the prediction was never tested.
     */
    virtual void onPrefetchDropped(std::uint64_t meta)
    {
        (void)meta;
    }

    /**
     * End-of-epoch notification with the observed DRAM bandwidth
     * utilization in [0, 1] (Pythia's bandwidth-aware reward).
     */
    virtual void onEpochEnd(double bandwidth_usage)
    {
        (void)bandwidth_usage;
    }

    /** Clear all learned state. */
    virtual void reset() = 0;

    /** Metadata budget in bits (Table 8 accounting). */
    virtual std::size_t storageBits() const = 0;

    /** dmax in Algorithm 1. */
    unsigned maxDegree() const { return maxDeg; }

    /** Current throttled degree (set by the coordination policy). */
    unsigned degree() const { return currentDegree; }

    void
    setDegree(unsigned d)
    {
        currentDegree = d > maxDeg ? maxDeg : d;
    }

    /**
     * Snapshot walk: the base serializes the throttled degree;
     * stateful prefetchers override it and call the base first.
     */
    virtual void serialize(SnapshotIo &io);

  private:
    unsigned maxDeg;
    unsigned currentDegree;
    PrefetcherKind kindTag;
};

/** Printable name for a kind. */
const char *prefetcherKindName(PrefetcherKind kind);

/**
 * Factory. kNone returns nullptr; a value outside the enum throws
 * std::invalid_argument. @p level is honored by the
 * level-flexible prefetchers (next-line, stride); the published
 * designs (IPCP/Berti at L1D, the rest at L2C) keep their fixed
 * level.
 */
std::unique_ptr<Prefetcher>
makePrefetcher(PrefetcherKind kind, std::uint64_t seed = 1,
               CacheLevel level = CacheLevel::kL2C);

} // namespace athena

#endif // ATHENA_PREFETCH_PREFETCHER_HH
