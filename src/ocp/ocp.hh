/**
 * @file
 * Off-chip predictor (OCP) interface.
 *
 * An OCP makes a *binary* prediction per demand load with a known
 * cacheline address: will this request miss every on-chip cache and
 * go to main memory? On a positive prediction, the memory system
 * launches a speculative request directly to the memory controller
 * (after the OCP request issue latency), hiding the on-chip lookup
 * latency from the off-chip critical path (Hermes, MICRO 2022).
 *
 * Predictors that need hierarchy visibility (TTP tracks resident
 * tags) receive fill/eviction callbacks.
 */

#ifndef ATHENA_OCP_OCP_HH
#define ATHENA_OCP_OCP_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/types.hh"

namespace athena
{

class SnapshotIo;

/** Known OCP kinds, for factory construction and tag dispatch. */
enum class OcpKind : std::uint8_t
{
    kNone,
    kPopet,
    kHmp,
    kTtp,
};

class OffChipPredictor
{
  public:
    /** @param kind dispatch tag for the devirtualized predict/train
     *  front doors; kNone routes through the virtuals (external
     *  subclasses). */
    explicit OffChipPredictor(OcpKind kind = OcpKind::kNone)
        : kindTag(kind)
    {}
    virtual ~OffChipPredictor() = default;

    virtual const char *name() const = 0;

    /** Predict whether the load at (pc, addr) will go off-chip. */
    virtual bool predict(std::uint64_t pc, Addr addr) = 0;

    /** Train with the resolved outcome of the load. */
    virtual void train(std::uint64_t pc, Addr addr,
                       bool went_offchip) = 0;

    /**
     * Non-virtual front doors over predict()/train(): both run once
     * per demand load, so the access path dispatches on the
     * construction-time kind tag to the concrete implementation
     * with a direct (LTO-inlinable) call, exactly like
     * Prefetcher::observe.
     */
    bool predictDemand(std::uint64_t pc, Addr addr);
    void trainDemand(std::uint64_t pc, Addr addr, bool went_offchip);

    /** Dispatch tag (kNone for external subclasses). */
    OcpKind kind() const { return kindTag; }

    /** A line became resident on-chip (any level). */
    virtual void onFill(Addr line_num) { (void)line_num; }

    /** A line left the chip (evicted from the LLC). */
    virtual void onEvict(Addr line_num) { (void)line_num; }

    virtual void reset() = 0;

    /**
     * Snapshot walk: learned tables and history, so a restored
     * predictor continues bit-identically. The no-op default covers
     * stateless external subclasses; every built-in kind overrides
     * it.
     */
    virtual void serialize(SnapshotIo &) {}

    /** Metadata budget in bits (Table 8 accounting). */
    virtual std::size_t storageBits() const = 0;

  private:
    OcpKind kindTag;
};

const char *ocpKindName(OcpKind kind);

/** Factory. kNone returns nullptr; a value outside the enum throws
 *  std::invalid_argument. */
std::unique_ptr<OffChipPredictor> makeOcp(OcpKind kind);

} // namespace athena

#endif // ATHENA_OCP_OCP_HH
