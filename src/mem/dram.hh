/**
 * @file
 * Main memory model: DDR-like banks with an open-row policy behind a
 * shared data bus whose per-line occupancy encodes the provisioned
 * bandwidth (Table 5: 1 rank, 8 banks, 2 KB rows, tRCD = tRP = tCAS
 * = 12.5 ns, 3.2 GB/s per core by default, 4 GHz core clock).
 *
 * Queuing delay on the shared bus is the load-bearing mechanism of
 * the whole reproduction: inaccurate prefetch and OCP traffic
 * occupies the bus and pushes demand completions out, which is what
 * makes naive prefetching *degrade* performance on the adverse
 * workloads of Fig. 1/2 and what the coordination policies trade
 * off.
 *
 * Every request is one serve() call, made in issue order the moment
 * the requester knows it goes off-chip (demand and OCP loads, store
 * write-allocates, prefetches): it decodes bank/row, advances that
 * bank and the bus, and returns the completion cycle.
 */

#ifndef ATHENA_MEM_DRAM_HH
#define ATHENA_MEM_DRAM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/shard.hh"

namespace athena
{

class SnapshotIo;

/** DRAM configuration. */
struct DramParams
{
    /** Provisioned bandwidth per channel in GB/s. Must be > 0. */
    double bandwidthGBps = 3.2;
    /** Core clock in GHz (converts ns timings to cycles). > 0. */
    double coreGHz = 4.0;
    /** Bank count; must be in [1, kMaxBanks]. */
    unsigned banks = 8;
    /**
     * Row buffer size in bytes (2 KB -> 32 lines). Must be a
     * positive multiple of the 64 B line size.
     */
    std::uint64_t rowBytes = 2048;
    /** tRCD = tRP = tCAS in nanoseconds. */
    double tNs = 12.5;
    /**
     * tCCD (column-to-column delay within an open row) in
     * nanoseconds. 1.0 ns is 4 cycles at the default 4 GHz core
     * clock, preserving the historical default-geometry timing
     * exactly; deriving it from time instead of a hardcoded cycle
     * count keeps row-hit spacing correct at every coreGHz.
     */
    double tCcdNs = 1.0;
    /**
     * Validation/testing knob: run the general division/modulo
     * bank-row decode even when the geometry is power-of-two and
     * would qualify for the shift/mask fast decode. The two decodes
     * are required to agree bit-for-bit wherever both are defined —
     * this knob lets tests pin that equivalence on the same
     * geometry.
     */
    bool forceDivisionDecode = false;
};

/** DRAM traffic counters (epochs and runs diff lifetime samples). */
struct DramCounters
{
    std::uint64_t demandRequests = 0;
    std::uint64_t prefetchRequests = 0;
    std::uint64_t ocpRequests = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    /** Total cycles the data bus was occupied. */
    std::uint64_t busBusyCycles = 0;

    std::uint64_t totalRequests() const
    {
        return demandRequests + prefetchRequests + ocpRequests;
    }

    /** Snapshot walk: the six counters as u64, in member order. */
    void serialize(SnapshotIo &io);
};

/**
 * One DRAM channel.
 */
class Dram
{
  public:
    /** Hard cap on DramParams::banks (size of the bank array). */
    static constexpr unsigned kMaxBanks = 32;

    /**
     * @throws std::invalid_argument when @p cfg violates the
     * stated contract: banks outside [1, kMaxBanks], rowBytes not a
     * positive multiple of the 64 B line size, or a non-positive
     * bandwidth/clock. Validation is release-mode: a bad geometry
     * must never silently index out of the bank array.
     */
    explicit Dram(const DramParams &cfg);

    /**
     * Service a 64 B line read/fill.
     *
     * Column accesses pipeline within an open row (tCCD), so
     * row-hit streams are limited only by the shared data bus. A
     * row *miss* must precharge + activate, and the bank cannot
     * open another row until the row cycle time tRC elapses — this
     * is what makes scattered (inaccurate-prefetch) traffic consume
     * far more bank time than sequential traffic, the asymmetry the
     * paper's bandwidth-constrained results rest on.
     *
     * @param arrival   cycle the request reaches the controller
     * @param line_num  cache-line number
     * @param type      requester class (for accounting)
     * @return cycle at which this request's data transfer completes
     */
    Cycle serve(Cycle arrival, Addr line_num, AccessType type);

    /** Data-bus occupancy per 64 B transfer, in cycles. */
    double cyclesPerLine() const { return lineCycles; }

    /** Lifetime counters. */
    const DramCounters &lifetime() const { return total; }

    /** Clear bank/bus/counter state. */
    void reset();

    /**
     * Snapshot walk: bus cursor, per-bank open-row/busy state and
     * the lifetime counters.
     */
    void serialize(SnapshotIo &io);

  private:
    struct Bank
    {
        Cycle busyUntil = 0;
        Addr openRow = ~0ull;
    };

    double lineCycles;  ///< Bus occupancy per line.
    Cycle tCycles;      ///< tRCD = tRP = tCAS in cycles.
    Cycle tCcdCycles;   ///< tCCD in cycles (from tCcdNs x coreGHz).
    /** lineCycles rounded once at construction (serve hot path). */
    Cycle lineOccupancy = 0;
    /** rowBytes / 64, precomputed for the division decode. */
    std::uint64_t linesPerRow = 1;
    /**
     * Power-of-two address decomposition, precomputed so serve()
     * runs shift/mask instead of two 64-bit divisions per
     * request. rowShift = log2(lines per row); bankShift/bankMask
     * decode the bank. Valid when shiftDecode is true (the Table 5
     * geometry — 32-line rows x 8 banks — always qualifies unless
     * DramParams::forceDivisionDecode pins the general path).
     */
    unsigned rowShift = 0;
    unsigned bankShift = 0;
    std::uint64_t bankMask = 0;
    bool shiftDecode = false;
    Cycle busNextFree = 0;
    std::array<Bank, kMaxBanks> bankState;
    unsigned bankCount;

    DramCounters total;
};

/**
 * Main memory as M line-interleaved independent channels
 * (`channel = line mod M`, channel-local line = `line / M`), each a
 * full Dram controller — own bank/row state, bus cursor, and
 * counters — at the full per-channel bandwidth, so aggregate
 * bandwidth scales with the channel count. One channel is
 * bit-identical to the monolithic controller (the decode is the
 * identity). Channel decode honors DramParams::forceDivisionDecode,
 * and non-pow2 channel counts take the exact division path
 * automatically.
 */
class ChanneledDram
{
  public:
    /** Hard cap on the channel count (shard-id budget). */
    static constexpr unsigned kMaxChannels = 32;

    /**
     * @throws std::invalid_argument when the channel count is
     * outside [1, kMaxChannels] (per-channel parameter validation
     * is the Dram constructor's).
     */
    ChanneledDram(const DramParams &params, unsigned channel_count);

    unsigned channelCount() const
    {
        return static_cast<unsigned>(chans.size());
    }
    Dram &channel(unsigned i) { return chans[i]; }
    const Dram &channel(unsigned i) const { return chans[i]; }

    unsigned channelOf(Addr line_num) const
    {
        return static_cast<unsigned>(decode.shardOf(line_num));
    }

    /** Service a request on the channel owning @p line_num. */
    Cycle
    serve(Cycle arrival, Addr line_num, AccessType type)
    {
        const unsigned ch = channelOf(line_num);
        return chans[ch].serve(arrival, decode.localLine(line_num),
                               type);
    }

    /**
     * Lifetime counters summed over channels (recomputed per call
     * into a cached aggregate; deterministic channel-order sum).
     */
    const DramCounters &lifetime() const;

  private:
    ShardDecode decode;
    std::vector<Dram> chans;
    mutable DramCounters aggregate;
};

} // namespace athena

#endif // ATHENA_MEM_DRAM_HH
