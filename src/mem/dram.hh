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
 * The controller is request-queue based: producers enqueue()
 * requests and drain() services everything pending in one batched
 * kernel (bank/row decoded once per request, per-bank open-row and
 * busy-until state carried in registers across row-hit streaks and
 * published back to the bank array once per drain, counters
 * accumulated per batch). serve() remains as the scalar
 * enqueue+drain-of-1 shim — both paths run the same kernel, so the
 * completion cycles, counters, and busBacklog() are bit-identical
 * however requests are grouped into batches.
 */

#ifndef ATHENA_MEM_DRAM_HH
#define ATHENA_MEM_DRAM_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "mem/shard.hh"

namespace athena
{

class SnapshotReader;
class SnapshotWriter;

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

/**
 * One request on the DRAM controller queue: a 64 B line read/fill.
 * The queue itself is stored as a structure of arrays inside Dram
 * (see Dram::enqueue); this struct is the element view used at API
 * boundaries and in tests.
 */
struct DramRequest
{
    Cycle arrival = 0;   ///< Cycle the request reaches the controller.
    Addr line = 0;       ///< Cache-line number.
    AccessType type = AccessType::kDemandLoad; ///< Requester class.
};

/** Per-epoch-resettable DRAM counters. */
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
     * @throws std::invalid_argument when @p params violates the
     * stated contract: banks outside [1, kMaxBanks], rowBytes not a
     * positive multiple of the 64 B line size, or a non-positive
     * bandwidth/clock. Validation is release-mode: a bad geometry
     * must never silently index out of the bank array.
     */
    explicit Dram(const DramParams &params);

    /**
     * Append a request to the controller queue without servicing
     * it. Requests are serviced strictly in enqueue order by the
     * next drain(); nothing observable (counters, busBacklog)
     * changes until then.
     *
     * @param arrival   cycle the request reaches the controller
     * @param line_num  cache-line number
     * @param type      requester class (for accounting)
     */
    void
    enqueue(Cycle arrival, Addr line_num, AccessType type)
    {
        if (qSize == qArrival.size()) [[unlikely]]
            growQueue();
        qArrival[qSize] = arrival;
        qLine[qSize] = line_num;
        qType[qSize] = static_cast<std::uint8_t>(type);
        ++qSize;
    }

    /**
     * Service every pending request in enqueue order through the
     * batched kernel and return their completion cycles, index-
     * aligned with the enqueue order. The returned span points into
     * internal storage and is valid until the next enqueue/drain.
     * Draining an empty queue returns an empty span.
     */
    std::span<const Cycle> drain();

    /** Requests enqueued but not yet drained. */
    std::size_t pendingRequests() const { return qSize; }

    /**
     * Service a 64 B line read/fill: the scalar shim over the
     * queue, equivalent to enqueue() + drain()-of-1. Any requests
     * already pending are drained first (in order, ahead of this
     * one), so mixing serve() and enqueue() keeps the global
     * request order well defined. With an empty queue (the
     * demand-miss hot path) it runs the drain kernel's scalar
     * specialization directly, skipping the queue bookkeeping —
     * same kernel, same results.
     *
     * @return cycle at which this request's data transfer completes
     */
    Cycle
    serve(Cycle arrival, Addr line_num, AccessType type)
    {
        if (qSize == 0) [[likely]]
            return serveOne(arrival, line_num, type);
        enqueue(arrival, line_num, type);
        return drain().back();
    }

    /**
     * Peek at the queueing headroom: cycles until the data bus is
     * free relative to @p now (0 when idle). Used by
     * bandwidth-aware components (Pythia's reward, HPAC features).
     * Reflects drained requests only — enqueue() does not move it.
     */
    Cycle busBacklog(Cycle now) const
    {
        return busNextFree > now ? busNextFree - now : 0;
    }

    /** Data-bus occupancy per 64 B transfer, in cycles. */
    double cyclesPerLine() const { return lineCycles; }

    /** Counters accumulated since the last takeCounters(). */
    const DramCounters &counters() const { return window; }

    /** Return and reset the accumulation window (epoch sampling). */
    DramCounters takeCounters();

    /** Lifetime counters. */
    const DramCounters &lifetime() const { return total; }

    /** Clear bank/bus/counter state and any pending requests. */
    void reset();

    /**
     * Snapshot contract: bus cursor, per-bank open-row/busy state
     * and both counter windows. The controller queue must be empty
     * (snapshots are taken at instruction boundaries, where every
     * trigger window has drained); save throws SnapshotError
     * otherwise and restore leaves the queue empty.
     */
    void saveState(SnapshotWriter &w) const;
    void restoreState(SnapshotReader &r);

    const DramParams &params() const { return cfg; }

  private:
    struct Bank
    {
        Cycle busyUntil = 0;
        Addr openRow = ~0ull;
    };

    /**
     * Scalar specialization of the drain kernel for a batch of one
     * — the dominant case on the demand-miss path (serve() shim).
     * Identical math and counter updates to the batched loop;
     * pinned equivalent by test_dram_batch.cc for every grouping.
     */
    Cycle serveOne(Cycle arrival, Addr line_num, AccessType type);

    /** The batched service loop of drain(), instantiated once per
     *  decode mode so the bank/row decode is inline and branchless
     *  inside the loop. */
    template <bool Shift> void serviceBatch(std::size_t n);

    /** Double the SoA queue columns (enqueue slow path). */
    void growQueue();

    DramParams cfg;
    double lineCycles;  ///< Bus occupancy per line.
    Cycle tCycles;      ///< tRCD = tRP = tCAS in cycles.
    Cycle tCcdCycles;   ///< tCCD in cycles (from tCcdNs x coreGHz).
    /** lineCycles rounded once at construction (drain hot path). */
    Cycle lineOccupancy = 0;
    /** rowBytes / 64, precomputed for the division decode. */
    std::uint64_t linesPerRow = 1;
    /**
     * Power-of-two address decomposition, precomputed so the drain
     * kernel runs shift/mask instead of two 64-bit divisions per
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

    // Controller queue, structure-of-arrays: parallel per-request
    // columns sized to capacity with qSize as the write cursor
    // (enqueue is a bounds check plus three stores), plus the
    // completion column the drain kernel fills in. Capacity is
    // retained across drains, so steady-state enqueue/drain cycles
    // never touch the allocator.
    std::vector<Cycle> qArrival;
    std::vector<Addr> qLine;
    std::vector<std::uint8_t> qType;
    std::vector<Cycle> qDone; ///< Completion cycles (drain output).
    std::size_t qSize = 0;    ///< Pending request count.

    DramCounters window;
    DramCounters total;
};

/**
 * Main memory as M line-interleaved independent channels
 * (`channel = line mod M`, channel-local line = `line / M`), each a
 * full Dram controller — own request queue, bank/row state, bus
 * cursor, and counters — at the full per-channel bandwidth, so
 * aggregate bandwidth scales with the channel count. One channel is
 * bit-identical to the monolithic controller (the decode is the
 * identity). Channel decode honors DramParams::forceDivisionDecode,
 * and non-pow2 channel counts take the exact division path
 * automatically.
 *
 * Enqueue returns a Ticket addressing the request's slot (channel +
 * queue index) so batched producers can patch completions from the
 * per-channel drain spans without assuming a single global queue.
 */
class ChanneledDram
{
  public:
    /** Hard cap on the channel count (shard-id budget). */
    static constexpr unsigned kMaxChannels = 32;

    /**
     * Where an enqueued request landed: channel + queue index.
     * Trivial on purpose: the simulator's per-trigger fill batch
     * holds an array of these on the stack (see PrefetchFillBatch).
     */
    struct Ticket
    {
        std::uint16_t channel;
        std::uint32_t index;
    };

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

    Ticket
    enqueue(Cycle arrival, Addr line_num, AccessType type)
    {
        const unsigned ch = channelOf(line_num);
        Dram &d = chans[ch];
        Ticket t{static_cast<std::uint16_t>(ch),
                 static_cast<std::uint32_t>(d.pendingRequests())};
        d.enqueue(arrival, decode.localLine(line_num), type);
        return t;
    }

    /** Drain one channel's queue (see Dram::drain). */
    std::span<const Cycle> drainChannel(unsigned ch)
    {
        return chans[ch].drain();
    }

    Cycle
    serve(Cycle arrival, Addr line_num, AccessType type)
    {
        const unsigned ch = channelOf(line_num);
        return chans[ch].serve(arrival, decode.localLine(line_num),
                               type);
    }

    /** Pending requests summed over channels. */
    std::size_t
    pendingRequests() const
    {
        std::size_t s = 0;
        for (const Dram &d : chans)
            s += d.pendingRequests();
        return s;
    }

    double cyclesPerLine() const
    {
        return chans.front().cyclesPerLine();
    }

    /**
     * Lifetime counters summed over channels (recomputed per call
     * into a cached aggregate; deterministic channel-order sum).
     */
    const DramCounters &lifetime() const;

    void reset();

    const DramParams &params() const
    {
        return chans.front().params();
    }

  private:
    ShardDecode decode;
    std::vector<Dram> chans;
    mutable DramCounters aggregate;
};

} // namespace athena

#endif // ATHENA_MEM_DRAM_HH
