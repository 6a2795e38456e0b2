/**
 * @file
 * DRAM channel implementation.
 */

#include "mem/dram.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "snapshot/snapshot.hh"

namespace athena
{

void
DramCounters::serialize(SnapshotIo &io)
{
    io.u64(demandRequests);
    io.u64(prefetchRequests);
    io.u64(ocpRequests);
    io.u64(rowHits);
    io.u64(rowMisses);
    io.u64(busBusyCycles);
}

Dram::Dram(const DramParams &cfg)
{
    if (cfg.banks < 1 || cfg.banks > kMaxBanks) {
        throw std::invalid_argument(
            "DramParams::banks must be in [1, " +
            std::to_string(kMaxBanks) + "], got " +
            std::to_string(cfg.banks));
    }
    if (cfg.rowBytes < kLineBytes || cfg.rowBytes % kLineBytes != 0) {
        throw std::invalid_argument(
            "DramParams::rowBytes must be a positive multiple of " +
            std::to_string(kLineBytes) + " bytes, got " +
            std::to_string(cfg.rowBytes));
    }
    if (!(cfg.bandwidthGBps > 0.0) || !(cfg.coreGHz > 0.0)) {
        throw std::invalid_argument(
            "DramParams bandwidthGBps and coreGHz must be > 0");
    }
    bankCount = cfg.banks;
    // cycles per 64 B line on the data bus: bytes / (GB/s) * GHz.
    lineCycles = static_cast<double>(kLineBytes) / cfg.bandwidthGBps *
                 cfg.coreGHz;
    tCycles = static_cast<Cycle>(std::llround(cfg.tNs * cfg.coreGHz));
    tCcdCycles =
        static_cast<Cycle>(std::llround(cfg.tCcdNs * cfg.coreGHz));
    lineOccupancy = static_cast<Cycle>(std::llround(lineCycles));
    linesPerRow = cfg.rowBytes / kLineBytes;
    if (!cfg.forceDivisionDecode &&
        std::has_single_bit(linesPerRow) &&
        std::has_single_bit(static_cast<std::uint64_t>(bankCount))) {
        shiftDecode = true;
        rowShift = static_cast<unsigned>(
            std::bit_width(linesPerRow) - 1);
        bankShift = static_cast<unsigned>(
            std::bit_width(static_cast<std::uint64_t>(bankCount)) -
            1);
        bankMask = bankCount - 1;
    }
    reset();
}

Cycle
Dram::serve(Cycle arrival, Addr line_num, AccessType type)
{
    unsigned bank;
    Addr row;
    if (shiftDecode) {
        bank =
            static_cast<unsigned>((line_num >> rowShift) & bankMask);
        row = line_num >> (rowShift + bankShift);
    } else {
        bank = static_cast<unsigned>((line_num / linesPerRow) %
                                     bankCount);
        row = line_num / (linesPerRow * bankCount);
    }

    Bank &b = bankState[bank];
    const Cycle bank_free = std::max(arrival, b.busyUntil);
    Cycle column_ready;
    if (b.openRow == row) {
        column_ready = bank_free;
        b.busyUntil = column_ready + tCcdCycles;
        ++total.rowHits;
    } else {
        column_ready = bank_free + 2 * tCycles; // tRP + tRCD
        b.openRow = row;
        b.busyUntil = bank_free + 4 * tCycles;  // tRC
        ++total.rowMisses;
    }

    const Cycle transfer_start =
        std::max(column_ready + tCycles, busNextFree);
    const Cycle done = transfer_start + lineOccupancy;
    busNextFree = done;

    total.busBusyCycles += lineOccupancy;
    switch (type) {
      case AccessType::kDemandLoad:
      case AccessType::kDemandStore:
        ++total.demandRequests;
        break;
      case AccessType::kPrefetch:
        ++total.prefetchRequests;
        break;
      case AccessType::kOcp:
        ++total.ocpRequests;
        break;
    }
    return done;
}

void
Dram::reset()
{
    busNextFree = 0;
    for (auto &b : bankState)
        b = Bank{};
    total = DramCounters{};
}

void
Dram::serialize(SnapshotIo &io)
{
    io.expectU32(bankCount, "DRAM bank count");
    io.u64(busNextFree);
    for (unsigned b = 0; b < bankCount; ++b) {
        io.u64(bankState[b].busyUntil);
        io.u64(bankState[b].openRow);
    }
    total.serialize(io);
}

ChanneledDram::ChanneledDram(const DramParams &params,
                             unsigned channel_count)
    : decode(channel_count ? channel_count : 1,
             params.forceDivisionDecode)
{
    if (channel_count < 1 || channel_count > kMaxChannels) {
        throw std::invalid_argument(
            "ChanneledDram channel count must be in [1, " +
            std::to_string(kMaxChannels) + "], got " +
            std::to_string(channel_count));
    }
    chans.reserve(channel_count);
    for (unsigned ch = 0; ch < channel_count; ++ch)
        chans.emplace_back(params);
}

const DramCounters &
ChanneledDram::lifetime() const
{
    aggregate = DramCounters{};
    for (const Dram &d : chans) {
        const DramCounters &c = d.lifetime();
        aggregate.demandRequests += c.demandRequests;
        aggregate.prefetchRequests += c.prefetchRequests;
        aggregate.ocpRequests += c.ocpRequests;
        aggregate.rowHits += c.rowHits;
        aggregate.rowMisses += c.rowMisses;
        aggregate.busBusyCycles += c.busBusyCycles;
    }
    return aggregate;
}

} // namespace athena
