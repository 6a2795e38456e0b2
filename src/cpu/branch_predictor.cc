/**
 * @file
 * gshare implementation (cold paths; the per-branch hot path is
 * header-inline).
 */

#include "cpu/branch_predictor.hh"

#include <algorithm>
#include <cstdint>

#include "snapshot/snapshot.hh"

namespace athena
{

namespace
{

/** Weakly taken: SatCounter<2>'s historical reset value. */
constexpr std::uint8_t kWeaklyTaken = 2;

} // namespace

BranchPredictor::BranchPredictor(unsigned table_bits)
    : mask((1ull << table_bits) - 1),
      table(1ull << table_bits, kWeaklyTaken)
{}

void
BranchPredictor::reset()
{
    history = 0;
    std::fill(table.begin(), table.end(), kWeaklyTaken);
    statLookups = statMispredicts = 0;
}

void
BranchPredictor::serialize(SnapshotIo &io)
{
    io.expectU64(table.size(), "branch predictor PHT size");
    io.u64(history);
    io.u64(statLookups);
    io.u64(statMispredicts);
    io.bytes(table.data(), table.size());
}

} // namespace athena
