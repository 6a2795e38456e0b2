/**
 * @file
 * Snapshot walks of the coordination-layer value types (kind-name
 * helpers live in simple.cc alongside the static policy factories).
 */

#include "coord/policy.hh"

#include "snapshot/snapshot.hh"

namespace athena
{

void
EpochStats::serialize(SnapshotIo &io)
{
    io.u64(instructions);
    io.u64(cycles);
    io.u64(loads);
    io.u64(branches);
    io.u64(branchMispredicts);
    io.u64(llcMisses);
    io.u64(llcMissLatency);
    io.u64(llcDemandAccesses);
    for (std::uint64_t &v : pfIssued)
        io.u64(v);
    for (std::uint64_t &v : pfUsed)
        io.u64(v);
    io.u64(ocpPredictions);
    io.u64(ocpCorrect);
    io.u64(dramDemand);
    io.u64(dramPrefetch);
    io.u64(dramOcp);
    io.f64(bandwidthUsage);
    io.u64(pollutionMisses);
}

void
CoordDecision::serialize(SnapshotIo &io)
{
    io.u32(pfEnableMask);
    io.boolean(ocpEnable);
    for (double &v : degreeScale)
        io.f64(v);
}

} // namespace athena
