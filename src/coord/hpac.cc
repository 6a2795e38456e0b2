/**
 * @file
 * HPAC implementation.
 */

#include "coord/hpac.hh"

#include "snapshot/snapshot.hh"

namespace athena
{

CoordDecision
HpacPolicy::onEpochEnd(const EpochStats &stats)
{
    // --- local per-prefetcher aggressiveness control ------------
    for (unsigned slot = 0; slot < kMaxPrefetchers; ++slot) {
        if (stats.pfIssued[slot] == 0)
            continue; // no feedback this epoch; hold the level
        double acc = stats.pfAccuracy(slot);
        bool polluting = stats.pollutionFraction() > thr.pollutionHigh;
        bool bw_pressure = stats.bandwidthUsage > thr.bwHigh;

        // HPAC's global control throttles under bandwidth pressure
        // regardless of accuracy — its statically tuned thresholds
        // cannot tell "pressure from useful prefetches" apart from
        // "pressure from useless ones", which is exactly the
        // conservatism Fig. 4 of the Athena paper criticizes.
        if (acc < thr.accLow || bw_pressure || polluting) {
            if (levels[slot] > kMinLevel)
                --levels[slot];
        } else if (acc > thr.accHigh) {
            if (levels[slot] < kMaxLevel)
                ++levels[slot];
        }
    }

    // --- OCP gating with periodic probing ------------------------
    if (ocpOn) {
        if (stats.ocpPredictions > 8 &&
            stats.ocpAccuracy() < thr.ocpAccGate) {
            ocpOn = false;
            ocpOffEpochs = 0;
        }
    } else if (++ocpOffEpochs >= kOcpProbePeriod) {
        ocpOn = true; // probe epoch
    }

    CoordDecision d;
    d.pfEnableMask = ~0u; // HPAC throttles via degree, never to zero
    d.ocpEnable = ocpOn;
    for (unsigned slot = 0; slot < kMaxPrefetchers; ++slot) {
        d.degreeScale[slot] = static_cast<double>(levels[slot]) /
                              static_cast<double>(kMaxLevel);
    }
    return d;
}

void
HpacPolicy::reset()
{
    levels.fill(3); // start in the middle of the range
    ocpOn = true;
    ocpOffEpochs = 0;
}

void
HpacPolicy::serialize(SnapshotIo &io)
{
    for (unsigned &l : levels)
        io.inRange(l, kMinLevel, kMaxLevel, "HPAC level");
    io.boolean(ocpOn);
    io.u32(ocpOffEpochs);
}

} // namespace athena
