/**
 * @file
 * MAB (DUCB) implementation.
 */

#include "coord/mab.hh"

#include <algorithm>
#include <cmath>

#include "snapshot/snapshot.hh"

namespace athena
{

MabPolicy::MabPolicy(unsigned num_prefetchers, const MabParams &params)
    : cfg(params)
{
    unsigned pf_combos = num_prefetchers >= 2 ? 4 : 2;
    arms.resize(pf_combos * 2);
    for (unsigned pf = 0; pf < pf_combos; ++pf) {
        for (unsigned ocp = 0; ocp < 2; ++ocp) {
            Arm &arm = arms[pf * 2 + ocp];
            arm.decision.pfEnableMask = pf_combos == 2
                                            ? (pf ? ~0u : 0u)
                                            : pf;
            arm.decision.ocpEnable = ocp != 0;
        }
    }
    reset();
}

unsigned
MabPolicy::selectArm() const
{
    double total = 0.0;
    for (const Arm &arm : arms)
        total += arm.count;
    // Untried arms first.
    for (unsigned a = 0; a < arms.size(); ++a) {
        if (arms[a].count < 1e-9)
            return a;
    }
    unsigned best = 0;
    double best_score = -1e300;
    for (unsigned a = 0; a < arms.size(); ++a) {
        const Arm &arm = arms[a];
        double mean = arm.sum / arm.count;
        double bonus = cfg.explorationC *
                       std::sqrt(std::log(std::max(total, 2.0)) /
                                 arm.count);
        double score = mean + bonus;
        if (score > best_score) {
            best_score = score;
            best = a;
        }
    }
    return best;
}

CoordDecision
MabPolicy::onEpochEnd(const EpochStats &stats)
{
    // Reward the arm that ran during the finished epoch.
    double ipc = stats.ipc();
    rewardScale = std::max(rewardScale, ipc);
    double reward = rewardScale > 0.0 ? ipc / rewardScale : 0.0;

    for (Arm &arm : arms) {
        arm.count *= cfg.discount;
        arm.sum *= cfg.discount;
    }
    arms[current].count += 1.0;
    arms[current].sum += reward;

    current = selectArm();
    return arms[current].decision;
}

void
MabPolicy::reset()
{
    for (Arm &arm : arms) {
        arm.count = 0.0;
        arm.sum = 0.0;
    }
    current = 0;
    rewardScale = 0.0;
}

void
MabPolicy::serialize(SnapshotIo &io)
{
    io.expectU64(arms.size(), "MAB arm count");
    for (Arm &arm : arms) {
        io.f64(arm.count);
        io.f64(arm.sum);
    }
    io.u32(current);
    io.check(current < arms.size(),
             "MAB current arm out of range (corrupted snapshot)");
    io.f64(rewardScale);
}

} // namespace athena
