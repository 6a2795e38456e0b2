/**
 * @file
 * SystemConfig helpers.
 */

#include "sim/system_config.hh"

#include <cstdint>

#include "common/hashing.hh"

namespace athena
{

const char *
cacheDesignName(CacheDesign design)
{
    switch (design) {
      case CacheDesign::kCd1: return "CD1";
      case CacheDesign::kCd2: return "CD2";
      case CacheDesign::kCd3: return "CD3";
      case CacheDesign::kCd4: return "CD4";
    }
    return "?";
}

unsigned
SystemConfig::numPrefetchers() const
{
    unsigned n = 0;
    if (l1dPf != PrefetcherKind::kNone)
        ++n;
    if (l2cPf != PrefetcherKind::kNone)
        ++n;
    if (l2cPf2 != PrefetcherKind::kNone)
        ++n;
    return n;
}

std::uint64_t
SystemConfig::configKey() const
{
    Fnv1a h;
    h.u64(static_cast<std::uint64_t>(l1dPf));
    h.u64(static_cast<std::uint64_t>(l2cPf));
    h.u64(static_cast<std::uint64_t>(l2cPf2));
    h.u64(static_cast<std::uint64_t>(ocp));
    h.u64(static_cast<std::uint64_t>(policy));
    h.f64(bandwidthGBps);
    h.u64(dramBanks);
    h.u64(dramRowBytes);
    h.u64(llcBanks);
    h.u64(dramChannels);
    h.u64(ocpIssueLatency);
    h.u64(cores);
    h.u64(epochInstructions);
    h.u64(core.width);
    h.u64(core.robSize);
    h.u64(core.mispredictPenalty);
    h.u64(core.l1Mshrs);
    h.u64(core.aluLatency);
    h.u64(seed);
    // Policy-specific configuration only matters when that policy
    // runs — hashing it unconditionally would needlessly split
    // cache keys between sweeps that differ only in, say, Athena
    // hyperparameters while comparing the same kAllOff baseline.
    switch (policy) {
      case PolicyKind::kAthena:
        h.u64(athena.qv.planes);
        h.u64(athena.qv.rows);
        h.u64(athena.qv.actions);
        h.u64(athena.qv.stateFields);
        h.u64(athena.qv.bitsPerField);
        h.f64(athena.qv.alpha);
        h.f64(athena.qv.gamma);
        h.u64(athena.qv.quantized ? 1 : 0);
        h.f64(athena.qv.initQ);
        h.u64(athena.qv.roundingSeed);
        h.f64(athena.rewardWeights.lambdaCycle);
        h.f64(athena.rewardWeights.lambdaLlcMiss);
        h.f64(athena.rewardWeights.lambdaLlcMissLatency);
        h.f64(athena.rewardWeights.lambdaLoad);
        h.f64(athena.rewardWeights.lambdaMispredBranch);
        h.u64(athena.features.size());
        for (StateFeature f : athena.features)
            h.u64(static_cast<std::uint64_t>(f));
        h.u64(athena.useUncorrelatedReward ? 1 : 0);
        h.u64(athena.stateless ? 1 : 0);
        h.u64(athena.ipcRewardOnly ? 1 : 0);
        h.f64(athena.epsilon);
        h.f64(athena.tau);
        h.u64(athena.prefetcherOnlyMode ? 1 : 0);
        h.u64(athena.seed);
        break;
      case PolicyKind::kHpac:
        h.f64(hpac.accHigh);
        h.f64(hpac.accLow);
        h.f64(hpac.bwHigh);
        h.f64(hpac.pollutionHigh);
        h.f64(hpac.ocpAccGate);
        break;
      case PolicyKind::kMab:
        h.f64(mab.discount);
        h.f64(mab.explorationC);
        break;
      default:
        break;
    }
    return h.h;
}

SystemConfig
makeDesignConfig(CacheDesign design, PolicyKind policy)
{
    SystemConfig cfg;
    cfg.policy = policy;
    switch (design) {
      case CacheDesign::kCd1:
        cfg.label = "CD1";
        cfg.l2cPf = PrefetcherKind::kPythia;
        break;
      case CacheDesign::kCd2:
        cfg.label = "CD2";
        cfg.l1dPf = PrefetcherKind::kIpcp;
        cfg.l2cPf = PrefetcherKind::kNone;
        break;
      case CacheDesign::kCd3:
        cfg.label = "CD3";
        cfg.l2cPf = PrefetcherKind::kSms;
        cfg.l2cPf2 = PrefetcherKind::kPythia;
        break;
      case CacheDesign::kCd4:
        cfg.label = "CD4";
        cfg.l1dPf = PrefetcherKind::kIpcp;
        cfg.l2cPf = PrefetcherKind::kPythia;
        break;
    }
    return cfg;
}

SystemConfig
makeManyCoreConfig(unsigned cores, CacheDesign design,
                   PolicyKind policy)
{
    SystemConfig cfg = makeDesignConfig(design, policy);
    cfg.cores = cores;
    if (cores >= 32) {
        cfg.llcBanks = 8;
        cfg.dramChannels = 4;
    } else if (cores >= 16) {
        cfg.llcBanks = 4;
        cfg.dramChannels = 2;
    }
    cfg.label += "x" + std::to_string(cores);
    return cfg;
}

CacheParams
l1dParams()
{
    return {"L1D", 48 << 10, 12, 5};
}

CacheParams
l2cParams()
{
    return {"L2C", (1280u << 10), 20, 15};
}

CacheParams
llcParams(unsigned cores)
{
    return {"LLC", static_cast<std::uint64_t>(3) * cores << 20, 12,
            55};
}

DramParams
dramParams(double bandwidth_gbps)
{
    DramParams p;
    p.bandwidthGBps = bandwidth_gbps;
    return p;
}

DramParams
dramParams(const SystemConfig &cfg)
{
    DramParams p = dramParams(cfg.bandwidthGBps);
    p.banks = cfg.dramBanks;
    p.rowBytes = cfg.dramRowBytes;
    return p;
}

} // namespace athena
