/**
 * @file
 * Simulator implementation.
 */

#include "sim/simulator.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "athena/agent.hh"
#include "coord/simple.hh"
#include "coord/tlp.hh"
#include "sim/step_picker.hh"
#include "snapshot/snapshot.hh"

namespace athena
{

namespace
{

/** Slot marker for fills that must not generate feedback. */
constexpr std::uint8_t kNoFeedbackSlot = 0xff;

std::unique_ptr<CoordinationPolicy>
makePolicy(const SystemConfig &cfg, unsigned num_prefetchers)
{
    switch (cfg.policy) {
      case PolicyKind::kNaive:
        return makeNaivePolicy();
      case PolicyKind::kAllOff:
        return makeAllOffPolicy();
      case PolicyKind::kPfOnly:
        return makePfOnlyPolicy();
      case PolicyKind::kOcpOnly:
        return makeOcpOnlyPolicy();
      case PolicyKind::kTlp:
        return std::make_unique<TlpPolicy>();
      case PolicyKind::kHpac:
        return std::make_unique<HpacPolicy>(cfg.hpac);
      case PolicyKind::kMab:
        return std::make_unique<MabPolicy>(num_prefetchers, cfg.mab);
      case PolicyKind::kAthena:
        return std::make_unique<AthenaAgent>(cfg.athena);
    }
    throw std::logic_error("unknown policy kind");
}

} // namespace

/** Adapter binding one core's memory traffic to the simulator. */
class CoreMemAdapter : public MemoryInterface
{
  public:
    CoreMemAdapter(Simulator &sim, unsigned core)
        : sim(sim), core(core)
    {}

    Cycle
    load(std::uint64_t pc, Addr addr, Cycle issue,
         bool &l1_miss) override
    {
        return sim.doLoad(core, pc, addr, issue, l1_miss);
    }

    void
    store(std::uint64_t pc, Addr addr, Cycle cycle) override
    {
        sim.doStore(core, pc, addr, cycle);
    }

  private:
    Simulator &sim;
    unsigned core;
};

/** All per-core state. */
struct Simulator::CoreCtx
{
    std::unique_ptr<WorkloadGenerator> workload;
    std::unique_ptr<CoreMemAdapter> adapter;
    std::unique_ptr<CoreModel> core;

    Cache l1;
    Cache l2;

    /** Prefetcher slots (at most kMaxPrefetchers). */
    std::vector<std::unique_ptr<Prefetcher>> prefetchers;
    /**
     * Slot indices per trigger level (0 = L1D, 1 = L2C), computed
     * once at construction so the per-access trigger loop touches
     * only the prefetchers that actually observe that level instead
     * of virtual-dispatching level() on every slot.
     */
    std::array<std::vector<std::uint8_t>, 2> levelSlots;
    std::unique_ptr<OffChipPredictor> ocp;
    std::unique_ptr<CoordinationPolicy> policy;

    CoordDecision decision; ///< Applied for the current epoch.

    /** Capability flags cached off the policy at construction so
     *  the access path skips virtual no-op hook calls. */
    bool policyObservesDemands = false;
    bool policyFiltersPrefetches = false;

    /** Per-epoch window counters (policy telemetry). */
    EpochStats window;
    std::uint64_t epochStartInstr = 0;
    Cycle epochStartCycle = 0;
    CoreCounters epochStartCounters;
    std::uint64_t lastBusBusy = 0; ///< Global bus-busy snapshot.
    DramCounters lastDram;         ///< Global DRAM count snapshot.

    /** Prefetch-induced LLC pollution tracker (section 5.2.3). */
    BloomFilter pollutionBloom{4096, 2};

    /** Cumulative diagnostics. */
    std::array<PrefetcherSlotStats, kMaxPrefetchers> pfStats{};
    std::uint64_t ocpPredictions = 0;
    std::uint64_t ocpCorrect = 0;
    std::uint64_t llcMissesTotal = 0;
    std::uint64_t llcMissLatencyTotal = 0;

    std::string workloadName;

    CoreCtx(const CacheParams &l1p, const CacheParams &l2p)
        : l1(l1p), l2(l2p)
    {}
};

Simulator::Simulator(const SystemConfig &config,
                     const std::vector<WorkloadSpec> &workloads)
    : cfg(config)
{
    if (workloads.size() != cfg.cores) {
        throw std::invalid_argument(
            "workload count must equal core count");
    }

    // Geometry comes from outside input: reject empty and absurdly
    // wide shared planes before sizing anything from them.
    constexpr unsigned kMaxShards = 64;
    if (cfg.llcBanks < 1 || cfg.dramChannels < 1 ||
        cfg.llcBanks + cfg.dramChannels > kMaxShards) {
        throw std::invalid_argument(
            "llcBanks and dramChannels must each be >= 1 and sum "
            "to at most " + std::to_string(kMaxShards));
    }

    llc = std::make_unique<BankedLlc>(llcParams(cfg.cores),
                                      cfg.llcBanks);
    dram = std::make_unique<ChanneledDram>(dramParams(cfg),
                                           cfg.dramChannels);

    latL1 = l1dParams().latency;
    latL2 = latL1 + l2cParams().latency;
    latLlc = latL2 + llc->params().latency;

    for (unsigned c = 0; c < cfg.cores; ++c) {
        auto ctx = std::make_unique<CoreCtx>(l1dParams(), l2cParams());
        ctx->workloadName = workloads[c].name;
        ctx->workload = makeWorkload(workloads[c]);

        // Prefetcher slots in a fixed order: L1D first, then L2Cs.
        if (cfg.l1dPf != PrefetcherKind::kNone) {
            ctx->prefetchers.push_back(makePrefetcher(
                cfg.l1dPf, cfg.seed + c, CacheLevel::kL1D));
        }
        if (cfg.l2cPf != PrefetcherKind::kNone) {
            ctx->prefetchers.push_back(
                makePrefetcher(cfg.l2cPf, cfg.seed + 17 * (c + 1),
                               CacheLevel::kL2C));
        }
        if (cfg.l2cPf2 != PrefetcherKind::kNone) {
            ctx->prefetchers.push_back(
                makePrefetcher(cfg.l2cPf2, cfg.seed + 31 * (c + 1),
                               CacheLevel::kL2C));
        }
        if (ctx->prefetchers.size() > kMaxPrefetchers)
            throw std::invalid_argument("too many prefetchers");
        for (unsigned s = 0; s < ctx->prefetchers.size(); ++s) {
            unsigned lvl = ctx->prefetchers[s]->level() ==
                                   CacheLevel::kL1D
                               ? 0
                               : 1;
            ctx->levelSlots[lvl].push_back(
                static_cast<std::uint8_t>(s));
        }

        ctx->ocp = makeOcp(cfg.ocp);
        ctx->policy = makePolicy(
            cfg, static_cast<unsigned>(ctx->prefetchers.size()));
        ctx->policyObservesDemands =
            ctx->policy->observesDemandStream();
        ctx->policyFiltersPrefetches =
            ctx->policy->filtersPrefetches();
        ctx->adapter = std::make_unique<CoreMemAdapter>(*this, c);
        ctx->core = std::make_unique<CoreModel>(
            cfg.core, *ctx->workload, *ctx->adapter);
        // Prime the knobs with the policy's decision for an empty
        // epoch so static policies (e.g. all-off) take effect from
        // cycle 0; learning policies treat the empty epoch as their
        // cold start.
        ctx->decision = ctx->policy->onEpochEnd(EpochStats{});
        coreCtxs.push_back(std::move(ctx));
    }

    measure.starts.assign(cfg.cores, MeasureStart{});
    measure.started.assign(cfg.cores, 0);
}

Simulator::Simulator(const SystemConfig &config,
                     const std::vector<WorkloadSpec> &workloads,
                     const std::string &resume_from)
    : Simulator(config, workloads)
{
    SnapshotReader r(resume_from);
    SnapshotIo io(r);
    serialize(io);
}

Simulator::~Simulator() = default;

CoordinationPolicy &
Simulator::policy(unsigned core)
{
    return *coreCtxs.at(core)->policy;
}

void
Simulator::dispatchPrefetchFeedbackUsed(unsigned core,
                                        const CacheLookup &res,
                                        Cycle demand_cycle)
{
    CoreCtx &cc = *coreCtxs[core];
    if (!res.firstPrefetchTouch || res.pfSlot == kNoFeedbackSlot)
        return;
    if (res.pfSlot >= cc.prefetchers.size())
        return;
    bool timely = res.readyAt <= demand_cycle;
    PrefetcherSlotStats &ps = cc.pfStats[res.pfSlot];
    ++ps.used;
    if (timely)
        ++ps.usedTimely;
    ++cc.window.pfUsed[res.pfSlot];
    cc.prefetchers[res.pfSlot]->onPrefetchUsed(res.pfMeta, timely);
}

void
Simulator::handleLlcEviction(unsigned core, const CacheEviction &ev)
{
    CoreCtx &cc = *coreCtxs[core];
    if (!ev.evictedValid)
        return;
    // A line leaving the LLC leaves the chip, as far as the OCP's
    // residency tracking is concerned.
    if (cc.ocp)
        cc.ocp->onEvict(ev.evictedLine);
    // Prefetch-caused evictions feed the pollution tracker of the
    // core whose prefetch caused the fill.
    if (ev.causedByPrefetch)
        cc.pollutionBloom.insert(ev.evictedLine);
}

void
Simulator::triggerLevel(unsigned core, CacheLevel level,
                        std::uint64_t pc, Addr addr, bool hit,
                        Cycle cycle)
{
    CoreCtx &cc = *coreCtxs[core];
    const auto &slots =
        cc.levelSlots[level == CacheLevel::kL1D ? 0 : 1];
    if (slots.empty())
        return;
    // Candidate buffer on the stack of the access path: no heap
    // traffic, and the tag-dispatched observe() below is a direct
    // call (see Prefetcher::observe). Its entries are trivial, so
    // declaring it does not zero the buffer on every trigger.
    static_assert(
        std::is_trivially_default_constructible_v<PrefetchCandidate>,
        "CandidateVec must not initialize per trigger");
    CandidateVec scratch;
    const PrefetchTrigger trigger{pc, addr, hit, cycle};
    for (unsigned slot : slots) {
        Prefetcher &pf = *cc.prefetchers[slot];
        // A gated prefetcher still *trains* on the demand stream
        // (its tables are hardware that observes lookups); only
        // issuing is suppressed. Without this, a learning
        // coordinator that disables a learning prefetcher starves
        // it of training and can never discover that re-enabling
        // it would help.
        bool gated = !cc.decision.pfEnabled(slot) || pf.degree() == 0;
        scratch.clear();
        pf.observe(trigger, scratch);
        for (const PrefetchCandidate &cand : scratch) {
            if (gated)
                pf.onPrefetchDropped(cand.meta);
            else
                issuePrefetch(core, slot, cand, pc, cycle);
        }
    }
}

void
Simulator::issuePrefetch(unsigned core, unsigned slot,
                         const PrefetchCandidate &cand,
                         std::uint64_t trigger_pc, Cycle cycle)
{
    CoreCtx &cc = *coreCtxs[core];
    Prefetcher &pf = *cc.prefetchers[slot];
    const Addr line = cand.lineNum;

    if (cc.policyFiltersPrefetches &&
        cc.policy->filterPrefetch(pf.level(), trigger_pc,
                                  lineBase(line))) {
        pf.onPrefetchDropped(cand.meta);
        return;
    }

    // The prefetcher fills its own level (L1D or L2C). An L1D
    // prefetch first probes L2, and fills it too when the line
    // comes from DRAM. One ref per level, shared by the probe/touch
    // and the fill.
    const bool at_l1 = pf.level() == CacheLevel::kL1D;
    Cache &own = at_l1 ? cc.l1 : cc.l2;
    const CacheRef own_ref = own.ref(line);
    if (own.contains(own_ref)) {
        pf.onPrefetchDropped(cand.meta); // already resident
        return;
    }
    const CacheRef l2ref = at_l1 ? cc.l2.ref(line) : own_ref;

    bool from_dram = false;
    Cycle ready = cycle + latL2;
    if (!at_l1 || !cc.l2.touch(l2ref)) {
        const BankedRef llcref = llc->ref(line);
        ready = cycle + latLlc;
        if (!llc->touch(llcref)) {
            // Off-chip: served now, in issue order, like demand,
            // OCP and store traffic; every level is filled with the
            // real completion cycle.
            ready = dram->serve(cycle + latLlc, line,
                                AccessType::kPrefetch);
            from_dram = true;
            CacheEviction ev = llc->fill(llcref, cycle, ready, true,
                                         kNoFeedbackSlot, 0, true);
            handleLlcEviction(core, ev);
            if (cc.ocp)
                cc.ocp->onFill(line);
            if (at_l1) {
                cc.l2.fill(l2ref, cycle, ready, true, kNoFeedbackSlot,
                           0, true);
            }
        }
    }
    CacheEviction ev =
        own.fill(own_ref, cycle, ready, true,
                 static_cast<std::uint8_t>(slot), cand.meta, from_dram);
    if (ev.evictedUnusedPrefetch &&
        ev.evictedPfSlot < cc.prefetchers.size()) {
        PrefetcherSlotStats &eps = cc.pfStats[ev.evictedPfSlot];
        ++eps.uselessEvictions;
        if (ev.evictedPfFromDram)
            ++eps.fillsFromDramUnused;
        cc.prefetchers[ev.evictedPfSlot]->onPrefetchUseless(
            ev.evictedPfMeta);
    }

    PrefetcherSlotStats &ps = cc.pfStats[slot];
    ++ps.issued;
    if (from_dram)
        ++ps.fillsFromDram;
    ++cc.window.pfIssued[slot];
}

Cycle
Simulator::doLoad(unsigned core, std::uint64_t pc, Addr addr,
                  Cycle issue, bool &l1_miss)
{
    CoreCtx &cc = *coreCtxs[core];
    Addr line = lineNumber(addr);

    // Off-chip prediction happens as soon as the address is known.
    bool ocp_pred = false;
    if (cc.ocp && cc.decision.ocpEnable)
        ocp_pred = cc.ocp->predictDemand(pc, addr);

    bool went_offchip = false;
    Cycle completion;

    // Fused L1 -> L2 -> LLC demand walk: each level's coordinates
    // are computed exactly once and feed both the lookup and any
    // fill on the refill path. The dominant outcome — an MRU-way L1
    // hit on a plain demand line — resolves through the inline fast
    // probe without the full lookup (identical state updates).
    const CacheRef l1ref = cc.l1.ref(line);
    Cycle fast_ready;
    if (cc.l1.accessHitFast(l1ref, issue, fast_ready)) {
        if (!cc.levelSlots[0].empty()) {
            triggerLevel(core, CacheLevel::kL1D, pc, addr, true,
                         issue);
        }
        l1_miss = false;
        completion = std::max(issue + latL1, fast_ready);
        // Falls through to the shared demand-resolution tail below
        // (OCP accounting/training, policy hook, epoch check) with
        // went_offchip == false.
    } else {
        CacheLookup l1res = cc.l1.access(l1ref, issue);
        triggerLevel(core, CacheLevel::kL1D, pc, addr, l1res.hit,
                     issue);
        l1_miss = !l1res.hit;
        if (l1res.hit) {
            dispatchPrefetchFeedbackUsed(core, l1res, issue);
            completion = std::max(issue + latL1, l1res.readyAt);
        } else {
            const CacheRef l2ref = cc.l2.ref(line);
            CacheLookup l2res = cc.l2.access(l2ref, issue);
            triggerLevel(core, CacheLevel::kL2C, pc, addr,
                         l2res.hit, issue);
            if (l2res.hit) {
                dispatchPrefetchFeedbackUsed(core, l2res, issue);
                completion = std::max(issue + latL2, l2res.readyAt);
                cc.l1.fill(l1ref, issue, completion, false);
            } else {
                const BankedRef llcref = llc->ref(line);
                CacheLookup llcres = llc->access(llcref, issue);
                if (llcres.hit) {
                    dispatchPrefetchFeedbackUsed(core, llcres,
                                                 issue);
                    completion =
                        std::max(issue + latLlc, llcres.readyAt);
                    cc.l2.fill(l2ref, issue, completion, false);
                    cc.l1.fill(l1ref, issue, completion, false);
                } else {
                    went_offchip = true;
                    if (cc.pollutionBloom.mayContain(line))
                        ++cc.window.pollutionMisses;

                    Cycle done;
                    if (ocp_pred) {
                        // Hermes path: the speculative request
                        // reaches the controller after the OCP
                        // request issue latency, hiding the on-chip
                        // lookup from the off-chip critical path.
                        done =
                            dram->serve(issue + cfg.ocpIssueLatency,
                                        line, AccessType::kOcp);
                        completion = std::max(done, issue + latL1);
                    } else {
                        done = dram->serve(issue + latLlc, line,
                                           AccessType::kDemandLoad);
                        completion = done;
                    }

                    CacheEviction ev =
                        llc->fill(llcref, issue, completion, false);
                    handleLlcEviction(core, ev);
                    cc.l2.fill(l2ref, issue, completion, false);
                    cc.l1.fill(l1ref, issue, completion, false);
                    if (cc.ocp)
                        cc.ocp->onFill(line);

                    ++cc.window.llcMisses;
                    cc.window.llcMissLatency += completion - issue;
                    ++cc.llcMissesTotal;
                    cc.llcMissLatencyTotal += completion - issue;
                }
                ++cc.window.llcDemandAccesses;
            }
        }
    }

    // A false-positive OCP prediction wasted one DRAM transfer.
    if (ocp_pred && !went_offchip) {
        dram->serve(issue + cfg.ocpIssueLatency, line,
                    AccessType::kOcp);
    }

    if (ocp_pred) {
        ++cc.window.ocpPredictions;
        ++cc.ocpPredictions;
        if (went_offchip) {
            ++cc.window.ocpCorrect;
            ++cc.ocpCorrect;
        }
    }
    if (cc.ocp && cc.decision.ocpEnable)
        cc.ocp->trainDemand(pc, addr, went_offchip);
    if (cc.policyObservesDemands)
        cc.policy->onDemandResolved(pc, addr, went_offchip);

    maybeEndEpoch(core);
    return completion;
}

void
Simulator::doStore(unsigned core, std::uint64_t pc, Addr addr,
                   Cycle cycle)
{
    CoreCtx &cc = *coreCtxs[core];
    Addr line = lineNumber(addr);

    const CacheRef l1ref = cc.l1.ref(line);
    Cycle fast_ready;
    if (cc.l1.accessHitFast(l1ref, cycle, fast_ready)) {
        if (!cc.levelSlots[0].empty()) {
            triggerLevel(core, CacheLevel::kL1D, pc, addr, true,
                         cycle);
        }
        return;
    }
    CacheLookup l1res = cc.l1.access(l1ref, cycle);
    triggerLevel(core, CacheLevel::kL1D, pc, addr, l1res.hit, cycle);
    if (l1res.hit) {
        dispatchPrefetchFeedbackUsed(core, l1res, cycle);
        return;
    }
    const CacheRef l2ref = cc.l2.ref(line);
    CacheLookup l2res = cc.l2.access(l2ref, cycle);
    triggerLevel(core, CacheLevel::kL2C, pc, addr, l2res.hit, cycle);
    if (l2res.hit) {
        dispatchPrefetchFeedbackUsed(core, l2res, cycle);
        cc.l1.fill(l1ref, cycle, cycle + latL2, false);
        return;
    }
    const BankedRef llcref = llc->ref(line);
    CacheLookup llcres = llc->access(llcref, cycle);
    if (llcres.hit) {
        dispatchPrefetchFeedbackUsed(core, llcres, cycle);
        cc.l2.fill(l2ref, cycle, cycle + latLlc, false);
        cc.l1.fill(l1ref, cycle, cycle + latLlc, false);
        return;
    }
    // Write-allocate from DRAM; off the critical path but the
    // traffic is real.
    Cycle done =
        dram->serve(cycle + latLlc, line, AccessType::kDemandStore);
    CacheEviction ev = llc->fill(llcref, cycle, done, false);
    handleLlcEviction(core, ev);
    cc.l2.fill(l2ref, cycle, done, false);
    cc.l1.fill(l1ref, cycle, done, false);
    if (cc.ocp)
        cc.ocp->onFill(line);
}

void
Simulator::maybeEndEpoch(unsigned core)
{
    CoreCtx &cc = *coreCtxs[core];
    std::uint64_t retired = cc.core->retired();
    if (retired < cc.epochStartInstr + cfg.epochInstructions)
        return;

    Cycle now = cc.core->now();
    const CoreCounters &cs = cc.core->counters();

    EpochStats stats = cc.window;
    stats.instructions = retired - cc.epochStartInstr;
    stats.cycles = now > cc.epochStartCycle
                       ? now - cc.epochStartCycle
                       : 1;
    stats.loads = cs.loads - cc.epochStartCounters.loads;
    stats.branches = cs.branches - cc.epochStartCounters.branches;
    stats.branchMispredicts =
        cs.branchMispredicts - cc.epochStartCounters.branchMispredicts;

    // The epoch summary samples the aggregate DRAM counters across
    // every channel.
    const DramCounters &life = dram->lifetime();
    stats.dramDemand = life.demandRequests - cc.lastDram.demandRequests;
    stats.dramPrefetch =
        life.prefetchRequests - cc.lastDram.prefetchRequests;
    stats.dramOcp = life.ocpRequests - cc.lastDram.ocpRequests;
    double busy = static_cast<double>(life.busBusyCycles -
                                      cc.lastBusBusy);
    // Busy cycles are summed across channels, and each channel can
    // be busy for the whole window — normalize by the channel count
    // so the feature stays a fraction of provisioned bandwidth
    // (identical to the historical formula at 1 channel).
    stats.bandwidthUsage =
        std::min(1.0, busy / static_cast<double>(stats.cycles) /
                          static_cast<double>(cfg.cores) /
                          static_cast<double>(cfg.dramChannels));

    cc.decision = cc.policy->onEpochEnd(stats);

    // Apply the decision: prefetcher degrees (Algorithm 1's d) and
    // per-epoch bandwidth feedback for Pythia-style prefetchers.
    for (unsigned slot = 0; slot < cc.prefetchers.size(); ++slot) {
        Prefetcher &pf = *cc.prefetchers[slot];
        auto d = static_cast<unsigned>(
            std::floor(cc.decision.degreeScale[slot] *
                       static_cast<double>(pf.maxDegree())));
        // An *enabled* prefetcher runs at degree >= 1: throttling
        // to zero would both contradict the enable decision and
        // starve a learning policy of the evidence that prefetching
        // can help.
        if (cc.decision.pfEnabled(slot) && d == 0)
            d = 1;
        pf.setDegree(d);
        pf.onEpochEnd(stats.bandwidthUsage);
    }

    // Reset the epoch window (section 5.2: trackers cleared).
    cc.window = EpochStats{};
    cc.epochStartInstr = retired;
    cc.epochStartCycle = now;
    cc.epochStartCounters = cs;
    cc.lastDram = life;
    cc.lastBusBusy = life.busBusyCycles;
    cc.pollutionBloom.clear();
}

SimResult
Simulator::run(const RunPlan &plan)
{
    const std::uint64_t warmup_per_core = plan.warmup;
    std::uint64_t total = plan.measured + plan.warmup;

    if (resumed) {
        // The snapshot froze the measurement bookkeeping mid-plan;
        // continuing under a different warmup would splice two
        // different measurement windows together.
        if (plan.warmup != resumeWarmup) {
            throw std::invalid_argument(
                "resumed run must use the warmup length its "
                "snapshot was taken at");
        }
    } else {
        measure.starts.assign(cfg.cores, MeasureStart{});
        measure.started.assign(cfg.cores, 0);
        measure.dramAtStart = DramCounters{};
        measure.maxNowAtStart = 0;
        measure.anyStarted = false;
        resumeWarmup = plan.warmup;
    }

    bool want_snapshot = !plan.snapshotAfterWarmup.empty();

    // Latch a core's measurement-window start once it crosses the
    // warmup boundary. The first core to cross anchors the window's
    // DRAM counters and wall-clock frontier.
    auto check_warmup = [&](unsigned c) {
        const CoreModel &core = *coreCtxs[c]->core;
        if (measure.started[c] || core.retired() < warmup_per_core)
            return;
        measure.started[c] = 1;
        measure.starts[c] = {core.retired(),
                             core.now(),
                             core.counters().loads,
                             core.counters().stores,
                             core.counters().branchMispredicts,
                             coreCtxs[c]->llcMissesTotal,
                             coreCtxs[c]->llcMissLatencyTotal};
        if (!measure.anyStarted) {
            measure.anyStarted = true;
            measure.dramAtStart = dram->lifetime();
            measure.maxNowAtStart = core.now();
        }
    };

    // The warmup-snapshot cut: the first inter-step point at which
    // every core has either crossed the warmup boundary or
    // exhausted its stream. Any inter-step point would restore
    // bit-identically (the stepping schedule is a pure function of
    // the component state); this particular cut is the earliest one
    // at which the remaining work is exactly the measured window.
    auto all_past_warmup = [&]() {
        for (unsigned c = 0; c < cfg.cores; ++c) {
            if (!measure.started[c] && !coreCtxs[c]->core->finished())
                return false;
        }
        return true;
    };
    auto maybe_snapshot = [&]() {
        if (want_snapshot && all_past_warmup()) {
            snapshot(plan.snapshotAfterWarmup);
            want_snapshot = false;
        }
    };

    // One stepping loop for every core count. It steps the globally
    // least-advanced unfinished core, so the cores stay loosely
    // synchronized and shared-resource contention is meaningful; the
    // picker is an indexed min-heap over (frontier, core) with
    // lowest-index-first ties. The picked core runs a burst: it keeps
    // stepping until its frontier passes the least key among the
    // other cores (StepPicker::nextBound), which is exactly the order
    // one pick per instruction gives. With one core left there is no
    // bound, and the burst is plain stepN.
    //
    // A burst also stops at the run budget and, until the core has
    // crossed warmup, at the warmup boundary (after the first step
    // for warmup 0), so the measurement start is sampled after the
    // same step as under per-instruction picking. The snapshot cut
    // can only become due at a warmup crossing or a stream end, and
    // both end a burst.
    //
    // A core leaves the pick set at its budget or the moment its
    // finite stream ends; StepPicker::finish keeps the survivors'
    // order, so finish order and all counters are a pure function of
    // the per-core trajectories.
    //
    // Resume: the picker is rebuilt from the restored frontiers, and
    // cores already out of the pick set (stream ended, or budget
    // reached under this plan) are finished out before the loop. The
    // heap holding every unfinished core at its frontier is the
    // scheduler state the straight-through run was in at the cut.
    StepPicker picker(cfg.cores);
    for (unsigned c = 0; c < cfg.cores; ++c) {
        const CoreModel &core = *coreCtxs[c]->core;
        picker.advance(c, core.now());
        if (core.finished() || core.retired() >= total)
            picker.finish(c);
    }
    const std::uint64_t warmup_stop =
        std::min(total, std::max<std::uint64_t>(warmup_per_core, 1));
    while (!picker.empty()) {
        const unsigned pick = picker.top();
        CoreModel &core = *coreCtxs[pick]->core;
        const std::uint64_t stop =
            measure.started[pick] ? total : warmup_stop;
        // At least one step: a core restored from a hand-edited
        // snapshot can sit past its stop.
        const std::uint64_t n =
            stop > core.retired() ? stop - core.retired() : 1;
        if (picker.size() == 1) {
            core.stepN(n);
        } else {
            const StepPicker::Key bound = picker.nextBound();
            core.stepBurst(n, bound.cycle, pick < bound.core);
        }
        check_warmup(pick);
        maybe_snapshot();
        if (core.finished() || core.retired() >= total)
            picker.finish(pick);
        else
            picker.advance(pick, core.now());
    }
    // All streams may end before any warmup crossing; the snapshot
    // request is still honored at the terminal state.
    maybe_snapshot();

    SimResult result;
    Cycle max_now = 0;
    for (unsigned c = 0; c < cfg.cores; ++c) {
        CoreCtx &cc = *coreCtxs[c];
        const MeasureStart &ms = measure.starts[c];
        SimResult::PerCore pc;
        pc.workload = cc.workloadName;
        pc.completedInstructions = cc.core->retired();
        pc.streamExhausted = cc.core->finished();
        pc.instructions = cc.core->retired() - ms.instr;
        Cycle cyc = cc.core->now() > ms.cycle
                        ? cc.core->now() - ms.cycle
                        : 1;
        pc.cycles = cyc;
        pc.ipc = static_cast<double>(pc.instructions) /
                 static_cast<double>(cyc);
        pc.loads = cc.core->counters().loads - ms.loads;
        pc.stores = cc.core->counters().stores - ms.stores;
        pc.branchMispredicts =
            cc.core->counters().branchMispredicts - ms.mispredicts;
        pc.llcMisses = cc.llcMissesTotal - ms.llcMisses;
        pc.llcMissLatency =
            cc.llcMissLatencyTotal - ms.llcMissLatency;
        pc.pf = cc.pfStats;
        pc.ocpPredictions = cc.ocpPredictions;
        pc.ocpCorrect = cc.ocpCorrect;
        pc.actionHistogram = cc.policy->actionHistogram();
        result.cores.push_back(std::move(pc));
        max_now = std::max(max_now, cc.core->now());
    }

    const DramCounters &life = dram->lifetime();
    const DramCounters &at0 = measure.dramAtStart;
    result.dram.demandRequests =
        life.demandRequests - at0.demandRequests;
    result.dram.prefetchRequests =
        life.prefetchRequests - at0.prefetchRequests;
    result.dram.ocpRequests = life.ocpRequests - at0.ocpRequests;
    result.dram.rowHits = life.rowHits - at0.rowHits;
    result.dram.rowMisses = life.rowMisses - at0.rowMisses;
    result.dram.busBusyCycles =
        life.busBusyCycles - at0.busBusyCycles;
    Cycle window = max_now > measure.maxNowAtStart
                       ? max_now - measure.maxNowAtStart
                       : 1;
    // Aggregate utilization across channels: busy cycles are summed
    // over every channel's bus, so the window is scaled by the
    // channel count (identical to the historical formula at 1
    // channel).
    result.busUtilization = std::min(
        1.0, static_cast<double>(result.dram.busBusyCycles) /
                 static_cast<double>(window) /
                 static_cast<double>(cfg.dramChannels));
    return result;
}

namespace
{

/** Per-core section tag: "c<i>/<what>". */
std::string
coreTag(unsigned core, const char *what)
{
    return "c" + std::to_string(core) + "/" + what;
}

} // namespace

void
Simulator::snapshot(const std::string &path)
{
    SnapshotWriter w;
    SnapshotIo io(w);
    serialize(io);
    w.writeFile(path);
}

/*
 * Section layout. Every component writes its own tagged section so
 * a corrupted or geometry-mismatched snapshot fails with an error
 * naming the component, and sections can evolve independently
 * behind the file-level version:
 *
 *   meta       config content hash + core count + shard geometry
 *   resume     plan warmup + measurement-window bookkeeping
 *   llc/b<i>   one section per LLC bank
 *   dram/ch<j> one section per DRAM channel
 *   c<i>/wl     workload generator cursors
 *   c<i>/core   core pipeline + branch predictor
 *   c<i>/l1, c<i>/l2
 *   c<i>/pf<s>  prefetcher slot s
 *   c<i>/ocp    off-chip predictor (present when configured)
 *   c<i>/policy coordination policy learned state
 *   c<i>/epoch  epoch window + decision + diagnostics counters
 */
void
Simulator::serialize(SnapshotIo &io)
{
    io.section("meta");
    const std::uint64_t want_key = cfg.configKey();
    std::uint64_t key = want_key;
    std::uint32_t cores = cfg.cores;
    std::uint32_t banks = cfg.llcBanks;
    std::uint32_t channels = cfg.dramChannels;
    io.u64(key);
    io.u32(cores);
    io.u32(banks);
    io.u32(channels);
    // Shard-geometry guards run before the config-key comparison so
    // a cross-geometry snapshot fails with an error naming the
    // mismatched dimension (the key differs too — llcBanks and
    // dramChannels are hashed — but "config key mismatch" would
    // hide which knob moved). A save passes them trivially.
    auto expect = [](std::uint32_t got, unsigned want, const char *what) {
        if (got != want) {
            throw SnapshotError(
                "meta", std::string(what) + " mismatch: snapshot has " +
                            std::to_string(got) +
                            ", configuration wants " +
                            std::to_string(want));
        }
    };
    expect(banks, cfg.llcBanks, "LLC bank count");
    expect(channels, cfg.dramChannels, "DRAM channel count");
    expect(cores, cfg.cores, "core count");
    io.check(key == want_key,
             "snapshot was taken under a different system "
             "configuration (config key mismatch)");

    io.section("resume");
    io.u64(resumeWarmup);
    io.boolean(measure.anyStarted);
    measure.dramAtStart.serialize(io);
    io.u64(measure.maxNowAtStart);
    for (unsigned c = 0; c < cfg.cores; ++c) {
        MeasureStart &ms = measure.starts[c];
        bool started = measure.started[c] != 0;
        io.boolean(started);
        measure.started[c] = started ? 1 : 0;
        io.u64(ms.instr);
        io.u64(ms.cycle);
        io.u64(ms.loads);
        io.u64(ms.stores);
        io.u64(ms.mispredicts);
        io.u64(ms.llcMisses);
        io.u64(ms.llcMissLatency);
    }

    for (unsigned b = 0; b < llc->bankCount(); ++b) {
        io.section("llc/b" + std::to_string(b));
        llc->bank(b).serialize(io);
    }

    for (unsigned ch = 0; ch < dram->channelCount(); ++ch) {
        io.section("dram/ch" + std::to_string(ch));
        dram->channel(ch).serialize(io);
    }

    for (unsigned c = 0; c < cfg.cores; ++c) {
        CoreCtx &cc = *coreCtxs[c];

        io.section(coreTag(c, "wl"));
        cc.workload->serialize(io);

        io.section(coreTag(c, "core"));
        cc.core->serialize(io);

        io.section(coreTag(c, "l1"));
        cc.l1.serialize(io);

        io.section(coreTag(c, "l2"));
        cc.l2.serialize(io);

        for (unsigned s = 0; s < cc.prefetchers.size(); ++s) {
            io.section(coreTag(c, "pf") + std::to_string(s));
            cc.prefetchers[s]->serialize(io);
        }

        if (cc.ocp) {
            io.section(coreTag(c, "ocp"));
            cc.ocp->serialize(io);
        }

        io.section(coreTag(c, "policy"));
        cc.policy->serialize(io);

        io.section(coreTag(c, "epoch"));
        cc.decision.serialize(io);
        cc.window.serialize(io);
        io.u64(cc.epochStartInstr);
        io.u64(cc.epochStartCycle);
        cc.epochStartCounters.serialize(io);
        io.u64(cc.lastBusBusy);
        cc.lastDram.serialize(io);
        cc.pollutionBloom.serialize(io);
        for (PrefetcherSlotStats &ps : cc.pfStats) {
            io.u64(ps.issued);
            io.u64(ps.used);
            io.u64(ps.usedTimely);
            io.u64(ps.uselessEvictions);
            io.u64(ps.fillsFromDram);
            io.u64(ps.fillsFromDramUnused);
        }
        io.u64(cc.ocpPredictions);
        io.u64(cc.ocpCorrect);
        io.u64(cc.llcMissesTotal);
        io.u64(cc.llcMissLatencyTotal);
    }
    io.endSection();

    if (io.loading())
        resumed = true;
}

} // namespace athena
