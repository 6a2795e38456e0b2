/**
 * @file
 * Traced replay implementation (see replay.hh).
 */

#include "replay.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>

#include "athena/agent.hh"
#include "coord/policy.hh"
#include "coord/simple.hh"
#include "cpu/core_model.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "ocp/ocp.hh"
#include "prefetch/prefetcher.hh"
#include "sim/step_picker.hh"

namespace perfbench
{

using namespace athena;

namespace
{

const char *
layerName(Layer layer)
{
    static constexpr const char *kNames[] = {
        "trace",       "cpu",         "mem",           "mem.l1d",
        "mem.l2c",     "mem.llc",     "mem.dram",      "prefetch.s0",
        "prefetch.s1", "ocp",         "coord",         "sim.pick",
        "snapshot.save", "snapshot.restore"};
    static_assert(std::size(kNames) ==
                  static_cast<std::size_t>(Layer::kCount));
    return kNames[static_cast<unsigned>(layer)];
}

} // namespace

Tracer::Tracer(std::uint64_t sample_every, std::size_t max_spans)
    : on(true), sampleEvery(sample_every ? sample_every : 1),
      maxSpans(max_spans), origin(std::chrono::steady_clock::now())
{
    calibrate();
}

void
Tracer::calibrate()
{
    // Empty spans nested one deep, the shape of every layer call; the
    // medians over a few trials resist an interrupt in one of them.
    constexpr unsigned kKids = 256;
    constexpr unsigned kTrials = 9;
    std::vector<double> selfs, childs;
    setInstr(0, 1); // not a sampled instruction: nothing is kept
    for (unsigned t = 0; t < kTrials; ++t) {
        self.fill(0);
        {
            auto parent = scope(Layer::kCpu);
            for (unsigned i = 0; i < kKids; ++i)
                auto child = scope(Layer::kMem);
        }
        const double empty =
            static_cast<double>(self[static_cast<unsigned>(Layer::kMem)]) /
            kKids;
        selfs.push_back(empty);
        childs.push_back(
            (static_cast<double>(self[static_cast<unsigned>(Layer::kCpu)]) -
             empty) /
            kKids);
    }
    std::sort(selfs.begin(), selfs.end());
    std::sort(childs.begin(), childs.end());
    costSelf = selfs[kTrials / 2];
    costChild = childs[kTrials / 2];
    self.fill(0);
    count.fill(0);
    kids.fill(0);
    setInstr(0, 0);
}

void
Tracer::begin(Layer layer)
{
    if (depth == kMaxDepth)
        throw std::logic_error(
            "span nesting deeper than the tracer keeps");
    const std::int64_t parent = depth ? stack[depth - 1].keptAnc : -1;
    // Rare layers are kept whole; per-access layers only for the
    // sampled instructions, so memory stays bounded on long runs.
    const bool rare = layer == Layer::kTrace || layer == Layer::kCoord ||
                      layer == Layer::kSnapshotSave ||
                      layer == Layer::kSnapshotRestore;
    std::int64_t idx = -1;
    if ((rare || curInstr % sampleEvery == 0) &&
        kept.size() < maxSpans) {
        idx = static_cast<std::int64_t>(kept.size());
        kept.push_back({layer, curCore, curInstr, parent, 0, 0});
    }
    const std::int64_t t = now();
    if (idx >= 0)
        kept[static_cast<std::size_t>(idx)].startNs = t;
    stack[depth++] = {layer, t, 0, idx, idx >= 0 ? idx : parent};
}

void
Tracer::end()
{
    const std::int64_t t = now();
    const Frame &f = stack[--depth];
    const std::int64_t dur = t - f.start;
    const auto l = static_cast<unsigned>(f.layer);
    self[l] += dur - f.childNs;
    ++count[l];
    if (depth) {
        stack[depth - 1].childNs += dur;
        ++kids[static_cast<unsigned>(stack[depth - 1].layer)];
    }
    if (f.span >= 0)
        kept[static_cast<std::size_t>(f.span)].endNs = t;
    if (f.layer == Layer::kCoord)
        epochs.push_back(static_cast<double>(dur) - costSelf);
}

bool
Tracer::writeCsv(const std::string &path) const
{
    std::ofstream out(path);
    out << "layer,core,instr,parent,start_ns,end_ns\n";
    for (const Span &s : kept) {
        out << layerName(s.layer) << ','
            << (s.core == ~0u ? -1 : static_cast<std::int64_t>(s.core))
            << ',' << s.instr << ',' << s.parent << ',' << s.startNs
            << ',' << s.endNs << '\n';
    }
    return static_cast<bool>(out);
}

namespace
{

/** Fill slot of lines that must not feed prefetcher feedback. */
constexpr std::uint8_t kNoSlot = 0xff;
/** Core id of scheduler spans. */
constexpr std::uint32_t kScheduler = ~0u;
/** Single-core stepN span length (instructions). */
constexpr std::uint64_t kChunk = 4096;

Layer
slotLayer(unsigned slot)
{
    return slot == 0 ? Layer::kPf0 : Layer::kPf1;
}

std::unique_ptr<CoordinationPolicy>
makeReplayPolicy(const SystemConfig &cfg)
{
    switch (cfg.policy) {
      case PolicyKind::kNaive:
        return makeNaivePolicy();
      case PolicyKind::kPfOnly:
        return makePfOnlyPolicy();
      case PolicyKind::kAthena:
        return std::make_unique<AthenaAgent>(cfg.athena);
      default:
        throw std::invalid_argument(
            "the replay supports the naive, pf-only and athena policies");
    }
}

/** A workload stream whose every nextBatch refill is a `trace` span. */
class TracedStream : public WorkloadGenerator
{
  public:
    TracedStream(const WorkloadSpec &spec, Tracer &t, ReplayStats &s)
        : inner(makeWorkload(spec)), tracer(t), stats(s)
    {}

    void reset() override { inner->reset(); }

    TraceRecord
    next() override
    {
        ++stats.records;
        return inner->next();
    }

    std::size_t
    nextBatch(TraceRecord *out, std::size_t n) override
    {
        auto span = tracer.scope(Layer::kTrace);
        const std::size_t got = inner->nextBatch(out, n);
        stats.records += got;
        return got;
    }

  private:
    std::unique_ptr<WorkloadGenerator> inner;
    Tracer &tracer;
    ReplayStats &stats;
};

/** State every core shares: the LLC banks and the DRAM channels. */
struct Shared
{
    explicit Shared(const SystemConfig &cfg)
        : llc(llcParams(cfg.cores), cfg.llcBanks),
          dram(dramParams(cfg), cfg.dramChannels),
          latL1(l1dParams().latency),
          latL2(latL1 + l2cParams().latency),
          latLlc(latL2 + llc.params().latency),
          ocpLatency(cfg.ocpIssueLatency), cores(cfg.cores),
          channels(cfg.dramChannels), epochLen(cfg.epochInstructions)
    {}

    BankedLlc llc;
    ChanneledDram dram;
    Cycle latL1;
    Cycle latL2;
    Cycle latLlc;
    Cycle ocpLatency;
    unsigned cores;
    unsigned channels;
    std::uint64_t epochLen;
};

/**
 * One core of the replay and the memory walk behind it: the private
 * L1D/L2C, the core's prefetchers, OCP and policy, over the shared LLC
 * banks and DRAM channels. Mirrors Simulator's demand, store and
 * prefetch paths, with DRAM prefetches served one at a time and no
 * pollution tracking.
 */
class ReplayCore : public MemoryInterface
{
  public:
    ReplayCore(const Workload &w, unsigned core, Shared &shared,
               Tracer &t, ReplayStats &s)
        : id(core), sh(shared), tracer(t), stats(s),
          stream(w.specs.at(core), t, s), l1(l1dParams()),
          l2(l2cParams()), ocp(makeOcp(w.cfg.ocp)),
          policy(makeReplayPolicy(w.cfg))
    {
        const SystemConfig &cfg = w.cfg;
        // Same slot order and seeds as Simulator.
        if (cfg.l1dPf != PrefetcherKind::kNone)
            pfs.push_back(makePrefetcher(cfg.l1dPf, cfg.seed + core,
                                         CacheLevel::kL1D));
        if (cfg.l2cPf != PrefetcherKind::kNone)
            pfs.push_back(makePrefetcher(
                cfg.l2cPf, cfg.seed + 17 * (core + 1), CacheLevel::kL2C));
        if (cfg.l2cPf2 != PrefetcherKind::kNone)
            pfs.push_back(makePrefetcher(
                cfg.l2cPf2, cfg.seed + 31 * (core + 1), CacheLevel::kL2C));
        if (pfs.size() > kMaxPrefetchers)
            throw std::invalid_argument("too many prefetchers");
        for (unsigned slot = 0; slot < pfs.size(); ++slot)
            levelSlots[pfs[slot]->level() == CacheLevel::kL1D ? 0 : 1]
                .push_back(slot);
        decision = policy->onEpochEnd(EpochStats{});
        model = std::make_unique<CoreModel>(cfg.core, stream, *this);
    }

    ReplayCore(const ReplayCore &) = delete;
    ReplayCore &operator=(const ReplayCore &) = delete;

    CoreModel &core() { return *model; }

    Cycle
    load(std::uint64_t pc, Addr addr, Cycle issue,
         bool &l1_miss) override
    {
        tracer.setInstr(id, model->retired());
        auto span = tracer.scope(Layer::kMem);
        ++stats.loads;
        const Addr line = lineNumber(addr);
        const bool predicting = ocp && decision.ocpEnable;
        bool pred = false;
        if (predicting) {
            auto s = tracer.scope(Layer::kOcp);
            pred = ocp->predictDemand(pc, addr);
        }

        bool offchip = false;
        Cycle done = 0;
        const CacheLookup r1 = access(l1, Layer::kL1d, line, issue);
        trigger(CacheLevel::kL1D, pc, addr, r1.hit, issue);
        l1_miss = !r1.hit;
        if (r1.hit) {
            used(r1, issue);
            done = std::max(issue + sh.latL1, r1.readyAt);
        } else {
            const CacheLookup r2 = access(l2, Layer::kL2c, line, issue);
            trigger(CacheLevel::kL2C, pc, addr, r2.hit, issue);
            if (r2.hit) {
                used(r2, issue);
                done = std::max(issue + sh.latL2, r2.readyAt);
            } else {
                const BankedRef ref = sh.llc.ref(line);
                CacheLookup r3;
                {
                    auto s = tracer.scope(Layer::kLlc);
                    r3 = sh.llc.access(ref, issue);
                }
                if (r3.hit) {
                    used(r3, issue);
                    done = std::max(issue + sh.latLlc, r3.readyAt);
                } else {
                    offchip = true;
                    {
                        auto s = tracer.scope(Layer::kDram);
                        done = pred
                                   ? std::max(
                                         sh.dram.serve(
                                             issue + sh.ocpLatency,
                                             line, AccessType::kOcp),
                                         issue + sh.latL1)
                                   : sh.dram.serve(
                                         issue + sh.latLlc, line,
                                         AccessType::kDemandLoad);
                    }
                    fillLlc(ref, line, issue, done, false);
                    ++window.llcMisses;
                    window.llcMissLatency += done - issue;
                }
                ++window.llcDemandAccesses;
                fill(l2, Layer::kL2c, line, issue, done);
            }
            fill(l1, Layer::kL1d, line, issue, done);
        }

        // A wrong off-chip prediction still spent a DRAM transfer.
        if (pred && !offchip) {
            auto s = tracer.scope(Layer::kDram);
            sh.dram.serve(issue + sh.ocpLatency, line,
                          AccessType::kOcp);
        }
        if (pred) {
            ++window.ocpPredictions;
            if (offchip)
                ++window.ocpCorrect;
        }
        if (predicting) {
            auto s = tracer.scope(Layer::kOcp);
            ocp->trainDemand(pc, addr, offchip);
        }
        maybeEndEpoch();
        return done;
    }

    void
    store(std::uint64_t pc, Addr addr, Cycle cycle) override
    {
        tracer.setInstr(id, model->retired());
        auto span = tracer.scope(Layer::kMem);
        const Addr line = lineNumber(addr);
        const CacheLookup r1 = access(l1, Layer::kL1d, line, cycle);
        trigger(CacheLevel::kL1D, pc, addr, r1.hit, cycle);
        if (r1.hit) {
            used(r1, cycle);
            return;
        }
        const CacheLookup r2 = access(l2, Layer::kL2c, line, cycle);
        trigger(CacheLevel::kL2C, pc, addr, r2.hit, cycle);
        if (r2.hit) {
            used(r2, cycle);
            fill(l1, Layer::kL1d, line, cycle, cycle + sh.latL2);
            return;
        }
        const BankedRef ref = sh.llc.ref(line);
        CacheLookup r3;
        {
            auto s = tracer.scope(Layer::kLlc);
            r3 = sh.llc.access(ref, cycle);
        }
        Cycle done = cycle + sh.latLlc;
        if (r3.hit) {
            used(r3, cycle);
        } else {
            {
                auto s = tracer.scope(Layer::kDram);
                done = sh.dram.serve(cycle + sh.latLlc, line,
                                     AccessType::kDemandStore);
            }
            fillLlc(ref, line, cycle, done, false);
        }
        fill(l2, Layer::kL2c, line, cycle, done);
        fill(l1, Layer::kL1d, line, cycle, done);
    }

  private:
    CacheLookup
    access(Cache &c, Layer layer, Addr line, Cycle now)
    {
        auto s = tracer.scope(layer);
        return c.access(line, now);
    }

    void
    fill(Cache &c, Layer layer, Addr line, Cycle now, Cycle ready)
    {
        auto s = tracer.scope(layer);
        c.fill(line, now, ready, false);
    }

    void
    fillLlc(const BankedRef &ref, Addr line, Cycle now, Cycle ready,
            bool is_prefetch)
    {
        CacheEviction ev;
        {
            auto s = tracer.scope(Layer::kLlc);
            ev = sh.llc.fill(ref, now, ready, is_prefetch, kNoSlot, 0,
                             is_prefetch);
        }
        if (ocp) {
            auto s = tracer.scope(Layer::kOcp);
            if (ev.evictedValid)
                ocp->onEvict(ev.evictedLine);
            ocp->onFill(line);
        }
    }

    /** Demand touch of a prefetched line: usage feedback. */
    void
    used(const CacheLookup &r, Cycle demand)
    {
        if (!r.firstPrefetchTouch || r.pfSlot >= pfs.size())
            return;
        auto s = tracer.scope(slotLayer(r.pfSlot));
        ++window.pfUsed[r.pfSlot];
        pfs[r.pfSlot]->onPrefetchUsed(r.pfMeta, r.readyAt <= demand);
    }

    /** An untouched prefetched line left a private level. */
    void
    useless(const CacheEviction &ev)
    {
        if (!ev.evictedUnusedPrefetch || ev.evictedPfSlot >= pfs.size())
            return;
        auto s = tracer.scope(slotLayer(ev.evictedPfSlot));
        pfs[ev.evictedPfSlot]->onPrefetchUseless(ev.evictedPfMeta);
    }

    void
    trigger(CacheLevel level, std::uint64_t pc, Addr addr, bool hit,
            Cycle cycle)
    {
        const PrefetchTrigger t{pc, addr, hit, cycle};
        const unsigned lvl = level == CacheLevel::kL1D ? 0 : 1;
        for (unsigned slot : levelSlots[lvl]) {
            Prefetcher &pf = *pfs[slot];
            auto s = tracer.scope(slotLayer(slot));
            ++stats.observes[slot];
            // A gated prefetcher still trains; only issue stops.
            const bool gated =
                !decision.pfEnabled(slot) || pf.degree() == 0;
            CandidateVec cands;
            pf.observe(t, cands);
            for (const PrefetchCandidate &cand : cands) {
                if (gated)
                    pf.onPrefetchDropped(cand.meta);
                else
                    issue(slot, cand, cycle);
            }
        }
    }

    void
    issue(unsigned slot, const PrefetchCandidate &cand, Cycle cycle)
    {
        Prefetcher &pf = *pfs[slot];
        const Addr line = cand.lineNum;
        const bool at_l1 = pf.level() == CacheLevel::kL1D;
        Cache &own = at_l1 ? l1 : l2;
        const Layer own_layer = at_l1 ? Layer::kL1d : Layer::kL2c;
        bool resident = false;
        {
            auto s = tracer.scope(own_layer);
            resident = own.contains(line);
        }
        if (resident) {
            pf.onPrefetchDropped(cand.meta);
            return;
        }

        bool in_l2 = false;
        if (at_l1) {
            auto s = tracer.scope(Layer::kL2c);
            in_l2 = l2.touch(line);
        }
        Cycle ready = cycle + sh.latL2;
        bool from_dram = false;
        if (!in_l2) {
            const BankedRef ref = sh.llc.ref(line);
            bool in_llc = false;
            {
                auto s = tracer.scope(Layer::kLlc);
                in_llc = sh.llc.touch(ref);
            }
            ready = cycle + sh.latLlc;
            if (!in_llc) {
                {
                    auto s = tracer.scope(Layer::kDram);
                    ready = sh.dram.serve(cycle + sh.latLlc, line,
                                          AccessType::kPrefetch);
                }
                from_dram = true;
                fillLlc(ref, line, cycle, ready, true);
                if (at_l1) {
                    auto s = tracer.scope(Layer::kL2c);
                    l2.fill(line, cycle, ready, true, kNoSlot, 0, true);
                }
            }
        }
        CacheEviction ev;
        {
            auto s = tracer.scope(own_layer);
            ev = own.fill(line, cycle, ready, true,
                          static_cast<std::uint8_t>(slot), cand.meta,
                          from_dram);
        }
        useless(ev);
        ++window.pfIssued[slot];
    }

    void
    maybeEndEpoch()
    {
        const std::uint64_t retired = model->retired();
        if (retired < epochStartInstr + sh.epochLen)
            return;
        const Cycle now = model->now();
        const CoreCounters &cs = model->counters();
        EpochStats st = window;
        st.instructions = retired - epochStartInstr;
        st.cycles = now > epochStartCycle ? now - epochStartCycle : 1;
        st.loads = cs.loads - epochStart.loads;
        st.branches = cs.branches - epochStart.branches;
        st.branchMispredicts =
            cs.branchMispredicts - epochStart.branchMispredicts;
        const DramCounters life = sh.dram.lifetime();
        st.dramDemand = life.demandRequests - lastDram.demandRequests;
        st.dramPrefetch =
            life.prefetchRequests - lastDram.prefetchRequests;
        st.dramOcp = life.ocpRequests - lastDram.ocpRequests;
        st.bandwidthUsage = std::min(
            1.0, static_cast<double>(life.busBusyCycles -
                                     lastDram.busBusyCycles) /
                     static_cast<double>(st.cycles) /
                     static_cast<double>(sh.cores) /
                     static_cast<double>(sh.channels));
        {
            auto s = tracer.scope(Layer::kCoord);
            decision = policy->onEpochEnd(st);
        }
        for (unsigned slot = 0; slot < pfs.size(); ++slot) {
            auto s = tracer.scope(slotLayer(slot));
            Prefetcher &pf = *pfs[slot];
            auto d = static_cast<unsigned>(
                std::floor(decision.degreeScale[slot] *
                           static_cast<double>(pf.maxDegree())));
            if (decision.pfEnabled(slot) && d == 0)
                d = 1;
            pf.setDegree(d);
            pf.onEpochEnd(st.bandwidthUsage);
        }
        window = EpochStats{};
        epochStartInstr = retired;
        epochStartCycle = now;
        epochStart = cs;
        lastDram = life;
    }

    unsigned id;
    Shared &sh;
    Tracer &tracer;
    ReplayStats &stats;
    TracedStream stream;
    Cache l1;
    Cache l2;
    std::vector<std::unique_ptr<Prefetcher>> pfs;
    std::array<std::vector<unsigned>, 2> levelSlots;
    std::unique_ptr<OffChipPredictor> ocp;
    std::unique_ptr<CoordinationPolicy> policy;
    CoordDecision decision;
    EpochStats window;
    std::uint64_t epochStartInstr = 0;
    Cycle epochStartCycle = 0;
    CoreCounters epochStart;
    DramCounters lastDram;
    /** Last: it refers to stream and to this interface. */
    std::unique_ptr<CoreModel> model;
};

} // namespace

ReplayStats
replay(const Workload &w, Tracer &tracer)
{
    const SystemConfig &cfg = w.cfg;
    if (w.specs.size() != cfg.cores)
        throw std::invalid_argument(
            "workload count must equal core count");
    ReplayStats stats;
    Shared shared(cfg);
    std::vector<std::unique_ptr<ReplayCore>> cores;
    for (unsigned c = 0; c < cfg.cores; ++c)
        cores.push_back(
            std::make_unique<ReplayCore>(w, c, shared, tracer, stats));

    const std::uint64_t total = w.warmup + w.measured;
    std::vector<CoreCounters> at_warmup(cfg.cores);
    std::vector<std::uint8_t> started(cfg.cores, 0);
    // The measured window opens the moment a core retires its warmup
    // instructions, as in Simulator::checkWarmup.
    auto check_warmup = [&](unsigned c) {
        CoreModel &core = cores[c]->core();
        if (!started[c] && core.retired() >= w.warmup) {
            started[c] = 1;
            at_warmup[c] = core.counters();
        }
    };
    for (unsigned c = 0; c < cfg.cores; ++c)
        check_warmup(c);

    const auto t0 = std::chrono::steady_clock::now();
    if (cfg.cores == 1) {
        CoreModel &core = cores[0]->core();
        while (core.retired() < total && !core.finished()) {
            const std::uint64_t stop =
                core.retired() < w.warmup ? w.warmup : total;
            const std::uint64_t n =
                std::min(kChunk, stop - core.retired());
            {
                tracer.setInstr(0, core.retired());
                auto s = tracer.scope(Layer::kCpu);
                core.stepN(n);
            }
            check_warmup(0);
        }
    } else {
        // Sequential least-advanced-core schedule, as Simulator's
        // sequential engine steps it.
        StepPicker picker(cfg.cores);
        for (;;) {
            unsigned pick = 0;
            {
                tracer.setInstr(kScheduler, stats.steps);
                auto s = tracer.scope(Layer::kPick);
                if (picker.empty())
                    break;
                pick = picker.top();
            }
            CoreModel &core = cores[pick]->core();
            for (bool again = true; again;) {
                {
                    tracer.setInstr(pick, core.retired());
                    auto s = tracer.scope(Layer::kCpu);
                    core.step();
                }
                ++stats.steps;
                check_warmup(pick);
                tracer.setInstr(kScheduler, stats.steps);
                auto s = tracer.scope(Layer::kPick);
                if (core.finished() || core.retired() >= total) {
                    picker.finish(pick);
                    again = false;
                } else if (!picker.stillTop(pick, core.now())) {
                    picker.advance(pick, core.now());
                    again = false;
                }
            }
        }
    }
    stats.wallSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    for (unsigned c = 0; c < cfg.cores; ++c) {
        const CoreModel &core = cores[c]->core();
        const CoreCounters &end = core.counters();
        stats.instructions += core.retired();
        if (!started[c])
            continue;
        stats.measuredInstructions +=
            end.instructions - at_warmup[c].instructions;
        stats.measuredLoads += end.loads - at_warmup[c].loads;
        stats.measuredStores += end.stores - at_warmup[c].stores;
    }
    return stats;
}

} // namespace perfbench
