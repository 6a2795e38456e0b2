/**
 * @file
 * Core timing model tests: branch predictor learning, dispatch
 * width, ROB occupancy stalls, load-dependency serialization,
 * critical-consumer stalls, and MSHR-bounded MLP.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <vector>

#include "common/hashing.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "cpu/core_model.hh"

namespace athena
{
namespace
{

/** Scripted workload: replays a fixed record sequence. */
class ScriptedWorkload : public WorkloadGenerator
{
  public:
    explicit ScriptedWorkload(std::vector<TraceRecord> records)
        : records(std::move(records))
    {}

    void reset() override { pos = 0; }

    TraceRecord
    next() override
    {
        TraceRecord r = records[pos % records.size()];
        ++pos;
        return r;
    }

  private:
    std::vector<TraceRecord> records;
    std::size_t pos = 0;
};

/** Memory with a fixed load latency and hit/miss script. */
class FixedLatencyMemory : public MemoryInterface
{
  public:
    explicit FixedLatencyMemory(Cycle latency, bool miss = false)
        : latency(latency), miss(miss)
    {}

    Cycle
    load(std::uint64_t, Addr, Cycle issue, bool &l1_miss) override
    {
        ++loads;
        l1_miss = miss;
        return issue + latency;
    }

    void store(std::uint64_t, Addr, Cycle) override { ++stores; }

    Cycle latency;
    bool miss;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
};

/**
 * Transcription of the pre-rewrite SatCounter<2> gshare, kept
 * independent of the production BranchPredictor so the oracle also
 * validates the byte-PHT rewrite (reset value, taken threshold,
 * saturation) instead of sharing it with the unit under test.
 */
class ReferenceGshare
{
  public:
    explicit ReferenceGshare(unsigned table_bits = 14)
        : tableBits(table_bits),
          table(1ull << table_bits, SatCounter<2>())
    {}

    bool
    predictAndTrain(std::uint64_t pc, bool taken)
    {
        std::uint64_t mask = (1ull << tableBits) - 1;
        std::uint64_t idx = (mix64(pc) ^ history) & mask;
        bool prediction = table[idx].taken();
        table[idx].update(taken);
        history = ((history << 1) | (taken ? 1 : 0)) & mask;
        return prediction == taken;
    }

  private:
    unsigned tableBits;
    std::uint64_t history = 0;
    std::vector<SatCounter<2>> table;
};

/**
 * Direct transcription of the pre-SoA pull-one-instruction-at-a-time
 * CoreModel::step() (ring-vector ROB, unsorted-vector MSHRs,
 * SatCounter gshare): the bit-equivalence oracle for the batched/SoA
 * stepping pipeline. Any divergence in a completion cycle, a
 * counter, or a memory-call sequence is a regression in the rewrite,
 * not a tolerance.
 */
class ReferenceCore
{
  public:
    ReferenceCore(const CoreParams &params, WorkloadGenerator &wl,
                  MemoryInterface &mem)
        : cfg(params), workload(wl), memory(mem)
    {
        rob.resize(cfg.robSize ? cfg.robSize : 1, 0);
    }

    Cycle
    step()
    {
        if (robCount >= cfg.robSize) {
            Cycle freed = retireHead();
            if (freed > dispatchCycle) {
                dispatchCycle = freed;
                dispatchSlots = 0;
            }
        }
        if (dispatchSlots >= cfg.width) {
            ++dispatchCycle;
            dispatchSlots = 0;
        }
        ++dispatchSlots;
        Cycle disp = dispatchCycle;

        TraceRecord rec = workload.next();
        ++instructions;

        Cycle completion = disp + cfg.aluLatency;
        switch (rec.kind) {
          case InstrKind::kAlu:
            break;
          case InstrKind::kBranch:
            {
                bool correct =
                    predictor.predictAndTrain(rec.pc, rec.taken);
                if (!correct) {
                    Cycle resume =
                        completion + cfg.mispredictPenalty;
                    if (resume > dispatchCycle) {
                        dispatchCycle = resume;
                        dispatchSlots = 0;
                    }
                }
                break;
            }
          case InstrKind::kStore:
            memory.store(rec.pc, rec.addr, disp);
            break;
          case InstrKind::kLoad:
            {
                Cycle issue = disp;
                if (rec.dependsOnPrevLoad)
                    issue = std::max(issue, prevLoadComplete);
                for (std::size_t k = 0; k < misses.size();) {
                    if (misses[k] <= issue) {
                        misses[k] = misses.back();
                        misses.pop_back();
                    } else {
                        ++k;
                    }
                }
                if (misses.size() >= cfg.l1Mshrs) {
                    std::size_t m = 0;
                    for (std::size_t k = 1; k < misses.size(); ++k) {
                        if (misses[k] < misses[m])
                            m = k;
                    }
                    issue = misses[m];
                    misses[m] = misses.back();
                    misses.pop_back();
                }
                bool l1_miss = false;
                completion =
                    memory.load(rec.pc, rec.addr, issue, l1_miss);
                if (l1_miss)
                    misses.push_back(completion);
                prevLoadComplete = completion;
                if (rec.criticalConsumer &&
                    completion > dispatchCycle) {
                    dispatchCycle = completion;
                    dispatchSlots = 0;
                }
                break;
            }
        }

        std::size_t tail = robHead + robCount;
        if (tail >= rob.size())
            tail -= rob.size();
        rob[tail] = completion;
        ++robCount;
        frontier = std::max(frontier, completion);
        return completion;
    }

    Cycle now() const { return frontier; }
    std::uint64_t retired() const { return instructions; }

  private:
    Cycle
    retireHead()
    {
        Cycle completion = rob[robHead];
        robHead = robHead + 1 == rob.size() ? 0 : robHead + 1;
        --robCount;
        Cycle t = std::max(completion, lastRetireCycle);
        if (t == lastRetireCycle) {
            if (retireSlots >= cfg.width) {
                ++t;
                retireSlots = 1;
            } else {
                ++retireSlots;
            }
        } else {
            retireSlots = 1;
        }
        lastRetireCycle = t;
        return t;
    }

    CoreParams cfg;
    WorkloadGenerator &workload;
    MemoryInterface &memory;
    ReferenceGshare predictor;
    std::vector<Cycle> rob;
    std::vector<Cycle> misses;
    unsigned robHead = 0;
    unsigned robCount = 0;
    Cycle dispatchCycle = 0;
    unsigned dispatchSlots = 0;
    Cycle lastRetireCycle = 0;
    unsigned retireSlots = 0;
    Cycle prevLoadComplete = 0;
    Cycle frontier = 0;
    std::uint64_t instructions = 0;
};

/**
 * Deterministic mixed-kind stream with random dependency/critical
 * flags; exercises every execute() path including MSHR pressure.
 * Uses the default nextBatch() shim, so batched consumers replay
 * the exact next() sequence.
 */
class RandomKindWorkload : public WorkloadGenerator
{
  public:
    explicit RandomKindWorkload(std::uint64_t seed)
        : seed(seed), rng(seed)
    {}

    void reset() override { rng = Rng(seed); }

    TraceRecord
    next() override
    {
        TraceRecord r;
        std::uint64_t roll = rng.next() % 100;
        if (roll < 35) {
            r.kind = InstrKind::kLoad;
            r.addr = (rng.next() % (1ull << 24)) * 8;
            r.dependsOnPrevLoad = rng.chance(0.2);
            r.criticalConsumer = rng.chance(0.3);
            r.pc = 0x2000 + (rng.next() % 8) * 0x10;
        } else if (roll < 45) {
            r.kind = InstrKind::kStore;
            r.addr = (rng.next() % (1ull << 24)) * 8;
            r.pc = 0x3000;
        } else if (roll < 60) {
            r.kind = InstrKind::kBranch;
            r.pc = 0x600 + 0x8 * (rng.next() % 16);
            r.taken = rng.chance(0.5);
        } else {
            r.kind = InstrKind::kAlu;
            r.pc = 0x1000;
        }
        return r;
    }

  private:
    std::uint64_t seed;
    Rng rng;
};

/**
 * Memory whose latency and miss flag are pure hashes of (pc, addr)
 * and that fingerprints every call (order, issue cycles, results),
 * so two identically driven cores can be compared exactly.
 */
class HashLatencyMemory : public MemoryInterface
{
  public:
    Cycle
    load(std::uint64_t pc, Addr addr, Cycle issue,
         bool &l1_miss) override
    {
        std::uint64_t h = mix64(addr ^ (pc << 1));
        l1_miss = (h & 3) != 0; // 75% L1 miss
        Cycle latency = l1_miss ? 50 + (h % 400) : 4;
        ++loads;
        signature = mix64(signature ^ (issue * 31 + addr));
        return issue + latency;
    }

    void
    store(std::uint64_t, Addr addr, Cycle cycle) override
    {
        ++stores;
        signature = mix64(signature ^ (cycle + addr));
    }

    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t signature = 0;
};

TraceRecord
alu()
{
    TraceRecord r;
    r.kind = InstrKind::kAlu;
    r.pc = 0x1000;
    return r;
}

TraceRecord
load(Addr addr, bool dep = false, bool critical = false)
{
    TraceRecord r;
    r.kind = InstrKind::kLoad;
    r.pc = 0x2000;
    r.addr = addr;
    r.dependsOnPrevLoad = dep;
    r.criticalConsumer = critical;
    return r;
}

TraceRecord
branch(std::uint64_t pc, bool taken)
{
    TraceRecord r;
    r.kind = InstrKind::kBranch;
    r.pc = pc;
    r.taken = taken;
    return r;
}

TEST(BranchPredictor, LearnsBiasedBranch)
{
    BranchPredictor bp(10);
    for (int i = 0; i < 2000; ++i)
        bp.predictAndTrain(0x400, true);
    double rate = static_cast<double>(bp.statMispredicts) /
                  static_cast<double>(bp.statLookups);
    EXPECT_LT(rate, 0.02);
}

TEST(BranchPredictor, LearnsAlternatingPattern)
{
    BranchPredictor bp(12);
    for (int i = 0; i < 4000; ++i)
        bp.predictAndTrain(0x400, i % 2 == 0);
    // gshare captures period-2 patterns via history.
    double rate = static_cast<double>(bp.statMispredicts) /
                  static_cast<double>(bp.statLookups);
    EXPECT_LT(rate, 0.10);
}

TEST(BranchPredictor, ResetClearsStats)
{
    BranchPredictor bp(8);
    bp.predictAndTrain(1, true);
    bp.reset();
    EXPECT_EQ(bp.statLookups, 0u);
    EXPECT_EQ(bp.statMispredicts, 0u);
}

TEST(CoreModel, DispatchWidthBoundsIpc)
{
    ScriptedWorkload w({alu()});
    FixedLatencyMemory mem(1);
    CoreParams cfg;
    cfg.width = 6;
    CoreModel core(cfg, w, mem);
    for (int i = 0; i < 6000; ++i)
        core.step();
    EXPECT_LE(core.ipc(), 6.05);
    EXPECT_GT(core.ipc(), 5.0); // pure ALU should run near width
}

TEST(CoreModel, RobLimitsInFlightLatency)
{
    // Every load misses with a 400-cycle latency; with a 64-entry
    // ROB and loads every 4 instructions, only ~16 loads can be in
    // flight, so IPC is bounded by ROB/(latency) * spacing.
    ScriptedWorkload w({load(0x1000000), alu(), alu(), alu()});
    FixedLatencyMemory mem(400, true);
    CoreParams cfg;
    cfg.robSize = 64;
    cfg.l1Mshrs = 64;
    CoreModel core(cfg, w, mem);
    for (int i = 0; i < 40000; ++i)
        core.step();
    double ipc_rob = core.ipc();

    ScriptedWorkload w2({load(0x1000000), alu(), alu(), alu()});
    FixedLatencyMemory mem2(400, true);
    CoreParams cfg2;
    cfg2.robSize = 512;
    cfg2.l1Mshrs = 64;
    CoreModel core2(cfg2, w2, mem2);
    for (int i = 0; i < 40000; ++i)
        core2.step();
    EXPECT_GT(core2.ipc(), ipc_rob * 2.0)
        << "a larger ROB must expose more MLP";
}

TEST(CoreModel, DependentLoadsSerialize)
{
    ScriptedWorkload indep({load(0), alu()});
    FixedLatencyMemory mem(200, true);
    CoreModel core_indep(CoreParams{}, indep, mem);
    for (int i = 0; i < 20000; ++i)
        core_indep.step();

    ScriptedWorkload dep({load(0, true), alu()});
    FixedLatencyMemory mem2(200, true);
    CoreModel core_dep(CoreParams{}, dep, mem2);
    for (int i = 0; i < 20000; ++i)
        core_dep.step();

    EXPECT_GT(core_indep.ipc(), core_dep.ipc() * 5.0)
        << "pointer chasing must destroy MLP";
}

TEST(CoreModel, CriticalConsumerStallsDispatch)
{
    ScriptedWorkload normal({load(0), alu(), alu(), alu()});
    FixedLatencyMemory mem(300, true);
    CoreModel core_normal(CoreParams{}, normal, mem);
    for (int i = 0; i < 20000; ++i)
        core_normal.step();

    ScriptedWorkload crit({load(0, false, true), alu(), alu(),
                           alu()});
    FixedLatencyMemory mem2(300, true);
    CoreModel core_crit(CoreParams{}, crit, mem2);
    for (int i = 0; i < 20000; ++i)
        core_crit.step();

    EXPECT_GT(core_normal.ipc(), core_crit.ipc() * 3.0)
        << "critical consumers must expose load latency";
}

TEST(CoreModel, MshrLimitThrottlesMissParallelism)
{
    ScriptedWorkload w({load(0)});
    FixedLatencyMemory mem(400, true);
    CoreParams few;
    few.l1Mshrs = 2;
    CoreModel core_few(few, w, mem);
    for (int i = 0; i < 20000; ++i)
        core_few.step();

    ScriptedWorkload w2({load(0)});
    FixedLatencyMemory mem2(400, true);
    CoreParams many;
    many.l1Mshrs = 64;
    CoreModel core_many(many, w2, mem2);
    for (int i = 0; i < 20000; ++i)
        core_many.step();

    EXPECT_GT(core_many.ipc(), core_few.ipc() * 2.0);
}

TEST(CoreModel, MispredictsInjectBubbles)
{
    // Truly random branch outcomes (a finite scripted replay would
    // be *learnable* by gshare): ~50% mispredicts, each a 17-cycle
    // redirect.
    class RandomBranches : public WorkloadGenerator
    {
      public:
        void reset() override { rng = Rng(5); }
        TraceRecord
        next() override
        {
            return branch(0x600, rng.chance(0.5));
        }

      private:
        Rng rng{5};
    };
    RandomBranches w;
    FixedLatencyMemory mem(1);
    CoreModel core(CoreParams{}, w, mem);
    for (int i = 0; i < 30000; ++i)
        core.step();
    EXPECT_LT(core.ipc(), 0.5);
    EXPECT_GT(core.counters().branchMispredicts, 5000u);
}

TEST(CoreModel, CountersTrackKinds)
{
    ScriptedWorkload w({load(0), alu(), branch(0x600, true),
                        [] {
                            TraceRecord r;
                            r.kind = InstrKind::kStore;
                            r.pc = 0x3000;
                            r.addr = 64;
                            return r;
                        }()});
    FixedLatencyMemory mem(1);
    CoreModel core(CoreParams{}, w, mem);
    for (int i = 0; i < 400; ++i)
        core.step();
    EXPECT_EQ(core.counters().instructions, 400u);
    EXPECT_EQ(core.counters().loads, 100u);
    EXPECT_EQ(core.counters().stores, 100u);
    EXPECT_EQ(core.counters().branches, 100u);
    EXPECT_EQ(mem.loads, 100u);
    EXPECT_EQ(mem.stores, 100u);
}

TEST(CoreModel, BitEquivalentToReferenceOracle)
{
    // The SoA/batched pipeline against the pre-refactor oracle,
    // across configs that hit the interesting boundaries: tiny
    // window + single MSHR, window an exact multiple of the width,
    // non-multiple window, and the Table 5 default.
    struct Cfg
    {
        unsigned rob, width, mshrs;
    };
    const Cfg cfgs[] = {
        {8, 2, 1}, {12, 6, 2}, {13, 6, 2}, {64, 4, 64}, {512, 6, 16}};
    for (const Cfg &c : cfgs) {
        CoreParams params;
        params.robSize = c.rob;
        params.width = c.width;
        params.l1Mshrs = c.mshrs;

        RandomKindWorkload w1(99), w2(99);
        HashLatencyMemory m1, m2;
        CoreModel core(params, w1, m1);
        ReferenceCore ref(params, w2, m2);
        for (int i = 0; i < 30000; ++i) {
            Cycle a = core.step();
            Cycle b = ref.step();
            ASSERT_EQ(a, b) << "rob=" << c.rob << " width="
                            << c.width << " mshrs=" << c.mshrs
                            << " step " << i;
        }
        EXPECT_EQ(core.now(), ref.now());
        EXPECT_EQ(m1.signature, m2.signature)
            << "memory call sequence diverged";
        EXPECT_EQ(m1.loads, m2.loads);
        EXPECT_EQ(m1.stores, m2.stores);
    }
}

TEST(CoreModel, StepNMatchesStepExactly)
{
    // stepN's span loop and step()'s one-at-a-time path must be the
    // same machine; drive two cores through irregular chunk sizes.
    CoreParams params;
    params.robSize = 48;
    params.l1Mshrs = 4;
    RandomKindWorkload w1(7), w2(7);
    HashLatencyMemory m1, m2;
    CoreModel a(params, w1, m1);
    CoreModel b(params, w2, m2);

    std::uint64_t total = 20000;
    for (std::uint64_t i = 0; i < total; ++i)
        a.step();
    std::uint64_t chunks[] = {1, 7, 300, 256, 3, 9000, 64};
    std::uint64_t done = 0;
    for (std::uint64_t c : chunks) {
        b.stepN(c);
        done += c;
    }
    b.stepN(total - done);

    EXPECT_EQ(a.now(), b.now());
    EXPECT_EQ(a.retired(), b.retired());
    EXPECT_EQ(a.counters().loads, b.counters().loads);
    EXPECT_EQ(a.counters().branchMispredicts,
              b.counters().branchMispredicts);
    EXPECT_EQ(m1.signature, m2.signature);
}

TEST(CoreModel, StepBurstStopsWhereStepWould)
{
    // stepBurst must execute exactly the instructions step() gives
    // while the frontier stays below the bound, the first one past
    // it included, also when that one is the last record of a
    // 256-record span.
    CoreParams params;
    params.robSize = 48;
    params.l1Mshrs = 4;
    RandomKindWorkload w1(11), w2(11);
    HashLatencyMemory m1, m2;
    CoreModel ref(params, w1, m1);
    CoreModel burst(params, w2, m2);
    Rng rng(5);
    unsigned span_edge_stops = 0;
    for (int b = 0; b < 4000; ++b) {
        const Cycle bound = burst.now() + rng.below(400);
        const bool tie_ok = rng.chance(0.5);
        const std::uint64_t n = 1 + rng.below(700);
        std::uint64_t want = 0;
        bool below = true;
        while (below && want < n) {
            ref.step();
            ++want;
            below = ref.now() < bound || (ref.now() == bound && tie_ok);
        }
        ASSERT_EQ(burst.stepBurst(n, bound, tie_ok), want)
            << "burst " << b;
        ASSERT_EQ(burst.now(), ref.now()) << "burst " << b;
        if (!below && burst.retired() % 256 == 0)
            ++span_edge_stops;
    }
    EXPECT_EQ(burst.retired(), ref.retired());
    EXPECT_EQ(burst.counters().loads, ref.counters().loads);
    EXPECT_EQ(m1.signature, m2.signature);
    EXPECT_GT(span_edge_stops, 0u);
}

TEST(CoreModel, MshrExactlyFullStallSchedule)
{
    // All-miss loads with 2 MSHRs and a 100-cycle latency: loads
    // 2k and 2k+1 complete at 100 * (k + 1) — the (2k)-th load
    // finds the MSHRs exactly full and must inherit the earliest
    // outstanding completion as its issue cycle.
    ScriptedWorkload w({load(0x1000000)});
    FixedLatencyMemory mem(100, true);
    CoreParams cfg;
    cfg.l1Mshrs = 2;
    CoreModel core(cfg, w, mem);
    for (int i = 0; i < 60; ++i) {
        Cycle completion = core.step();
        EXPECT_EQ(completion,
                  100u * (static_cast<Cycle>(i) / 2 + 1))
            << "load " << i;
    }
}

TEST(CoreModel, RetireWidthBurstAtWindowBoundary)
{
    // ALU-only with the window full from step robSize onward: every
    // step retires exactly one head under the commit-width
    // constraint, so occupancy pins at robSize and IPC converges to
    // the width.
    ScriptedWorkload w({alu()});
    FixedLatencyMemory mem(1);
    CoreParams cfg;
    cfg.robSize = 12;
    cfg.width = 2;
    CoreModel core(cfg, w, mem);
    for (int i = 0; i < 6000; ++i) {
        core.step();
        ASSERT_LE(core.robOccupancy(), cfg.robSize);
    }
    EXPECT_EQ(core.robOccupancy(), cfg.robSize);
    EXPECT_NEAR(core.ipc(), 2.0, 0.05);
}

TEST(CoreModel, RobOccupancyNeverExceedsWindow)
{
    // Property sweep: at most one head retires per dispatched
    // instruction when the window is full, so occupancy can never
    // exceed robSize — across widths that divide the window evenly
    // and ones that do not, under miss-heavy random traffic, for
    // both stepping APIs.
    struct Cfg
    {
        unsigned rob, width, mshrs;
    };
    const Cfg cfgs[] = {{6, 6, 2}, {8, 3, 1}, {32, 5, 4},
                        {48, 6, 16}};
    for (const Cfg &c : cfgs) {
        CoreParams params;
        params.robSize = c.rob;
        params.width = c.width;
        params.l1Mshrs = c.mshrs;

        RandomKindWorkload w(c.rob * 31 + c.width);
        HashLatencyMemory mem;
        CoreModel core(params, w, mem);
        for (int i = 0; i < 8000; ++i) {
            core.step();
            ASSERT_LE(core.robOccupancy(), c.rob)
                << "rob=" << c.rob << " width=" << c.width
                << " step " << i;
        }

        RandomKindWorkload wb(c.rob * 31 + c.width);
        HashLatencyMemory memb;
        CoreModel burst(params, wb, memb);
        for (int i = 0; i < 100; ++i) {
            burst.stepN(80);
            ASSERT_LE(burst.robOccupancy(), c.rob);
        }
        EXPECT_EQ(core.now(), burst.now());
    }
}

TEST(CoreModel, ResetRestoresInitialState)
{
    ScriptedWorkload w({load(0), alu()});
    FixedLatencyMemory mem(10);
    CoreModel core(CoreParams{}, w, mem);
    for (int i = 0; i < 100; ++i)
        core.step();
    core.reset();
    EXPECT_EQ(core.retired(), 0u);
    EXPECT_EQ(core.now(), 0u);
}

} // namespace
} // namespace athena
