/**
 * @file
 * ParallelStepper: the deterministic parallel multi-core stepping
 * engine's coordination core (conservative-lookahead PDES), with
 * per-shard commit bookkeeping for the sharded shared-memory plane
 * (banked LLC + channeled DRAM).
 *
 * The sequential multi-core engine steps one instruction at a time
 * on the globally least-advanced core (StepPicker: argmin over
 * (now, core index)). The only cross-core coupling points are the
 * shared LLC banks and the DRAM channels — everything else a step
 * touches (core pipeline, L1/L2, branch predictor, prefetchers,
 * policy, workload cursor) is private to its core. So the stepping
 * schedule is only *observable* through the order in which steps
 * touch shared state, and that order is fully determined by each
 * shared-touching step's key: the core's frontier cycle immediately
 * before the step, tie-broken by core index — exactly the
 * StepPicker key the sequential engine picks by.
 *
 * The parallel engine exploits this: every core runs on its own
 * thread, publishing its pre-step frontier (`bound`) before each
 * instruction. Private work proceeds concurrently without any
 * synchronization. The first shared touch inside a step parks the
 * core until its (bound, index) pair is the global minimum over all
 * live cores — i.e. until every step the sequential schedule orders
 * before it has committed and no other core can still produce an
 * earlier-keyed shared access (each core's bound is a lower bound
 * on all its future step keys, because frontiers are monotone).
 * Once granted, the remainder of the step's shared accesses run
 * under exclusive ownership of the shared state; the grant is
 * released by the core's next bound publication (or its terminal
 * `done`), whose release-store is what hands shared-state
 * visibility to the next granted core.
 *
 * Sharding note: the grant is deliberately *global* — one turn
 * covers every bank and channel — even though the shared plane is
 * sharded. A genuinely per-shard grant (spin only until lex-min
 * *for the shard being touched*) is unsound under this protocol,
 * because a step's shard footprint is dynamic: the same step can
 * touch LLC bank b, then DRAM channel m, then bank b again (miss →
 * fill), prefetcher-generated addresses land in arbitrary shards,
 * and epoch-boundary sampling reads every channel — so a core
 * granted on one shard could still race an earlier-keyed core on a
 * shard it discovers mid-step. Without a declared-footprint
 * mechanism, the pre-step frontier is the tightest sound bound.
 * What sharding buys today: (1) only the *first* shared touch of a
 * step waits — subsequent same-step touches of any shard are free;
 * (2) each shard keeps its own commit log, so the per-shard commit
 * sequence is pinned to the sequential engine's per-shard
 * projection. That per-shard contract is exactly what any future
 * relaxed (footprint-declaring) grant protocol must preserve, and
 * the oracle that enforces it (tests/test_shard_order.cc) is
 * already in place.
 *
 * The result is bit-identical to the sequential engine by
 * construction: same per-core instruction streams, same shared
 * commit order (hence same per-shard projections), same values —
 * pinned by the golden suite and the shared-step order oracles
 * (tests/test_parallel_step.cc, tests/test_shard_order.cc).
 *
 * Progress: a parked core waits only on cores whose bound is below
 * its key. Every live core republishes its bound each instruction
 * (the heartbeat that makes the lookahead advance) and a finished
 * core's `done` flag removes it from everyone's wait condition, so
 * the minimum-key parked core is always eventually granted — no
 * barriers, no deadlock. The wait itself escalates pause → yield →
 * short park: a brief pause burst for the fast handoff, yields while
 * oversubscribed (stepping threads may outnumber hardware threads),
 * and a short timed sleep once the wait is clearly long (a stalled
 * or descheduled peer), so a high-shared-touch-rate mix does not
 * burn a full hardware thread per parked core.
 */

#ifndef ATHENA_SIM_PARALLEL_STEP_HH
#define ATHENA_SIM_PARALLEL_STEP_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace athena
{

/**
 * Shared-step commit order, per shard: shards[s] holds one
 * (core, pre-step frontier) entry for every step that touched shard
 * s, in that shard's commit order. Shard ids follow the SharedShard
 * convention (LLC banks first, then DRAM channels); a step that
 * touches a shard several times logs there once, keyed by its first
 * touch. Recorded by both engines when attached via
 * Simulator::setSharedStepLog, so tests can assert the parallel
 * engine reproduces the sequential schedule's per-shard projection
 * verbatim.
 */
struct SharedStepLog
{
    std::vector<std::vector<std::pair<unsigned, Cycle>>> shards;

    void
    clear()
    {
        shards.clear();
    }
};

class ParallelStepper
{
  public:
    ParallelStepper(unsigned cores, unsigned shard_count,
                    SharedStepLog *log_sink)
        : slots(cores), log(log_sink), n(cores)
    {
        if (log)
            log->shards.resize(shard_count);
    }

    ParallelStepper(const ParallelStepper &) = delete;
    ParallelStepper &operator=(const ParallelStepper &) = delete;

    /**
     * Publish core @p core's pre-step frontier and open a new step.
     * The release-store doubles as the previous step's grant
     * release: it orders every shared-state write that step made
     * before any other core's grant that observes the new bound.
     */
    void
    beginStep(unsigned core, Cycle pre_step_now)
    {
        Slot &s = slots[core];
        s.granted = false;
        s.loggedMask = 0;
        s.bound.store(pre_step_now, std::memory_order_release);
    }

    /**
     * Block until core @p core owns the shared-state turn for its
     * current step (idempotent within a step; only the first call
     * of a step can block), and record the touch on shard
     * @p shard's commit log (once per shard per step). On return,
     * every shared access the sequential schedule orders before
     * this step has committed and is visible, and no other core
     * will touch shared state until this core's next
     * beginStep/finish.
     */
    void
    ensureTurn(unsigned core, unsigned shard)
    {
        Slot &s = slots[core];
        if (!s.granted) {
            const Cycle key =
                s.bound.load(std::memory_order_relaxed);
            unsigned spins = 0;
            while (!turnReady(core, key)) {
                if (++spins <= 128)
                    cpuRelax();
                else if (spins <= 4096)
                    std::this_thread::yield();
                else
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
            }
            s.granted = true;
        }
        if (log) {
            const std::uint64_t bit = std::uint64_t{1} << shard;
            if (!(s.loggedMask & bit)) {
                s.loggedMask |= bit;
                log->shards[shard].emplace_back(
                    core, s.bound.load(std::memory_order_relaxed));
            }
        }
    }

    /**
     * Remove a finished core (stream exhausted or budget reached)
     * from every other core's wait condition. The release-store
     * publishes the core's final shared-state writes.
     */
    void
    finish(unsigned core)
    {
        slots[core].done.store(true, std::memory_order_release);
    }

  private:
    /**
     * One cache line per core: `bound` is written once per
     * instruction by the owning thread and read only by parked
     * cores, so the line stays exclusive to its owner during
     * private stretches.
     */
    struct alignas(64) Slot
    {
        /** Pre-step frontier: a lower bound on every key this core
         *  can still produce (frontiers are monotone). */
        std::atomic<Cycle> bound{0};
        std::atomic<bool> done{false};
        /** Turn held for the current step. Owned by the core's own
         *  thread; never read across threads. */
        bool granted = false;
        /** Shards already logged this step (bit per shard id).
         *  Own-thread only, like `granted`. */
        std::uint64_t loggedMask = 0;
    };

    static void
    cpuRelax()
    {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield" ::: "memory");
#else
        std::this_thread::yield();
#endif
    }

    /**
     * Grant test: (key, core) must be the strict lexicographic
     * minimum over all live cores' (bound, index) pairs. Reading a
     * stale (smaller) bound is conservative — it can only delay the
     * grant, never mis-order it — and the acquire on the bound that
     * finally satisfies the test synchronizes with that core's
     * release, making all earlier-keyed shared writes visible.
     */
    bool
    turnReady(unsigned core, Cycle key) const
    {
        for (unsigned c = 0; c < n; ++c) {
            if (c == core)
                continue;
            const Slot &s = slots[c];
            if (s.done.load(std::memory_order_acquire))
                continue;
            Cycle b = s.bound.load(std::memory_order_acquire);
            if (b < key || (b == key && c < core))
                return false;
        }
        return true;
    }

    std::vector<Slot> slots;
    SharedStepLog *log;
    unsigned n;
};

} // namespace athena

#endif // ATHENA_SIM_PARALLEL_STEP_HH
