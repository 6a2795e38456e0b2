/**
 * @file
 * StepPicker: the multi-core scheduler's least-advanced-core picker.
 *
 * Loose synchronization requires stepping the globally
 * least-advanced unfinished core so shared-resource contention is
 * meaningful. The naive picker rescans all cores per step —
 * O(cores) in the inner loop of every multi-core run. StepPicker is
 * an indexed binary min-heap over (cycle, core) keys: top() is O(1),
 * and the single key that changes per step (the stepped core's new
 * frontier cycle, which never decreases) sifts down in O(log cores).
 *
 * Determinism: ties order strictly by core index, lowest first, so
 * stepping order is a pure function of the per-core cycle
 * trajectories (the previous scan preferred the *last* tied core, an
 * index-order artifact).
 */

#ifndef ATHENA_SIM_STEP_PICKER_HH
#define ATHENA_SIM_STEP_PICKER_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace athena
{

class StepPicker
{
  public:
    /** All @p n cores start unfinished at cycle 0. */
    explicit StepPicker(unsigned n)
        : key(n, 0), heap(n), pos(n)
    {
        for (unsigned i = 0; i < n; ++i) {
            heap[i] = i;
            pos[i] = i;
        }
    }

    bool empty() const { return heap.empty(); }
    unsigned size() const { return static_cast<unsigned>(heap.size()); }

    /** Least-advanced unfinished core (lowest index on ties). */
    unsigned top() const { return heap.front(); }

    /** The top core's cycle. */
    Cycle topCycle() const { return key[heap.front()]; }

    /**
     * Record core @p idx's new frontier cycle. Cycles are
     * monotonically non-decreasing per core, so this only ever
     * sifts down.
     */
    void
    advance(unsigned idx, Cycle now)
    {
        assert(now >= key[idx]);
        key[idx] = now;
        siftDown(pos[idx]);
    }

    /** A core's schedule key: (frontier cycle, core index). */
    struct Key
    {
        Cycle cycle;
        unsigned core;
    };

    /**
     * The least key among the cores other than top(). By the heap
     * property it is one of the root's two children, so this is one
     * compare. The top core stays next in line exactly while its own
     * key stays below this one, which bounds a scheduler burst. With
     * no other core left there is no bound: the key is past every
     * reachable (cycle, core).
     */
    Key
    nextBound() const
    {
        const unsigned n = static_cast<unsigned>(heap.size());
        if (n < 2)
            return {~Cycle{0}, ~0u};
        unsigned m = heap[1];
        if (n > 2 && less(heap[2], m))
            m = heap[2];
        return {key[m], m};
    }

    /**
     * Would the current top core @p idx still be picked next if its
     * frontier advanced to @p now? The stepping order this gives is
     * exactly the one advance()+top() per instruction would.
     *
     * @pre idx is the current top() (its stored key may be stale;
     *      only @p now is compared).
     */
    bool
    stillTop(unsigned idx, Cycle now) const
    {
        assert(!heap.empty() && heap.front() == idx);
        const Key b = nextBound();
        return now < b.cycle || (now == b.cycle && idx < b.core);
    }

    /** Remove a finished core from the pick set. */
    void
    finish(unsigned idx)
    {
        unsigned p = pos[idx];
        unsigned last = heap.back();
        heap.pop_back();
        if (p < heap.size()) {
            heap[p] = last;
            pos[last] = p;
            // The moved element may violate either direction.
            if (!siftDown(p))
                siftUp(p);
        }
    }

  private:
    /** (cycle, index) lexicographic order. */
    bool
    less(unsigned a, unsigned b) const
    {
        return key[a] != key[b] ? key[a] < key[b] : a < b;
    }

    bool
    siftDown(unsigned p)
    {
        const unsigned n = static_cast<unsigned>(heap.size());
        bool moved = false;
        for (;;) {
            unsigned l = 2 * p + 1;
            if (l >= n)
                break;
            unsigned m = l;
            unsigned r = l + 1;
            if (r < n && less(heap[r], heap[l]))
                m = r;
            if (!less(heap[m], heap[p]))
                break;
            std::swap(heap[p], heap[m]);
            pos[heap[p]] = p;
            pos[heap[m]] = m;
            p = m;
            moved = true;
        }
        return moved;
    }

    void
    siftUp(unsigned p)
    {
        while (p > 0) {
            unsigned parent = (p - 1) / 2;
            if (!less(heap[p], heap[parent]))
                break;
            std::swap(heap[p], heap[parent]);
            pos[heap[p]] = p;
            pos[heap[parent]] = parent;
            p = parent;
        }
    }

    std::vector<Cycle> key;     ///< Per-core frontier cycle.
    std::vector<unsigned> heap; ///< Core indices, heap-ordered.
    std::vector<unsigned> pos;  ///< Core index -> heap position.
};

} // namespace athena

#endif // ATHENA_SIM_STEP_PICKER_HH
