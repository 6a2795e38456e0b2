/**
 * @file
 * QVStore implementation.
 */

#include "athena/qvstore.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "common/hashing.hh"
#include "snapshot/snapshot.hh"

namespace athena
{

namespace
{

/** Memo covers packed states up to 16 bits (64 K x planes words). */
constexpr unsigned kMemoMaxStateBits = 16;

} // namespace

QVStore::QVStore(const QVStoreParams &params) : cfg(params)
{
    // rowOf() reduces modulo rows and argmax() starts at the last
    // action, so neither may be 0.
    if (cfg.rows == 0)
        throw std::invalid_argument("QVStoreParams::rows must be >= 1");
    if (cfg.actions == 0) {
        throw std::invalid_argument(
            "QVStoreParams::actions must be >= 1");
    }
    unsigned state_bits = cfg.stateFields * cfg.bitsPerField;
    if (cfg.memoizeRows && state_bits <= kMemoMaxStateBits)
        memoStates = 1u << state_bits;
    rowScratch.resize(cfg.planes);
    reset();
}

std::size_t
QVStore::rowOf(std::uint32_t state, unsigned p) const
{
    // First half of the planes: full-resolution state, independent
    // hash per plane (de-aliasing). Second half: each feature is
    // coarsened by one bit after a per-plane tiling offset, so
    // nearby states (e.g. bandwidth level 3 vs. 4) land in the
    // same row and share learning (generalization).
    if (p < (cfg.planes + 1) / 2) {
        return static_cast<std::size_t>(keyedHash(state, p) %
                                        cfg.rows);
    }
    const std::uint32_t field_mask = (1u << cfg.bitsPerField) - 1;
    const std::uint32_t max_level = field_mask;
    std::uint32_t offset = (p - (cfg.planes + 1) / 2) & 1;
    std::uint32_t coarse = 0;
    for (unsigned f = 0; f < cfg.stateFields; ++f) {
        std::uint32_t level =
            (state >> (f * cfg.bitsPerField)) & field_mask;
        level = std::min(max_level, level + offset);
        coarse = (coarse << (cfg.bitsPerField - 1)) | (level >> 1);
    }
    return static_cast<std::size_t>(keyedHash(coarse, 64 + p) %
                                    cfg.rows);
}

double
QVStore::entry(unsigned p, std::size_t row, unsigned a) const
{
    std::size_t idx =
        (static_cast<std::size_t>(p) * cfg.rows + row) * cfg.actions +
        a;
    if (cfg.quantized)
        return static_cast<double>(fixedEntries[idx]) / kFixedScale;
    return floatEntries[idx];
}

void
QVStore::addToEntry(unsigned p, std::size_t row, unsigned a,
                    double delta)
{
    std::size_t idx =
        (static_cast<std::size_t>(p) * cfg.rows + row) * cfg.actions +
        a;
    if (cfg.quantized) {
        double v = static_cast<double>(fixedEntries[idx]) /
                       kFixedScale +
                   delta;
        v = std::clamp(v, kFixedMin, kFixedMax);
        // Stochastic rounding: a sub-LSB TD error moves the entry
        // with probability proportional to its magnitude, so small
        // rewards are not silently swallowed by the 8-bit grid.
        double scaled = v * kFixedScale;
        double lo = std::floor(scaled);
        double frac = scaled - lo;
        roundState ^= roundState << 13;
        roundState ^= roundState >> 7;
        roundState ^= roundState << 17;
        double u = static_cast<double>(roundState >> 11) * 0x1.0p-53;
        fixedEntries[idx] =
            static_cast<std::int8_t>(u < frac ? lo + 1.0 : lo);
    } else {
        floatEntries[idx] += delta;
    }
}

const std::uint32_t *
QVStore::rowsFor(std::uint32_t state) const
{
    if (state < memoStates) {
        if (memoRows.empty()) {
            memoRows.resize(static_cast<std::size_t>(memoStates) *
                            cfg.planes);
            memoValid.assign(memoStates, 0);
        }
        std::uint32_t *rows =
            &memoRows[static_cast<std::size_t>(state) * cfg.planes];
        if (!memoValid[state]) {
            for (unsigned p = 0; p < cfg.planes; ++p)
                rows[p] =
                    static_cast<std::uint32_t>(rowOf(state, p));
            memoValid[state] = 1;
        }
        return rows;
    }
    for (unsigned p = 0; p < cfg.planes; ++p)
        rowScratch[p] = static_cast<std::uint32_t>(rowOf(state, p));
    return rowScratch.data();
}

double
QVStore::qRows(const std::uint32_t *rows, unsigned action) const
{
    double sum = 0.0;
    for (unsigned p = 0; p < cfg.planes; ++p)
        sum += entry(p, rows[p], action);
    return sum;
}

double
QVStore::q(std::uint32_t state, unsigned action) const
{
    return qRows(rowsFor(state), action);
}

unsigned
QVStore::argmax(std::uint32_t state) const
{
    // Scan from the highest action index down so that exact ties
    // (fresh optimistic entries) resolve to the most speculative
    // action — the agent starts from the Naive prior and learns to
    // pull back, rather than starting dark.
    const std::uint32_t *rows = rowsFor(state);
    unsigned best = cfg.actions - 1;
    double best_q = qRows(rows, best);
    for (unsigned a = cfg.actions - 1; a-- > 0;) {
        double v = qRows(rows, a);
        if (v > best_q) {
            best_q = v;
            best = a;
        }
    }
    return best;
}

double
QVStore::meanOfOthers(std::uint32_t state, unsigned excluded) const
{
    if (cfg.actions <= 1)
        return 0.0;
    const std::uint32_t *rows = rowsFor(state);
    double sum = 0.0;
    for (unsigned a = 0; a < cfg.actions; ++a) {
        if (a != excluded)
            sum += qRows(rows, a);
    }
    return sum / static_cast<double>(cfg.actions - 1);
}

double
QVStore::qSeparation(std::uint32_t state, unsigned action) const
{
    const std::uint32_t *rows = rowsFor(state);
    double q_a = qRows(rows, action);
    if (cfg.actions <= 1)
        return q_a;
    double sum = 0.0;
    for (unsigned a = 0; a < cfg.actions; ++a) {
        if (a != action)
            sum += qRows(rows, a);
    }
    return q_a - sum / static_cast<double>(cfg.actions - 1);
}

void
QVStore::update(std::uint32_t s, unsigned a, double reward,
                std::uint32_t s_next, unsigned a_next)
{
    // Extract q(s', a') before re-resolving rows for s: on the
    // scratch path the second rowsFor() invalidates the first.
    double q_next = qRows(rowsFor(s_next), a_next);
    const std::uint32_t *rows_s = rowsFor(s);
    double td_error =
        reward + cfg.gamma * q_next - qRows(rows_s, a);
    double per_plane = cfg.alpha * td_error /
                       static_cast<double>(cfg.planes);
    for (unsigned p = 0; p < cfg.planes; ++p)
        addToEntry(p, rows_s[p], a, per_plane);
}

void
QVStore::reset()
{
    roundState = cfg.roundingSeed ? cfg.roundingSeed : 1;
    std::size_t n = static_cast<std::size_t>(cfg.planes) * cfg.rows *
                    cfg.actions;
    double per_plane_init = cfg.initQ / static_cast<double>(cfg.planes);
    if (cfg.quantized) {
        fixedEntries.assign(
            n, static_cast<std::int8_t>(
                   std::lround(std::clamp(per_plane_init, kFixedMin,
                                          kFixedMax) *
                               kFixedScale)));
        floatEntries.clear();
    } else {
        floatEntries.assign(n, per_plane_init);
        fixedEntries.clear();
    }
}

void
QVStore::serialize(SnapshotIo &io)
{
    io.expectU32(cfg.planes, "QVStore plane count");
    io.expectU32(cfg.rows, "QVStore row count");
    io.expectU32(cfg.actions, "QVStore action count");
    bool quantized = cfg.quantized;
    io.boolean(quantized);
    io.check(quantized == cfg.quantized,
             "QVStore storage mode mismatch (wrong geometry)");
    io.u64(roundState);
    if (cfg.quantized) {
        io.bytes(fixedEntries.data(), fixedEntries.size());
    } else {
        for (double &v : floatEntries)
            io.f64(v);
    }
}

} // namespace athena
