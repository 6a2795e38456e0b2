/**
 * @file
 * Saturating counters, the workhorse state element of branch
 * predictors, HMP component tables, and confidence fields.
 */

#ifndef ATHENA_COMMON_SAT_COUNTER_HH
#define ATHENA_COMMON_SAT_COUNTER_HH

#include <cstdint>

namespace athena
{

/**
 * An n-bit unsigned saturating counter.
 *
 * The counter saturates at [0, 2^Bits - 1]. taken() reports whether
 * the counter is in its upper half, which is the canonical 2-bit
 * predictor interpretation.
 */
template <unsigned Bits>
class SatCounter
{
    static_assert(Bits >= 1 && Bits <= 16, "counter width");

  public:
    static constexpr std::uint16_t kMax = (1u << Bits) - 1;
    static constexpr std::uint16_t kWeaklyTaken = 1u << (Bits - 1);

    explicit SatCounter(std::uint16_t init = kWeaklyTaken) : value(init) {}

    void
    increment()
    {
        if (value < kMax)
            ++value;
    }

    void
    decrement()
    {
        if (value > 0)
            --value;
    }

    /** Move towards taken (true) or not-taken (false). */
    void
    update(bool taken)
    {
        taken ? increment() : decrement();
    }

    bool taken() const { return value >= kWeaklyTaken; }
    std::uint16_t raw() const { return value; }

    /**
     * Snapshot walk (see SnapshotIo): the raw value as one u16. A
     * restored value above kMax throws SnapshotError naming the
     * open section. (A template so this header need not include
     * the snapshot one.)
     */
    template <class Io>
    void
    serialize(Io &io)
    {
        io.bounded(value, kMax + 1u, "saturating counter");
    }

  private:
    std::uint16_t value;
};

/**
 * A signed saturating weight, used by perceptron predictors
 * (POPET, PPF, TLP). Saturates at [-2^(Bits-1), 2^(Bits-1) - 1].
 */
template <unsigned Bits>
class SignedSatCounter
{
    static_assert(Bits >= 2 && Bits <= 16, "weight width");

  public:
    static constexpr std::int32_t kMax = (1 << (Bits - 1)) - 1;
    static constexpr std::int32_t kMin = -(1 << (Bits - 1));

    explicit SignedSatCounter(std::int32_t init = 0) : value(init) {}

    /**
     * Snapshot walk (see SnapshotIo): the raw weight as one i32. A
     * restored value outside [kMin, kMax] throws SnapshotError
     * naming the open section: a weight sum over such values
     * overflows int. (A template so this header need not include
     * the snapshot one.)
     */
    template <class Io>
    void
    serialize(Io &io)
    {
        io.inRange(value, kMin, kMax, "perceptron weight");
    }

    /** Add delta with saturation. */
    void
    add(std::int32_t delta)
    {
        std::int32_t v = value + delta;
        if (v > kMax)
            v = kMax;
        if (v < kMin)
            v = kMin;
        value = v;
    }

    std::int32_t raw() const { return value; }

  private:
    std::int32_t value;
};

} // namespace athena

#endif // ATHENA_COMMON_SAT_COUNTER_HH
