/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic element of the repository (workload generators,
 * epsilon-greedy exploration, mix construction) draws from this
 * xorshift64* generator so that runs are exactly reproducible from a
 * seed. We deliberately avoid std::mt19937 to keep state tiny and
 * the hot path branch-free.
 */

#ifndef ATHENA_COMMON_RNG_HH
#define ATHENA_COMMON_RNG_HH

#include <cstdint>
#include <vector>

namespace athena
{

/**
 * xorshift64* PRNG. Period 2^64 - 1; passes BigCrush for our use.
 */
class Rng
{
  public:
    /** Construct from a non-zero seed (0 is remapped internally). */
    explicit Rng(std::uint64_t seed = kDefaultSeed)
        : state(seed ? seed : kDefaultSeed)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state = x;
        return x * 0x2545f4914f6cdd1dull;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform integer in [lo, hi]. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * Precomputed-threshold form of chance(): uniform() < p is
     * exactly u < p * 2^53 for u = next() >> 11 (both sides exact
     * in double — u < 2^53 and the scale is a power of two), so a
     * caller that rolls against the same p every time can hoist the
     * float work into one ceil at setup. chanceT(chanceThreshold(p))
     * consumes one draw and returns bit-identical outcomes to
     * chance(p).
     */
    static std::uint64_t
    chanceThreshold(double p)
    {
        constexpr double kScale = 9007199254740992.0; // 2^53
        if (p <= 0.0)
            return 0;
        if (p >= 1.0)
            return 1ull << 53;
        return static_cast<std::uint64_t>(__builtin_ceil(p * kScale));
    }

    /** Bernoulli trial against a chanceThreshold() value. */
    bool
    chanceT(std::uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /**
     * Snapshot walk (see SnapshotIo): the raw state as one u64. A
     * restored 0 is remapped like the constructor's (xorshift state
     * is never 0). (A template so this header need not include the
     * snapshot one.)
     */
    template <class Io>
    void
    serialize(Io &io)
    {
        io.u64(state);
        if (state == 0)
            state = kDefaultSeed;
    }

  private:
    static constexpr std::uint64_t kDefaultSeed = 0x9e3779b97f4a7c15ull;

    std::uint64_t state;
};

/**
 * Bounded Zipf-like sampler used by graph workload generators.
 *
 * Produces indices in [0, n) with probability proportional to
 * 1 / (i + 1)^s via inverse-CDF over a precomputed table.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double s);

    /** Draw one sample using the supplied RNG. */
    std::uint64_t sample(Rng &rng) const;

    std::uint64_t domain() const { return n; }

  private:
    std::uint64_t n;
    /** Cumulative probability table, cdf.back() == 1.0. */
    std::vector<double> cdf;
};

} // namespace athena

#endif // ATHENA_COMMON_RNG_HH
