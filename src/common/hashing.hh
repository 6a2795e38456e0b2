/**
 * @file
 * Hash mixers used by the QVStore planes, Bloom filters, perceptron
 * feature indices, and set-index computations, and the FNV-1a
 * accumulator behind the experiment caches' content keys.
 *
 * All hashes are deterministic pure functions so that hardware tables
 * indexed by them behave identically across runs.
 */

#ifndef ATHENA_COMMON_HASHING_HH
#define ATHENA_COMMON_HASHING_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace athena
{

/** 64-bit finalizer from MurmurHash3 (fmix64). Full avalanche. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

/** Combine two words into one mixed hash (order-sensitive). */
constexpr std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    return mix64(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2)));
}

/**
 * Keyed hash: family member @p key of a universal-ish hash family.
 * Used where a structure needs several independent hash functions
 * (Bloom filters, QVStore planes).
 */
constexpr std::uint64_t
keyedHash(std::uint64_t x, std::uint64_t key)
{
    return mix64(x * (2 * key + 1) + 0x632be59bd9b4e019ull * (key + 1));
}

/** Fold a 64-bit hash down to @p bits bits by XOR-folding. */
constexpr std::uint64_t
foldTo(std::uint64_t x, unsigned bits)
{
    std::uint64_t r = 0;
    while (x) {
        r ^= x & ((1ull << bits) - 1);
        x >>= bits;
    }
    return r;
}

/**
 * FNV-1a, one byte at a time, over little-endian words: the content
 * hash of SystemConfig::configKey and workloadKey. Starts from the
 * FNV offset basis unless constructed from another value.
 */
struct Fnv1a
{
    static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t kPrime = 0x100000001b3ull;

    std::uint64_t h = kOffsetBasis;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ b[i]) * kPrime;
    }

    void
    u64(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i)
            h = (h ^ ((v >> (8 * i)) & 0xff)) * kPrime;
    }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    /** Length-prefixed, so ("ab", "c") and ("a", "bc") differ. */
    void
    str(std::string_view s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
};

} // namespace athena

#endif // ATHENA_COMMON_HASHING_HH
