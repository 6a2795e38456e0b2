/**
 * @file
 * Bloom filter implementation.
 */

#include "athena/bloom.hh"

#include <cmath>
#include <cstdint>

#include "common/hashing.hh"
#include "snapshot/snapshot.hh"

namespace athena
{

BloomFilter::BloomFilter(unsigned bits, unsigned hashes)
    : bitCount(bits), hashCount(hashes), words((bits + 63) / 64, 0)
{
    if (bits && (bits & (bits - 1)) == 0)
        bitMask = bits - 1; // pow2: modulo is a mask (hot path)
}

std::uint64_t
BloomFilter::bitOf(std::uint64_t key, unsigned h) const
{
    std::uint64_t hash = keyedHash(key, h);
    return bitMask ? (hash & bitMask) : hash % bitCount;
}

void
BloomFilter::insert(std::uint64_t key)
{
    for (unsigned h = 0; h < hashCount; ++h) {
        std::uint64_t bit = bitOf(key, h);
        words[bit >> 6] |= 1ull << (bit & 63);
    }
    ++inserted;
}

bool
BloomFilter::mayContain(std::uint64_t key) const
{
    for (unsigned h = 0; h < hashCount; ++h) {
        std::uint64_t bit = bitOf(key, h);
        if (!(words[bit >> 6] & (1ull << (bit & 63))))
            return false;
    }
    return true;
}

void
BloomFilter::clear()
{
    for (auto &w : words)
        w = 0;
    inserted = 0;
}

void
BloomFilter::serialize(SnapshotIo &io)
{
    io.expectU64(words.size(), "bloom filter word count");
    io.u64(inserted);
    io.u64Array(words.data(), words.size());
}

double
BloomFilter::falsePositiveRate(std::uint64_t n) const
{
    double k = hashCount;
    double m = bitCount;
    double p_bit_set =
        1.0 - std::exp(-k * static_cast<double>(n) / m);
    return std::pow(p_bit_set, k);
}

} // namespace athena
