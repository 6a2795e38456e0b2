/**
 * @file
 * Bloom filter used by Athena's state-measurement hardware
 * (section 5.2): one 4096-bit, 2-hash filter tracks issued prefetch
 * addresses (accuracy), another tracks prefetch-evicted LLC victims
 * (pollution). Both are cleared at every epoch boundary.
 */

#ifndef ATHENA_ATHENA_BLOOM_HH
#define ATHENA_ATHENA_BLOOM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace athena
{

class SnapshotIo;

class BloomFilter
{
  public:
    /**
     * @param bits   filter size in bits (power of two; 4096 in
     *               Table 4)
     * @param hashes number of hash functions (2 in Table 4)
     */
    explicit BloomFilter(unsigned bits = 4096, unsigned hashes = 2);

    /** Insert a key. */
    void insert(std::uint64_t key);

    /** Membership test (may report false positives, never false
     *  negatives). */
    bool mayContain(std::uint64_t key) const;

    /** Clear all bits (epoch boundary). */
    void clear();

    /** Number of insertions since the last clear. */
    std::uint64_t insertions() const { return inserted; }

    /** Storage in bits (Table 4 accounting). */
    std::size_t storageBits() const { return bitCount; }

    /**
     * Theoretical false-positive rate for @p n insertions with the
     * current geometry (used by the Table 4 sizing test).
     */
    double falsePositiveRate(std::uint64_t n) const;

    /** Snapshot walk: word-count guard, insertion count, words. */
    void serialize(SnapshotIo &io);

  private:
    /** bit index for hash h of key (mask when bits is pow2). */
    std::uint64_t bitOf(std::uint64_t key, unsigned h) const;

    unsigned bitCount;
    unsigned hashCount;
    /** bitCount - 1 when bitCount is a power of two, else 0. */
    std::uint64_t bitMask = 0;
    std::vector<std::uint64_t> words;
    std::uint64_t inserted = 0;
};

} // namespace athena

#endif // ATHENA_ATHENA_BLOOM_HH
