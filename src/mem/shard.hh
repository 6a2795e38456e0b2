/**
 * @file
 * Shard addressing for the shared-memory plane: line-address
 * interleaving across LLC banks and DRAM channels.
 *
 * A shard owns every Nth line: `shard = line mod N`, and the shard
 * sees the quotient `local = line / N` as its private line-address
 * space. Power-of-two shard counts decode with shift/mask (the
 * common case, zero-cost); any other count falls back to the same
 * Barrett-style reciprocal division FastMod uses, so odd shard
 * counts are first-class rather than asserted away. `globalLine`
 * inverts the split exactly: `local * N + shard` — needed when a
 * bank-local eviction address must be translated back before it
 * reaches the (global-line-keyed) OCP and pollution trackers.
 */

#ifndef ATHENA_MEM_SHARD_HH
#define ATHENA_MEM_SHARD_HH

#include <cassert>
#include <cstdint>

#include "common/types.hh"

namespace athena
{

/**
 * Splits a global line number into (shard, local line) for a fixed
 * shard count. The decode must be exact — shards partition the line
 * space — so the non-power-of-two path computes a true divmod via a
 * 128-bit reciprocal multiply with a one-step correction instead of
 * trusting the truncated estimate.
 */
class ShardDecode
{
  public:
    explicit ShardDecode(std::uint64_t count,
                         bool force_division = false)
        : n(count)
    {
        assert(count >= 1);
        const bool pow2 = (count & (count - 1)) == 0;
        if (pow2 && !force_division) {
            mask = count - 1;
            shift = 0;
            while ((std::uint64_t{1} << shift) < count)
                ++shift;
            magic = 0;
        } else {
            mask = 0;
            shift = 0;
            magic = ~std::uint64_t{0} / count;
        }
    }

    std::uint64_t count() const { return n; }

    /** shard = line mod count. */
    std::uint64_t
    shardOf(std::uint64_t line) const
    {
        if (magic == 0)
            return line & mask;
        return line - quotient(line) * n;
    }

    /** local = line / count. */
    std::uint64_t
    localLine(std::uint64_t line) const
    {
        if (magic == 0)
            return line >> shift;
        return quotient(line);
    }

    /** Exact inverse of (shardOf, localLine). */
    std::uint64_t
    globalLine(std::uint64_t local, std::uint64_t shard) const
    {
        return local * n + shard;
    }

  private:
    /**
     * floor(line / n) via reciprocal multiply. magic = floor(2^64/n)
     * underestimates the quotient by at most one for any n > 1, so a
     * single remainder check corrects it exactly.
     */
    std::uint64_t
    quotient(std::uint64_t line) const
    {
        std::uint64_t q = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(line) * magic) >> 64);
        if (line - q * n >= n)
            ++q;
        return q;
    }

    std::uint64_t n;
    std::uint64_t mask;
    unsigned shift;
    std::uint64_t magic;
};

} // namespace athena

#endif // ATHENA_MEM_SHARD_HH
