/**
 * @file
 * MLOP: Multi-Lookahead Offset Prefetching (Shakerinava et al.,
 * DPC-3 2019). L2C prefetcher.
 *
 * MLOP keeps an access map of recently touched pages and scores
 * every candidate offset d by how often an access at line X was
 * preceded by an access at X - d within the same page (i.e., how
 * accurate prefetching with offset d *would have been*). Offsets
 * are (re)selected at the end of fixed evaluation rounds; multiple
 * best offsets approximate the multiple lookahead levels of the
 * original design.
 */

#ifndef ATHENA_PREFETCH_MLOP_HH
#define ATHENA_PREFETCH_MLOP_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace athena
{

class MlopPrefetcher final : public Prefetcher
{
  public:
    MlopPrefetcher() : Prefetcher(4, PrefetcherKind::kMlop) { reset(); }

    const char *name() const override { return "mlop"; }
    CacheLevel level() const override { return CacheLevel::kL2C; }

    void observeImpl(const PrefetchTrigger &trigger,
                 CandidateVec &out) override;

    void reset() override;

    void serialize(SnapshotIo &io) override;

    std::size_t
    storageBits() const override
    {
        // AMT 32 x (tag 36 + bitmap 64) + 62 x 10 score counters +
        // 4 active offsets; ~8 KB in the full configuration.
        return 32 * 100 + 62 * 10 + 4 * 7;
    }

    /** Currently activated offsets (tests peek at convergence). */
    std::vector<int> activeOffsets() const;

  private:
    static constexpr unsigned kAmtEntries = 32;
    static constexpr int kMaxOffset = 31;
    static constexpr unsigned kRoundLength = 512;
    static constexpr unsigned kScoreFloor = 48;

    struct AmtEntry
    {
        Addr pageTag = 0;
        bool valid = false;
        std::uint64_t bitmap = 0;
        std::uint64_t lruStamp = 0;
    };

    std::array<AmtEntry, kAmtEntries> amt;
    /** Scores for offsets -31..-1, 1..31 (index = offset + 31). */
    std::array<unsigned, 2 * kMaxOffset + 1> scores{};
    std::array<int, 4> active{};
    unsigned activeCount = 0;
    unsigned roundAccesses = 0;
    std::uint64_t lruClock = 0;
};

} // namespace athena

#endif // ATHENA_PREFETCH_MLOP_HH
