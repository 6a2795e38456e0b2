/**
 * @file
 * Classic per-PC stride prefetcher (Chen & Baer style reference
 * table with 2-bit confidence). Used as a secondary baseline and in
 * tests.
 */

#ifndef ATHENA_PREFETCH_STRIDE_HH
#define ATHENA_PREFETCH_STRIDE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sat_counter.hh"
#include "prefetch/prefetcher.hh"

namespace athena
{

class StridePrefetcher final : public Prefetcher
{
  public:
    explicit StridePrefetcher(CacheLevel lvl = CacheLevel::kL2C,
                              unsigned max_degree = 4)
        : Prefetcher(max_degree, PrefetcherKind::kStride), lvl(lvl)
    {
        reset();
    }

    const char *name() const override { return "stride"; }
    CacheLevel level() const override { return lvl; }

    void observeImpl(const PrefetchTrigger &trigger,
                 CandidateVec &out) override;

    void reset() override;

    void serialize(SnapshotIo &io) override;

    std::size_t
    storageBits() const override
    {
        // 64 entries x (tag 10 + last 32 + stride 16 + conf 2).
        return kEntries * 60;
    }

  private:
    static constexpr unsigned kEntries = 64;

    struct Entry
    {
        std::uint64_t tag = 0;
        Addr lastLine = 0;
        std::int64_t stride = 0;
        SatCounter<2> conf{0};
        bool valid = false;
    };

    CacheLevel lvl;
    std::array<Entry, kEntries> table;
};

} // namespace athena

#endif // ATHENA_PREFETCH_STRIDE_HH
