/**
 * @file
 * Berti: accurate local-delta data prefetcher (Navarro-Torres et
 * al., MICRO 2022). L1D prefetcher.
 *
 * Berti learns, per load IP, the set of *timely* deltas: deltas d
 * such that prefetching (X + d) when X was demanded would have
 * completed before (X + d) was itself demanded. It scores candidate
 * deltas against a small per-IP access history annotated with
 * cycles, and activates only deltas whose coverage exceeds a
 * threshold — which is what gives Berti its characteristic high
 * accuracy relative to IPCP (Fig. 13 discussion).
 */

#ifndef ATHENA_PREFETCH_BERTI_HH
#define ATHENA_PREFETCH_BERTI_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace athena
{

class BertiPrefetcher final : public Prefetcher
{
  public:
    BertiPrefetcher() : Prefetcher(4, PrefetcherKind::kBerti) { reset(); }

    const char *name() const override { return "berti"; }
    CacheLevel level() const override { return CacheLevel::kL1D; }

    void observeImpl(const PrefetchTrigger &trigger,
                 CandidateVec &out) override;

    void reset() override;

    void serialize(SnapshotIo &io) override;

    std::size_t
    storageBits() const override
    {
        // 64 IPs x (tag 10 + 8 history x (26 line + 16 cycle) +
        // 16 deltas x (7 delta + 4 score) + 4 active x 7).
        return 64 * (10 + 8 * 42 + 16 * 11 + 28);
    }

  private:
    static constexpr unsigned kEntries = 64;
    static constexpr unsigned kHistory = 8;
    static constexpr unsigned kDeltas = 16;
    static constexpr unsigned kRoundAccesses = 48;
    static constexpr unsigned kScoreThreshold = 10;
    /** Assumed fill latency used for the timeliness test (cycles). */
    static constexpr Cycle kFillLatency = 60;

    struct HistEntry
    {
        Addr line = 0;
        Cycle cycle = 0;
        bool valid = false;
    };

    struct DeltaScore
    {
        std::int32_t delta = 0;
        unsigned score = 0;
    };

    struct IpEntry
    {
        std::uint16_t tag = 0;
        bool valid = false;
        std::array<HistEntry, kHistory> hist;
        unsigned histHead = 0;
        std::array<DeltaScore, kDeltas> scores;
        unsigned accessesThisRound = 0;
        /** Activated deltas (best-of-round). */
        std::array<std::int32_t, 4> active{};
        unsigned activeCount = 0;
    };

    std::array<IpEntry, kEntries> table;
};

} // namespace athena

#endif // ATHENA_PREFETCH_BERTI_HH
