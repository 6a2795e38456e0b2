/**
 * @file
 * SPP + PPF: Signature Path Prefetcher (Kim et al., MICRO 2016)
 * with Perceptron-based Prefetch Filtering (Bhatia et al.,
 * ISCA 2019). L2C prefetcher.
 *
 * SPP compresses the delta history within a page into a signature,
 * looks the signature up in a pattern table to predict the next
 * delta, and walks the signature chain speculatively while the
 * multiplied path confidence stays above a threshold. PPF is a
 * perceptron that inspects each candidate prefetch (signature,
 * delta, depth, offset features) and suppresses the ones it has
 * learned to distrust; it trains on per-prefetch usefulness
 * feedback.
 */

#ifndef ATHENA_PREFETCH_SPP_PPF_HH
#define ATHENA_PREFETCH_SPP_PPF_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/sat_counter.hh"
#include "prefetch/prefetcher.hh"

namespace athena
{

class SppPpfPrefetcher final : public Prefetcher
{
  public:
    SppPpfPrefetcher() : Prefetcher(6, PrefetcherKind::kSppPpf) { reset(); }

    const char *name() const override { return "spp_ppf"; }
    CacheLevel level() const override { return CacheLevel::kL2C; }

    void observeImpl(const PrefetchTrigger &trigger,
                 CandidateVec &out) override;

    void onPrefetchUsed(std::uint64_t meta, bool timely) override;
    void onPrefetchUseless(std::uint64_t meta) override;

    void reset() override;

    void serialize(SnapshotIo &io) override;

    std::size_t
    storageBits() const override
    {
        // ST 64 x 28 + PT 512 x 4 x 12 + PPF 3 tables x 1024 x 6 +
        // record ring 128 x 36; ~39.3 KB in the paper's full config.
        return 64 * 28 + 512 * 4 * 12 + 3 * 1024 * 6 + 128 * 36;
    }

  private:
    static constexpr unsigned kStEntries = 64;
    static constexpr unsigned kPtEntries = 512;
    static constexpr unsigned kPtWays = 4;
    static constexpr unsigned kSigBits = 12;
    static constexpr double kConfThreshold = 0.30;
    static constexpr unsigned kPpfTableSize = 1024;
    static constexpr int kPpfThreshold = 0;
    static constexpr unsigned kRingSize = 128;

    struct StEntry
    {
        Addr pageTag = 0;
        bool valid = false;
        unsigned lastOffset = 0;
        std::uint16_t signature = 0;
    };

    struct PtDelta
    {
        std::int8_t delta = 0;
        std::uint8_t count = 0;
    };

    struct PtEntry
    {
        std::array<PtDelta, kPtWays> deltas;
        std::uint8_t sigCount = 0;
    };

    /** Per-issued-prefetch PPF training record. */
    struct Record
    {
        std::array<std::uint16_t, 3> featureIdx{};
        bool open = false;
    };

    static std::uint16_t
    advanceSignature(std::uint16_t sig, std::int32_t delta)
    {
        return static_cast<std::uint16_t>(
            ((sig << 3) ^ static_cast<std::uint16_t>(delta & 0x7f)) &
            ((1u << kSigBits) - 1));
    }

    int ppfSum(const std::array<std::uint16_t, 3> &idx) const;
    void ppfTrain(const std::array<std::uint16_t, 3> &idx, bool useful);

    std::array<StEntry, kStEntries> st;
    std::array<PtEntry, kPtEntries> pt;
    std::array<std::array<SignedSatCounter<6>, kPpfTableSize>, 3> ppf;

    std::array<Record, kRingSize> ring;
    std::uint64_t ringHead = 0;
};

} // namespace athena

#endif // ATHENA_PREFETCH_SPP_PPF_HH
