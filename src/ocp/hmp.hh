/**
 * @file
 * HMP: hit-miss predictor (Yoaz et al., ISCA 1999), used as an OCP
 * in the Athena paper. A hybrid of three component predictors,
 * analogous to hybrid branch prediction:
 *   - local:  per-PC history of off-chip outcomes -> PHT,
 *   - gshare: global off-chip history xor PC -> PHT,
 *   - gskew:  majority of three tables indexed by skewed hashes.
 * The final prediction is the majority vote of the components.
 */

#ifndef ATHENA_OCP_HMP_HH
#define ATHENA_OCP_HMP_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/sat_counter.hh"
#include "ocp/ocp.hh"

namespace athena
{

class HmpPredictor final : public OffChipPredictor
{
  public:
    HmpPredictor() : OffChipPredictor(OcpKind::kHmp) { reset(); }

    const char *name() const override { return "hmp"; }

    bool predict(std::uint64_t pc, Addr addr) override;
    void train(std::uint64_t pc, Addr addr, bool went_offchip) override;

    void reset() override;

    void serialize(SnapshotIo &io) override;

    std::size_t
    storageBits() const override
    {
        // local: 1024 x 8-bit histories + 4096 x 2-bit PHT;
        // gshare: 4096 x 2; gskew: 3 x 4096 x 2. ~11 KB with tags.
        return 1024 * 8 + 4096 * 2 + 4096 * 2 + 3 * 4096 * 2;
    }

  private:
    static constexpr unsigned kLocalEntries = 1024;
    static constexpr unsigned kPhtSize = 4096;
    static constexpr unsigned kHistBits = 8;

    bool localPredict(std::uint64_t pc) const;
    bool gsharePredict(std::uint64_t pc) const;
    bool gskewPredict(std::uint64_t pc, Addr addr) const;

    std::array<std::uint8_t, kLocalEntries> localHistory{};
    std::array<SatCounter<2>, kPhtSize> localPht;
    std::array<SatCounter<2>, kPhtSize> gsharePht;
    std::array<std::array<SatCounter<2>, kPhtSize>, 3> gskewPht;
    std::uint64_t globalHistory = 0;
};

} // namespace athena

#endif // ATHENA_OCP_HMP_HH
