/**
 * @file
 * TTP: tag-tracking based off-chip predictor (Jalili & Erez,
 * HPCA 2022; also evaluated in Hermes).
 *
 * TTP shadows the on-chip cache hierarchy with a partial-tag store
 * sized on the order of the L2 (Table 8 budgets it at 1.5 MB). A
 * load is predicted off-chip when its line's tag is absent. The
 * memory system feeds fills and LLC evictions so the shadow tracks
 * residency; partial tags introduce rare aliasing, exactly as in
 * hardware.
 */

#ifndef ATHENA_OCP_TTP_HH
#define ATHENA_OCP_TTP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ocp/ocp.hh"

namespace athena
{

class TtpPredictor final : public OffChipPredictor
{
  public:
    /** @param entry_count shadow tag capacity (default covers a
     *  3 MB LLC plus L2: 64 K lines). */
    explicit TtpPredictor(std::size_t entry_count = 64 * 1024);

    const char *name() const override { return "ttp"; }

    bool predict(std::uint64_t pc, Addr addr) override;
    void train(std::uint64_t pc, Addr addr, bool went_offchip) override;

    void onFill(Addr line_num) override;
    void onEvict(Addr line_num) override;

    void reset() override;

    void serialize(SnapshotIo &io) override;

    std::size_t
    storageBits() const override
    {
        // 16-bit partial tags + valid bit per entry (~1.5 MB class
        // budget in the paper's configuration scales with entries).
        return entries.size() * 17;
    }

  private:
    struct Entry
    {
        std::uint16_t tag = 0;
        bool valid = false;
    };

    std::size_t indexOf(Addr line_num) const;
    std::uint16_t tagOf(Addr line_num) const;

    std::vector<Entry> entries;
};

} // namespace athena

#endif // ATHENA_OCP_TTP_HH
