/**
 * @file
 * TTP implementation.
 */

#include "ocp/ttp.hh"

#include <cstddef>
#include <cstdint>

#include "common/hashing.hh"
#include "snapshot/snapshot.hh"

namespace athena
{

TtpPredictor::TtpPredictor(std::size_t entry_count)
    : OffChipPredictor(OcpKind::kTtp), entries(entry_count)
{}

std::size_t
TtpPredictor::indexOf(Addr line_num) const
{
    return static_cast<std::size_t>(mix64(line_num) % entries.size());
}

std::uint16_t
TtpPredictor::tagOf(Addr line_num) const
{
    return static_cast<std::uint16_t>(mix64(line_num) >> 48);
}

bool
TtpPredictor::predict(std::uint64_t pc, Addr addr)
{
    (void)pc;
    Addr line = lineNumber(addr);
    const Entry &e = entries[indexOf(line)];
    return !(e.valid && e.tag == tagOf(line));
}

void
TtpPredictor::train(std::uint64_t pc, Addr addr, bool went_offchip)
{
    // TTP is structurally trained by fills/evictions; outcome
    // training is a no-op.
    (void)pc;
    (void)addr;
    (void)went_offchip;
}

void
TtpPredictor::onFill(Addr line_num)
{
    Entry &e = entries[indexOf(line_num)];
    e.valid = true;
    e.tag = tagOf(line_num);
}

void
TtpPredictor::onEvict(Addr line_num)
{
    Entry &e = entries[indexOf(line_num)];
    if (e.valid && e.tag == tagOf(line_num))
        e.valid = false;
}

void
TtpPredictor::reset()
{
    for (auto &e : entries)
        e = Entry{};
}

void
TtpPredictor::serialize(SnapshotIo &io)
{
    io.expectU64(entries.size(), "TTP shadow tag count");
    for (Entry &e : entries) {
        io.u16(e.tag);
        io.boolean(e.valid);
    }
}

} // namespace athena
