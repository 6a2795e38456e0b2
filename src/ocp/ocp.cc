/**
 * @file
 * OCP factory and kind names.
 */

#include "ocp/ocp.hh"

#include <memory>
#include <stdexcept>
#include <string>

#include "ocp/hmp.hh"
#include "ocp/popet.hh"
#include "ocp/ttp.hh"

namespace athena
{

bool
OffChipPredictor::predictDemand(std::uint64_t pc, Addr addr)
{
    switch (kind()) {
      case OcpKind::kPopet:
        return static_cast<PopetPredictor &>(*this)
            .PopetPredictor::predict(pc, addr);
      case OcpKind::kHmp:
        return static_cast<HmpPredictor &>(*this)
            .HmpPredictor::predict(pc, addr);
      case OcpKind::kTtp:
        return static_cast<TtpPredictor &>(*this)
            .TtpPredictor::predict(pc, addr);
      case OcpKind::kNone:
        break;
    }
    return predict(pc, addr);
}

void
OffChipPredictor::trainDemand(std::uint64_t pc, Addr addr,
                              bool went_offchip)
{
    switch (kind()) {
      case OcpKind::kPopet:
        static_cast<PopetPredictor &>(*this)
            .PopetPredictor::train(pc, addr, went_offchip);
        return;
      case OcpKind::kHmp:
        static_cast<HmpPredictor &>(*this)
            .HmpPredictor::train(pc, addr, went_offchip);
        return;
      case OcpKind::kTtp:
        static_cast<TtpPredictor &>(*this)
            .TtpPredictor::train(pc, addr, went_offchip);
        return;
      case OcpKind::kNone:
        break;
    }
    train(pc, addr, went_offchip);
}

const char *
ocpKindName(OcpKind kind)
{
    switch (kind) {
      case OcpKind::kNone:  return "none";
      case OcpKind::kPopet: return "popet";
      case OcpKind::kHmp:   return "hmp";
      case OcpKind::kTtp:   return "ttp";
    }
    return "?";
}

std::unique_ptr<OffChipPredictor>
makeOcp(OcpKind kind)
{
    switch (kind) {
      case OcpKind::kNone:
        return nullptr;
      case OcpKind::kPopet:
        return std::make_unique<PopetPredictor>();
      case OcpKind::kHmp:
        return std::make_unique<HmpPredictor>();
      case OcpKind::kTtp:
        return std::make_unique<TtpPredictor>();
    }
    throw std::invalid_argument(
        "makeOcp: unknown OcpKind " +
        std::to_string(static_cast<unsigned>(kind)));
}

} // namespace athena
