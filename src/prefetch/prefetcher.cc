/**
 * @file
 * Prefetcher factory and kind names.
 */

#include "prefetch/prefetcher.hh"

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "snapshot/snapshot.hh"

#include "prefetch/berti.hh"
#include "prefetch/ipcp.hh"
#include "prefetch/mlop.hh"
#include "prefetch/next_line.hh"
#include "prefetch/pythia.hh"
#include "prefetch/sms.hh"
#include "prefetch/spp_ppf.hh"
#include "prefetch/stride.hh"

namespace athena
{

void
Prefetcher::observe(const PrefetchTrigger &trigger, CandidateVec &out)
{
    // Tag dispatch to the concrete kernel. The qualified calls are
    // direct (no vtable load, no indirect branch) and LTO inlines
    // the small kernels straight into Simulator::triggerLevel.
    switch (kindTag) {
      case PrefetcherKind::kNextLine:
        static_cast<NextLinePrefetcher &>(*this)
            .NextLinePrefetcher::observeImpl(trigger, out);
        return;
      case PrefetcherKind::kStride:
        static_cast<StridePrefetcher &>(*this)
            .StridePrefetcher::observeImpl(trigger, out);
        return;
      case PrefetcherKind::kIpcp:
        static_cast<IpcpPrefetcher &>(*this)
            .IpcpPrefetcher::observeImpl(trigger, out);
        return;
      case PrefetcherKind::kBerti:
        static_cast<BertiPrefetcher &>(*this)
            .BertiPrefetcher::observeImpl(trigger, out);
        return;
      case PrefetcherKind::kPythia:
        static_cast<PythiaPrefetcher &>(*this)
            .PythiaPrefetcher::observeImpl(trigger, out);
        return;
      case PrefetcherKind::kSppPpf:
        static_cast<SppPpfPrefetcher &>(*this)
            .SppPpfPrefetcher::observeImpl(trigger, out);
        return;
      case PrefetcherKind::kMlop:
        static_cast<MlopPrefetcher &>(*this)
            .MlopPrefetcher::observeImpl(trigger, out);
        return;
      case PrefetcherKind::kSms:
        static_cast<SmsPrefetcher &>(*this)
            .SmsPrefetcher::observeImpl(trigger, out);
        return;
      case PrefetcherKind::kNone:
        break;
    }
    // Unknown tag (external subclass): virtual fallback.
    observeImpl(trigger, out);
}

void
Prefetcher::serialize(SnapshotIo &io)
{
    io.u32(currentDegree);
    if (io.loading())
        setDegree(currentDegree); // clamp to dmax
}

const char *
prefetcherKindName(PrefetcherKind kind)
{
    switch (kind) {
      case PrefetcherKind::kNone:     return "none";
      case PrefetcherKind::kNextLine: return "next_line";
      case PrefetcherKind::kStride:   return "stride";
      case PrefetcherKind::kIpcp:     return "ipcp";
      case PrefetcherKind::kBerti:    return "berti";
      case PrefetcherKind::kPythia:   return "pythia";
      case PrefetcherKind::kSppPpf:   return "spp_ppf";
      case PrefetcherKind::kMlop:     return "mlop";
      case PrefetcherKind::kSms:      return "sms";
    }
    return "?";
}

std::unique_ptr<Prefetcher>
makePrefetcher(PrefetcherKind kind, std::uint64_t seed,
               CacheLevel level)
{
    switch (kind) {
      case PrefetcherKind::kNone:
        return nullptr;
      case PrefetcherKind::kNextLine:
        return std::make_unique<NextLinePrefetcher>(level);
      case PrefetcherKind::kStride:
        return std::make_unique<StridePrefetcher>(level);
      case PrefetcherKind::kIpcp:
        return std::make_unique<IpcpPrefetcher>();
      case PrefetcherKind::kBerti:
        return std::make_unique<BertiPrefetcher>();
      case PrefetcherKind::kPythia:
        return std::make_unique<PythiaPrefetcher>(seed);
      case PrefetcherKind::kSppPpf:
        return std::make_unique<SppPpfPrefetcher>();
      case PrefetcherKind::kMlop:
        return std::make_unique<MlopPrefetcher>();
      case PrefetcherKind::kSms:
        return std::make_unique<SmsPrefetcher>();
    }
    throw std::invalid_argument(
        "makePrefetcher: unknown PrefetcherKind " +
        std::to_string(static_cast<unsigned>(kind)));
}

} // namespace athena
