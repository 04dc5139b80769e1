#include "common/stats.hh"

#include "common/log.hh"

namespace nvo
{

const char *
toString(NvmWriteKind kind)
{
    switch (kind) {
      case NvmWriteKind::Data: return "data";
      case NvmWriteKind::Log: return "log";
      case NvmWriteKind::Mapping: return "mapping";
      case NvmWriteKind::Context: return "context";
      default: return "?";
    }
}

const char *
toString(EvictReason reason)
{
    switch (reason) {
      case EvictReason::Capacity: return "capacity";
      case EvictReason::Coherence: return "coherence";
      case EvictReason::TagWalk: return "tag-walk";
      case EvictReason::StoreEvict: return "store-evict";
      case EvictReason::EpochFlush: return "epoch-flush";
      default: return "?";
    }
}

TimeSeries::TimeSeries(Cycle bucket_cycles) : width(bucket_cycles)
{
    nvo_assert(bucket_cycles > 0);
}

void
TimeSeries::add(Cycle when, std::uint64_t bytes)
{
    std::size_t idx = when / width;
    if (idx >= bins.size())
        bins.resize(idx + 1, 0);
    bins[idx] += bytes;
}

double
TimeSeries::gbPerSec(std::size_t i, double cycles_per_sec) const
{
    if (i >= bins.size())
        return 0.0;
    double seconds = width / cycles_per_sec;
    return bins[i] / seconds / 1e9;
}

std::uint64_t
TimeSeries::peakBytes() const
{
    std::uint64_t peak = 0;
    for (auto b : bins)
        if (b > peak)
            peak = b;
    return peak;
}

double
TimeSeries::meanBytes() const
{
    if (bins.empty())
        return 0.0;
    std::size_t last = bins.size();
    while (last > 0 && bins[last - 1] == 0)
        --last;
    if (last == 0)
        return 0.0;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < last; ++i)
        total += bins[i];
    return static_cast<double>(total) / last;
}

void
RunStats::addNvmWrite(NvmWriteKind kind, std::uint64_t bytes, Cycle when)
{
    nvmWriteBytes[static_cast<std::size_t>(kind)] += bytes;
    ++nvmWriteOps;
    nvmBandwidth.add(when, bytes);
}

void
RunStats::publish()
{
    if (stores)
        extra["lat_store"] = storeLatCycles;
    if (loads)
        extra["lat_load"] = loadLatCycles;
    auto put = [this](const char *key, std::uint64_t v) {
        if (v)
            extra[key] = v;
    };
    put("nvm_write_retries", nvmWriteRetries);
    put("subpage_reloc_bytes", subpageRelocBytes);
    put("pool_extensions", poolExtensions);
    put("late_merges", lateMerges);
    put("tenant_quota_rejections", tenantQuotaRejections);
    put("tenant_throttle_stalls", tenantThrottleStalls);
}

std::uint64_t
RunStats::totalNvmWriteBytes() const
{
    std::uint64_t total = 0;
    for (auto b : nvmWriteBytes)
        total += b;
    return total;
}

std::uint64_t
RunStats::nvmDataBytes() const
{
    return nvmWriteBytes[static_cast<std::size_t>(NvmWriteKind::Data)];
}

double
RunStats::writeAmp(std::uint64_t base_bytes) const
{
    if (base_bytes == 0)
        return 0.0;
    return static_cast<double>(totalNvmWriteBytes()) / base_bytes;
}

void
RunStats::print(std::ostream &os, const std::string &label) const
{
    os << "=== " << label << " ===\n";
    os << "cycles " << cycles << " instrs " << instructions << " refs "
       << refs << " (ld " << loads << " st " << stores << ")\n";
    os << "L1 " << l1Hits << "/" << (l1Hits + l1Misses) << "  L2 "
       << l2Hits << "/" << (l2Hits + l2Misses) << "  LLC " << llcHits
       << "/" << (llcHits + llcMisses) << "\n";
    os << "nvm-writes:";
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(NvmWriteKind::NumKinds); ++i) {
        os << " " << toString(static_cast<NvmWriteKind>(i)) << "="
           << nvmWriteBytes[i];
    }
    os << " total=" << totalNvmWriteBytes() << "\n";
    os << "evictions:";
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(EvictReason::NumReasons); ++i) {
        os << " " << toString(static_cast<EvictReason>(i)) << "="
           << evictReason[i];
    }
    os << "\n";
    os << "epochs: advances=" << epochAdvances << " lamport="
       << lamportAdvances << " barrier-stall=" << barrierStallCycles
       << "\n";
}

} // namespace nvo
