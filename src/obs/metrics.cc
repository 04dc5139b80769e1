#include "obs/metrics.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/json.hh"

namespace nvo
{
namespace obs
{

void
EpochSeries::addProbe(std::string name,
                      std::function<std::uint64_t()> fn)
{
    nvo_assert(rows == 0, "probe added after sampling started");
    probes.push_back({std::move(name), std::move(fn)});
}

void
EpochSeries::record(EpochWide epoch, Cycle now)
{
    data.push_back(epoch);
    data.push_back(now);
    for (const auto &probe : probes)
        data.push_back(probe.fn());
    ++rows;
}

void
EpochSeries::sample(EpochWide epoch, Cycle now)
{
    // Decimation: only every decim_-th boundary records. The skip
    // counter keeps counting while rows are dropped, so the kept
    // rows stay evenly spaced in boundary index.
    if (sampleCalls_++ % decim_ != 0)
        return;
    record(epoch, now);
    if (maxRows_ && rows >= maxRows_) {
        // Cap reached: drop every other held row (keeping the even
        // indices, i.e., boundary indices divisible by 2*decim_) and
        // double the decimation factor. Memory stays bounded at
        // maxRows_ rows no matter how long the soak runs.
        std::size_t stride = probes.size() + 2;
        std::size_t kept = 0;
        for (std::size_t r = 0; r < rows; r += 2, ++kept)
            if (kept != r)
                std::copy(data.begin() +
                              static_cast<std::ptrdiff_t>(r * stride),
                          data.begin() + static_cast<std::ptrdiff_t>(
                                             (r + 1) * stride),
                          data.begin() +
                              static_cast<std::ptrdiff_t>(kept *
                                                          stride));
        rows = kept;
        data.resize(rows * stride);
        decim_ *= 2;
    }
}

void
EpochSeries::sampleForced(EpochWide epoch, Cycle now)
{
    // The closing row must always land (it holds the finalize
    // flush), so it bypasses the decimation skip and never triggers
    // a halving pass; the series holds at most maxRows_ + 1 rows.
    ++sampleCalls_;
    record(epoch, now);
}

void
EpochSeries::setMaxRows(std::size_t max_rows)
{
    nvo_assert(rows == 0, "row cap set after sampling started");
    // A cap below 2 could never halve into forward progress.
    nvo_assert(max_rows == 0 || max_rows >= 2,
               "stats.series_max must be 0 or >= 2");
    maxRows_ = max_rows;
}

std::uint64_t
EpochSeries::decimation() const
{
    return decim_;
}

std::vector<std::string>
EpochSeries::columns() const
{
    std::vector<std::string> cols = {"epoch", "cycle"};
    for (const auto &probe : probes)
        cols.push_back(probe.name);
    return cols;
}

std::uint64_t
EpochSeries::value(std::size_t row, std::size_t col) const
{
    std::size_t stride = probes.size() + 2;
    nvo_assert(row < rows && col < stride, "series index out of range");
    return data[row * stride + col];
}

void
EpochSeries::writeCsv(std::ostream &os) const
{
    auto cols = columns();
    for (std::size_t c = 0; c < cols.size(); ++c)
        os << (c ? "," : "") << cols[c];
    os << "\n";
    std::size_t stride = probes.size() + 2;
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < stride; ++c)
            os << (c ? "," : "") << data[r * stride + c];
        os << "\n";
    }
}

void
EpochSeries::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.key("columns").beginArray();
    for (const auto &col : columns())
        w.value(col);
    w.endArray();
    w.key("rows").beginArray();
    std::size_t stride = probes.size() + 2;
    for (std::size_t r = 0; r < rows; ++r) {
        w.beginArray();
        for (std::size_t c = 0; c < stride; ++c)
            w.value(data[r * stride + c]);
        w.endArray();
    }
    w.endArray();
    // Only capped series note their decimation factor, so the JSON
    // of every pre-existing (uncapped) run is byte-unchanged.
    if (maxRows_)
        w.kv("decimation", decim_);
    w.endObject();
}

} // namespace obs
} // namespace nvo
