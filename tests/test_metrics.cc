/**
 * @file
 * Telemetry plane (src/obs: hist, registry, exporter formats).
 *
 * The load-bearing contracts: bucket math keeps every quantile
 * within 1/16 relative error of the rank-selected sample; the
 * Prometheus text round-trips the registry's summaries; and a disarmed
 * registry (or an NVO_METRIC=OFF build) records nothing while
 * everything still compiles and runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "obs/hist.hh"
#include "obs/json.hh"
#include "obs/registry.hh"

namespace nvo
{
namespace
{

using obs::Histogram;

// --- Bucket math ----------------------------------------------------

TEST(Histogram, ValuesBelowSixteenAreExact)
{
    for (std::uint64_t v = 0; v < Histogram::subCount; ++v) {
        EXPECT_EQ(Histogram::bucketIndex(v), v);
        EXPECT_EQ(Histogram::bucketLow(static_cast<unsigned>(v)), v);
    }
}

TEST(Histogram, OctaveBoundaries)
{
    // The first octave group starts exactly at 16 and is still exact
    // (stride 1); the second group (32..63) has stride 2.
    EXPECT_EQ(Histogram::bucketIndex(15), 15u);
    EXPECT_EQ(Histogram::bucketIndex(16), 16u);
    EXPECT_EQ(Histogram::bucketIndex(17), 17u);
    EXPECT_EQ(Histogram::bucketIndex(31), 31u);
    EXPECT_EQ(Histogram::bucketIndex(32), 32u);
    EXPECT_EQ(Histogram::bucketIndex(33), 32u);   // stride 2 begins
    EXPECT_EQ(Histogram::bucketIndex(34), 33u);
    // Every uint64 maps into the fixed array, including the extremes.
    EXPECT_LT(Histogram::bucketIndex(std::uint64_t(1) << 63),
              Histogram::numBuckets);
    EXPECT_EQ(Histogram::bucketIndex(~std::uint64_t(0)),
              Histogram::numBuckets - 1);
}

TEST(Histogram, BucketLowIsTightLowerBound)
{
    std::mt19937_64 rng(0xb10c5);
    for (int i = 0; i < 20000; ++i) {
        // Spread samples across all magnitudes.
        std::uint64_t v = rng() >> (rng() % 64);
        unsigned idx = Histogram::bucketIndex(v);
        std::uint64_t low = Histogram::bucketLow(idx);
        EXPECT_LE(low, v);
        if (idx + 1 < Histogram::numBuckets) {
            EXPECT_LT(v, Histogram::bucketLow(idx + 1));
        }
        // Bucket width <= low / 16: the 1/16 relative-error bound.
        EXPECT_LE(v - low, low / Histogram::subCount);
    }
}

TEST(Histogram, PercentilesMatchSortedOracle)
{
    std::mt19937_64 rng(42);
    Histogram h;
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 10000; ++i) {
        // Log-uniform-ish: walk depths, scan distances, and stall
        // cycles all span several octaves.
        std::uint64_t v = rng() >> (rng() % 60);
        samples.push_back(v);
        h.record(v);
    }
    std::sort(samples.begin(), samples.end());
    for (double p : {50.0, 90.0, 99.0}) {
        std::size_t rank = static_cast<std::size_t>(
            std::max(1.0, std::ceil(p / 100.0 *
                                    static_cast<double>(
                                        samples.size()))));
        std::uint64_t oracle = samples[rank - 1];
        std::uint64_t got = h.percentile(p);
        EXPECT_LE(got, oracle) << "p" << p;
        EXPECT_LE(oracle - got, got / Histogram::subCount)
            << "p" << p << " outside the 1/16 error bound";
    }
    EXPECT_EQ(h.min(), samples.front());
    EXPECT_EQ(h.max(), samples.back());
    EXPECT_EQ(h.bucketOccupancySum(), h.count());
}

// --- Registry -------------------------------------------------------

Config
armedConfig()
{
    Config cfg;
    cfg.set("metrics.enabled", "true");
    return cfg;
}

TEST(MetricRegistry, RegistrationDedupsByName)
{
    auto &reg = obs::metricRegistry();
    reg.configure(armedConfig());
    obs::HistMetric *h1 = reg.addHist("test.dedup_hist");
    obs::HistMetric *h2 = reg.addHist("test.dedup_hist");
    EXPECT_EQ(h1, h2);
}

TEST(MetricRegistry, PrometheusRoundTrip)
{
    auto &reg = obs::metricRegistry();
    reg.configure(armedConfig());
    obs::HistMetric *h = reg.addHist("test.rt_lat");
    for (std::uint64_t v : {1, 2, 3, 100, 1000})
        reg.record(h, v);

    std::ostringstream os;
    reg.writePrometheus(os);

    // Parse the text format back: `name{labels} value` per line.
    std::map<std::string, std::string> vals;
    std::istringstream in(os.str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        vals[line.substr(0, sp)] = line.substr(sp + 1);
    }
    EXPECT_EQ(vals.at("nvo_test_rt_lat_count"), "5");
    EXPECT_EQ(vals.at("nvo_test_rt_lat_sum"), "1106");
    EXPECT_EQ(vals.at("nvo_test_rt_lat_max"), "1000");
    // Quantile samples must equal the registry's own percentiles.
    EXPECT_EQ(vals.at("nvo_test_rt_lat{quantile=\"0.5\"}"),
              std::to_string(h->hist.percentile(50.0)));
    EXPECT_EQ(vals.at("nvo_test_rt_lat{quantile=\"0.99\"}"),
              std::to_string(h->hist.percentile(99.0)));
}

TEST(MetricRegistry, DisarmedMacroRecordsNothing)
{
    auto &reg = obs::metricRegistry();
    reg.configure(Config());   // metrics.enabled unset: disarmed
    EXPECT_FALSE(reg.armed());
    obs::HistMetric *h = reg.addHist("test.disarmed");
    NVO_METRIC(record(h, 7));
    EXPECT_EQ(h->hist.count(), 0u);
    // Under NVO_METRIC=OFF even an armed-looking config must stay
    // disarmed: the macro body is never evaluated.
    reg.configure(armedConfig());
    EXPECT_EQ(reg.armed(), obs::metricCompiled);
    NVO_METRIC(record(h, 7));
    EXPECT_EQ(h->hist.count(),
              obs::metricCompiled ? 1u : 0u);
}

// --- End to end ------------------------------------------------------

TEST(MetricRegistry, ArmedRunSnapshotCarriesSamples)
{
    Config cfg = defaultConfig();
    cfg.set("sys.cores", std::uint64_t(8));
    cfg.set("l1.kb", std::uint64_t(4));
    cfg.set("l2.kb", std::uint64_t(16));
    cfg.set("llc.mb", std::uint64_t(1));
    cfg.set("wl.ops", std::uint64_t(150));
    cfg.set("epoch.stores_global", std::uint64_t(60000));
    cfg.set("metrics.enabled", "true");
    System sys(cfg, "nvoverlay", "btree");
    sys.run();
    std::ostringstream os;
    obs::JsonWriter w(os);
    obs::metricRegistry().writeJson(w);
    const std::string text = os.str();
    if (!obs::metricCompiled)
        GTEST_SKIP() << "built with NVO_METRIC=OFF";
    // A snapshot of a real run, not an all-zero shell.
    EXPECT_NE(text.find("\"enabled\":true"), std::string::npos);
    EXPECT_GT(obs::metricRegistry()
                  .addHist("mnm.insert_walk_depth")
                  ->hist.count(),
              0u);
}

} // namespace
} // namespace nvo
