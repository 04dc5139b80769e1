/**
 * @file
 * Full-system integration tests: stats consistency, crash stops,
 * NVOverlay end-to-end behaviours (walkers, Lamport counts, OMC
 * buffer, bursty epochs), and qualitative cross-scheme ordering.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "nvoverlay/nvoverlay_scheme.hh"

namespace nvo
{
namespace
{

Config
cfgSmall()
{
    Config cfg = defaultConfig();
    cfg.set("sys.cores", std::uint64_t(8));
    cfg.set("sys.cores_per_vd", std::uint64_t(2));
    cfg.set("l1.kb", std::uint64_t(4));
    cfg.set("l2.kb", std::uint64_t(16));
    cfg.set("llc.mb", std::uint64_t(1));
    cfg.set("wl.ops", std::uint64_t(400));
    cfg.set("epoch.stores_global", std::uint64_t(8000));
    cfg.set("wl.btree.prefill", std::uint64_t(1024));
    cfg.set("wl.hashtable.prefill", std::uint64_t(1024));
    cfg.set("wl.rbtree.prefill", std::uint64_t(1024));
    cfg.set("wl.art.prefill", std::uint64_t(1024));
    return cfg;
}

TEST(SystemTest, StatsAreConsistent)
{
    setQuiet(true);
    System sys(cfgSmall(), "nvoverlay", "btree");
    sys.run();
    const RunStats &st = sys.stats();
    EXPECT_EQ(st.loads + st.stores, st.refs);
    EXPECT_GE(st.instructions, st.refs);
    EXPECT_EQ(st.l1Hits + st.l1Misses, st.refs);
    EXPECT_GT(st.cycles, 0u);
    // Bandwidth series total equals total NVM write bytes.
    std::uint64_t series = 0;
    for (auto b : st.nvmBandwidth.buckets())
        series += b;
    EXPECT_EQ(series, st.totalNvmWriteBytes());
}

TEST(SystemTest, RunUntilStopsEarly)
{
    setQuiet(true);
    Config cfg = cfgSmall();
    cfg.set("wl.ops", std::uint64_t(100000));
    System sys(cfg, "none", "btree");
    bool done = sys.runUntil(50000);
    EXPECT_FALSE(done);
    EXPECT_GE(sys.now(), 50000u);
    EXPECT_LT(sys.now(), 60000u) << "stops within a few quanta";
}

TEST(SystemTest, WorkloadCompletionIsExact)
{
    setQuiet(true);
    Config cfg = cfgSmall();
    System sys(cfg, "none", "hashtable");
    sys.run();
    EXPECT_EQ(sys.workload().opsCompleted(), 400u * 8);
    EXPECT_TRUE(sys.done());
}

TEST(SystemTest, ChunkedRunPublishesTheSameExtra)
{
    // The capped multi-tenant config that exercises every count that
    // is published into `extra` by name: late merges, pool extensions,
    // quota rejections, throttle stalls (plus the policy and wear
    // exports). Driving it through runUntil chunks before run(), as
    // perfbench does, must publish the same `extra` as one run().
    setQuiet(true);
    Config cfg = defaultConfig();
    for (const auto &[key, value] :
         {std::pair<const char *, const char *>{"tenant.enabled", "1"},
          {"wl.kv.tenants", "4"},
          {"tenant.quota_lines", "600"},
          {"tenant.qos_bytes_per_kcycle", "16"},
          {"tenant.qos_burst_bytes", "8192"},
          {"policy.enabled", "1"},
          {"nvm.wear.enabled", "1"},
          {"mnm.pool_mb_per_omc", "1"},
          {"epoch.stores_global", "4096"},
          {"wl.ops", "4000"},
          {"rng.seed", "1"}})
        cfg.set(key, value);
    // Throttle stalls stretch this run to ~700k quanta; in audit
    // builds a full structural sweep every 64 quanta would cost
    // minutes. The sweeps still run, every 8192 quanta and at the end.
    cfg.set("audit.stride", std::uint64_t(8192));
    auto simulated = [](const RunStats &st) {
        auto extra = st.extra;
        std::erase_if(extra, [](const auto &kv) {
            return kv.first.rfind("host_", 0) == 0;
        });
        return extra;
    };

    System whole(cfg, "nvoverlay", "kv_service");
    whole.run();
    const auto expect = simulated(whole.stats());
    for (const char *key : {"late_merges", "pool_extensions",
                            "tenant_quota_rejections",
                            "tenant_throttle_stalls"})
        EXPECT_TRUE(expect.count(key)) << key << " never counted";

    System chunked(cfg, "nvoverlay", "kv_service");
    const Cycle step = whole.stats().cycles / 5;
    ASSERT_GT(step, 0u);
    for (Cycle limit = step; !chunked.runUntil(limit); limit += step) {
        // Each chunk boundary publishes what the run counted so far.
        const RunStats &st = chunked.stats();
        if (st.tenantQuotaRejections) {
            EXPECT_EQ(st.extra.at("tenant_quota_rejections"),
                      st.tenantQuotaRejections);
        }
    }
    chunked.run();
    EXPECT_EQ(simulated(chunked.stats()), expect);
}

TEST(SystemTest, NvoWalkersMakeProgress)
{
    setQuiet(true);
    System sys(cfgSmall(), "nvoverlay", "btree");
    sys.run();
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    EXPECT_GT(sys.stats().tagWalkWriteBacks, 0u);
    EXPECT_GT(scheme.walker(0).walksCompleted(), 0u);
    EXPECT_GT(scheme.backend().recEpoch(), 0u);
    EXPECT_GT(sys.stats().epochAdvances, 0u);
}

TEST(SystemTest, NvoLamportSyncHappensUnderSharing)
{
    setQuiet(true);
    // The hashtable global lock forces cross-VD version observation.
    System sys(cfgSmall(), "nvoverlay", "hashtable");
    sys.run();
    EXPECT_GT(sys.stats().lamportAdvances, 0u);
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    EXPECT_TRUE(scheme.senseTracker().skewWithinBound());
}

TEST(SystemTest, NvoWithoutWalkerStillCorrectButNoRecEpoch)
{
    setQuiet(true);
    Config cfg = cfgSmall();
    cfg.set("nvo.walker_enabled", "false");
    System sys(cfg, "nvoverlay", "btree");
    sys.run();
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    EXPECT_EQ(sys.stats().tagWalkWriteBacks, 0u);
    EXPECT_EQ(scheme.backend().recEpoch(), 0u)
        << "rec-epoch cannot advance without min-ver certificates";
    EXPECT_EQ(sys.hierarchy().checkInvariants(), "")
        << "protocol correctness does not rely on the walker";
}

TEST(SystemTest, OmcBufferReducesNvmWrites)
{
    setQuiet(true);
    Config cfg = cfgSmall();
    // One long epoch maximizes redundant same-epoch write backs
    // (the Fig. 16 setup).
    cfg.set("epoch.stores_global", std::uint64_t(1) << 40);
    System plain(cfg, "nvoverlay", "kmeans");
    plain.run();

    Config buf_cfg = cfg;
    buf_cfg.set("mnm.use_buffer", "true");
    buf_cfg.set("mnm.buffer_mb", std::uint64_t(4));
    System buffered(buf_cfg, "nvoverlay", "kmeans");
    buffered.run();

    EXPECT_LT(buffered.stats().nvmDataBytes(),
              plain.stats().nvmDataBytes());
    EXPECT_GT(buffered.stats().omcBufferHits, 0u);
}

TEST(SystemTest, BurstyEpochsIncreaseAdvanceCount)
{
    setQuiet(true);
    Config cfg = cfgSmall();
    System sys(cfg, "nvoverlay", "btree");
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    sys.runUntil(200000);
    std::uint64_t before = sys.stats().epochAdvances;
    scheme.setStoresPerEpochVd(50);   // watch-point burst
    sys.runUntil(400000);
    std::uint64_t during = sys.stats().epochAdvances - before;
    EXPECT_GT(during, 10u) << "bursty epochs advance rapidly";
}

TEST(SystemTest, SwSchemesSlowerThanHardware)
{
    setQuiet(true);
    Config cfg = cfgSmall();
    std::uint64_t cycles_none, cycles_swlog, cycles_nvo;
    {
        System sys(cfg, "none", "btree");
        sys.run();
        cycles_none = sys.stats().cycles;
    }
    {
        System sys(cfg, "swlog", "btree");
        sys.run();
        cycles_swlog = sys.stats().cycles;
    }
    {
        System sys(cfg, "nvoverlay", "btree");
        sys.run();
        cycles_nvo = sys.stats().cycles;
    }
    EXPECT_GT(cycles_swlog, 2 * cycles_none)
        << "per-store barriers dominate";
    EXPECT_LT(cycles_nvo, cycles_swlog);
}

TEST(SystemTest, WriteAmpOrderingPiclAboveNvo)
{
    setQuiet(true);
    Config cfg = cfgSmall();
    cfg.set("wl.ops", std::uint64_t(1500));
    cfg.set("wl.rbtree.prefill", std::uint64_t(16384));
    std::uint64_t bytes_nvo, bytes_picl;
    {
        System sys(cfg, "nvoverlay", "rbtree");
        sys.run();
        bytes_nvo = sys.stats().totalNvmWriteBytes();
    }
    {
        System sys(cfg, "picl", "rbtree");
        sys.run();
        bytes_picl = sys.stats().totalNvmWriteBytes();
    }
    EXPECT_GT(bytes_picl, bytes_nvo)
        << "logging writes both log and data (Fig. 12 shape)";
}

TEST(SystemTest, EpochSkewStaysBounded)
{
    setQuiet(true);
    Config cfg = cfgSmall();
    System sys(cfg, "nvoverlay", "vacation");
    sys.run();
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    EXPECT_TRUE(scheme.senseTracker().skewWithinBound())
        << "inter-VD skew below half the 16-bit epoch space";
}

TEST(SystemTest, InvariantsHoldForEverySchemeOnSharedWorkload)
{
    setQuiet(true);
    for (const char *scheme :
         {"none", "nvoverlay", "swlog", "swshadow", "hwshadow",
          "picl", "picl-l2"}) {
        Config cfg = cfgSmall();
        cfg.set("wl.ops", std::uint64_t(150));
        System sys(cfg, scheme, "vacation");
        sys.run();
        EXPECT_EQ(sys.hierarchy().checkInvariants(), "") << scheme;
    }
}

} // namespace
} // namespace nvo
