/**
 * @file
 * Unit tests for common utilities: Config, Rng, bit utilities,
 * Histogram/TimeSeries statistics.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/bitutil.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace nvo
{
namespace
{

TEST(Config, SetAndGetString)
{
    Config cfg;
    cfg.set("a.b", "hello");
    EXPECT_EQ(cfg.getStr("a.b", "x"), "hello");
    EXPECT_EQ(cfg.getStr("missing", "dflt"), "dflt");
}

TEST(Config, IntegerParsing)
{
    Config cfg;
    cfg.set("n", std::uint64_t(42));
    EXPECT_EQ(cfg.getU64("n", 0), 42u);
    cfg.set("hex", "0x10");
    EXPECT_EQ(cfg.getU64("hex", 0), 16u);
    EXPECT_EQ(cfg.getU64("absent", 7), 7u);
}

TEST(Config, FloatAndBool)
{
    Config cfg;
    cfg.set("f", 0.5);
    EXPECT_DOUBLE_EQ(cfg.getF64("f", 0), 0.5);
    cfg.set("t", "true");
    cfg.set("one", "1");
    cfg.set("no", "no");
    EXPECT_TRUE(cfg.getBool("t", false));
    EXPECT_TRUE(cfg.getBool("one", false));
    EXPECT_FALSE(cfg.getBool("no", true));
    EXPECT_TRUE(cfg.getBool("absent", true));
}

TEST(Config, ParseArg)
{
    Config cfg;
    cfg.parseArg("l2.kb=512");
    EXPECT_EQ(cfg.getU64("l2.kb", 0), 512u);
}

TEST(Config, HasReflectsExplicitKeysOnly)
{
    Config cfg;
    EXPECT_FALSE(cfg.has("k"));
    cfg.getU64("k", 3);   // access with default does not set
    EXPECT_FALSE(cfg.has("k"));
    cfg.set("k", std::uint64_t(1));
    EXPECT_TRUE(cfg.has("k"));
}

TEST(Config, DumpIncludesAccessedDefaults)
{
    Config cfg;
    cfg.getU64("some.default", 99);
    auto dump = cfg.dump();
    EXPECT_EQ(dump.at("some.default"), "99");
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123), c(124);
    for (int i = 0; i < 100; ++i) {
        auto va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c.next();
    }
    Rng a2(123), c2(124);
    EXPECT_NE(a2.next(), c2.next());
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.05);
}

TEST(BitUtil, Pow2Helpers)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(64));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(24));
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(64), 6u);
    EXPECT_EQ(log2Floor(100), 6u);
    EXPECT_EQ(log2Exact(4096), 12u);
}

TEST(BitUtil, BitsExtraction)
{
    EXPECT_EQ(bits(0xff00, 15, 8), 0xffu);
    EXPECT_EQ(bits(0xabcd, 3, 0), 0xdu);
    EXPECT_EQ(bits(~0ull, 63, 0), ~0ull);
}

TEST(BitUtil, Alignment)
{
    EXPECT_EQ(lineAlign(0x12345), Addr(0x12340));
    EXPECT_EQ(pageAlign(0x12345), Addr(0x12000));
    EXPECT_EQ(lineInPage(0x12345), (0x345u >> 6));
    EXPECT_EQ(roundUpPow2(65, 64), 128u);
    EXPECT_EQ(roundUpPow2(64, 64), 64u);
}

TEST(TimeSeries, BinningAndPeak)
{
    TimeSeries ts(100);
    ts.add(0, 64);
    ts.add(99, 64);
    ts.add(100, 64);
    ts.add(1000, 640);
    EXPECT_EQ(ts.buckets()[0], 128u);
    EXPECT_EQ(ts.buckets()[1], 64u);
    EXPECT_EQ(ts.buckets()[10], 640u);
    EXPECT_EQ(ts.peakBytes(), 640u);
}

TEST(TimeSeries, GbPerSecond)
{
    TimeSeries ts(3'000'000'000ull);   // 1 s @ 3 GHz per bucket
    ts.add(0, 1'000'000'000ull);       // 1 GB in the first second
    EXPECT_NEAR(ts.gbPerSec(0, 3e9), 1.0, 1e-9);
}

TEST(RunStats, NvmWriteAggregation)
{
    RunStats st;
    st.addNvmWrite(NvmWriteKind::Data, 64, 0);
    st.addNvmWrite(NvmWriteKind::Log, 72, 10);
    st.addNvmWrite(NvmWriteKind::Mapping, 8, 20);
    EXPECT_EQ(st.totalNvmWriteBytes(), 144u);
    EXPECT_EQ(st.nvmDataBytes(), 64u);
    EXPECT_EQ(st.nvmWriteOps, 3u);
    EXPECT_DOUBLE_EQ(st.writeAmp(72), 2.0);
    EXPECT_DOUBLE_EQ(st.writeAmp(0), 0.0);
}

TEST(RunStats, EnumNames)
{
    EXPECT_STREQ(toString(NvmWriteKind::Data), "data");
    EXPECT_STREQ(toString(EvictReason::TagWalk), "tag-walk");
    EXPECT_STREQ(toString(EvictReason::StoreEvict), "store-evict");
}

} // namespace
} // namespace nvo
