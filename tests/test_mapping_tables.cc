/**
 * @file
 * Per-epoch overlay table and master mapping table tests
 * (paper Sec. V-C, Fig. 10).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hh"
#include "nvoverlay/epoch_table.hh"
#include "nvoverlay/master_table.hh"
#include "nvoverlay/page_pool.hh"
#include "obs/registry.hh"

namespace nvo
{
namespace
{

constexpr Addr poolBase = 1ull << 40;

LineData
lineOf(std::uint8_t fill)
{
    LineData d;
    d.bytes.fill(fill);
    return d;
}

class EpochTableTest : public ::testing::Test
{
  protected:
    EpochTableTest() : pool(poolBase, 256 * pageBytes)
    {
        EpochTable::Params p;
        p.initLines = 4;
        p.growthFactor = 4;
        table = std::make_unique<EpochTable>(7, pool, p);
        sinks.data = [this](Addr, std::uint32_t b) { dataBytes += b; };
        sinks.reloc = [this](Addr, std::uint32_t b) {
            relocBytes += b;
        };
        sinks.meta = [this](std::uint32_t b) { metaBytes += b; };
    }

    PagePool pool;
    std::unique_ptr<EpochTable> table;
    EpochTable::Sinks sinks;
    std::uint64_t dataBytes = 0, relocBytes = 0, metaBytes = 0;
};

TEST_F(EpochTableTest, InsertLookupRoundTrip)
{
    ASSERT_TRUE(table->insert(0x1000, 1, lineOf(0xaa), sinks));
    LineData out;
    ASSERT_TRUE(table->readVersion(0x1000, out));
    EXPECT_EQ(out, lineOf(0xaa));
    EXPECT_FALSE(table->readVersion(0x1040, out));
    EXPECT_EQ(table->versionCount(), 1u);
    EXPECT_EQ(dataBytes, 64u);
}

TEST_F(EpochTableTest, SparsePageStartsSmall)
{
    table->insert(0x1000, 1, lineOf(1), sinks);
    EXPECT_EQ(pool.bytesAllocated(), 4u * lineBytes)
        << "initial sub-page is 4 lines, not a full page";
}

TEST_F(EpochTableTest, GrowthRelocatesCompactly)
{
    // Fill 5 lines of one page: 4-line sub-page grows to 16.
    for (unsigned i = 0; i < 5; ++i)
        table->insert(0x2000 + i * 64, i, lineOf(i + 1), sinks);
    EXPECT_EQ(relocBytes, 4u * lineBytes) << "4 lines relocated";
    EXPECT_EQ(pool.bytesAllocated(), 16u * lineBytes);
    for (unsigned i = 0; i < 5; ++i) {
        LineData out;
        ASSERT_TRUE(table->readVersion(0x2000 + i * 64, out));
        EXPECT_EQ(out, lineOf(i + 1)) << "line " << i;
    }
}

TEST_F(EpochTableTest, SameEpochOverwriteKeepsNewest)
{
    table->insert(0x1000, 10, lineOf(1), sinks);
    table->insert(0x1000, 20, lineOf(2), sinks);
    LineData out;
    table->readVersion(0x1000, out);
    EXPECT_EQ(out, lineOf(2));
    // A stale (lower-seq) write costs a device write but does not
    // clobber newer content.
    table->insert(0x1000, 15, lineOf(3), sinks);
    table->readVersion(0x1000, out);
    EXPECT_EQ(out, lineOf(2));
    EXPECT_EQ(table->versionCount(), 1u);
    EXPECT_EQ(dataBytes, 3u * 64);
}

TEST_F(EpochTableTest, HeaderDescribesSubPage)
{
    table->insert(0x3000, 1, lineOf(9), sinks);
    table->insert(0x3040, 2, lineOf(8), sinks);
    const auto *pe = table->pageEntry(0x3000);
    ASSERT_NE(pe, nullptr);
    const auto *hdr = pool.header(pe->subPage);
    ASSERT_NE(hdr, nullptr);
    EXPECT_EQ(hdr->srcPage, 0x3000u);
    EXPECT_EQ(hdr->epoch, 7u);
    EXPECT_EQ(hdr->usedLines, 2u);
    EXPECT_EQ(hdr->slotLine[0], lineInPage(0x3000));
    EXPECT_EQ(hdr->slotLine[1], lineInPage(0x3040));
    EXPECT_GT(metaBytes, 0u);
}

TEST_F(EpochTableTest, ForEachVersionVisitsAll)
{
    std::map<Addr, bool> want;
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        Addr a = lineAlign(rng.below(1 << 20));
        table->insert(a, i, lineOf(1), sinks);
        want[a] = true;
    }
    std::map<Addr, bool> got;
    table->forEachVersion(
        [&](Addr line, Addr nvm) {
            got[line] = true;
            EXPECT_NE(nvm, invalidAddr);
        });
    EXPECT_EQ(got, want);
    EXPECT_EQ(table->versionCount(), want.size());
}

TEST_F(EpochTableTest, PoolExhaustionReturnsFalse)
{
    PagePool tiny(poolBase + (1ull << 30), pageBytes);
    EpochTable::Params p;
    p.initLines = 64;
    EpochTable t(1, tiny, p);
    EXPECT_TRUE(t.insert(0x0, 1, lineOf(1), sinks));
    EXPECT_FALSE(t.insert(0x1000, 2, lineOf(2), sinks))
        << "second full page does not fit";
}

TEST_F(EpochTableTest, TableBytesGrowWithFootprint)
{
    // The modelled radix: 4 KB inner nodes (9 bits per level) and
    // 16 B leaf descriptors. Walk depth is 4 plus the nodes and leaf
    // an insert allocates.
    auto &reg = obs::metricRegistry();
    const bool was_armed = reg.armed();
    obs::HistMetric *walk = reg.addHist("mnm.insert_walk_depth");
    walk->hist.reset();
    reg.setArmed(true);

    EXPECT_EQ(table->tableBytes(), 4096u) << "root only";
    table->insert(0x1000, 1, lineOf(1), sinks);
    EXPECT_EQ(table->tableBytes(), 16400u) << "3 nodes + 1 leaf";
    table->insert(0x1040, 2, lineOf(1), sinks);   // same page: a hit
    EXPECT_EQ(table->tableBytes(), 16400u);
    // A second page in the same 2 MB region adds only its leaf.
    table->insert(0x2000, 3, lineOf(1), sinks);
    EXPECT_EQ(table->tableBytes(), 16416u);
    // Bits 38..30 differ: two new inner nodes plus a leaf.
    table->insert(0x1000000000, 4, lineOf(1), sinks);
    EXPECT_EQ(table->tableBytes(), 16416u + 8208u);

    reg.setArmed(was_armed);
    if (!obs::metricCompiled)
        GTEST_SKIP() << "built with NVO_METRIC=OFF";
    const obs::Histogram &h = walk->hist;
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.bucket(8), 1u) << "first insert: 4 + 3 nodes + leaf";
    EXPECT_EQ(h.bucket(4), 1u) << "hit";
    EXPECT_EQ(h.bucket(5), 1u) << "leaf only";
    EXPECT_EQ(h.bucket(7), 1u) << "2 nodes + leaf";
    EXPECT_EQ(h.sum(), 24u);
}

TEST_F(EpochTableTest, LargeTableKeepsFootprintAndLookups)
{
    // Pages 1 GB apart share only the level-1 node: each adds a
    // level-2 and a level-3 node. 40 pages take the table past the
    // page-list scan onto its host radix.
    constexpr unsigned pages = 40;
    for (unsigned i = 0; i < pages; ++i)
        ASSERT_TRUE(table->insert(static_cast<Addr>(i) << 30, i,
                                  lineOf(static_cast<std::uint8_t>(i)),
                                  sinks));
    EXPECT_EQ(table->tableBytes(),
              (1 + 1 + 2 * pages) * 4096u + pages * 16u);
    std::vector<Addr> order;
    table->forEachVersion(
        [&](Addr line, Addr) { order.push_back(line); });
    ASSERT_EQ(order.size(), pages);
    for (unsigned i = 0; i < pages; ++i) {
        EXPECT_EQ(order[i], static_cast<Addr>(i) << 30)
            << "insertion order";
        LineData out;
        ASSERT_TRUE(table->readVersion(static_cast<Addr>(i) << 30, out));
        EXPECT_EQ(out, lineOf(static_cast<std::uint8_t>(i)));
        EXPECT_NE(table->pageEntry(static_cast<Addr>(i) << 30), nullptr);
    }
    EXPECT_EQ(table->pageEntry(0x1000), nullptr);
}

TEST(MasterTable, InsertLookupReplace)
{
    MasterTable mt;
    EXPECT_EQ(mt.lookup(0x1000), nullptr);
    auto replaced = mt.insert(tenant::keyOf(0x1000), poolBase, 3);
    EXPECT_FALSE(replaced.has_value());
    const auto *e = mt.lookup(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->nvmAddr, poolBase);
    EXPECT_EQ(e->epoch, 3u);

    auto old = mt.insert(tenant::keyOf(0x1000), poolBase + 64, 5);
    ASSERT_TRUE(old.has_value());
    EXPECT_EQ(old->epoch, 3u);
    EXPECT_EQ(mt.lookup(0x1000)->epoch, 5u);
    EXPECT_EQ(mt.mappedLines(), 1u);
}

TEST(MasterTable, MetaWritesPerInsert)
{
    std::uint64_t bytes = 0;
    MasterTable mt([&](std::uint32_t b) { bytes += b; });
    mt.insert(tenant::keyOf(0x1000), poolBase, 1);
    // First insert creates 3 inner pointers + leaf pointer + entry.
    EXPECT_EQ(bytes, 5u * 8);
    bytes = 0;
    mt.insert(tenant::keyOf(0x1040), poolBase + 64, 1);   // same leaf
    EXPECT_EQ(bytes, 8u);
}

TEST(MasterTable, NodeBytesMatchStructure)
{
    MasterTable mt;
    std::uint64_t root_only = mt.nodeBytes();
    EXPECT_EQ(root_only, 512u * 8);
    mt.insert(tenant::keyOf(0x1000), poolBase, 1);
    // +3 inner nodes +1 leaf node (64 entries x 8 B).
    EXPECT_EQ(mt.nodeBytes(), root_only + 3 * 512 * 8 + 64 * 8);
    // Fig. 13 lower bound: one full page of lines maps at 12.5 %.
    for (unsigned i = 0; i < 64; ++i)
        mt.insert(tenant::keyOf(0x1000 + i * 64), poolBase + i * 64, 1);
    double ratio = static_cast<double>(64 * 8) / (64 * 64);
    EXPECT_DOUBLE_EQ(ratio, 0.125);
}

TEST(MasterTable, ForEachEnumeratesMappings)
{
    MasterTable mt;
    Rng rng(17);
    std::map<Addr, EpochWide> want;
    for (int i = 0; i < 500; ++i) {
        Addr a = lineAlign(rng.below(1ull << 30));
        EpochWide e = 1 + rng.below(9);
        mt.insert(tenant::keyOf(a), poolBase + i * 64, e);
        want[a] = e;
    }
    std::map<Addr, EpochWide> got;
    mt.forEach([&](Addr a, const MasterTable::Entry &e) {
        got[a] = e.epoch;
    });
    EXPECT_EQ(got, want);
    EXPECT_EQ(mt.mappedLines(), want.size());
}

} // namespace
} // namespace nvo
