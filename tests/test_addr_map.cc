/**
 * @file
 * AddrMap, the flat address-keyed map: agreement with a std::map
 * oracle under random churn, backward-shift erase inside one probe run
 * (including a run that wraps past the table's end), growth, erasing
 * absent keys, clear(), and values that own heap storage.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/addr_map.hh"
#include "common/rng.hh"

namespace nvo
{
namespace
{

/** First @p n line addresses whose home slot in @p m is @p slot. */
std::vector<Addr>
keysHomedAt(const AddrMap<int> &m, std::size_t slot, unsigned n)
{
    std::vector<Addr> out;
    for (Addr k = lineBytes; out.size() < n; k += lineBytes)
        if (m.home(k) == slot)
            out.push_back(k);
    return out;
}

TEST(AddrMap, EmptyMapFindsNothing)
{
    AddrMap<int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(0x40), nullptr);
    EXPECT_FALSE(m.erase(0x40));
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.capacity(), 0u);
}

TEST(AddrMap, RandomChurnMatchesOracle)
{
    AddrMap<std::uint64_t> m;
    std::map<Addr, std::uint64_t> oracle;
    Rng rng(42);
    for (int i = 0; i < 60000; ++i) {
        Addr k = rng.below(4096) * lineBytes;
        switch (rng.below(3)) {
          case 0: {
            std::uint64_t v = rng.next();
            m[k] = v;
            oracle[k] = v;
            break;
          }
          case 1:
            ASSERT_EQ(m.erase(k), oracle.erase(k) == 1);
            break;
          default: {
            const std::uint64_t *v = m.find(k);
            auto o = oracle.find(k);
            ASSERT_EQ(v != nullptr, o != oracle.end());
            if (v) {
                ASSERT_EQ(*v, o->second);
            }
          }
        }
        ASSERT_EQ(m.size(), oracle.size());
    }
    std::map<Addr, std::uint64_t> seen;
    m.forEach([&](Addr k, const std::uint64_t &v) {
        EXPECT_TRUE(seen.emplace(k, v).second) << "key visited twice";
    });
    EXPECT_EQ(seen, oracle);
}

/** Keys crowded into one probe run that wraps from the last slot to
 *  the first, inserted and erased in many orders: every erase must
 *  shift the rest of the run back so each survivor stays reachable. */
TEST(AddrMap, BackwardShiftEraseAcrossTheTableEnd)
{
    AddrMap<int> probe_geom;
    probe_geom[0x40] = 0;   // allocates the initial table
    const std::size_t cap = probe_geom.capacity();
    ASSERT_GE(cap, 8u);

    std::vector<Addr> keys;
    for (std::size_t slot : {cap - 2, cap - 1, std::size_t(0),
                             std::size_t(1)}) {
        auto homed = keysHomedAt(probe_geom, slot, 2);
        keys.insert(keys.end(), homed.begin(), homed.end());
    }
    ASSERT_LE((keys.size() + 1) * 4, cap * 3) << "must not grow";
    // An absent key homed inside the run.
    Addr absent = keysHomedAt(probe_geom, cap - 1, 3).back();

    Rng rng(7);
    for (int round = 0; round < 300; ++round) {
        AddrMap<int> m;
        std::map<Addr, int> oracle;
        std::vector<Addr> order = keys;
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        for (std::size_t i = 0; i < order.size(); ++i) {
            m[order[i]] = static_cast<int>(i);
            oracle[order[i]] = static_cast<int>(i);
        }
        ASSERT_EQ(m.capacity(), cap);
        EXPECT_FALSE(m.erase(absent));
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        for (Addr victim : order) {
            ASSERT_TRUE(m.erase(victim));
            oracle.erase(victim);
            ASSERT_EQ(m.find(victim), nullptr);
            ASSERT_FALSE(m.erase(victim)) << "erasing twice";
            for (const auto &[k, v] : oracle) {
                const int *got = m.find(k);
                ASSERT_NE(got, nullptr) << "key lost after an erase";
                ASSERT_EQ(*got, v);
            }
            ASSERT_EQ(m.size(), oracle.size());
        }
        ASSERT_EQ(m.capacity(), cap);
    }
}

TEST(AddrMap, GrowsAtThreeQuartersLoad)
{
    AddrMap<int> m;
    m[lineBytes] = 1;
    const std::size_t first = m.capacity();
    for (int i = 2; static_cast<std::size_t>(i) * 4 <= first * 3; ++i)
        m[static_cast<Addr>(i) * lineBytes] = i;
    EXPECT_EQ(m.capacity(), first) << "filled to exactly 3/4";
    m[0] = 0;
    EXPECT_EQ(m.capacity(), first * 2);

    for (int i = 0; i < 5000; ++i)
        m[static_cast<Addr>(i) * pageBytes] = i;
    EXPECT_LE(m.size() * 4, m.capacity() * 3);
    for (int i = 0; i < 5000; ++i) {
        const int *v = m.find(static_cast<Addr>(i) * pageBytes);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, i);
    }
}

TEST(AddrMap, ClearDropsEverything)
{
    AddrMap<int> m;
    for (int i = 0; i < 100; ++i)
        m[static_cast<Addr>(i) * lineBytes] = i;
    m.clear();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.capacity(), 0u);
    EXPECT_EQ(m.find(0), nullptr);
    EXPECT_FALSE(m.erase(0));
    m[0x80] = 5;
    ASSERT_NE(m.find(0x80), nullptr);
    EXPECT_EQ(*m.find(0x80), 5);
    EXPECT_EQ(m.size(), 1u);
}

TEST(AddrMap, OwnedValuesStayPutAcrossGrowthAndErase)
{
    AddrMap<std::unique_ptr<int>> m;
    std::vector<int *> raw;
    for (int i = 0; i < 64; ++i) {
        auto &slot = m[static_cast<Addr>(i) * pageBytes];
        slot = std::make_unique<int>(i);
        raw.push_back(slot.get());
    }
    for (int i = 0; i < 64; i += 2)
        ASSERT_TRUE(m.erase(static_cast<Addr>(i) * pageBytes));
    for (int i = 1000; i < 3000; ++i)
        m[static_cast<Addr>(i) * pageBytes] = std::make_unique<int>(i);
    for (int i = 1; i < 64; i += 2) {
        const std::unique_ptr<int> *v =
            m.find(static_cast<Addr>(i) * pageBytes);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(v->get(), raw[i]) << "value storage moved";
        EXPECT_EQ(**v, i);
    }
}

} // namespace
} // namespace nvo
