/**
 * @file
 * Unit and property tests for the set-associative CacheArray,
 * parameterized over geometry.
 */

#include <gtest/gtest.h>

#include <map>
#include <unordered_set>

#include "cache/cache_array.hh"
#include "common/rng.hh"

namespace nvo
{
namespace
{

TEST(CacheArray, GeometryDerivation)
{
    CacheArray arr(32 * 1024, 8);
    EXPECT_EQ(arr.numWays(), 8u);
    EXPECT_EQ(arr.numSets(), 32u * 1024 / 8 / 64);
    EXPECT_EQ(arr.sizeBytes(), 32u * 1024);
}

TEST(CacheArray, LookupMissThenHit)
{
    CacheArray arr(4096, 4);
    EXPECT_EQ(arr.lookup(0x1000), nullptr);
    CacheLine *slot = arr.allocSlot(0x1000);
    ASSERT_NE(slot, nullptr);
    EXPECT_FALSE(slot->valid());
    EXPECT_EQ(arr.install(slot, 0x1000), slot);
    EXPECT_EQ(slot->addr, 0x1000u);
    slot->state = CohState::E;
    EXPECT_EQ(arr.lookup(0x1000), slot);
    EXPECT_EQ(arr.numValid(), 1u);
}

TEST(CacheArray, LruVictimSelection)
{
    CacheArray arr(4 * 64, 4);   // one set, 4 ways
    for (Addr a = 0; a < 4; ++a) {
        CacheLine *slot = arr.allocSlot(a * 64 * arr.numSets());
        arr.install(slot, a * 64 * arr.numSets());
        slot->state = CohState::S;
    }
    // Touch line 0 so line 1 becomes LRU.
    arr.lookup(0);
    CacheLine *victim = arr.allocSlot(4 * 64 * arr.numSets());
    EXPECT_EQ(victim->addr, 1u * 64 * arr.numSets());
}

TEST(CacheArray, InvalidSlotPreferredOverVictim)
{
    CacheArray arr(4 * 64, 4);
    CacheLine *a = arr.install(arr.allocSlot(0), 0);
    a->state = CohState::S;
    CacheLine *b = arr.allocSlot(64 * arr.numSets());
    EXPECT_FALSE(b->valid());
    EXPECT_NE(a, b);
}

TEST(CacheArray, InvalidateResets)
{
    CacheArray arr(4096, 4);
    Addr a = 0x40 * arr.numSets() * 2;
    CacheLine *slot = arr.install(arr.allocSlot(a), a);
    slot->state = CohState::M;
    slot->dirty = true;
    arr.invalidate(slot);
    EXPECT_FALSE(slot->valid());
    EXPECT_EQ(arr.numValid(), 0u);
    EXPECT_EQ(arr.probe(a), nullptr) << "the stale tag is rejected";
}

TEST(CacheArray, ForEachValidVisitsAll)
{
    CacheArray arr(8192, 8);
    std::unordered_set<Addr> inserted;
    for (unsigned i = 0; i < 20; ++i) {
        Addr a = i * 64;
        CacheLine *slot = arr.allocSlot(a);
        if (slot->valid())
            continue;
        arr.install(slot, a);
        slot->state = CohState::S;
        inserted.insert(a);
    }
    std::unordered_set<Addr> seen;
    arr.forEachValid([&](CacheLine &line) { seen.insert(line.addr); });
    EXPECT_EQ(seen, inserted);
}

/** Property sweep: random fill never exceeds capacity, set mapping
 *  stays stable, hits return the inserted line. */
class CacheArrayGeom
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(CacheArrayGeom, RandomFillProperties)
{
    auto [size_kb, ways] = GetParam();
    CacheArray arr(size_kb * 1024ull, ways);
    Rng rng(size_kb * 131 + ways);
    std::unordered_set<Addr> present;

    for (int i = 0; i < 20000; ++i) {
        Addr a = lineAlign(rng.below(1 << 22));
        CacheLine *line = arr.lookup(a);
        if (line) {
            EXPECT_EQ(line->addr, a);
            EXPECT_TRUE(present.count(a));
            continue;
        }
        CacheLine *slot = arr.allocSlot(a);
        if (slot->valid())
            present.erase(slot->addr);
        arr.install(slot, a);
        slot->state = CohState::S;
        present.insert(a);
        EXPECT_LE(arr.numValid(), arr.numSets() * arr.numWays());
    }
    EXPECT_EQ(arr.numValid(), present.size());
    arr.audit();
}

/** Packed tags under churn: installs, invalidate()s and resets done
 *  behind the array's back (which leave stale tags) never make probe()
 *  disagree with an address -> line oracle. */
TEST_P(CacheArrayGeom, TagChurnMatchesOracle)
{
    auto [size_kb, ways] = GetParam();
    CacheArray arr(size_kb * 1024ull, ways);
    Rng rng(size_kb * 977 + ways);
    // A small address space relative to capacity keeps sets full and
    // makes re-installs over stale tags common.
    const std::uint64_t space = 4ull * arr.numSets() * arr.numWays();
    std::map<Addr, CacheLine *> oracle;

    for (int i = 0; i < 20000; ++i) {
        Addr a = rng.below(space) * lineBytes;
        unsigned op = static_cast<unsigned>(rng.below(4));
        auto it = oracle.find(a);
        if (it == oracle.end()) {
            CacheLine *slot = arr.allocSlot(a);
            if (slot->valid())
                oracle.erase(slot->addr);
            arr.install(slot, a);
            slot->state = CohState::S;
            oracle[a] = slot;
        } else if (op == 0) {
            arr.invalidate(it->second);
            oracle.erase(it);
        } else if (op == 1) {
            it->second->reset();   // e.g. a back-invalidation
            oracle.erase(it);
        }
        // Compare a random address and the one just touched.
        for (Addr q : {a, rng.below(space) * lineBytes}) {
            auto o = oracle.find(q);
            CacheLine *want = o == oracle.end() ? nullptr : o->second;
            ASSERT_EQ(arr.probe(q), want) << "address " << q;
        }
    }
    EXPECT_EQ(arr.numValid(), oracle.size());
    for (const auto &[addr, line] : oracle)
        EXPECT_EQ(arr.probe(addr), line);
    arr.audit();
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayGeom,
    ::testing::Values(std::make_pair(4u, 1u), std::make_pair(4u, 4u),
                      std::make_pair(32u, 8u),
                      std::make_pair(256u, 16u)));

} // namespace
} // namespace nvo
