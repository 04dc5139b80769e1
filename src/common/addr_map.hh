/**
 * @file
 * Flat open-addressing hash map keyed by simulated address.
 *
 * Used on the per-reference path (the LLC directory, the memory
 * image's page index), where a node-based std::unordered_map costs a
 * heap node per key and a pointer chase per probe. Slots live in one
 * power-of-two array probed linearly from a multiplicative hash of the
 * key (the product's high bits, so line- and page-aligned keys spread
 * evenly); the table doubles at 3/4 load. `invalidAddr` marks an
 * empty slot and cannot be a key. Erase shifts the rest of the probe
 * run backward, so there are no tombstones and lookups never slow
 * down with churn.
 *
 * Inserting or erasing may move other values: pointers and references
 * returned by find() / operator[] are valid only until the next
 * insert or erase. Iteration order is the slot order, which depends
 * only on the key set's insertion history (deterministic).
 */

#ifndef NVO_COMMON_ADDR_MAP_HH
#define NVO_COMMON_ADDR_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitutil.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace nvo
{

template <typename V>
class AddrMap
{
  public:
    /** Value stored for @p key, or nullptr. */
    V *
    find(Addr key)
    {
        if (count == 0)
            return nullptr;
        for (std::size_t i = home(key);; i = next(i)) {
            if (slots[i].key == key)
                return &slots[i].value;
            if (slots[i].key == invalidAddr)
                return nullptr;
        }
    }

    const V *
    find(Addr key) const
    {
        return const_cast<AddrMap *>(this)->find(key);
    }

    /** Value stored for @p key, value-initialized on first use. */
    V &
    operator[](Addr key)
    {
        nvo_assert(key != invalidAddr, "invalidAddr is the empty key");
        if ((count + 1) * 4 > slots.size() * 3)
            grow();
        std::size_t i = home(key);
        for (; slots[i].key != invalidAddr; i = next(i)) {
            if (slots[i].key == key)
                return slots[i].value;
        }
        slots[i].key = key;
        ++count;
        return slots[i].value;
    }

    /** Remove @p key; returns false if it was absent. */
    bool
    erase(Addr key)
    {
        if (count == 0)
            return false;
        std::size_t hole = home(key);
        for (; slots[hole].key != key; hole = next(hole)) {
            if (slots[hole].key == invalidAddr)
                return false;
        }
        // Backward shift: pull each later member of the probe run into
        // the hole unless its home lies cyclically in (hole, j].
        for (std::size_t j = next(hole); slots[j].key != invalidAddr;
             j = next(j)) {
            std::size_t h = home(slots[j].key);
            if (((j - h) & mask) >= ((j - hole) & mask)) {
                slots[hole] = std::move(slots[j]);
                hole = j;
            }
        }
        slots[hole].key = invalidAddr;
        slots[hole].value = V{};
        --count;
        return true;
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Slot-array length (tests use it to force probe collisions). */
    std::size_t capacity() const { return slots.size(); }

    /** Home slot of @p key at the current capacity (non-empty map). */
    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ull) >> shift);
    }

    /** Drop every entry and release the table. */
    void
    clear()
    {
        std::vector<Slot>().swap(slots);
        count = 0;
        mask = 0;
        shift = 64;
    }

    /** Visit every entry: fn(key, value). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots)
            if (s.key != invalidAddr)
                fn(s.key, s.value);
    }

  private:
    struct Slot
    {
        Addr key = invalidAddr;
        V value{};
    };

    static constexpr std::size_t initialSlots = 16;

    std::size_t next(std::size_t i) const { return (i + 1) & mask; }

    void
    grow()
    {
        std::size_t cap = slots.empty() ? initialSlots : slots.size() * 2;
        std::vector<Slot> old(cap);
        old.swap(slots);
        mask = cap - 1;
        shift = 64 - log2Floor(cap);
        for (Slot &s : old) {
            if (s.key == invalidAddr)
                continue;
            std::size_t i = home(s.key);
            while (slots[i].key != invalidAddr)
                i = next(i);
            slots[i] = std::move(s);
        }
    }

    std::vector<Slot> slots;
    std::size_t count = 0;
    std::size_t mask = 0;
    unsigned shift = 64;
};

} // namespace nvo

#endif // NVO_COMMON_ADDR_MAP_HH
