/**
 * @file
 * Generic set-associative tag/data array with LRU replacement.
 *
 * All cache levels (and the scheme-private tag arrays of the PiCL
 * baselines) are built on this container. Lookup is by full line
 * address; unlike the original Page Overlays design, NVOverlay looks
 * up by address only, never by (address, OID) pairs (paper
 * Sec. IV-A1), so one address occupies at most one slot per array.
 *
 * Each set's addresses are also kept in a packed tag array beside the
 * lines, so a probe scans one contiguous run of 8-byte tags instead of
 * striding over whole CacheLine records. Tags are written only by
 * install(); a line reset from outside the array (a back-invalidation,
 * a victim hand-off) leaves its tag stale, and probe() confirms every
 * tag match against the line's own address, which rejects it.
 */

#ifndef NVO_CACHE_CACHE_ARRAY_HH
#define NVO_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/coherence.hh"
#include "common/bitutil.hh"
#include "common/types.hh"

namespace nvo
{

class CacheArray
{
  public:
    /**
     * @param size_bytes total capacity
     * @param ways associativity
     */
    CacheArray(std::uint64_t size_bytes, unsigned ways);

    /** Find the line holding @p line_addr, or nullptr. Bumps LRU. */
    CacheLine *lookup(Addr line_addr);

    /** Find without touching replacement state. */
    CacheLine *probe(Addr line_addr);
    const CacheLine *probe(Addr line_addr) const;

    /**
     * Pick a slot for @p line_addr in its set: an invalid way if one
     * exists, else the LRU way. The caller must handle the returned
     * slot's previous content (the victim) before install()ing over
     * it. @p line_addr must not already be present (panics).
     */
    CacheLine *allocSlot(Addr line_addr);

    /**
     * Reset @p slot (from allocSlot(@p line_addr), victim already
     * handled), make it hold @p line_addr, record its tag and make it
     * the set's most recently used way. Returns @p slot.
     */
    CacheLine *install(CacheLine *slot, Addr line_addr);

    /** Invalidate (reset) a line previously returned by lookup. */
    void invalidate(CacheLine *line);

    unsigned numSets() const { return sets; }
    unsigned numWays() const { return ways_; }
    std::uint64_t sizeBytes() const
    {
        return static_cast<std::uint64_t>(sets) * ways_ * lineBytes;
    }

    /** Number of currently valid lines. */
    unsigned numValid() const;

    /** Iterate over all lines of one set (tag-walker support). */
    CacheLine *setBase(unsigned set_idx);

    /** Visit every valid line. */
    void forEachValid(const std::function<void(CacheLine &)> &fn);
    void forEachValid(
        const std::function<void(const CacheLine &)> &fn) const;

    /**
     * Structural invariant sweep (NVO_AUDIT): every valid line sits
     * in the set its address hashes to, its packed tag equals its
     * address, no address occupies two ways of a set (NVOverlay looks
     * up by address only, paper Sec. IV-A1), and replacement stamps
     * never run ahead of the LRU clock.
     */
    void audit() const;

  private:
    unsigned setOf(Addr line_addr) const;

    unsigned sets;
    unsigned ways_;
    std::uint64_t lruClock = 0;
    std::vector<CacheLine> lines;
    /** tags[i] is the address install() put in lines[i]; stale once
     *  the line is reset elsewhere. */
    std::vector<Addr> tags;
};

} // namespace nvo

#endif // NVO_CACHE_CACHE_ARRAY_HH
