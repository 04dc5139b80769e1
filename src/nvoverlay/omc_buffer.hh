/**
 * @file
 * Battery-backed OMC write-back buffer (paper Sec. IV-E, Fig. 16).
 *
 * Sits between version insertion and the NVM device: a version write
 * for (address, epoch) already buffered is absorbed (redundant
 * same-epoch write backs never reach the device); a conflicting slot
 * forces the previous pending write out to NVM. Being battery backed,
 * buffered writes count as durable; a power failure flushes the
 * buffer (drainAll).
 */

#ifndef NVO_NVOVERLAY_OMC_BUFFER_HH
#define NVO_NVOVERLAY_OMC_BUFFER_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace nvo
{

class OmcBuffer
{
  public:
    struct Params
    {
        std::uint64_t sizeBytes = 32ull * 1024 * 1024;
        unsigned ways = 16;
    };

    /** A pending NVM write held in the buffer. */
    struct Pending
    {
        Addr addr = invalidAddr;
        EpochWide epoch = 0;
        /** Lifecycle cause of the deferred write (obs::LedgerCause);
         *  carried opaquely so the eventual device write attributes
         *  to whatever inserted the version, not to the eviction. */
        unsigned cause = 0;
    };

    struct InsertResult
    {
        bool hit = false;               ///< absorbed a redundant write
        std::optional<Pending> evicted; ///< displaced pending write
    };

    explicit OmcBuffer(const Params &params);

    InsertResult insert(Addr line_addr, EpochWide epoch,
                        unsigned cause = 0);

    /** Flush everything (power failure or clean finalize). */
    std::vector<Pending> drainAll();

    std::uint64_t
    hits() const
    {
        return hitCount;
    }
    std::uint64_t
    misses() const
    {
        return missCount;
    }
    std::uint64_t
    occupancy() const
    {
        return validCount;
    }

    /** Visit every pending write without draining it. */
    void forEachPending(
        const std::function<void(const Pending &)> &fn) const;

    /**
     * Invariant sweep (NVO_AUDIT): the occupancy counter matches the
     * valid-slot population, pending addresses are line aligned and
     * hash to the set holding them, and no (address, epoch) pair is
     * buffered twice.
     */
    void audit() const;

  private:
    struct Slot
    {
        bool valid = false;
        Addr addr = invalidAddr;
        EpochWide epoch = 0;
        unsigned cause = 0;
        std::uint64_t lru = 0;
    };

    unsigned setOf(Addr line_addr) const;

    unsigned sets;
    unsigned ways_;
    std::uint64_t lruClock = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
    std::uint64_t validCount = 0;
    std::vector<Slot> slots;
};

} // namespace nvo

#endif // NVO_NVOVERLAY_OMC_BUFFER_HH
