/**
 * @file
 * SignalBus: the policy engine's single window onto the running
 * simulation.
 *
 * At every epoch boundary the bus samples one Frame of cumulative
 * counters (NVM write bytes, pool occupancy, OMC buffer occupancy,
 * merge backlog, per-ASID byte/stall tallies) from the scheme,
 * backend, and RunStats, then derives integer-valued Signals by
 * differencing against the previous frame. Controllers consume only
 * Signals — never wall-clock time, host state, or floating point — so
 * a run's decision sequence is a pure function of the simulated
 * execution (frames are sampled after the quantum barrier; see
 * docs/POLICY.md).
 */

#ifndef NVO_POLICY_SIGNAL_HH
#define NVO_POLICY_SIGNAL_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "tenant/asid.hh"

namespace nvo
{

class NVOverlayScheme;
struct RunStats;

namespace policy
{

/** One sample of cumulative run state at an epoch boundary. */
struct Frame
{
    bool valid = false;
    std::uint64_t epoch = 0;
    Cycle cycle = 0;
    std::uint64_t nvmWriteBytes = 0;   ///< all kinds, cumulative
    std::uint64_t stores = 0;          ///< cumulative store count
    std::uint64_t poolPagesInUse = 0;
    std::uint64_t poolPagesTotal = 0;
    std::uint64_t bufferOccupancy = 0;
    std::uint64_t mergeBacklog = 0;    ///< globalEpoch - recEpoch
    std::uint64_t tenantStallCycles = 0;
    /** Cumulative per-ASID insert bytes, ascending-ASID order. */
    std::vector<std::pair<tenant::Asid, std::uint64_t>> tenantBytes;
};

/** Derived per-interval signals (integer arithmetic only). */
struct Signals
{
    /** False on the first boundary: no previous frame to diff. */
    bool valid = false;
    /** NVM write bandwidth over the interval, bytes per 1024 cycles
     *  (the TenantManager QoS unit). */
    std::int64_t bwBytesPerKCycle = 0;
    /** Pool occupancy, in 1/1000 of allocated pages. */
    std::int64_t occPermille = 0;
    /** Occupancy change since the previous boundary, permille. */
    std::int64_t occSlopePermille = 0;
    std::int64_t bufferOccupancy = 0;
    std::int64_t mergeBacklog = 0;
    /** Tenant throttle stall cycles over the interval. */
    std::int64_t stallCycles = 0;
    std::uint64_t deltaBytes = 0;
    std::uint64_t deltaCycles = 0;
    std::uint64_t deltaStores = 0;
    /** Per-ASID insert bytes over the interval (ascending ASID). */
    std::vector<std::pair<tenant::Asid, std::uint64_t>>
        tenantDeltaBytes;
};

class SignalBus
{
  public:
    SignalBus(NVOverlayScheme &scheme, const RunStats &stats)
        : scheme_(scheme), stats_(stats)
    {
    }

    /**
     * Sample the current frame and derive signals against the
     * previous one. The first call primes the history and returns
     * `valid == false`.
     */
    Signals sample(Cycle now);

    const Frame &lastFrame() const { return prev_; }

  private:
    Frame capture(Cycle now) const;

    NVOverlayScheme &scheme_;
    const RunStats &stats_;
    Frame prev_;
};

} // namespace policy
} // namespace nvo

#endif // NVO_POLICY_SIGNAL_HH
