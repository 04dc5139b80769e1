/**
 * @file
 * Low-overhead typed event tracer.
 *
 * The simulator's protocol activity — epoch advances, store
 * evictions, tag-walker sweeps, OMC inserts and merges, page-pool
 * churn, NVM backlog stalls — is recorded into a fixed-capacity ring
 * of 32-byte typed records and exported as Chrome trace-event JSON,
 * so any run opens directly in chrome://tracing or Perfetto with one
 * track per VD, per OMC partition, plus cache / NVM / harness tracks.
 *
 * Cost model, mirroring NVO_AUDIT:
 *
 *  - `NVO_TRACE(cat, ev, track, cycle, a0, a1)` compiles to nothing
 *    when the build disables the CMake option `NVO_TRACE` (operands
 *    stay type-checked, never evaluated);
 *  - compiled in but with the category runtime-disabled (the default:
 *    the mask is empty until `trace.enabled` is set), a hook is one
 *    load and one branch on a bitmask — cheap enough for protocol
 *    paths, which is why hooks sit on eviction/merge/advance events
 *    and never on the per-access load/store path;
 *  - enabled, a hook appends one POD record to a preallocated ring,
 *    overwriting the oldest record when full (`recorded()` minus
 *    `size()` tells an exporter how many were dropped).
 *
 * The simulator is single-threaded, so one global tracer (configured
 * per-run from the Config: `trace.enabled`, `trace.cats`,
 * `trace.ring`) keeps hooks free of plumbing through a dozen
 * constructors. Components that have no notion of time (the page
 * pool) use `NVO_TRACE_NOW`, which stamps the harness-maintained
 * quantum clock instead of an explicit cycle.
 */

#ifndef NVO_OBS_TRACE_HH
#define NVO_OBS_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace nvo
{

class Config;

namespace obs
{

/** True when the build compiles trace hooks in. */
#ifdef NVO_TRACE_ENABLED
constexpr bool traceCompiled = true;
#else
constexpr bool traceCompiled = false;
#endif

/** Event categories; each can be enabled independently at runtime. */
enum class Cat : std::uint32_t
{
    Epoch = 1u << 0,     ///< VD epoch advances, skew sync, context dumps
    Cache = 1u << 1,     ///< store-evictions, version seals, write backs
    Walker = 1u << 2,    ///< tag-walker sweeps, drains, min-ver reports
    Omc = 1u << 3,       ///< version inserts, buffer activity
    Merge = 1u << 4,     ///< table merges, late merges, rec-epoch, GC
    Pool = 1u << 5,      ///< page-pool alloc/free/extend
    Nvm = 1u << 6,       ///< device backlog stalls
    Harness = 1u << 7,   ///< simulator phase markers
    Fault = 1u << 8,     ///< fault injection, persist barriers/crashes
    Ledger = 1u << 9,    ///< version-lifecycle provenance transitions
    Repl = 1u << 10,     ///< epoch-delta shipping to the standby
    Policy = 1u << 11,   ///< adaptive policy engine decisions/actuations
};

constexpr std::uint32_t allCats = 0xfffu;

/** Typed events. Metadata (name, category, arg names) in info(). */
enum class Ev : std::uint16_t
{
    // Epoch / VD.
    EpochAdvance,    ///< a0 = new epoch, a1 = 1 when Lamport-driven
    SkewForce,       ///< a0 = forced floor epoch, a1 = leader epoch
    ContextDump,     ///< a0 = bytes dumped
    // Cache / version protocol.
    VersionSeal,     ///< a0 = line addr, a1 = sealed OID
    StoreEvict,      ///< a0 = line addr, a1 = evicted OID
    CacheWriteBack,  ///< a0 = line addr, a1 = EvictReason
    // Tag walker.
    WalkScan,        ///< a0 = lines scanned, a1 = versions collected
    WalkDrain,       ///< a0 = versions drained this tick
    MinVerReport,    ///< a0 = certified min-ver
    // OMC / MNM.
    OmcInsert,       ///< a0 = line addr, a1 = version OID
    OmcBufferEvict,  ///< a0 = displaced line addr, a1 = its epoch
    OmcBufferDrain,  ///< a0 = pending writes flushed
    OmcOccupancy,    ///< counter: a0 = buffered pending writes
    TableMerge,      ///< a0 = merged table epoch
    LateMerge,       ///< a0 = line addr, a1 = version OID
    RecEpochAdvance, ///< a0 = new rec-epoch, a1 = previous
    Compaction,      ///< a0 = source epoch reclaimed
    // Page pool.
    PoolAlloc,       ///< a0 = sub-page addr, a1 = lines
    PoolFree,        ///< a0 = sub-page addr, a1 = lines
    PoolExtend,      ///< a0 = pages granted
    PoolPages,       ///< counter: a0 = pages in use
    // NVM device.
    NvmStall,        ///< a0 = stall cycles, a1 = backlog cycles
    NvmBacklog,      ///< counter: a0 = backlog cycles
    // Harness.
    Phase,           ///< a0 = PhaseId
    // Fault injection / persistence domain.
    FaultNvmError,   ///< a0 = hit number at the fault point
    FaultCrash,      ///< a0 = hit number at the fault point
    PersistBarrier,  ///< a0 = in-flight records made durable
    PersistTruncate, ///< a0 = in-flight records unwound by crash
    // Version-lifecycle provenance (obs/ledger).
    LedgerSeal,      ///< a0 = provenance id, a1 = line addr
    LedgerInsert,    ///< a0 = provenance id, a1 = LedgerCause
    LedgerMerge,     ///< a0 = provenance id, a1 = 1 when late-merged
    LedgerCompactMove, ///< a0 = provenance id, a1 = target epoch
    LedgerDrop,      ///< a0 = provenance id, a1 = version epoch
    // Replication (src/repl).
    ReplShipDelta,   ///< a0 = line addr, a1 = epoch
    ReplShipClose,   ///< a0 = delta count, a1 = epoch
    ReplShipLate,    ///< a0 = line addr, a1 = epoch amended
    ReplFrameDrop,   ///< a0 = frame id, a1 = retries so far
    ReplFrameCorrupt,///< a0 = frame id, a1 = retries so far
    ReplFrameRetry,  ///< a0 = frame id, a1 = retry number
    ReplFrameAck,    ///< a0 = frame id
    ReplEpochApplied,///< a0 = epoch, a1 = deltas applied
    ReplBackpressure,///< a0 = send-queue depth
    ReplCursorPersist, ///< a0 = cursor epoch, a1 = generation
    ReplResume,      ///< a0 = durable cursor, a1 = rec-epoch
    // Adaptive policy engine (src/policy), at epoch boundaries
    // observed from quantum barriers.
    PolicyDecision,  ///< a0 = controller id, a1 = controller output
    PolicyActuate,   ///< a0 = knob id, a1 = value applied
    NumEvents
};

/** Harness phase markers (Ev::Phase a0 values). */
enum class PhaseId : std::uint64_t
{
    RunBegin = 0,
    FinalizeBegin,
    FinalizeEnd,
};

struct EvInfo
{
    const char *name;
    Cat cat;
    /** Chrome-trace arg names; nullptr = arg unused. */
    const char *a0;
    const char *a1;
    /** Exported as a Chrome counter ("C") instead of an instant. */
    bool counter;
};

const EvInfo &info(Ev e);
const char *toString(Cat c);

/** Parse "all", "none", or a comma list of category names. */
std::uint32_t parseCats(const std::string &spec);

// --- Track ids (Chrome tid; one per hardware structure) -------------

constexpr std::uint32_t trackSim = 0;
constexpr std::uint32_t trackCache = 1;
constexpr std::uint32_t trackNvm = 2;
constexpr std::uint32_t trackRepl = 3;
constexpr std::uint32_t
trackVd(unsigned vd)
{
    return 16 + vd;
}
constexpr std::uint32_t
trackOmc(unsigned omc)
{
    return 256 + omc;
}

std::string trackName(std::uint32_t track);

class Tracer
{
  public:
    /** One recorded event; POD, 32 bytes. */
    struct Rec
    {
        Cycle cycle;
        std::uint64_t a0;
        std::uint64_t a1;
        std::uint32_t track;
        Ev ev;
        std::uint16_t pad = 0;
    };

    /** Hot-path gate: is @p c enabled? */
    bool
    wants(Cat c) const
    {
        return (catMask & static_cast<std::uint32_t>(c)) != 0;
    }

    void record(Ev e, std::uint32_t track, Cycle cycle,
                std::uint64_t a0 = 0, std::uint64_t a1 = 0);

    /**
     * (Re)configure from @p cfg and clear the ring: `trace.enabled`
     * (default off — the mask stays empty and hooks cost one branch),
     * `trace.cats` (default "all"), `trace.ring` (default 65536
     * records).
     */
    void configure(const Config &cfg);

    /** Direct runtime controls (tests, tools). */
    void setMask(std::uint32_t mask) { catMask = mask; }
    void setRingCapacity(std::size_t records);
    void reset();

    std::uint32_t mask() const { return catMask; }

    /** Records currently held (<= ring capacity). */
    std::size_t size() const;
    /** Records ever recorded since the last reset. */
    std::uint64_t recorded() const { return total; }
    /** Records overwritten by ring wrap. */
    std::uint64_t dropped() const { return total - size(); }
    std::size_t capacity() const { return ring.size(); }

    /** Visit held records oldest-first. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        std::size_t n = size();
        std::size_t start = total > ring.size() ? head : 0;
        for (std::size_t i = 0; i < n; ++i)
            fn(ring[(start + i) % ring.size()]);
    }

    /**
     * Quantum clock for hooks without a time source (NVO_TRACE_NOW);
     * the System refreshes it every quantum.
     */
    void setNow(Cycle c) { nowCycle = c; }
    Cycle now() const { return nowCycle; }

    /**
     * Export as Chrome trace-event JSON (the object form with a
     * "traceEvents" array plus thread-name metadata, so Perfetto
     * labels one track per VD / OMC / device). @p ts is cycles
     * reported as microseconds; wall time is simulated, not host.
     */
    void exportChrome(std::ostream &os) const;

  private:
    std::vector<Rec> ring;
    std::size_t head = 0;        ///< next write position
    std::uint64_t total = 0;
    std::uint32_t catMask = 0;
    Cycle nowCycle = 0;
};

/** The process-wide tracer (single-threaded simulator). */
Tracer &tracer();

} // namespace obs
} // namespace nvo

#ifdef NVO_TRACE_ENABLED
#define NVO_TRACE(cat, ev, track, cycle, a0, a1)                       \
    do {                                                               \
        ::nvo::obs::Tracer &t_ = ::nvo::obs::tracer();                 \
        if (t_.wants(::nvo::obs::Cat::cat))                            \
            t_.record(::nvo::obs::Ev::ev, (track), (cycle), (a0),      \
                      (a1));                                           \
    } while (0)
/** Variant stamping the harness quantum clock (no local time). */
#define NVO_TRACE_NOW(cat, ev, track, a0, a1)                          \
    do {                                                               \
        ::nvo::obs::Tracer &t_ = ::nvo::obs::tracer();                 \
        if (t_.wants(::nvo::obs::Cat::cat))                            \
            t_.record(::nvo::obs::Ev::ev, (track), t_.now(), (a0),     \
                      (a1));                                           \
    } while (0)
#else
/* Compiled out: operands stay type-checked but are never evaluated. */
#define NVO_TRACE(cat, ev, track, cycle, a0, a1)                       \
    do {                                                               \
        if (false) {                                                   \
            static_cast<void>(::nvo::obs::Cat::cat);                   \
            static_cast<void>(::nvo::obs::Ev::ev);                     \
            static_cast<void>(track);                                  \
            static_cast<void>(cycle);                                  \
            static_cast<void>(a0);                                     \
            static_cast<void>(a1);                                     \
        }                                                              \
    } while (0)
#define NVO_TRACE_NOW(cat, ev, track, a0, a1)                          \
    do {                                                               \
        if (false) {                                                   \
            static_cast<void>(::nvo::obs::Cat::cat);                   \
            static_cast<void>(::nvo::obs::Ev::ev);                     \
            static_cast<void>(track);                                  \
            static_cast<void>(a0);                                     \
            static_cast<void>(a1);                                     \
        }                                                              \
    } while (0)
#endif

#endif // NVO_OBS_TRACE_HH
