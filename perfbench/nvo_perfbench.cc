/**
 * @file
 * nvo_perfbench — the repo benchmark driver (perfbench/README.md).
 *
 * Measures the simulator from outside, through its public calls only:
 * System construction, System::runUntil in fixed-cycle chunks,
 * System::run() for the finalize, Scheme::updateStats(), a
 * WorkloadBase decorator on the injected-workload constructor and a
 * VersionCtrl decorator installed over the NVOverlayScheme.
 *
 *   nvo_perfbench --workload <name> --seed <n> --seconds <s>
 *                 --trace <0|1> [--trace-out <path>]
 *   nvo_perfbench --self-test
 *
 * Every invocation first runs an untimed correctness pass (recovery
 * checked line by line against the write tracker, and a check that
 * the snapshot mechanism fired), then timed reps on the sequential
 * engine until --seconds have been measured. --trace 0 reports the
 * end-to-end metrics from untraced reps; --trace 1 alternates
 * untraced and traced reps and reports the per-layer metrics. The
 * simulated counters of every rep must be bit-identical. Host times
 * are CPU seconds scaled by a machine-speed probe (SpeedProbe). The last
 * line of stdout is one JSON object: correct, attempted, failed and
 * metrics.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cache/version_ctrl.hh"
#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
#include "nvoverlay/recovery.hh"
#include "obs/json.hh"
#include "workload/workload.hh"

using namespace nvo;

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * CPU time of the calling thread. The sequential engine runs on this
 * one thread, so on an idle machine it reads the same as wall time.
 * On a shared host it leaves out the time the thread waits for a
 * core, hypervisor steal included, which is the scheduler's cost and
 * not the program's. Too dear to read per call (it is a system call),
 * so only set-up, chunks, finalize and the speed probe are timed on it.
 */
struct CpuClock
{
    using duration = std::chrono::nanoseconds;
    using rep = duration::rep;
    using period = duration::period;
    using time_point = std::chrono::time_point<CpuClock>;
    static constexpr bool is_steady = true;

    static time_point
    now() noexcept
    {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return time_point(duration(
            static_cast<rep>(ts.tv_sec) * 1000000000 + ts.tv_nsec));
    }
};

template <typename TimePoint>
double
secondsBetween(TimePoint a, TimePoint b)
{
    return std::chrono::duration<double>(b - a).count();
}

template <typename TimePoint>
std::uint64_t
nsBetween(TimePoint a, TimePoint b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

/**
 * Machine-speed probe, timed on CpuClock: eight independent integer
 * hash chains (instruction-level parallelism) and then eight
 * independent pointer chases around one random cycle through a 1 MiB
 * table (memory-level parallelism in L2 and L3). The simulator's hot
 * loop is the same kind of work, so the probe slows down with it when
 * another tenant shares the core or the caches. The chains take about
 * a quarter of a slice: btree_insert and kv_read follow both parts,
 * vacation_epochs (bound by its retained tables) only the chases.
 *
 * On a shared host the simulator's CPU time for the same work varies
 * by up to 2x from run to run. Host times are therefore reported in
 * reference seconds: CPU seconds scaled by referenceSliceNs / (the
 * probe's slice time), i.e. as if the slice took referenceSliceNs.
 * perfbench/README.md gives the spreads with and without the scale.
 * The probe runs no simulator code, so a change to the simulator
 * moves the scaled time exactly as much as the raw one.
 */
class SpeedProbe
{
  public:
    /** About a slice's time on an uncontended reference machine. */
    static constexpr double referenceSliceNs = 400000.0;

    SpeedProbe() : next(std::size_t(1) << 18)
    {
        // Sattolo's shuffle: a single cycle through every entry.
        for (std::size_t i = 0; i < next.size(); ++i)
            next[i] = static_cast<std::uint32_t>(i);
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::size_t i = next.size() - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(next[i], next[x % i]);
        }
        for (unsigned c = 0; c < lanes; ++c) {
            hash[c] = c + 1;
            at[c] = static_cast<std::uint32_t>(c * (next.size() / lanes));
        }
    }

    /** Run one slice; its CPU ns. */
    double
    sliceNs()
    {
        auto t0 = CpuClock::now();
        for (int k = 0; k < 25000; ++k)
            for (unsigned c = 0; c < lanes; ++c)
                hash[c] = hash[c] * 6364136223846793005ull +
                          1442695040888963407ull +
                          (hash[(c + 1) % lanes] >> 29);
        for (int k = 0; k < 8192; ++k)
            for (unsigned c = 0; c < lanes; ++c)
                at[c] = next[at[c]];
        auto t1 = CpuClock::now();
        return static_cast<double>(nsBetween(t0, t1));
    }

    /** Scale from CPU seconds to reference seconds. */
    static double
    scaleFor(double slice_ns)
    {
        return referenceSliceNs / slice_ns;
    }

  private:
    static constexpr unsigned lanes = 8;
    std::vector<std::uint32_t> next;
    std::uint64_t hash[lanes];
    std::uint32_t at[lanes];
};

// ------------------------------------------------------------------
// Workloads
// ------------------------------------------------------------------

/**
 * One benchmark workload: a simulator workload plus config overrides
 * on top of the Table II defaults, and the runUntil chunk length.
 * Each is sized so that epochs complete (the correctness pass fails
 * the run otherwise); perfbench/README.md says why each was chosen.
 */
struct WorkloadSpec
{
    const char *name;
    const char *workload;
    std::vector<std::pair<const char *, const char *>> keys;
    Cycle chunkCycles;
};

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = {
        // Store-heavy insert with the default 1M-store epoch: the
        // cache hierarchy and directory carry most of the host work.
        {"btree_insert", "btree", {{"wl.ops", "4000"}}, 100000},
        // Read-mostly multi-tenant service: the load path through the
        // LLC and directory, with the tenant plane on.
        {"kv_read",
         "kv_service",
         {{"tenant.enabled", "1"},
          {"wl.kv.tenants", "16"},
          {"wl.kv.get_pct", "0.9"},
          {"epoch.stores_global", "262144"},
          {"wl.ops", "30000"}},
         100000},
        // One epoch per store per VD: per-epoch-boundary work
        // (stats refresh, merges, context dumps) dominates.
        {"vacation_epochs",
         "vacation",
         {{"nvo.stores_per_epoch_vd", "1"},
          {"sys.cores", "8"},
          {"l1.kb", "4"},
          {"l2.kb", "16"},
          {"llc.mb", "1"},
          {"wl.vacation.rows", "4096"},
          {"wl.ops", "500"}},
         20000},
    };
    return specs;
}

const WorkloadSpec *
findSpec(const std::string &name)
{
    for (const auto &s : workloadSpecs())
        if (name == s.name)
            return &s;
    return nullptr;
}

Config
specConfig(const WorkloadSpec &spec, std::uint64_t seed)
{
    Config cfg = defaultConfig();
    for (const auto &[k, v] : spec.keys)
        cfg.set(k, std::string(v));
    cfg.set("rng.seed", seed);
    // The named-workload System constructor derives this itself; the
    // injected-workload one (traced reps) needs it up front.
    cfg.set("wl.threads", cfg.getU64("sys.cores", 16));
    return cfg;
}

// ------------------------------------------------------------------
// Simulated-counter identity
// ------------------------------------------------------------------

/** The simulated counters every rep must reproduce bit for bit. */
struct Fingerprint
{
    std::vector<std::pair<std::string, std::uint64_t>> fields;

    static Fingerprint
    of(const RunStats &s)
    {
        Fingerprint f;
        auto add = [&f](std::string n, std::uint64_t v) {
            f.fields.emplace_back(std::move(n), v);
        };
        add("cycles", s.cycles);
        for (std::size_t k = 0; k < s.nvmWriteBytes.size(); ++k)
            add(std::string("nvm_write_bytes.") +
                    toString(static_cast<NvmWriteKind>(k)),
                s.nvmWriteBytes[k]);
        for (std::size_t r = 0; r < s.evictReason.size(); ++r)
            add(std::string("evict.") +
                    toString(static_cast<EvictReason>(r)),
                s.evictReason[r]);
        add("epoch_advances", s.epochAdvances);
        add("lamport_advances", s.lamportAdvances);
        add("l1_hits", s.l1Hits);
        add("l1_misses", s.l1Misses);
        add("l2_hits", s.l2Hits);
        add("l2_misses", s.l2Misses);
        add("llc_hits", s.llcHits);
        add("llc_misses", s.llcMisses);
        return f;
    }

    /** Names of the fields that differ from @p expected. */
    std::vector<std::string>
    diff(const Fingerprint &expected) const
    {
        std::vector<std::string> out;
        if (fields.size() != expected.fields.size()) {
            out.push_back("<field count>");
            return out;
        }
        for (std::size_t i = 0; i < fields.size(); ++i)
            if (fields[i] != expected.fields[i])
                out.push_back(fields[i].first);
        return out;
    }
};

// ------------------------------------------------------------------
// Correctness pass
// ------------------------------------------------------------------

struct CheckTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }
};

/**
 * Compare every tracked line of the recovered image with the last
 * store at or below the recovered epoch (DESIGN.md Sec. 2). Returns
 * the number of mismatches; @p checked counts the lines compared.
 */
std::uint64_t
countMismatches(const WriteTracker &tracker,
                const RecoveryManager::Result &result,
                std::uint64_t &checked)
{
    std::uint64_t mismatches = 0;
    checked = 0;
    for (Addr line : tracker.trackedLines()) {
        auto expect = tracker.expectedDigest(line, result.recEpoch);
        if (!expect)
            continue;
        ++checked;
        LineData got;
        result.image->readLine(line, got);
        if (got.digest() != *expect)
            ++mismatches;
    }
    return mismatches;
}

/**
 * A run whose snapshot mechanism stayed idle checks nothing: some
 * epoch must have advanced before finalize (the shutdown flush
 * advances every VD once even when no epoch ever filled), and an
 * epoch must have been certified recoverable.
 */
bool
mechanismFired(std::uint64_t run_epoch_advances, EpochWide rec_epoch)
{
    return run_epoch_advances > 0 && rec_epoch > 0;
}

struct CorrectnessResult
{
    std::uint64_t linesChecked = 0;
    std::uint64_t mismatches = 0;
    bool fired = false;
    /** Epoch advances before finalize. */
    std::uint64_t runEpochAdvances = 0;
    EpochWide recEpoch = 0;
    Fingerprint fp;
};

CorrectnessResult
correctnessPass(Config cfg, const std::string &workload)
{
    cfg.set("sim.track_writes", "true");
    System sys(cfg, "nvoverlay", workload);
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    sys.runUntil(std::numeric_limits<Cycle>::max());
    CorrectnessResult c;
    c.runEpochAdvances = sys.stats().epochAdvances;
    sys.run();
    c.recEpoch = scheme.backend().recEpoch();
    c.fired = mechanismFired(c.runEpochAdvances, c.recEpoch);
    RecoveryManager rm(scheme.backend());
    auto result = rm.recover();

    c.mismatches =
        countMismatches(*sys.tracker(), result, c.linesChecked);
    if (!RecoveryManager::validate(result, scheme.backend()).empty())
        ++c.mismatches;
    c.fp = Fingerprint::of(sys.stats());
    return c;
}

// ------------------------------------------------------------------
// Host memory
// ------------------------------------------------------------------

/**
 * Return freed heap to the kernel and reset the process's resident-set
 * high-water mark, so each rep reports its own peak. Where the kernel
 * refuses the reset, the peak covers the whole process so far.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    if (std::FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f) {
        char line[256];
        while (std::fgets(line, sizeof(line), f)) {
            unsigned long kb = 0;
            if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) {
                std::fclose(f);
                return static_cast<double>(kb) / 1024.0;
            }
        }
        std::fclose(f);
    }
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------------
// Tracing: spans plus aggregated hot boundaries
// ------------------------------------------------------------------

/** Count, total and log2-ns latency histogram of one boundary. */
struct Boundary
{
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::array<std::uint64_t, 64> log2Hist{};

    void
    add(std::uint64_t ns)
    {
        ++count;
        totalNs += ns;
        unsigned b = ns == 0 ? 0 : 64 - __builtin_clzll(ns);
        ++log2Hist[std::min(b, 63u)];
    }
};

struct Span
{
    std::string name;
    std::uint64_t id;
    std::uint64_t parent;   ///< 0 for a rep's root span
    std::uint64_t run;
    std::uint64_t startNs;
    std::uint64_t endNs;
};

/** In-memory trace; written out once, when the benchmark ends. */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin_) : origin(origin_) {}

    std::uint64_t
    open(const std::string &name, std::uint64_t parent,
         std::uint64_t run)
    {
        spans.push_back(Span{name, spans.size() + 1, parent, run,
                             nsBetween(origin, Clock::now()), 0});
        return spans.back().id;
    }

    void close(std::uint64_t id)
    {
        spans[id - 1].endNs = nsBetween(origin, Clock::now());
    }

    std::vector<Span> spans;
    /** Hot per-call boundaries, aggregated per rep. */
    std::vector<std::pair<std::uint64_t,
                          std::array<Boundary, 3>>> boundaries;

  private:
    Clock::time_point origin;
};

enum BoundaryId
{
    GenOp = 0,
    AcceptVersion,
    ObserveRemoteVersion,
};
const char *const boundaryNames[] = {"genOp", "acceptVersion",
                                     "observeRemoteVersion"};

/** Times genOp of the wrapped workload. */
class TimedWorkload : public WorkloadBase
{
  public:
    TimedWorkload(std::unique_ptr<WorkloadBase> inner_, Boundary &b)
        : WorkloadBase(inner_->params()), inner(std::move(inner_)),
          gen(b)
    {
    }

    const char *name() const override { return inner->name(); }

    void
    genOp(unsigned thread, std::vector<MemRef> &out) override
    {
        auto t0 = Clock::now();
        inner->genOp(thread, out);
        gen.add(nsBetween(t0, Clock::now()));
    }

  private:
    std::unique_ptr<WorkloadBase> inner;
    Boundary &gen;
};

/** Times the version traffic between the caches and NVOverlay. */
class TimedVersionCtrl : public VersionCtrl
{
  public:
    TimedVersionCtrl(VersionCtrl &inner_, Boundary &accept_,
                     Boundary &observe_)
        : inner(inner_), accept(accept_), observe(observe_)
    {
    }

    EpochWide
    vdEpoch(unsigned vd) const override
    {
        return inner.vdEpoch(vd);
    }

    Cycle
    observeRemoteVersion(unsigned vd, EpochWide rv, Cycle now) override
    {
        auto t0 = Clock::now();
        Cycle c = inner.observeRemoteVersion(vd, rv, now);
        observe.add(nsBetween(t0, Clock::now()));
        return c;
    }

    Cycle
    acceptVersion(unsigned vd, Addr line_addr, EpochWide oid,
                  SeqNo seq, const LineData &content, EvictReason why,
                  Cycle now) override
    {
        auto t0 = Clock::now();
        Cycle c = inner.acceptVersion(vd, line_addr, oid, seq, content,
                                      why, now);
        accept.add(nsBetween(t0, Clock::now()));
        return c;
    }

  private:
    VersionCtrl &inner;
    Boundary &accept;
    Boundary &observe;
};

// ------------------------------------------------------------------
// One rep
// ------------------------------------------------------------------

/** Host times in a Rep are CPU seconds; scale() converts them. */
struct Rep
{
    double setupS = 0;
    double loopS = 0;   ///< the loop less its speed probes
    double finalizeS = 0;
    /** Median SpeedProbe slice, one taken after each chunk. */
    double speedSliceNs = 0;
    double peakRssMb = 0;
    /** (refs, host ns) per runUntil chunk. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> chunks;
    RunStats stats;
    /** The System's config after construction, derived keys too. */
    std::map<std::string, std::string> config;
    EpochWide recEpoch = 0;
    EpochWide runRecEpoch = 0;   ///< before finalize
    std::uint64_t ops = 0;
    // Traced reps only.
    double probeUs = 0;
    std::array<Boundary, 3> loopBoundaries{};
    std::array<Boundary, 3> boundaries{};

    double scale() const { return SpeedProbe::scaleFor(speedSliceNs); }
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    if (n == 0)
        return 0;
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double
medianOf(const std::vector<Rep> &reps, F f)
{
    std::vector<double> v;
    for (const auto &r : reps)
        v.push_back(f(r));
    return median(v);
}

/**
 * Host-time profile of a set of reps, in reference ns (see
 * SpeedProbe). Chunk k simulates the same work in every rep (the
 * identity gate checks this), so its time is the median over reps,
 * chunk by chunk: a burst of host contention then drops out of one
 * chunk instead of slowing a whole rep.
 */
struct Profile
{
    std::vector<std::uint64_t> refs;
    std::vector<double> ns;
    double finalizeS = 0;

    static Profile
    of(const std::vector<Rep> &reps)
    {
        Profile p;
        std::size_t n = reps.front().chunks.size();
        for (const auto &r : reps)
            n = std::min(n, r.chunks.size());
        for (std::size_t k = 0; k < n; ++k) {
            p.refs.push_back(reps.front().chunks[k].first);
            p.ns.push_back(medianOf(reps, [k](const Rep &r) {
                return static_cast<double>(r.chunks[k].second) *
                       r.scale();
            }));
        }
        p.finalizeS = medianOf(
            reps, [](const Rep &r) { return r.finalizeS * r.scale(); });
        return p;
    }

    double
    loopS() const
    {
        double total = 0;
        for (double v : ns)
            total += v;
        return total * 1e-9;
    }

    double
    refsPerS() const
    {
        std::uint64_t total = 0;
        for (auto r : refs)
            total += r;
        return static_cast<double>(total) / (loopS() + finalizeS);
    }

    /** Host ns per simulated ref over chunks [first, last). */
    double
    nsPerRef(std::size_t first, std::size_t last) const
    {
        std::uint64_t r = 0;
        double t = 0;
        for (std::size_t i = first; i < last; ++i) {
            r += refs[i];
            t += ns[i];
        }
        return r ? t / r : 0;
    }

    std::size_t quarter() const
    {
        return std::max<std::size_t>(1, ns.size() / 4);
    }
    double nsPerRefQ1() const { return nsPerRef(0, quarter()); }
    double
    nsPerRefQ4() const
    {
        return nsPerRef(ns.size() - quarter(), ns.size());
    }
};

/**
 * Build, run in chunks and finalize one System. With @p tracer the
 * workload and version path are decorated, spans are recorded, and
 * one updateStats() probe is timed after the last chunk. @p speed
 * takes a slice after every chunk, outside the chunk's time.
 */
Rep
runRep(const WorkloadSpec &spec, const Config &cfg, Tracer *tracer,
       std::uint64_t run_id, SpeedProbe &speed)
{
    Rep rep;
    resetPeakRss();
    std::uint64_t root = 0, span = 0;
    std::array<Boundary, 3> agg{};
    if (tracer) {
        root = tracer->open("rep", 0, run_id);
        span = tracer->open("setup", root, run_id);
    }

    auto t0 = CpuClock::now();
    std::unique_ptr<System> sys;
    if (tracer) {
        auto wl = std::make_unique<TimedWorkload>(
            makeWorkload(spec.workload, cfg), agg[GenOp]);
        sys = std::make_unique<System>(cfg, "nvoverlay", std::move(wl));
    } else {
        sys = std::make_unique<System>(cfg, "nvoverlay", spec.workload);
    }
    rep.setupS = secondsBetween(t0, CpuClock::now());
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys->scheme());
    std::optional<TimedVersionCtrl> vctrl;
    if (tracer) {
        tracer->close(span);
        vctrl.emplace(scheme, agg[AcceptVersion],
                      agg[ObserveRemoteVersion]);
        sys->hierarchy().setVersionCtrl(&*vctrl);
    }

    Cycle limit = 0;
    bool done = false;
    std::vector<double> speeds;
    std::uint64_t speed_ns = 0;
    auto loop0 = CpuClock::now();
    while (!done) {
        if (tracer)
            span = tracer->open("chunk", root, run_id);
        std::uint64_t refs0 = sys->stats().refs;
        auto c0 = CpuClock::now();
        limit += spec.chunkCycles;
        done = sys->runUntil(limit);
        rep.chunks.emplace_back(sys->stats().refs - refs0,
                                nsBetween(c0, CpuClock::now()));
        if (tracer)
            tracer->close(span);
        auto s0 = CpuClock::now();
        speeds.push_back(speed.sliceNs());
        speed_ns += nsBetween(s0, CpuClock::now());
    }
    rep.loopS = secondsBetween(loop0, CpuClock::now()) - speed_ns * 1e-9;
    rep.speedSliceNs = median(speeds);
    rep.runRecEpoch = scheme.backend().recEpoch();

    if (tracer) {
        rep.loopBoundaries = agg;
        span = tracer->open("stats_probe", root, run_id);
        auto p0 = CpuClock::now();
        scheme.updateStats();
        rep.probeUs = secondsBetween(p0, CpuClock::now()) * 1e6;
        tracer->close(span);
        span = tracer->open("finalize", root, run_id);
    }
    auto f0 = CpuClock::now();
    sys->run();
    rep.finalizeS = secondsBetween(f0, CpuClock::now());
    if (tracer)
        tracer->close(span);

    rep.peakRssMb = peakRssMb();
    rep.stats = sys->stats();
    rep.config = sys->config().dump();
    rep.recEpoch = scheme.backend().recEpoch();
    rep.ops = sys->workload().opsCompleted();
    if (tracer) {
        rep.boundaries = agg;
        tracer->boundaries.emplace_back(run_id, agg);
        tracer->close(root);
    }
    // The decorator must stay installed until the System is gone.
    sys.reset();
    return rep;
}

// ------------------------------------------------------------------
// Output
// ------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string better;
};

void
printMetrics(const std::vector<Metric> &metrics)
{
    for (const auto &m : metrics)
        std::printf("metric %-32s %20.12g %-8s (%s is better)\n",
                    m.name.c_str(), m.value, m.unit.c_str(),
                    m.better.c_str());
}

/** The result: the last line of stdout. */
void
printResult(const CheckTally &tally,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject()
        .kv("correct", tally.failed == 0)
        .kv("attempted", tally.attempted)
        .kv("failed", tally.failed)
        .key("metrics")
        .beginObject();
    for (const auto &m : metrics)
        w.key(m.name)
            .beginObject()
            .kv("value", m.value)
            .kv("unit", m.unit)
            .endObject();
    w.endObject().endObject();
    std::printf("%s\n", os.str().c_str());
}

// ------------------------------------------------------------------
// Provenance and the trace file
// ------------------------------------------------------------------

#ifdef NVO_AUDIT_ENABLED
constexpr bool auditBuild = true;
#else
constexpr bool auditBuild = false;
#endif
#ifdef NVO_TRACE_ENABLED
constexpr bool traceBuild = true;
#else
constexpr bool traceBuild = false;
#endif
#ifdef NVO_METRIC_ENABLED
constexpr bool metricBuild = true;
#else
constexpr bool metricBuild = false;
#endif
#ifdef NVO_FAULT_ENABLED
constexpr bool faultBuild = true;
#else
constexpr bool faultBuild = false;
#endif

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        auto colon = line.find(':');
        if (line.rfind("model name", 0) == 0 && colon != std::string::npos)
            return line.substr(line.find_first_not_of(' ', colon + 1));
    }
    return "unknown";
}

std::string
provenanceJson(const std::string &workload, std::uint64_t seed,
               const std::map<std::string, std::string> &cfg)
{
    auto flag = [](bool on) { return on ? "ON" : "OFF"; };
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject()
        .kv("nproc", static_cast<std::uint64_t>(
                         sysconf(_SC_NPROCESSORS_ONLN)))
        .kv("cpu", cpuModel())
        .kv("compiler", PERFBENCH_COMPILER)
        .kv("build_type", PERFBENCH_BUILD_TYPE)
        .kv("NVO_TRACE", flag(traceBuild))
        .kv("NVO_METRIC", flag(metricBuild))
        .kv("NVO_AUDIT", flag(auditBuild))
        .kv("NVO_FAULT", flag(faultBuild))
        .kv("engine", "sequential")
        .kv("host_threads", 1)
        .kv("workload", workload)
        .kv("seed", seed)
        .key("config")
        .beginObject();
    for (const auto &[k, v] : cfg)
        w.kv(k, v);
    w.endObject().endObject();
    return os.str();
}

void
writeTrace(const Tracer &tracer, const std::string &path,
           const std::string &workload, std::uint64_t seed)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
        return;
    }
    obs::JsonWriter w(out);
    w.beginObject()
        .kv("schema", "nvo-perfbench-trace-v1")
        .kv("workload", workload)
        .kv("seed", seed)
        .key("spans")
        .beginArray();
    for (const Span &s : tracer.spans)
        w.beginObject()
            .kv("name", s.name)
            .kv("id", s.id)
            .kv("parent", s.parent)
            .kv("run", s.run)
            .kv("start_ns", s.startNs)
            .kv("end_ns", s.endNs)
            .endObject();
    w.endArray().key("boundaries").beginArray();
    for (const auto &[run, agg] : tracer.boundaries) {
        for (std::size_t b = 0; b < agg.size(); ++b) {
            w.beginObject()
                .kv("run", run)
                .kv("name", boundaryNames[b])
                .kv("count", agg[b].count)
                .kv("total_ns", agg[b].totalNs)
                .key("log2_ns_hist")
                .beginArray();
            for (auto n : agg[b].log2Hist)
                w.value(n);
            w.endArray().endObject();
        }
    }
    w.endArray().endObject();
    out << "\n";
}

// ------------------------------------------------------------------
// Metrics
// ------------------------------------------------------------------

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / den : 0;
}

std::uint64_t
extraOf(const RunStats &s, const std::string &key)
{
    auto it = s.extra.find(key);
    return it == s.extra.end() ? 0 : it->second;
}

/** Untraced throughput in refs per CPU second, not scaled. */
double
rawRefsPerS(const std::vector<Rep> &reps)
{
    return medianOf(reps, [](const Rep &r) {
        double refs = 0;
        for (const auto &chunk : r.chunks)
            refs += static_cast<double>(chunk.first);
        return refs / (r.loopS + r.finalizeS);
    });
}

std::vector<Metric>
endToEndMetrics(const std::vector<Rep> &reps,
                const std::vector<double> &setup_s, Cycle none_cycles)
{
    const RunStats &s = reps.front().stats;
    const Profile p = Profile::of(reps);
    return {
        {"sim_refs_per_s", p.refsPerS(), "refs/s", "higher"},
        {"tail_slowdown", p.nsPerRefQ4() / p.nsPerRefQ1(), "ratio",
         "lower"},
        {"setup_s", median(setup_s), "s", "lower"},
        {"peak_rss_mb",
         medianOf(reps, [](const Rep &r) { return r.peakRssMb; }), "MiB",
         "lower"},
        {"sim_cycles", static_cast<double>(s.cycles), "cycles", "lower"},
        {"norm_cycles", ratio(s.cycles, none_cycles), "ratio", "lower"},
        {"nvm_write_bytes", static_cast<double>(s.totalNvmWriteBytes()),
         "bytes", "lower"},
    };
}

std::vector<Metric>
perLayerMetrics(const std::vector<Rep> &traced,
                const std::vector<Rep> &untraced)
{
    const Rep &r0 = traced.front();
    const RunStats &s = r0.stats;
    auto host = [&traced](auto f) { return medianOf(traced, f); };
    auto bsec = [](const Boundary &b) { return b.totalNs * 1e-9; };
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    auto evict = [&s](EvictReason r) {
        return static_cast<double>(
            s.evictReason[static_cast<std::size_t>(r)]);
    };
    auto nvm = [&s](NvmWriteKind k) {
        return static_cast<double>(
            s.nvmWriteBytes[static_cast<std::size_t>(k)]);
    };
    std::uint64_t tenant_inserts = 0;
    for (const auto &[k, v] : s.extra)
        if (k.rfind("tenant.", 0) == 0 && k.size() > 8 &&
            k.compare(k.size() - 8, 8, ".inserts") == 0)
            tenant_inserts += v;
    const Profile profile = Profile::of(traced);

    return {
        {"workload.gen_s",
         host([&](const Rep &r) { return bsec(r.boundaries[GenOp]); }),
         "s", "lower"},
        {"workload.gen_ns_per_ref", host([&](const Rep &r) {
             return ratio(r.boundaries[GenOp].totalNs, r.stats.refs);
         }),
         "ns/ref", "lower"},
        {"workload.refs_per_op", ratio(s.refs, r0.ops), "refs/op",
         "lower"},
        {"cache.l1_hit_rate", ratio(s.l1Hits, s.l1Hits + s.l1Misses),
         "ratio", "higher"},
        {"cache.l2_hit_rate", ratio(s.l2Hits, s.l2Hits + s.l2Misses),
         "ratio", "higher"},
        {"cache.llc_hit_rate", ratio(s.llcHits, s.llcHits + s.llcMisses),
         "ratio", "higher"},
        {"cache.llc_misses", count(s.llcMisses), "count", "lower"},
        {"cache.dram_read_bytes", count(s.dramReadBytes), "bytes",
         "lower"},
        {"cst.epoch_advances", count(s.epochAdvances), "count",
         "higher"},
        {"cst.lamport_advances", count(s.lamportAdvances), "count",
         "lower"},
        {"cst.context_dumps", count(s.contextDumps), "count", "lower"},
        {"cst.barrier_stall_cycles", count(s.barrierStallCycles),
         "cycles", "lower"},
        {"cst.observe_rv_calls",
         count(r0.boundaries[ObserveRemoteVersion].count), "count",
         "lower"},
        {"cst.observe_rv_s", host([&](const Rep &r) {
             return bsec(r.boundaries[ObserveRemoteVersion]);
         }),
         "s", "lower"},
        {"cst.evict.capacity", evict(EvictReason::Capacity), "count",
         "lower"},
        {"cst.evict.coherence", evict(EvictReason::Coherence), "count",
         "lower"},
        {"cst.evict.tag_walk", evict(EvictReason::TagWalk), "count",
         "lower"},
        {"cst.evict.store_evict", evict(EvictReason::StoreEvict),
         "count", "lower"},
        {"cst.evict.epoch_flush", evict(EvictReason::EpochFlush),
         "count", "lower"},
        {"cst.tag_walk_lines_scanned", count(s.tagWalkLinesScanned),
         "count", "lower"},
        {"cst.tag_walk_write_backs", count(s.tagWalkWriteBacks), "count",
         "lower"},
        {"mnm.accept_version_calls",
         count(r0.boundaries[AcceptVersion].count), "count", "lower"},
        {"mnm.accept_version_s", host([&](const Rep &r) {
             return bsec(r.boundaries[AcceptVersion]);
         }),
         "s", "lower"},
        {"mnm.accept_ns_per_call", host([&](const Rep &r) {
             const Boundary &b = r.boundaries[AcceptVersion];
             return ratio(b.totalNs, b.count);
         }),
         "ns", "lower"},
        {"mnm.rec_epoch", count(r0.recEpoch), "count", "higher"},
        {"mnm.rec_epoch_before_finalize", count(r0.runRecEpoch),
         "count", "higher"},
        {"mnm.omc_buffer_hit_rate",
         ratio(s.omcBufferHits, s.omcBufferHits + s.omcBufferMisses),
         "ratio", "higher"},
        {"mnm.master_table_bytes", count(s.masterTableBytes), "bytes",
         "lower"},
        {"mnm.epoch_table_bytes", count(s.epochTableBytes), "bytes",
         "lower"},
        {"mnm.pool_pages_in_use", count(s.poolPagesInUse), "count",
         "lower"},
        {"mnm.gc_compactions", count(s.gcCompactions), "count", "lower"},
        {"mnm.gc_bytes_copied", count(s.gcBytesCopied), "bytes",
         "lower"},
        {"nvm.write_bytes.data", nvm(NvmWriteKind::Data), "bytes",
         "lower"},
        {"nvm.write_bytes.mapping", nvm(NvmWriteKind::Mapping), "bytes",
         "lower"},
        {"nvm.write_bytes.context", nvm(NvmWriteKind::Context), "bytes",
         "lower"},
        {"nvm.write_ops", count(s.nvmWriteOps), "count", "lower"},
        {"nvm.peak_bw_bucket_bytes", count(s.nvmBandwidth.peakBytes()),
         "bytes", "lower"},
        {"harness.loop_self_s", host([&](const Rep &r) {
             double children = 0;
             for (const auto &b : r.loopBoundaries)
                 children += bsec(b);
             return r.loopS - children;
         }),
         "s", "lower"},
        {"harness.stats_refresh_us.last",
         host([](const Rep &r) { return r.probeUs; }), "us", "lower"},
        {"harness.ns_per_ref.q1", profile.nsPerRefQ1(), "ns/ref",
         "lower"},
        {"harness.ns_per_ref.q4", profile.nsPerRefQ4(), "ns/ref",
         "lower"},
        {"harness.finalize_s", profile.finalizeS, "s", "lower"},
        {"harness.speed_probe_us", medianOf(untraced, [](const Rep &r) {
             return r.speedSliceNs * 1e-3;
         }),
         "us", "lower"},
        {"harness.raw_refs_per_s", rawRefsPerS(untraced), "refs/s",
         "higher"},
        {"tenant.inserts", count(tenant_inserts), "count", "lower"},
        {"tenant.throttle_stalls",
         count(extraOf(s, "tenant_throttle_stalls")), "cycles", "lower"},
        {"tenant.quota_rejections",
         count(extraOf(s, "tenant_quota_rejections")), "count", "lower"},
        {"trace_overhead",
         profile.loopS() / Profile::of(untraced).loopS(), "ratio",
         "lower"},
    };
}

// ------------------------------------------------------------------
// Benchmark run
// ------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    std::string traceOut;
    bool selfTest = false;
};

/** Check every rep's simulated counters against @p expected. */
void
gateIdentity(const std::vector<Rep> &reps, const Fingerprint &expected,
             const char *what, CheckTally &tally)
{
    for (std::size_t i = 0; i < reps.size(); ++i) {
        auto bad = Fingerprint::of(reps[i].stats).diff(expected);
        tally.add(bad.empty());
        for (const auto &name : bad)
            std::printf("identity: %s rep %zu differs in %s\n", what, i,
                        name.c_str());
    }
}

constexpr std::size_t minSetupSamples = 15;
constexpr std::size_t maxSetupSamples = 1000;
constexpr double minSetupSeconds = 1.0;

int
runBenchmark(const Options &opt)
{
    const WorkloadSpec *spec = findSpec(opt.workload);
    if (!spec) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    if (auditBuild || std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) {
        std::fprintf(stderr,
                     "refusing host-time metrics from a %s build with "
                     "NVO_AUDIT=%s\n",
                     PERFBENCH_BUILD_TYPE, auditBuild ? "ON" : "OFF");
        return 2;
    }
    const Config cfg = specConfig(*spec, opt.seed);
    CheckTally tally;

    // Untimed correctness pass: recovery checked line by line, and
    // the mechanism must have fired for the check to mean anything.
    CorrectnessResult c = correctnessPass(cfg, spec->workload);
    std::printf("correctness: %llu lines checked, %llu mismatches, "
                "rec-epoch %llu, %llu epoch advances before finalize"
                "%s\n",
                static_cast<unsigned long long>(c.linesChecked),
                static_cast<unsigned long long>(c.mismatches),
                static_cast<unsigned long long>(c.recEpoch),
                static_cast<unsigned long long>(c.runEpochAdvances),
                c.fired ? "" : " -> mechanism idle");
    tally.attempted += c.linesChecked;
    tally.failed += c.mismatches;
    tally.add(c.fired);

    // Timed reps until the measurement window is used up. The write
    // tracker observes only, so the correctness pass fixes the
    // counters every rep must reproduce.
    std::vector<Rep> untraced, traced;
    Clock::time_point origin = Clock::now();
    Tracer tracer(origin);
    SpeedProbe speed;
    const std::size_t min_reps = opt.traced ? 2 : 3;
    for (std::uint64_t run = 1;; ++run) {
        untraced.push_back(runRep(*spec, cfg, nullptr, run, speed));
        if (opt.traced)
            traced.push_back(runRep(*spec, cfg, &tracer, run, speed));
        if (untraced.size() >= min_reps &&
            secondsBetween(origin, Clock::now()) >= opt.seconds)
            break;
    }
    std::printf("provenance: %s\n",
                provenanceJson(spec->name, opt.seed,
                               untraced.front().config)
                    .c_str());
    for (std::size_t i = 0; i < untraced.size(); ++i) {
        const Rep &r = untraced[i];
        std::printf("rep %zu: CPU setup %.6f s, loop %.6f s, finalize "
                    "%.6f s; speed probe %.1f us; peak %.1f MiB\n",
                    i, r.setupS, r.loopS, r.finalizeS,
                    r.speedSliceNs * 1e-3, r.peakRssMb);
    }
    std::printf("raw: %.1f refs per CPU s; speed probe median %.3f "
                "us (reference %.1f us)\n",
                rawRefsPerS(untraced),
                medianOf(untraced,
                         [](const Rep &r) { return r.speedSliceNs; }) *
                    1e-3,
                SpeedProbe::referenceSliceNs * 1e-3);
    gateIdentity(untraced, c.fp, "untraced", tally);
    gateIdentity(traced, c.fp, "traced", tally);

    std::vector<Metric> metrics;
    if (opt.traced) {
        metrics = perLayerMetrics(traced, untraced);
        if (!opt.traceOut.empty())
            writeTrace(tracer, opt.traceOut, spec->name, opt.seed);
    } else {
        // Set-up is short next to a rep: top its samples up with
        // construction-only builds so its median is steady too.
        std::vector<double> setup_s;
        double setup_total = 0;
        for (const auto &r : untraced) {
            setup_s.push_back(r.setupS * r.scale());
            setup_total += r.setupS;
        }
        while (setup_s.size() < minSetupSamples ||
               (setup_total < minSetupSeconds &&
                setup_s.size() < maxSetupSamples)) {
            // Same starting heap as a rep's set-up.
            resetPeakRss();
            double scale = SpeedProbe::scaleFor(speed.sliceNs());
            auto t0 = CpuClock::now();
            System sys(cfg, "nvoverlay", spec->workload);
            double cpu_s = secondsBetween(t0, CpuClock::now());
            setup_s.push_back(cpu_s * scale);
            setup_total += cpu_s;
        }
        // The baseline is deterministic: one untimed run suffices.
        System none(cfg, "none", spec->workload);
        none.run();
        metrics = endToEndMetrics(untraced, setup_s, none.stats().cycles);
    }
    std::size_t reps = untraced.size() + traced.size();
    std::printf("reps: %zu (%zu untraced, %zu traced) in %.3f s\n", reps,
                untraced.size(), traced.size(),
                secondsBetween(origin, Clock::now()));
    printMetrics(metrics);
    std::printf("checks: %llu attempted, %llu failed, fail_frac %.12g\n",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                ratio(tally.failed, tally.attempted));
    printResult(tally, metrics);
    return 0;
}

// ------------------------------------------------------------------
// Self-test: the benchmark's own checks must be able to fail
// ------------------------------------------------------------------

int
selfTest()
{
    int failures = 0;
    auto expect = [&failures](bool ok, const char *what) {
        std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
        failures += ok ? 0 : 1;
    };
    const WorkloadSpec &spec = *findSpec("btree_insert");
    Config cfg = specConfig(spec, 1);
    cfg.set("wl.ops", std::uint64_t(600));
    cfg.set("wl.btree.prefill", std::uint64_t(16384));
    cfg.set("epoch.stores_global", std::uint64_t(65536));

    CorrectnessResult good = correctnessPass(cfg, spec.workload);
    expect(good.fired && good.mismatches == 0 && good.linesChecked > 0,
           "a sized run fires the mechanism and recovers exactly");

    // An epoch longer than the run's total stores never completes, so
    // the recovery comparison alone would pass on an idle mechanism.
    Config idle = cfg;
    idle.set("epoch.stores_global", std::uint64_t(1) << 40);
    CorrectnessResult c = correctnessPass(idle, spec.workload);
    expect(!c.fired, "an epoch too large to fill fails the "
                     "mechanism-fired check");

    // A corrupted recovered line must be caught by the line check.
    {
        Config tracked = cfg;
        tracked.set("sim.track_writes", "true");
        System sys(tracked, "nvoverlay", spec.workload);
        sys.run();
        auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
        auto result = RecoveryManager(scheme.backend()).recover();
        Addr victim = 0;
        for (Addr line : sys.tracker()->trackedLines())
            if (sys.tracker()->expectedDigest(line, result.recEpoch)) {
                victim = line;
                break;
            }
        LineData data;
        result.image->readLine(victim, data);
        data.bytes[0] ^= 0xff;
        result.image->writeLine(victim, data);
        std::uint64_t checked = 0;
        expect(countMismatches(*sys.tracker(), result, checked) == 1,
               "a corrupted recovered line fails the recovery check");
    }

    // The identity gate: an equal rep passes, and perturbing any one
    // expected counter fails it.
    SpeedProbe speed;
    Rep rep = runRep(spec, cfg, nullptr, 1, speed);
    CheckTally same;
    gateIdentity({rep}, good.fp, "self-test", same);
    expect(same.failed == 0, "a rep reproduces the correctness pass's "
                             "counters");
    Tracer tracer(Clock::now());
    Rep traced_rep = runRep(spec, cfg, &tracer, 2, speed);
    CheckTally traced_same;
    gateIdentity({traced_rep}, good.fp, "self-test", traced_same);
    expect(traced_same.failed == 0,
           "a traced rep reproduces the untraced counters");
    bool all_caught = true;
    for (std::size_t i = 0; i < good.fp.fields.size(); ++i) {
        Fingerprint perturbed = good.fp;
        perturbed.fields[i].second += 1;
        CheckTally caught;
        gateIdentity({rep}, perturbed, "perturbed", caught);
        all_caught &= caught.failed == 1;
    }
    expect(all_caught, "a perturbed expected counter fails the identity "
                       "gate (every field)");

    std::printf("self-test: %s\n", failures ? "FAILED" : "ok");
    return failures ? 1 : 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: nvo_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>]\n"
                 "       nvo_perfbench --self-test\n"
                 "workloads:");
    for (const auto &s : workloadSpecs())
        std::fprintf(stderr, " %s", s.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::optional<std::string> {
            if (i + 1 >= argc)
                return std::nullopt;
            return std::string(argv[++i]);
        };
        std::optional<std::string> v;
        if (a == "--self-test") {
            opt.selfTest = true;
            continue;
        }
        if (!(v = value()))
            return usage();
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = *v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v->c_str(), &end, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v->c_str(), &end);
        } else if (a == "--trace") {
            opt.traced = *v == "1";
            if (*v != "0" && *v != "1")
                return usage();
        } else if (a == "--trace-out") {
            opt.traceOut = *v;
        } else {
            return usage();
        }
        if (end && *end)
            return usage();
    }
    if (opt.selfTest)
        return selfTest();
    if (opt.workload.empty())
        return usage();
    return runBenchmark(opt);
}
