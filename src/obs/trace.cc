#include "obs/trace.hh"

#include <algorithm>
#include <array>
#include <sstream>

#include "common/config.hh"
#include "common/log.hh"
#include "obs/json.hh"

namespace nvo
{
namespace obs
{

namespace
{

constexpr std::size_t numEvents =
    static_cast<std::size_t>(Ev::NumEvents);

/* Indexed by Ev; keep in declaration order. */
constexpr std::array<EvInfo, numEvents> evTable = {{
    {"epoch_advance", Cat::Epoch, "epoch", "lamport", false},
    {"skew_force", Cat::Epoch, "floor", "leader", false},
    {"context_dump", Cat::Epoch, "bytes", nullptr, false},
    {"version_seal", Cat::Cache, "addr", "oid", false},
    {"store_evict", Cat::Cache, "addr", "oid", false},
    {"cache_writeback", Cat::Cache, "addr", "reason", false},
    {"walk_scan", Cat::Walker, "lines_scanned", "versions", false},
    {"walk_drain", Cat::Walker, "versions", nullptr, false},
    {"min_ver_report", Cat::Walker, "min_ver", nullptr, false},
    {"omc_insert", Cat::Omc, "addr", "oid", false},
    {"omc_buffer_evict", Cat::Omc, "addr", "epoch", false},
    {"omc_buffer_drain", Cat::Omc, "flushed", nullptr, false},
    {"omc_occupancy", Cat::Omc, "value", nullptr, true},
    {"table_merge", Cat::Merge, "epoch", nullptr, false},
    {"late_merge", Cat::Merge, "addr", "oid", false},
    {"rec_epoch_advance", Cat::Merge, "rec_epoch", "previous", false},
    {"compaction", Cat::Merge, "source_epoch", nullptr, false},
    {"pool_alloc", Cat::Pool, "sub_page", "lines", false},
    {"pool_free", Cat::Pool, "sub_page", "lines", false},
    {"pool_extend", Cat::Pool, "pages", nullptr, false},
    {"pool_pages", Cat::Pool, "value", nullptr, true},
    {"nvm_stall", Cat::Nvm, "stall", "backlog", false},
    {"nvm_backlog", Cat::Nvm, "value", nullptr, true},
    {"phase", Cat::Harness, "phase", nullptr, false},
    {"fault_nvm_error", Cat::Fault, "hit", nullptr, false},
    {"fault_crash", Cat::Fault, "hit", nullptr, false},
    {"persist_barrier", Cat::Fault, "records", nullptr, false},
    {"persist_truncate", Cat::Fault, "records", nullptr, false},
    {"ledger_seal", Cat::Ledger, "prov", "addr", false},
    {"ledger_insert", Cat::Ledger, "prov", "cause", false},
    {"ledger_merge", Cat::Ledger, "prov", "late", false},
    {"ledger_compact_move", Cat::Ledger, "prov", "target_epoch",
     false},
    {"ledger_drop", Cat::Ledger, "prov", "epoch", false},
    {"repl_ship_delta", Cat::Repl, "addr", "epoch", false},
    {"repl_ship_close", Cat::Repl, "deltas", "epoch", false},
    {"repl_ship_late", Cat::Repl, "addr", "epoch", false},
    {"repl_frame_drop", Cat::Repl, "frame", "retries", false},
    {"repl_frame_corrupt", Cat::Repl, "frame", "retries", false},
    {"repl_frame_retry", Cat::Repl, "frame", "retry", false},
    {"repl_frame_ack", Cat::Repl, "frame", nullptr, false},
    {"repl_epoch_applied", Cat::Repl, "epoch", "deltas", false},
    {"repl_backpressure", Cat::Repl, "queue", nullptr, false},
    {"repl_cursor_persist", Cat::Repl, "cursor", "generation",
     false},
    {"repl_resume", Cat::Repl, "cursor", "rec_epoch", false},
    {"policy_decision", Cat::Policy, "controller", "output", false},
    {"policy_actuate", Cat::Policy, "knob", "value", false},
}};

} // namespace

const EvInfo &
info(Ev e)
{
    auto idx = static_cast<std::size_t>(e);
    nvo_assert(idx < numEvents, "unknown trace event");
    return evTable[idx];
}

const char *
toString(Cat c)
{
    switch (c) {
      case Cat::Epoch: return "epoch";
      case Cat::Cache: return "cache";
      case Cat::Walker: return "walker";
      case Cat::Omc: return "omc";
      case Cat::Merge: return "merge";
      case Cat::Pool: return "pool";
      case Cat::Nvm: return "nvm";
      case Cat::Harness: return "harness";
      case Cat::Fault: return "fault";
      case Cat::Ledger: return "ledger";
      case Cat::Repl: return "repl";
      case Cat::Policy: return "policy";
      default: return "?";
    }
}

std::uint32_t
parseCats(const std::string &spec)
{
    if (spec.empty() || spec == "none")
        return 0;
    if (spec == "all")
        return allCats;
    std::uint32_t mask = 0;
    std::istringstream in(spec);
    std::string name;
    while (std::getline(in, name, ',')) {
        bool found = false;
        for (std::uint32_t bit = 1; bit <= allCats; bit <<= 1) {
            if (name == toString(static_cast<Cat>(bit))) {
                mask |= bit;
                found = true;
                break;
            }
        }
        if (!found)
            fatal("trace.cats: unknown category '%s'", name.c_str());
    }
    return mask;
}

std::string
trackName(std::uint32_t track)
{
    if (track == trackSim)
        return "sim";
    if (track == trackCache)
        return "cache";
    if (track == trackNvm)
        return "nvm";
    if (track == trackRepl)
        return "repl";
    if (track >= 256)
        return "omc" + std::to_string(track - 256);
    if (track >= 16)
        return "vd" + std::to_string(track - 16);
    return "track" + std::to_string(track);
}

void
Tracer::record(Ev e, std::uint32_t track, Cycle cycle,
               std::uint64_t a0, std::uint64_t a1)
{
    if (ring.empty())
        return;
    Rec &r = ring[head];
    r.cycle = cycle;
    r.a0 = a0;
    r.a1 = a1;
    r.track = track;
    r.ev = e;
    head = (head + 1) % ring.size();
    ++total;
}

void
Tracer::setRingCapacity(std::size_t records)
{
    ring.assign(std::max<std::size_t>(records, 1), Rec{});
    head = 0;
    total = 0;
}

void
Tracer::reset()
{
    head = 0;
    total = 0;
}

std::size_t
Tracer::size() const
{
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(total, ring.size()));
}

void
Tracer::configure(const Config &cfg)
{
    bool on = cfg.getBool("trace.enabled", false);
    catMask = on ? parseCats(cfg.getStr("trace.cats", "all")) : 0;
    std::size_t cap = static_cast<std::size_t>(
        cfg.getU64("trace.ring", 1ull << 16));
    if (cap != ring.size())
        setRingCapacity(cap);
    else
        reset();
}

void
Tracer::exportChrome(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("displayTimeUnit", "ns");
    w.key("otherData").beginObject();
    w.kv("clock", "simulated cycles (reported as us)");
    w.kv("recorded", recorded());
    w.kv("dropped", dropped());
    w.endObject();

    w.key("traceEvents").beginArray();

    // Thread-name metadata so Perfetto labels the tracks.
    std::vector<std::uint32_t> tracks;
    forEach([&tracks](const Rec &r) {
        if (std::find(tracks.begin(), tracks.end(), r.track) ==
            tracks.end())
            tracks.push_back(r.track);
    });
    std::sort(tracks.begin(), tracks.end());
    for (std::uint32_t t : tracks) {
        w.beginObject();
        w.kv("name", "thread_name");
        w.kv("ph", "M");
        w.kv("pid", std::uint64_t(0));
        w.kv("tid", std::uint64_t(t));
        w.key("args").beginObject();
        w.kv("name", trackName(t));
        w.endObject();
        w.endObject();
    }

    forEach([&w](const Rec &r) {
        const EvInfo &ei = info(r.ev);
        w.beginObject();
        w.kv("name", ei.name);
        w.kv("cat", toString(ei.cat));
        w.kv("ph", ei.counter ? "C" : "i");
        if (!ei.counter)
            w.kv("s", "t");
        w.kv("ts", static_cast<double>(r.cycle));
        w.kv("pid", std::uint64_t(0));
        w.kv("tid", std::uint64_t(r.track));
        w.key("args").beginObject();
        if (ei.counter) {
            w.kv("value", r.a0);
        } else {
            if (ei.a0)
                w.kv(ei.a0, r.a0);
            if (ei.a1)
                w.kv(ei.a1, r.a1);
        }
        w.endObject();
        w.endObject();
    });

    w.endArray();
    w.endObject();
    os << "\n";
    nvo_assert(w.balanced(), "trace export left JSON unbalanced");
}

Tracer &
tracer()
{
    static Tracer global;
    return global;
}

} // namespace obs
} // namespace nvo
