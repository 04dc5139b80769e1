/**
 * @file
 * nvo_top: terminal live monitor for a running (or finished)
 * simulation's metric stream.
 *
 * Tails the append-only JSONL file the metric exporter writes
 * (`metrics.jsonl_out`, one `nvo-metrics-v1` snapshot per line; see
 * docs/OBSERVABILITY.md) and renders the newest snapshot as a compact
 * dashboard: polled gauges and histogram percentile rows. Standalone like the
 * other offline tools — json_mini.hh only, no simulator library.
 *
 * Usage:
 *   nvo_top [--interval-ms N] [--once] <metrics.jsonl>
 *
 * --once renders the newest snapshot and exits (CI smoke mode);
 * otherwise the screen refreshes every N ms (default 1000) until
 * interrupted. Exit codes: 0 rendered, 1 no valid snapshot found
 * (in --once mode), 2 usage/IO error.
 */

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "json_mini.hh"

namespace
{

using jsonmini::Value;
using jsonmini::ValuePtr;

struct Snapshot
{
    ValuePtr root;
    std::uint64_t epoch = 0;
    std::uint64_t cycle = 0;
};

/** Parse one JSONL line into a snapshot; nullopt-style via root. */
Snapshot
parseLine(const std::string &line)
{
    Snapshot s;
    ValuePtr v;
    try {
        v = jsonmini::parse(line);
    } catch (const std::exception &) {
        return s;
    }
    const Value *fmt = v->get("format");
    if (!fmt || fmt->asString() != "nvo-metrics-v1")
        return s;
    s.root = v;
    if (const Value *e = v->get("epoch"))
        s.epoch = e->asU64();
    if (const Value *c = v->get("cycle"))
        s.cycle = c->asU64();
    return s;
}

/**
 * Read the newest valid snapshot. A fresh read each refresh keeps
 * the tool robust against the exporter appending mid-read: a torn
 * last line simply fails to parse and the previous line is used.
 */
bool
readTail(const std::string &path, Snapshot &latest)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        Snapshot s = parseLine(line);
        if (s.root)
            latest = s;
    }
    return static_cast<bool>(latest.root);
}

/**
 * Policy panel: the engine publishes one gauge triple per active
 * controller — `policy.<ctrl>.setpoint/.measured/.output`
 * (docs/POLICY.md) — rendered here as one row per controller so the
 * loop's tracking error is visible at a glance. Gauges under the
 * `policy.` prefix are claimed by this panel and skipped by the
 * generic gauge table. No-op when the run has no policy gauges.
 */
void
renderPolicy(const Snapshot &s)
{
    const Value *gs = s.root->get("gauges");
    if (!gs)
        return;
    // controller -> (setpoint, measured, output); map keeps the
    // panel ordering stable across refreshes.
    std::map<std::string, std::array<std::uint64_t, 3>> ctrls;
    for (const auto &kv : gs->obj) {
        if (kv.first.rfind("policy.", 0) != 0)
            continue;
        std::string rest = kv.first.substr(7);
        std::size_t dot = rest.rfind('.');
        if (dot == std::string::npos)
            continue;
        std::string leaf = rest.substr(dot + 1);
        int slot = leaf == "setpoint" ? 0
                   : leaf == "measured" ? 1
                   : leaf == "output" ? 2
                                      : -1;
        if (slot < 0)
            continue;
        ctrls[rest.substr(0, dot)][static_cast<std::size_t>(slot)] =
            kv.second->asU64();
    }
    if (ctrls.empty())
        return;
    std::printf("  %-16s %14s %14s %14s\n", "controller",
                "setpoint", "measured", "output");
    for (const auto &kv : ctrls)
        std::printf("  %-16s %14llu %14llu %14llu\n",
                    kv.first.c_str(),
                    static_cast<unsigned long long>(kv.second[0]),
                    static_cast<unsigned long long>(kv.second[1]),
                    static_cast<unsigned long long>(kv.second[2]));
    std::printf("\n");
}

void
renderGauges(const Snapshot &s)
{
    const Value *gs = s.root->get("gauges");
    if (!gs)
        return;
    bool any = false;
    for (const auto &kv : gs->obj)
        if (kv.first.rfind("policy.", 0) != 0)
            any = true;
    if (!any)
        return;
    std::printf("  %-36s %14s\n", "gauge", "value");
    for (const auto &kv : gs->obj) {
        if (kv.first.rfind("policy.", 0) == 0)
            continue;   // rendered by the policy panel
        std::printf("  %-36s %14llu\n", kv.first.c_str(),
                    static_cast<unsigned long long>(
                        kv.second->asU64()));
    }
    std::printf("\n");
}

void
renderHists(const Snapshot &s)
{
    const Value *hs = s.root->get("hists");
    if (!hs || hs->obj.empty())
        return;
    std::printf("  %-32s %12s %8s %8s %8s %10s\n", "histogram",
                "count", "p50", "p90", "p99", "max");
    for (const auto &kv : hs->obj) {
        const Value &h = *kv.second;
        std::printf(
            "  %-32s %12llu %8llu %8llu %8llu %10llu\n",
            kv.first.c_str(),
            static_cast<unsigned long long>(
                h.get("count") ? h.get("count")->asU64() : 0),
            static_cast<unsigned long long>(
                h.get("p50") ? h.get("p50")->asU64() : 0),
            static_cast<unsigned long long>(
                h.get("p90") ? h.get("p90")->asU64() : 0),
            static_cast<unsigned long long>(
                h.get("p99") ? h.get("p99")->asU64() : 0),
            static_cast<unsigned long long>(
                h.get("max") ? h.get("max")->asU64() : 0));
    }
    std::printf("\n");
}

void
render(const std::string &path, const Snapshot &s, bool clear)
{
    if (clear)
        std::printf("\x1b[H\x1b[2J");   // home + clear screen
    std::printf("nvo_top — %s\n", path.c_str());
    std::printf("epoch %llu   cycle %llu\n\n",
                static_cast<unsigned long long>(s.epoch),
                static_cast<unsigned long long>(s.cycle));
    renderPolicy(s);
    renderGauges(s);
    renderHists(s);
    std::fflush(stdout);
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: nvo_top [--interval-ms N] [--once] <metrics.jsonl>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    bool once = false;
    long interval_ms = 1000;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--once") {
            once = true;
        } else if (arg == "--interval-ms") {
            if (++i >= argc)
                return usage();
            interval_ms = std::atol(argv[i]);
            if (interval_ms <= 0)
                return usage();
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else if (path.empty()) {
            path = arg;
        } else {
            return usage();
        }
    }
    if (path.empty())
        return usage();

    if (once) {
        Snapshot latest;
        if (!readTail(path, latest)) {
            std::fprintf(stderr,
                         "nvo_top: no valid nvo-metrics-v1 snapshot "
                         "in %s\n",
                         path.c_str());
            return 1;
        }
        render(path, latest, false);
        return 0;
    }

    std::uint64_t shownEpoch = ~0ull;
    std::uint64_t shownCycle = ~0ull;
    for (;;) {
        Snapshot latest;
        if (readTail(path, latest) &&
            (latest.epoch != shownEpoch ||
             latest.cycle != shownCycle)) {
            render(path, latest, true);
            shownEpoch = latest.epoch;
            shownCycle = latest.cycle;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }
}
