/**
 * @file
 * Noise-aware comparator for two `nvo-bench-v1` result files — the
 * CI perf-regression gate.
 *
 * Rows are keyed (workload, scheme, metric) and compared
 * baseline → current. All bench metrics in this repo are
 * lower-is-better (cycles, NVM bytes, table bytes), so a current
 * value more than the threshold *above* the baseline is a
 * regression; more than the threshold below is reported as an
 * improvement (informational — refresh the committed baseline to
 * bank it). A row present in the baseline but missing from the
 * current run also fails: silently dropping a measured cell is how
 * perf gates rot.
 *
 * The simulator is deterministic for a fixed seed and fixed wl.ops,
 * so the committed baselines are exact simulated metrics, not
 * wall-clock samples; the threshold exists to absorb intentional
 * protocol changes that move counts a little, not host noise.
 *
 * Two runs of different configs are not comparable: if the files'
 * `config` objects differ, every differing or missing key is printed
 * and no rows are compared.
 *
 * Usage: nvo_bench_diff [--threshold PCT] baseline.json current.json
 * Exit:  0 no regression, 1 regression/missing rows, 2 bad input
 *        (unreadable file, bad --threshold, config mismatch).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>

#include "json_mini.hh"

namespace
{

using jsonmini::Value;
using Key = std::tuple<std::string, std::string, std::string>;

struct BenchFile
{
    std::string bench = "?";
    std::map<std::string, std::string> config;
    std::map<Key, double> rows;
};

BenchFile
load(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        std::fprintf(stderr, "nvo_bench_diff: cannot read '%s'\n",
                     path.c_str());
        std::exit(2);
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    jsonmini::ValuePtr root;
    try {
        root = jsonmini::parse(ss.str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nvo_bench_diff: %s: %s\n", path.c_str(),
                     e.what());
        std::exit(2);
    }
    const Value *fmt = root->get("format");
    if (!fmt || fmt->asString() != "nvo-bench-v1") {
        std::fprintf(stderr,
                     "nvo_bench_diff: '%s' is not an nvo-bench-v1 "
                     "file\n",
                     path.c_str());
        std::exit(2);
    }
    BenchFile f;
    if (root->get("bench"))
        f.bench = root->get("bench")->asString();
    if (const Value *config = root->get("config"))
        for (const auto &kv : config->obj)
            f.config[kv.first] = kv.second->asString();
    const Value *results = root->get("results");
    if (results) {
        for (const auto &r : results->arr)
            f.rows[{r->get("workload")->asString(),
                    r->get("scheme")->asString(),
                    r->get("metric")->asString()}] =
                r->get("value")->asDouble();
    }
    return f;
}

/** Print every config key whose value differs or that one side
 *  lacks; returns the number printed. */
int
configMismatches(const BenchFile &base, const BenchFile &cur)
{
    int n = 0;
    auto show = [&n](const std::string &key, const std::string *b,
                     const std::string *c) {
        std::printf("CONFIG     %s: %s -> %s\n", key.c_str(),
                    b ? b->c_str() : "(missing)",
                    c ? c->c_str() : "(missing)");
        ++n;
    };
    for (const auto &[key, value] : base.config) {
        auto it = cur.config.find(key);
        if (it == cur.config.end())
            show(key, &value, nullptr);
        else if (it->second != value)
            show(key, &value, &it->second);
    }
    for (const auto &[key, value] : cur.config)
        if (!base.config.count(key))
            show(key, nullptr, &value);
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    double threshold = 5.0;
    std::string base_path, cur_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threshold") == 0 &&
            i + 1 < argc) {
            const char *arg = argv[++i];
            char *end = nullptr;
            threshold = std::strtod(arg, &end);
            if (end == arg || *end != '\0' ||
                !std::isfinite(threshold) || threshold < 0.0) {
                std::fprintf(stderr,
                             "nvo_bench_diff: --threshold wants a "
                             "non-negative percentage, got '%s'\n",
                             arg);
                return 2;
            }
        } else if (base_path.empty()) {
            base_path = argv[i];
        } else if (cur_path.empty()) {
            cur_path = argv[i];
        } else {
            base_path.clear();
            break;
        }
    }
    if (base_path.empty() || cur_path.empty()) {
        std::fprintf(stderr,
                     "usage: nvo_bench_diff [--threshold PCT] "
                     "baseline.json current.json\n");
        return 2;
    }

    const BenchFile base_file = load(base_path);
    const BenchFile cur_file = load(cur_path);
    if (base_file.bench != cur_file.bench)
        std::printf("note: comparing bench '%s' against '%s'\n",
                    base_file.bench.c_str(), cur_file.bench.c_str());
    if (int n = configMismatches(base_file, cur_file)) {
        std::printf("summary: %d config key(s) differ; the runs are "
                    "not comparable\n",
                    n);
        return 2;
    }
    const auto &base = base_file.rows;
    const auto &cur = cur_file.rows;

    int regressions = 0, improvements = 0, missing = 0, fresh = 0;
    for (const auto &kv : base) {
        const auto &[workload, scheme, metric] = kv.first;
        auto it = cur.find(kv.first);
        if (it == cur.end()) {
            std::printf("MISSING    %s/%s/%s (baseline %.6g)\n",
                        workload.c_str(), scheme.c_str(),
                        metric.c_str(), kv.second);
            ++missing;
            continue;
        }
        double b = kv.second, c = it->second;
        double delta =
            b != 0.0 ? 100.0 * (c - b) / std::fabs(b)
                     : (c == 0.0 ? 0.0 : 100.0);
        const char *tag = "ok        ";
        if (delta > threshold) {
            tag = "REGRESSION";
            ++regressions;
        } else if (delta < -threshold) {
            tag = "improved  ";
            ++improvements;
        }
        std::printf("%s %s/%s/%s: %.6g -> %.6g (%+.2f%%)\n", tag,
                    workload.c_str(), scheme.c_str(), metric.c_str(),
                    b, c, delta);
    }
    for (const auto &kv : cur)
        if (!base.count(kv.first))
            ++fresh;
    if (fresh)
        std::printf("note: %d row(s) in current have no baseline "
                    "yet\n",
                    fresh);

    std::printf("summary: %zu compared, %d regression(s), %d "
                "improvement(s), %d missing (threshold %.1f%%)\n",
                base.size(), regressions, improvements, missing,
                threshold);
    return (regressions > 0 || missing > 0) ? 1 : 0;
}
