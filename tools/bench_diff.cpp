// bench_diff: regression gate between two BENCH_*.json files.
//
// Usage: bench_diff [--default-rel R] [--metric NAME=R]...
//                   baseline.json current.json
//
// Cells in the bench's "results"/"cells" array are matched by an
// identity tuple (string members, config booleans, and well-known
// integer config keys such as shards/producers), then every modeled
// numeric metric is compared with a relative threshold:
//     rel = |cur - base| / max(|base|, |cur|, 1)
// Host-dependent metrics (wall time, ops/s, speedup, RSS, trace event
// counts) are skipped: they measure the machine, not the model.
// Boolean correctness flags (match*, all_match*) must never regress
// from true to false. Exit codes: 0 pass, 1 regressions, 2 bad input.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/table.hpp"

namespace {

using c2m::json::Value;

// Integer members that name the cell rather than measure it.
const char *const kIdentityKeys[] = {"shards",        "producers",
                                     "threads",       "radix",
                                     "min_drain_ops", "capacity_bits"};

// Metrics of the host, not the model: never gated. This includes
// pure scheduling counts (epochs drained, steals, queue stalls, and
// the per-epoch watchdog evaluation count) that vary run to run even
// on one machine.
const char *const kHostMetrics[] = {
    "time_s", "ops_per_s", "speedup",  "rss_kb",
    "trace_events", "epochs", "steals", "stalls",
    "watchdog_evaluations", "planner_speedup_8"};

bool
inList(const std::string &key, const char *const *list, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        if (key == list[i])
            return true;
    return false;
}

bool
isCorrectnessFlag(const std::string &key)
{
    return key.compare(0, 5, "match") == 0 ||
           key.compare(0, 9, "all_match") == 0 ||
           key.compare(0, 6, "ledger") == 0;
}

std::string
cellIdentity(const Value &cell)
{
    std::string id;
    for (const auto &[k, v] : cell.members) {
        if (v.isString())
            id += k + "=" + v.string + " ";
        else if (v.isBool() && !isCorrectnessFlag(k))
            id += k + "=" + (v.boolean ? "on" : "off") + " ";
        else if (v.isNumber() &&
                 inList(k, kIdentityKeys,
                        sizeof(kIdentityKeys) /
                            sizeof(kIdentityKeys[0])))
            id += k + "=" +
                  std::to_string(
                      static_cast<long long>(v.number)) +
                  " ";
    }
    if (!id.empty())
        id.pop_back();
    return id;
}

const Value *
findCellArray(const Value &doc)
{
    if (const Value *r = doc.find("results"); r && r->isArray())
        return r;
    if (const Value *c = doc.find("cells"); c && c->isArray())
        return c;
    for (const auto &[k, v] : doc.members)
        if (v.isArray())
            return &v;
    return nullptr;
}

struct DiffState
{
    double defaultRel = 0.02;
    std::map<std::string, double> perMetric;
    c2m::TextTable report{{"where", "metric", "baseline", "current",
                           "rel%", "limit%", "status"}};
    uint32_t checked = 0;
    uint32_t failed = 0;

    double limitFor(const std::string &metric) const
    {
        const auto it = perMetric.find(metric);
        return it == perMetric.end() ? defaultRel : it->second;
    }

    void compareNumber(const std::string &where,
                       const std::string &metric, double base,
                       double cur)
    {
        ++checked;
        const double rel =
            std::fabs(cur - base) /
            std::max({std::fabs(base), std::fabs(cur), 1.0});
        const double limit = limitFor(metric);
        const bool ok = rel <= limit;
        if (!ok)
            ++failed;
        // Passing rows with zero drift stay out of the report; the
        // table shows only drift and failures.
        if (ok && rel == 0.0)
            return;
        report.addRow({where, metric, c2m::TextTable::fmt(base, 4),
                       c2m::TextTable::fmt(cur, 4),
                       c2m::TextTable::fmt(100.0 * rel, 2),
                       c2m::TextTable::fmt(100.0 * limit, 2),
                       ok ? "ok" : "FAIL"});
    }

    void compareBool(const std::string &where,
                     const std::string &metric, bool base, bool cur)
    {
        ++checked;
        if (base && !cur) {
            ++failed;
            report.addRow({where, metric, "true", "false", "-", "-",
                           "FAIL"});
        } else if (base != cur) {
            report.addRow({where, metric, base ? "true" : "false",
                           cur ? "true" : "false", "-", "-", "ok"});
        }
    }

    void missing(const std::string &where, const std::string &what)
    {
        ++checked;
        ++failed;
        report.addRow({where, what, "present", "missing", "-", "-",
                       "FAIL"});
    }

    // Compare the non-identity members of two objects; recurses one
    // level into nested objects (gpu_model, showcase, fabric_attr).
    void compareObject(const std::string &where, const Value &base,
                       const Value &cur, const std::string &prefix)
    {
        for (const auto &[k, bv] : base.members) {
            const std::string metric = prefix.empty()
                                           ? k
                                           : prefix + "." + k;
            if (bv.isNumber()) {
                if (inList(k, kIdentityKeys,
                           sizeof(kIdentityKeys) /
                               sizeof(kIdentityKeys[0])) ||
                    inList(k, kHostMetrics,
                           sizeof(kHostMetrics) /
                               sizeof(kHostMetrics[0])))
                    continue;
                const Value *cv = cur.find(k);
                if (!cv || !cv->isNumber())
                    missing(where, metric);
                else
                    compareNumber(where, metric, bv.number,
                                  cv->number);
            } else if (bv.isBool() && isCorrectnessFlag(k)) {
                const Value *cv = cur.find(k);
                if (!cv || !cv->isBool())
                    missing(where, metric);
                else
                    compareBool(where, metric, bv.boolean,
                                cv->boolean);
            } else if (bv.isObject() && prefix.empty()) {
                const Value *cv = cur.find(k);
                if (cv && cv->isObject())
                    compareObject(where, bv, *cv, k);
            }
        }
    }
};

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--default-rel R] [--metric NAME=R]... "
                 "baseline.json current.json\n",
                 argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    DiffState st;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--default-rel") == 0 &&
            i + 1 < argc) {
            st.defaultRel = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--metric") == 0 &&
                   i + 1 < argc) {
            const std::string spec = argv[++i];
            const size_t eq = spec.find('=');
            if (eq == std::string::npos) {
                usage(argv[0]);
                return 2;
            }
            st.perMetric[spec.substr(0, eq)] =
                std::atof(spec.c_str() + eq + 1);
        } else if (argv[i][0] == '-') {
            usage(argv[0]);
            return 2;
        } else {
            paths.push_back(argv[i]);
        }
    }
    if (paths.size() != 2) {
        usage(argv[0]);
        return 2;
    }

    Value base, cur;
    std::string err;
    if (!c2m::json::parseFile(paths[0], base, &err)) {
        std::fprintf(stderr, "bench_diff: %s: %s\n",
                     paths[0].c_str(), err.c_str());
        return 2;
    }
    if (!c2m::json::parseFile(paths[1], cur, &err)) {
        std::fprintf(stderr, "bench_diff: %s: %s\n",
                     paths[1].c_str(), err.c_str());
        return 2;
    }

    // Top-level scalars (plus one level of nested objects).
    st.compareObject("top-level", base, cur, "");

    const Value *baseCells = findCellArray(base);
    const Value *curCells = findCellArray(cur);
    if (baseCells) {
        std::map<std::string, const Value *> curById;
        if (curCells)
            for (const Value &c : curCells->items)
                if (c.isObject())
                    curById[cellIdentity(c)] = &c;
        for (const Value &bc : baseCells->items) {
            if (!bc.isObject())
                continue;
            const std::string id = cellIdentity(bc);
            const auto it = curById.find(id);
            if (it == curById.end()) {
                st.missing(id, "(cell)");
                continue;
            }
            st.compareObject(id, bc, *it->second, "");
        }
    }

    std::printf("bench_diff: %s vs %s\n", paths[0].c_str(),
                paths[1].c_str());
    if (st.report.numRows() > 0)
        std::printf("%s", st.report.render().c_str());
    std::printf("%u comparisons, %u failed (default rel %.1f%%)\n",
                st.checked, st.failed, 100.0 * st.defaultRel);
    return st.failed == 0 ? 0 : 1;
}
