// bench_diff: regression gate between two BENCH_*.json files written
// by the bench harness (bench/harness.hpp).
//
// Usage: bench_diff [--default-rel R] [--metric NAME=R]...
//                   baseline.json current.json
//
// Cells are matched by their "id" object. Every number under the
// document's and each cell's "model" (nested objects included, named
// by dotted path) is compared with a relative threshold:
//     rel = |cur - base| / max(|base|, |cur|, 1)
// "host" and "counters" are skipped: they measure the machine, not
// the model. A gate that passes in the baseline must pass in the
// current file. Exit codes: 0 pass, 1 regressions, 2 bad input (an
// unreadable file, documents of different runs, or a cell id that
// appears twice in one file).

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

const Value kEmpty = Value::object();

const Value &
section(const Value &record, const char *name)
{
    const Value *v = record.find(name);
    return v ? *v : kEmpty;
}

struct Diff
{
    double defaultRel = 0.02;
    std::map<std::string, double> perMetric;
    c2m::TextTable report{{"where", "metric", "baseline", "current",
                           "rel%", "limit%", "status"}};
    uint32_t checked = 0;
    uint32_t failed = 0;

    void fail(const std::string &where, const std::string &what,
              const std::string &base, const std::string &cur)
    {
        ++failed;
        report.addRow({where, what, base, cur, "-", "-", "FAIL"});
    }

    void compareNumber(const std::string &where,
                       const std::string &metric, double base,
                       double cur)
    {
        ++checked;
        const double rel =
            std::fabs(cur - base) /
            std::max({std::fabs(base), std::fabs(cur), 1.0});
        const auto it = perMetric.find(metric);
        const double limit =
            it == perMetric.end() ? defaultRel : it->second;
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

    void compareModel(const std::string &where, const Value &base,
                      const Value &cur, const std::string &prefix)
    {
        for (const auto &[k, bv] : base.members) {
            const std::string metric = prefix + k;
            const Value *cv = cur.find(k);
            if (bv.isNumber()) {
                if (cv && cv->isNumber()) {
                    compareNumber(where, metric, bv.number, cv->number);
                } else {
                    ++checked;
                    fail(where, metric, "present", "missing");
                }
            } else if (bv.isObject()) {
                compareModel(where, bv, cv ? *cv : kEmpty,
                             metric + ".");
            }
        }
    }

    void compareGates(const std::string &where, const Value &base,
                      const Value &cur)
    {
        for (const Value &bg : base.items) {
            const std::string name = bg.stringOr("name", "?");
            if (!bg.boolOr("pass", false))
                continue;
            ++checked;
            const Value *cg = nullptr;
            for (const Value &g : cur.items)
                if (g.stringOr("name", "") == name)
                    cg = &g;
            if (!cg)
                fail(where, "gate " + name, "pass", "missing");
            else if (!cg->boolOr("pass", false))
                fail(where, "gate " + name, "pass", "fail");
        }
    }

    void compareRecord(const std::string &where, const Value &base,
                       const Value &cur)
    {
        compareModel(where, section(base, "model"),
                     section(cur, "model"), "");
        compareGates(where, section(base, "gates"),
                     section(cur, "gates"));
    }
};

/** Cells keyed by their serialized id; false on a repeated id. */
bool
indexCells(const Value &doc, const std::string &path,
           std::map<std::string, const Value *> &out)
{
    for (const Value &c : section(doc, "cells").items) {
        const std::string id = c2m::json::write(section(c, "id"));
        if (!out.emplace(id, &c).second) {
            std::fprintf(stderr, "bench_diff: %s: cell id %s repeats\n",
                         path.c_str(), id.c_str());
            return false;
        }
    }
    return true;
}

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
    Diff st;
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

    Value docs[2];
    std::map<std::string, const Value *> cells[2];
    for (int i = 0; i < 2; ++i) {
        std::string err;
        if (!c2m::json::parseFile(paths[i], docs[i], &err)) {
            std::fprintf(stderr, "bench_diff: %s: %s\n",
                         paths[i].c_str(), err.c_str());
            return 2;
        }
        if (!indexCells(docs[i], paths[i], cells[i]))
            return 2;
    }
    const std::string baseId = c2m::json::write(section(docs[0], "id"));
    const std::string curId = c2m::json::write(section(docs[1], "id"));
    if (baseId != curId) {
        std::fprintf(stderr, "bench_diff: different runs: %s vs %s\n",
                     baseId.c_str(), curId.c_str());
        return 2;
    }

    st.compareRecord("document", docs[0], docs[1]);
    for (const auto &[id, base] : cells[0]) {
        const auto it = cells[1].find(id);
        if (it == cells[1].end()) {
            ++st.checked;
            st.fail(id, "(cell)", "present", "missing");
        } else {
            st.compareRecord(id, *base, *it->second);
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
