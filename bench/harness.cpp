#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace c2m::bench {

namespace {

json::Value
countersJson(const CounterMap &m)
{
    json::Value out = json::Value::object();
    for (const auto &[k, v] : m)
        out.set(k, v);
    return out;
}

/** Print @p g (of the cell named @p where, if any). */
void
printGate(const Gate &g, const std::string &where)
{
    std::printf("gate %s%s%s: %g %s ", g.name.c_str(),
                where.empty() ? "" : " in cell ", where.c_str(), g.value,
                g.op.c_str());
    if (g.op == "in")
        std::printf("[%g, %g]", g.lo, g.hi);
    else
        std::printf("%g", g.lo);
    std::printf(": %s\n", g.pass ? "ok" : "FAIL");
}

} // namespace

json::Value
Gate::toJson() const
{
    json::Value limit = lo;
    if (op == "in")
        limit = json::Value::array().push(lo).push(hi);
    return json::Value::object()
        .set("name", name)
        .set("value", value)
        .set("op", op)
        .set("limit", std::move(limit))
        .set("pass", pass);
}

bool
Record::gate(std::string name, double value, std::string op,
             double limit)
{
    bool pass = false;
    if (op == "<")
        pass = value < limit;
    else if (op == "<=")
        pass = value <= limit;
    else if (op == "==")
        pass = value == limit;
    else if (op == ">=")
        pass = value >= limit;
    else if (op == ">")
        pass = value > limit;
    gates.push_back({std::move(name), value, std::move(op), limit,
                     limit, pass});
    return pass;
}

bool
Record::gateIn(std::string name, double value, double lo, double hi)
{
    const double slack = 1e-9 * std::max(std::abs(lo), std::abs(hi));
    const bool pass = lo - slack <= value && value <= hi + slack;
    gates.push_back({std::move(name), value, "in", lo, hi, pass});
    return pass;
}

bool
Record::gate(std::string name, bool holds)
{
    return gate(std::move(name), holds ? 1.0 : 0.0, "==", 1.0);
}

bool
Record::passed() const
{
    return std::all_of(gates.begin(), gates.end(),
                       [](const Gate &g) { return g.pass; });
}

json::Value
Record::toJson() const
{
    json::Value g = json::Value::array();
    for (const auto &gate : gates)
        g.push(gate.toJson());
    json::Value out = json::Value::object();
    out.set("id", id).set("model", model).set("host", host);
    if (!counters.empty())
        out.set("counters", countersJson(counters));
    return out.set("gates", std::move(g));
}

double
Window::seconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

Harness::Harness(std::string bench, std::string jsonPath, int argc,
                 char **argv, std::vector<std::string> flags)
    : jsonPath_(std::move(jsonPath))
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool known = std::any_of(
            flags.begin(), flags.end(), [&](const std::string &f) {
                return f.back() == '=' ? arg.rfind(f, 0) == 0
                                       : arg == f;
            });
        if (arg == "--trace" && i + 1 < argc) {
            tracePath_ = argv[++i];
        } else if (known) {
            given_.push_back(arg);
        } else {
            std::printf("usage: %s [--trace FILE]", argv[0]);
            for (const auto &f : flags)
                std::printf(" [%s%s]", f.c_str(),
                            f.back() == '=' ? "..." : "");
            std::printf("\n");
            std::exit(2);
        }
    }
    if (!tracePath_.empty())
        recorder_.install();
    doc_.id.set("bench", std::move(bench));
}

bool
Harness::has(std::string_view flag) const
{
    return value(flag) != nullptr;
}

const char *
Harness::value(std::string_view flag) const
{
    for (const auto &g : given_)
        if (flag.back() == '=' ? g.rfind(flag, 0) == 0 : g == flag)
            return g.c_str() + flag.size();
    return nullptr;
}

Window
Harness::open(const core::ShardedEngine *engine) const
{
    Window w;
    if (engine)
        w.before = engine->shardStats();
    w.traceEvents = tracePath_.empty() ? 0 : recorder_.eventCount();
    w.start = std::chrono::steady_clock::now();
    return w;
}

Cell &
Harness::cell(json::Value id, const core::ShardedEngine &engine,
              const Window &w, double seconds, size_t ops)
{
    Cell &c = cells_.emplace_back();
    c.id = std::move(id);
    c.window = core::statsWindow(engine, w.before);
    const auto &win = c.window;
    const auto &fab = win.total.fabric;
    json::Value attr = json::Value::object();
    for (unsigned i = 0; i < cim::kFabricCatCount; ++i)
        attr.set(cim::fabricCatName(static_cast<cim::FabricCat>(i)),
                 fab.attrNs[i]);
    c.model.set("fabric_ns", fab.fabricNs)
        .set("fabric_nj", fab.fabricNj)
        .set("fabric_critical_ns", win.criticalNs)
        .set("fabric_skew", win.skew)
        .set("parallel_efficiency", win.parallelEfficiency)
        .set("program_cache_hit_rate", win.cacheHitRate)
        .set("fabric_attr", std::move(attr));
    const uint64_t events =
        tracePath_.empty() ? 0 : recorder_.eventCount() - w.traceEvents;
    c.host.set("time_s", seconds)
        .set("ops_per_s", static_cast<double>(ops) / seconds)
        .set("rss_kb", obs::hostRssKb())
        .set("trace_events", events);
    c.counters = win.total.toCounters();

    c.gate("fabric_nonzero", std::min(fab.fabricNs, fab.fabricNj), ">",
           0.0);
    const auto ledger = obs::FabricLedger::fromStats(win.total);
    c.gate("ledger_exact", ledger.ledgerSum() - ledger.totalNs, "==",
           0.0);
    c.gateIn("critical_in_bounds", win.criticalNs,
             fab.fabricNs / engine.numShards(), fab.fabricNs);
    return c;
}

const json::Value *
Harness::writeTrace()
{
    if (tracePath_.empty())
        return nullptr;
    if (!traceWritten_) {
        traceWritten_ = true;
        recorder_.uninstall();
        if (obs::writeChromeTrace(recorder_, tracePath_))
            std::printf("wrote %s (%llu events, %llu dropped)\n",
                        tracePath_.c_str(),
                        static_cast<unsigned long long>(
                            recorder_.eventCount()),
                        static_cast<unsigned long long>(
                            recorder_.droppedEvents()));
        else
            std::printf("FAILED to write %s\n", tracePath_.c_str());
        // The same per-epoch critical-path analysis tools/trace_analyze
        // runs offline, straight from the quiesced recorder.
        std::printf("epoch critical-path profile:\n%s",
                    obs::renderEpochProfiles(
                        obs::buildEpochProfiles(
                            obs::profileFromRecorder(recorder_)))
                        .c_str());
        std::string err;
        if (!json::parseFile(tracePath_, trace_, &err)) {
            std::printf("cannot read back %s: %s\n",
                        tracePath_.c_str(), err.c_str());
            trace_ = json::Value();
        }
        doc_.gate("trace_written", !trace_.isNull());
    }
    return trace_.isNull() ? nullptr : &trace_;
}

int
Harness::finish()
{
    writeTrace();
    doc_.gate("cells_emitted", static_cast<double>(cells_.size()), ">",
              0.0);
    bool pass = doc_.passed();
    size_t total = doc_.gates.size(), failed = 0;
    for (const auto &g : doc_.gates) {
        printGate(g, "");
        failed += !g.pass;
    }
    // Cell gates are many; only the failures are printed.
    json::Value cells = json::Value::array();
    for (const auto &c : cells_) {
        for (const auto &g : c.gates) {
            ++total;
            if (!g.pass) {
                ++failed;
                printGate(g, json::write(c.id));
            }
        }
        pass = pass && c.passed();
        cells.push(c.toJson());
    }
    std::printf("%zu gates, %zu failed\n", total, failed);

    json::Value doc = doc_.toJson();
    doc.set("pass", pass).set("cells", std::move(cells));
    const std::string text = json::write(doc, 2) + "\n";
    if (std::FILE *f = std::fopen(jsonPath_.c_str(), "w")) {
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
        std::printf("wrote %s\n", jsonPath_.c_str());
    } else {
        std::printf("FAILED to write %s\n", jsonPath_.c_str());
        pass = false;
    }
    return pass ? 0 : 1;
}

} // namespace c2m::bench
