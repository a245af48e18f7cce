#ifndef C2M_BENCH_HARNESS_HPP
#define C2M_BENCH_HARNESS_HPP

/**
 * @file
 * The harness of the gated benches (ingest_throughput,
 * sharded_scaling, virt_capacity, fault_campaign): one flag parser,
 * one trace epilogue, cells built from a core::StatsWindow, gates
 * declared as named predicates, and one BENCH_*.json written through
 * common/json.
 *
 * The document and each entry of its "cells" array are records:
 *
 *  - "id": what the record is (the configuration naming a cell);
 *  - "model": modeled numbers (fabric ns/nJ, counts, ratios), the
 *    part tools/bench_diff compares against a baseline;
 *  - "host": host measurements (time, ops/s, RSS, trace events,
 *    scheduling counts);
 *  - "counters": the cell's CounterMap;
 *  - "gates": each gate with its value, limit and pass/fail.
 *
 * The document's "pass", and the exit status, is the AND of every
 * gate in it.
 */

#include <chrono>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "core/sharded.hpp"
#include "obs/trace.hpp"

namespace c2m::bench {

/** A named predicate `value op limit`, kept with its inputs. */
struct Gate
{
    std::string name;
    double value = 0.0;
    /** "<", "<=", "==", ">=", ">", or "in" for [lo, hi]. */
    std::string op;
    double lo = 0.0; ///< the limit; the lower one for "in"
    double hi = 0.0; ///< the upper limit for "in"
    bool pass = false;

    json::Value toJson() const;
};

/** A gated record: the document or one cell. */
struct Record
{
    json::Value id = json::Value::object();
    json::Value model = json::Value::object();
    json::Value host = json::Value::object();
    CounterMap counters;
    std::vector<Gate> gates;

    /** Declare gate `value op limit`; returns whether it passes. */
    bool gate(std::string name, double value, std::string op,
              double limit);
    /** Declare gate lo <= value <= hi, up to 1e-9 relative rounding. */
    bool gateIn(std::string name, double value, double lo, double hi);
    /** Declare a boolean gate (value 1 or 0, must be 1). */
    bool gate(std::string name, bool holds);

    bool passed() const;
    json::Value toJson() const;
};

/** A cell and the stats window it was built from. */
struct Cell : Record
{
    core::StatsWindow window;
};

/** Where a cell's measurement window opened. */
struct Window
{
    std::vector<core::EngineStats> before; ///< empty: at construction
    uint64_t traceEvents = 0;
    std::chrono::steady_clock::time_point start;

    /** Host seconds since the window opened. */
    double seconds() const;
};

class Harness
{
  public:
    /**
     * Parse argv: `--trace FILE` plus the bench's own @p flags — a
     * switch such as "--big", or a prefix ending in '=' such as
     * "--seed=" that carries a value. Anything else prints a usage
     * line and exits 2. The document is written to @p jsonPath.
     */
    Harness(std::string bench, std::string jsonPath, int argc,
            char **argv, std::vector<std::string> flags = {});

    Harness(const Harness &) = delete;
    Harness &operator=(const Harness &) = delete;

    /** Whether switch or value flag @p flag was given. */
    bool has(std::string_view flag) const;
    /** The value of "--name=" flag @p flag, or nullptr. */
    const char *value(std::string_view flag) const;

    /** The document-level record (run config, run-wide gates). */
    Record &doc() { return doc_; }
    const std::deque<Cell> &cells() const { return cells_; }

    /**
     * Open a window over @p engine's current stats, or — with no
     * engine — at the construction of the engine the cell will use.
     * Its seconds() runs from here too; a bench whose stats window
     * opens before setup opens a second window where its timed work
     * starts and passes that one's seconds() to cell().
     */
    Window open(const core::ShardedEngine *engine = nullptr) const;

    /**
     * Close @p w over @p engine into a new cell: the window's fabric
     * numbers go under "model" and its counters under "counters";
     * @p seconds, ops/s, RSS and trace events go under "host". Adds
     * the three gates every cell carries — nonzero fabric ns and nJ,
     * an exact ledger, fabric_ns/shards <= critical <= fabric_ns.
     */
    Cell &cell(json::Value id, const core::ShardedEngine &engine,
               const Window &w, double seconds, size_t ops);

    /**
     * With --trace: stop recording, write the trace, print its event
     * and drop counts and the epoch profile, and return the written
     * file parsed back — gated as "trace_written", nullptr if it
     * does not parse. Without --trace: nullptr. Runs once; finish()
     * calls it if the bench did not.
     */
    const json::Value *writeTrace();

    /**
     * Print the gates, write the document, and return the exit
     * status: 0 iff every gate passes.
     */
    int finish();

  private:
    std::string jsonPath_;
    std::vector<std::string> given_;
    std::string tracePath_;
    obs::TraceRecorder recorder_;
    bool traceWritten_ = false;
    json::Value trace_;
    Record doc_;
    std::deque<Cell> cells_;
};

} // namespace c2m::bench

#endif // C2M_BENCH_HARNESS_HPP
