/**
 * @file
 * tools/bench_diff on small fixture documents in the bench harness
 * layout: cells matched by their id object, modeled numbers compared,
 * host and counters skipped, pass-to-fail gates caught, and bad input
 * (duplicate ids, unreadable files) rejected with exit status 2.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/json.hpp"

using c2m::json::Value;

namespace {

Value
gate(const char *name, bool pass)
{
    return Value::object()
        .set("name", name)
        .set("value", pass ? 1.0 : 0.0)
        .set("op", "==")
        .set("limit", 1.0)
        .set("pass", pass);
}

Value
cell(double rate, double fabric_ns, double time_s)
{
    return Value::object()
        .set("id", Value::object().set("shards", 4).set("fault_rate",
                                                         rate))
        .set("model",
             Value::object()
                 .set("fabric_ns", fabric_ns)
                 .set("fabric_attr",
                      Value::object().set("plan", fabric_ns / 2)))
        .set("host", Value::object().set("time_s", time_s))
        .set("counters", Value::object().set("engine.retries", 7))
        .set("gates", Value::array().push(gate("ledger_exact", true)));
}

/** Two cells that differ only in a numeric id member. */
Value
document()
{
    return Value::object()
        .set("id", Value::object().set("bench", "fixture"))
        .set("model", Value::object().set("reduction", 3.0))
        .set("host", Value::object())
        .set("gates", Value::array().push(gate("reduction", true)))
        .set("pass", true)
        .set("cells", Value::array()
                          .push(cell(1e-4, 100.0, 1.0))
                          .push(cell(1e-3, 200.0, 2.0)));
}

std::string
writeFixture(const std::string &name, const Value &doc)
{
    const std::string path = ::testing::TempDir() + "bench_diff_" +
                             name + ".json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr);
    const std::string text = c2m::json::write(doc, 2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    return path;
}

int
benchDiff(const std::string &base, const std::string &cur)
{
    const std::string cmd = std::string(BENCH_DIFF_BIN) + " " + base +
                            " " + cur + " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace

TEST(BenchDiff, IdenticalFilesPass)
{
    const auto base = writeFixture("identical", document());
    EXPECT_EQ(benchDiff(base, base), 0);
}

TEST(BenchDiff, MatchesCellsByIdAndSkipsHostAndCounters)
{
    const auto base = writeFixture("order_base", document());
    // Same cells in the other order, with host time and counters
    // moved: only the ids pair them, and only the model is compared.
    Value doc = document();
    auto &cells = doc.members.back().second.items;
    std::swap(cells[0], cells[1]);
    cells[0].set("host", Value::object().set("time_s", 50.0));
    cells[0].set("counters", Value::object().set("engine.retries", 0));
    EXPECT_EQ(benchDiff(base, writeFixture("order_cur", doc)), 0);
}

TEST(BenchDiff, ModeledDriftOverThresholdFails)
{
    const auto base = writeFixture("drift_base", document());
    Value doc = document();
    doc.members.back().second.items[1] = cell(1e-3, 210.0, 2.0);
    EXPECT_EQ(benchDiff(base, writeFixture("drift_cur", doc)), 1);
    Value top = document();
    top.set("model", Value::object().set("reduction", 2.0));
    EXPECT_EQ(benchDiff(base, writeFixture("drift_top", top)), 1);
}

TEST(BenchDiff, GateGoingFromPassToFailFails)
{
    const auto base = writeFixture("gate_base", document());
    Value doc = document();
    doc.members.back().second.items[0].set(
        "gates", Value::array().push(gate("ledger_exact", false)));
    EXPECT_EQ(benchDiff(base, writeFixture("gate_cur", doc)), 1);
    // A failing baseline gate that now passes is not a regression.
    EXPECT_EQ(benchDiff(writeFixture("gate_cur2", doc), base), 0);
}

TEST(BenchDiff, DuplicateCellIdIsBadInput)
{
    const auto base = writeFixture("dup_base", document());
    Value doc = document();
    doc.members.back().second.push(cell(1e-4, 100.0, 1.0));
    EXPECT_EQ(benchDiff(base, writeFixture("dup_cur", doc)), 2);
}

TEST(BenchDiff, UnreadableFileIsBadInput)
{
    const auto base = writeFixture("unreadable_base", document());
    EXPECT_EQ(benchDiff(base, ::testing::TempDir() +
                                  "bench_diff_no_such_file.json"),
              2);
    const std::string bad =
        ::testing::TempDir() + "bench_diff_malformed.json";
    std::FILE *f = std::fopen(bad.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"id\": ", f);
    std::fclose(f);
    EXPECT_EQ(benchDiff(bad, base), 2);
}
