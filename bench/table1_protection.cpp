/**
 * @file
 * Tab. 1: error/detection rates of the XOR-embedded protection
 * scheme for 2/4/6 FR checks at CIM fault rates 1e-1/1e-2/1e-4 --
 * analytical model, mechanistic Monte-Carlo cross-check, and the
 * per-increment op counts, unprotected and at each FR setting (paper
 * formula vs our generators).
 */

#include <cstdio>

#include "common/table.hpp"
#include "ecc/analysis.hpp"
#include "jc/layout.hpp"
#include "uprog/codegen_ambit.hpp"

using namespace c2m;
using ecc::ProtectionModel;

int
main()
{
    const std::vector<unsigned> checks = {2, 4, 6};
    const std::vector<double> rates = {1e-1, 1e-2, 1e-4};

    std::printf("== Tab. 1: protection scheme rates (per bit, per "
                "masking step) ==\n");
    TextTable t({"FR checks", "fault_p", "error_rate(model)",
                 "error_rate(MC)", "detect_rate(model)",
                 "detect_rate(MC)"});
    for (unsigned c : checks) {
        for (double p : rates) {
            const auto mc = ProtectionModel::monteCarlo(
                p, c, p >= 1e-2 ? 4'000'000 : 1'000'000, 12345);
            t.addRow({TextTable::fmt(static_cast<uint64_t>(c)),
                      TextTable::sci(p, 0),
                      TextTable::sci(
                          ProtectionModel::undetectedErrorRate(p, c),
                          1),
                      TextTable::sci(mc.errorRate, 1),
                      TextTable::sci(ProtectionModel::detectRate(p, c),
                                     1),
                      TextTable::sci(mc.detectRate, 1)});
        }
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("(MC error rates below ~1e-6 need more trials than "
                "budgeted and print as 0.)\n\n");

    std::printf("== Tab. 1 (bottom): Ambit op counts per increment "
                "by one ==\n");
    TextTable ops({"n (bits/digit)", "paper 7n+7 (none)", "ours (none)",
                   "paper 13n+16 (FR=2)", "ours (FR=2)",
                   "paper 23n+26 (FR=4)", "ours (FR=4)",
                   "paper 33n+36 (FR=6)", "ours (FR=6)"});
    for (unsigned n : {2u, 5u, 8u}) {
        const jc::CounterLayout layout(2 * n, 32, 0);
        const auto ours = [&](uprog::CodegenOptions o) {
            return TextTable::fmt(static_cast<uint64_t>(
                uprog::AmbitCodegen(layout, o)
                    .karyIncrement(0, 1, layout.endRow())
                    .totalOps()));
        };
        std::vector<std::string> row = {
            TextTable::fmt(static_cast<uint64_t>(n)),
            TextTable::fmt(uprog::AmbitCodegen::paperIncrementOps(n)),
            ours({})};
        for (unsigned c : checks) {
            row.push_back(TextTable::fmt(
                uprog::AmbitCodegen::paperProtectedOps(n, c)));
            row.push_back(ours({true, c / 2}));
        }
        ops.addRow(row);
    }
    std::printf("%s", ops.render().c_str());
    std::printf("\nUnprotected, ours is the paper's 7n+7: 7 commands "
                "per bit, one more for the\n"
                "complemented feedback update, and a 6-command wrap "
                "detect; no bit is saved.\n"
                "Protected, each masking step stores both intermediate "
                "rows and synthesizes every\n"
                "FR in data rows (docs/backends.md); the scaling in n "
                "and in FR checks matches\n"
                "the paper's formulas.\n");
    return 0;
}
