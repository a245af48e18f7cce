/**
 * @file
 * Fig. 8: masked-addition cost vs counter radix -- (a) unit counting
 * vs RCA for 16/32/64-bit capacities, (b) k-ary counting with full
 * rippling vs IARM. Values are the exact AAP/AP command counts our
 * generators emit, averaged over uniform 8-bit inputs. The closing
 * shape checks test the paper's Sec. 4.5 claims against the printed
 * cells and say whether each holds.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "common/table.hpp"
#include "core/costmodel.hpp"

using namespace c2m;
using namespace c2m::core;

namespace {

/** A cell as printed, read back: the checks compare what was shown. */
double
shown(const std::string &cell)
{
    return std::stod(cell);
}

const char *
verdict(bool ok)
{
    return ok ? "holds" : "does not hold";
}

} // namespace

int
main()
{
    const std::vector<unsigned> radices = {2,  4,  6,  8,  10,
                                           12, 14, 16, 18, 20};
    const std::vector<unsigned> caps = {16, 32, 64};
    const size_t R = radices.size(), C = caps.size();
    // The printed cells: [radix][capacity], IARM [radix].
    std::vector<std::vector<double>> unit(R), rca(R), kary(R);
    std::vector<double> iarm(R);

    std::printf("== Fig. 8a: average AAP ops per accumulated 8-bit "
                "input, unit counting vs RCA ==\n");
    {
        TextTable t({"radix", "unit_i16", "unit_i32", "unit_i64",
                     "RCA_i16", "RCA_i32", "RCA_i64"});
        for (size_t i = 0; i < R; ++i) {
            std::vector<std::string> row = {
                TextTable::fmt(static_cast<uint64_t>(radices[i]))};
            for (unsigned cap : caps) {
                C2mCostModel model(radices[i], cap, false, 1,
                                   CountMode::Unit,
                                   RippleMode::FullRipple);
                row.push_back(
                    TextTable::fmt(model.avgOpsPerInput(8), 1));
                unit[i].push_back(shown(row.back()));
            }
            for (unsigned cap : caps) {
                RcaCostModel model(cap);
                row.push_back(TextTable::fmt(
                    static_cast<uint64_t>(model.accumulateOps())));
                rca[i].push_back(shown(row.back()));
            }
            t.addRow(row);
        }
        std::printf("%s\n", t.render().c_str());
    }

    std::printf("== Fig. 8b: k-ary counting (full rippling) vs IARM "
                "==\n");
    // Largest distance of IARM at 16 and 32 bits from the printed
    // (64-bit) column, at the printed precision.
    double iarm_gap = 0.0;
    {
        TextTable t({"radix", "k-ary_i16", "k-ary_i32", "k-ary_i64",
                     "IARM"});
        for (size_t i = 0; i < R; ++i) {
            std::vector<std::string> row = {
                TextTable::fmt(static_cast<uint64_t>(radices[i]))};
            for (unsigned cap : caps) {
                C2mCostModel model(radices[i], cap, false, 1,
                                   CountMode::Kary,
                                   RippleMode::FullRipple);
                row.push_back(
                    TextTable::fmt(model.avgOpsPerInput(8), 1));
                kary[i].push_back(shown(row.back()));
            }
            C2mCostModel model(radices[i], 64);
            row.push_back(TextTable::fmt(model.avgOpsPerInput(8), 1));
            iarm[i] = shown(row.back());
            for (unsigned cap : {16u, 32u}) {
                C2mCostModel narrow(radices[i], cap);
                iarm_gap = std::max(
                    iarm_gap,
                    std::abs(shown(TextTable::fmt(
                                 narrow.avgOpsPerInput(8), 1)) -
                             iarm[i]));
            }
            t.addRow(row);
        }
        std::printf("%s\n", t.render().c_str());
    }

    std::printf("Shape checks (paper Sec. 4.5), computed from the "
                "tables above:\n");
    {
        // Extremes of unit / k-ary, and of unit / IARM, over every
        // radix and width.
        struct Cell
        {
            size_t i = 0, c = 0;
        };
        const auto span = [&](auto ratio, Cell &lo, Cell &hi) {
            for (size_t i = 0; i < R; ++i)
                for (size_t c = 0; c < C; ++c) {
                    if (ratio(i, c) < ratio(lo.i, lo.c))
                        lo = {i, c};
                    if (ratio(i, c) > ratio(hi.i, hi.c))
                        hi = {i, c};
                }
        };
        const auto by_kary = [&](size_t i, size_t c) {
            return unit[i][c] / kary[i][c];
        };
        const auto by_iarm = [&](size_t i, size_t c) {
            return unit[i][c] / iarm[i];
        };
        Cell lo, hi, ilo, ihi;
        span(by_kary, lo, hi);
        span(by_iarm, ilo, ihi);
        std::printf(
            "- k-ary cuts unit counting by 2-6x: unit / k-ary spans "
            "%.1fx (radix %u, i%u: %.1f / %.1f) to %.1fx (radix %u, "
            "i%u: %.1f / %.1f): %s\n"
            "  (unit / IARM spans %.1fx at radix %u, i%u to %.1fx at "
            "radix %u, i%u)\n",
            by_kary(lo.i, lo.c), radices[lo.i], caps[lo.c],
            unit[lo.i][lo.c], kary[lo.i][lo.c], by_kary(hi.i, hi.c),
            radices[hi.i], caps[hi.c], unit[hi.i][hi.c],
            kary[hi.i][hi.c],
            verdict(by_kary(lo.i, lo.c) >= 2.0 &&
                    by_kary(hi.i, hi.c) <= 6.0),
            by_iarm(ilo.i, ilo.c), radices[ilo.i], caps[ilo.c],
            by_iarm(ihi.i, ihi.c), radices[ihi.i], caps[ihi.c]);
    }
    {
        // IARM at or below every unit, k-ary and RCA cell of its row;
        // the first row where it is not names its cheapest rival.
        size_t losses = 0, first = 0;
        std::string rival;
        double rival_ops = 0.0;
        for (size_t i = 0; i < R; ++i) {
            std::string name;
            double low = iarm[i];
            for (size_t c = 0; c < C; ++c)
                for (const auto &[col, v] :
                     {std::pair{"unit_i", unit[i][c]},
                      std::pair{"k-ary_i", kary[i][c]},
                      std::pair{"RCA_i", rca[i][c]}})
                    if (v < low) {
                        low = v;
                        name = col;
                        name += std::to_string(caps[c]);
                    }
            if (!name.empty() && losses++ == 0) {
                first = i;
                rival = name;
                rival_ops = low;
            }
        }
        if (losses == 0)
            std::printf("- IARM is the cheapest: at or below every "
                        "unit, k-ary and RCA cell at all %zu radices: "
                        "%s\n",
                        R, verdict(true));
        else
            std::printf("- IARM is the cheapest: above another cell "
                        "at %zu of %zu radices (first radix %u: IARM "
                        "%.1f > %s %g): %s\n",
                        losses, R, radices[first], iarm[first],
                        rival.c_str(), rival_ops, verdict(false));
    }
    std::printf("- IARM is capacity-invariant (single curve): at 16 "
                "and 32 bits it is at most %.1f from the i64 column "
                "at every radix: %s\n",
                iarm_gap, verdict(iarm_gap == 0.0));
    {
        // RCA: the same cell in every row, and ops per bit within 1%
        // across widths.
        bool flat = true;
        for (size_t i = 0; i < R; ++i)
            flat = flat && rca[i] == rca[0];
        std::vector<double> per_bit;
        for (size_t c = 0; c < C; ++c)
            per_bit.push_back(rca[0][c] / caps[c]);
        const auto [lo, hi] =
            std::minmax_element(per_bit.begin(), per_bit.end());
        std::printf("- RCA is flat in radix and proportional to width: "
                    "%g/%g/%g at every radix, %.2f/%.2f/%.2f ops per "
                    "bit: %s\n",
                    rca[0][0], rca[0][1], rca[0][2], per_bit[0],
                    per_bit[1], per_bit[2],
                    verdict(flat && *hi <= 1.01 * *lo));
    }
    {
        // RCA is flat in radix, so IARM wins most where it is
        // cheapest.
        size_t best = 0, outside = R;
        for (size_t i = 0; i < R; ++i) {
            if (iarm[i] < iarm[best])
                best = i;
            const bool in = radices[i] >= 4 && radices[i] <= 8;
            if (!in && (outside == R || iarm[i] < iarm[outside]))
                outside = i;
        }
        std::printf("- IARM wins most at radices 4-8: its cheapest "
                    "radix is %u (%.1f; outside 4-8 the cheapest is "
                    "%.1f at radix %u): %s\n",
                    radices[best], iarm[best], iarm[outside],
                    radices[outside],
                    verdict(radices[best] >= 4 && radices[best] <= 8));
    }
    return 0;
}
