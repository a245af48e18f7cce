/**
 * @file
 * Fig. 17: application accuracy under CIM faults -- (a) DNA
 * filtering F1 and (b) BERT-proxy classification accuracy for the
 * JC (C2M) and RCA (SIMDRAM) substrates with None/TMR/ECC
 * protection, plus the fault-free SW line. The closing shape checks
 * test the Sec. 7.3.1 claims against the printed cells.
 */

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/table.hpp"
#include "fault_lab.hpp"

using namespace c2m;
using namespace c2m::bench;

int
main()
{
    const std::vector<double> rates = {1e-6, 1e-5, 1e-4, 1e-3,
                                       1e-2, 1e-1};
    const std::vector<Scheme> schemes = {
        Scheme::Jc,  Scheme::JcTmr,  Scheme::JcEcc,
        Scheme::Rca, Scheme::RcaTmr, Scheme::RcaEcc};
    // The printed cells per scheme and rate: DNA F1, BERT accuracy
    // as a fraction.
    std::vector<std::vector<double>> f1(schemes.size()),
        acc(schemes.size());

    std::printf("== Fig. 17a: DNA filtering F1 vs CIM fault rate "
                "==\n");
    {
        workloads::DnaConfig dcfg;
        dcfg.genomeLen = 16384;
        dcfg.binSize = 512;
        dcfg.numReads = 24;
        workloads::DnaWorkload dna(dcfg);

        std::vector<std::string> head = {"fault_p"};
        for (auto s : schemes)
            head.push_back(schemeName(s));
        TextTable t(head);
        for (double p : rates) {
            std::vector<std::string> row = {TextTable::sci(p, 0)};
            for (size_t s = 0; s < schemes.size(); ++s) {
                row.push_back(TextTable::fmt(
                    dnaFilterF1(schemes[s], p, dna, 3), 3));
                f1[s].push_back(shown(row.back()));
            }
            t.addRow(row);
        }
        std::printf("%s\n", t.render().c_str());
    }

    std::printf("== Fig. 17b: BERT-proxy accuracy (%%) vs CIM fault "
                "rate ==\n");
    {
        workloads::BertProxyConfig bcfg;
        bcfg.samples = 48;
        workloads::BertProxy proxy(bcfg);
        std::printf("SW (fault-free) accuracy: %.1f%%\n",
                    100.0 * proxy.cleanAccuracy());

        std::vector<std::string> head = {"fault_p"};
        for (auto s : schemes)
            head.push_back(schemeName(s));
        TextTable t(head);
        for (double p : rates) {
            std::vector<std::string> row = {TextTable::sci(p, 0)};
            for (size_t s = 0; s < schemes.size(); ++s) {
                row.push_back(TextTable::fmt(
                    100.0 * bertAccuracy(schemes[s], p, proxy, 11), 1));
                acc[s].push_back(shown(row.back()) / 100.0);
            }
            t.addRow(row);
        }
        std::printf("%s\n", t.render().c_str());
    }

    std::printf("Shape checks (Sec. 7.3.1), computed from the tables "
                "above (DNA F1 >= %.1f is usable):\n",
                kUsableF1);
    // schemes[p] is JC and schemes[p + 3] is RCA under protection p.
    const char *protections[] = {"none", "TMR", "ECC"};
    std::printf("- JC tolerates ~10x higher fault rates than RCA at "
                "equal protection:\n");
    for (size_t p = 0; p < 3; ++p) {
        const int jc = usableUpTo(f1[p]), rca = usableUpTo(f1[p + 3]);
        std::printf("  %s: %s, %s: %s\n", protections[p],
                    usableText(schemeName(schemes[p]), rates, f1[p])
                        .c_str(),
                    usableText(schemeName(schemes[p + 3]), rates,
                               f1[p + 3])
                        .c_str(),
                    verdict(jc >= 0 && jc > rca));
    }
    std::printf("- ECC beats TMR for both substrates (DNA F1 at every "
                "rate where either is usable):\n");
    for (size_t tmr : {size_t{1}, size_t{4}}) {
        const auto &t = f1[tmr], &e = f1[tmr + 1];
        int at = -1; // the usable rate with the smallest ECC margin
        for (size_t i = 0; i < rates.size(); ++i)
            if (std::max(t[i], e[i]) >= kUsableF1 &&
                (at < 0 || e[i] - t[i] < e[at] - t[at]))
                at = static_cast<int>(i);
        if (at < 0) {
            std::printf("  %s and %s are usable at no rate: %s\n",
                        schemeName(schemes[tmr + 1]),
                        schemeName(schemes[tmr]), verdict(false));
            continue;
        }
        std::printf("  %s %.3f vs %s %.3f at %s: %s\n",
                    schemeName(schemes[tmr + 1]), e[at],
                    schemeName(schemes[tmr]), t[at],
                    TextTable::sci(rates[at], 0).c_str(),
                    verdict(e[at] >= t[at]));
    }
    // Steepest fall between adjacent rates, on a 0..1 scale (F1, and
    // accuracy / 100), as {drop, index of the rate before it}.
    const auto steepest = [](const std::vector<double> &v) {
        std::pair<double, size_t> best{0.0, 0};
        for (size_t i = 0; i + 1 < v.size(); ++i)
            best = std::max(best, {v[i] - v[i + 1], i});
        return best;
    };
    std::printf("- BERT degrades more sharply than DNA filtering "
                "(steepest fall between adjacent rates,\n"
                "  BERT accuracy / 100 vs DNA F1):\n");
    for (size_t s = 0; s < schemes.size(); ++s) {
        const auto [bd, bi] = steepest(acc[s]);
        const auto [dd, di] = steepest(f1[s]);
        std::printf("  %s: BERT %.3f (%s to %s), DNA %.3f (%s to %s): "
                    "%s\n",
                    schemeName(schemes[s]), bd,
                    TextTable::sci(rates[bi], 0).c_str(),
                    TextTable::sci(rates[bi + 1], 0).c_str(), dd,
                    TextTable::sci(rates[di], 0).c_str(),
                    TextTable::sci(rates[di + 1], 0).c_str(),
                    verdict(bd > dd));
    }
    return 0;
}
