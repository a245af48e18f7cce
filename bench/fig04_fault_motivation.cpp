/**
 * @file
 * Fig. 4: fault-rate impact motivating high-radix counting --
 * (a) RMSE of accumulated adds for JC vs RCA with and without
 * TMR/ECC, (b) DNA pre-alignment filtering F1 for the JC- and
 * RCA-based filters. The closing shape check tests the JC filter's
 * fault-rate margin over RCA against the printed F1 cells.
 */

#include <cstdio>

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

    std::printf("== Fig. 4a: RMSE of accumulated adds vs CIM fault "
                "probability ==\n");
    std::printf("(radix-10 JC vs 24-bit RCA; 128 counters, 100 "
                "inputs of 1..255)\n");
    {
        std::vector<std::string> head = {"fault_p"};
        for (auto s : schemes)
            head.push_back(schemeName(s));
        TextTable t(head);
        for (double p : rates) {
            std::vector<std::string> row = {TextTable::sci(p, 0)};
            for (auto s : schemes) {
                double sum = 0;
                const int trials = 3;
                for (int tr = 0; tr < trials; ++tr)
                    sum += accumulationRmse(s, p, 128, 100,
                                            1000 + 17 * tr);
                row.push_back(TextTable::fmt(sum / trials, 3));
            }
            t.addRow(row);
        }
        std::printf("%s\n", t.render().c_str());
    }

    std::printf("== Fig. 4b: DNA filtering F1 vs CIM fault "
                "probability ==\n");
    {
        workloads::DnaConfig dcfg;
        dcfg.genomeLen = 16384;
        dcfg.binSize = 512;
        dcfg.numReads = 24;
        workloads::DnaWorkload dna(dcfg);

        TextTable t({"fault_p", "JC filter", "RCA filter"});
        std::vector<double> jc, rca; // the printed F1 cells
        for (double p : rates) {
            const std::string a =
                TextTable::fmt(dnaFilterF1(Scheme::Jc, p, dna, 5), 3);
            const std::string b =
                TextTable::fmt(dnaFilterF1(Scheme::Rca, p, dna, 5), 3);
            jc.push_back(shown(a));
            rca.push_back(shown(b));
            t.addRow({TextTable::sci(p, 0), a, b});
        }
        std::printf("%s", t.render().c_str());
        // Fewer CIM ops per accumulation => fewer fault opportunities
        // (Sec. 3), so JC should stay usable a rate step (10x) longer.
        std::printf("\nShape check (F1 >= %.1f is usable), computed "
                    "from the table above: the JC filter\n"
                    "sustains usable F1 into ~10x higher fault rates "
                    "than RCA: %s, %s: %s\n",
                    kUsableF1, usableText("JC", rates, jc).c_str(),
                    usableText("RCA", rates, rca).c_str(),
                    verdict(usableUpTo(jc) >= 0 &&
                            usableUpTo(jc) > usableUpTo(rca)));
    }
    return 0;
}
