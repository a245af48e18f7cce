#ifndef C2M_BENCH_FAULT_LAB_HPP
#define C2M_BENCH_FAULT_LAB_HPP

/**
 * @file
 * Shared harness for the fault-accuracy experiments (Fig. 4 and
 * Fig. 17): runs masked accumulation streams, the DNA pre-alignment
 * filter, and the BERT-proxy classifier through C2MEngine on the JC
 * (C2M, Ambit) and RCA (SIMDRAM) backends under None/TMR/ECC
 * protection at a given CIM fault rate. The RCA schemes run the
 * radix-2 RcaBackend, which adds every input as one W-bit add with
 * W = capacityBits + 2. The helpers at the end evaluate the figures'
 * shape checks over the cells they printed.
 */

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "core/kernels.hpp"
#include "workloads/bertproxy.hpp"
#include "workloads/dna.hpp"

namespace c2m {
namespace bench {

enum class Scheme
{
    Jc,
    JcTmr,
    JcEcc,
    Rca,
    RcaTmr,
    RcaEcc,
};

inline const char *
schemeName(Scheme s)
{
    switch (s) {
      case Scheme::Jc:
        return "JC";
      case Scheme::JcTmr:
        return "JC+TMR";
      case Scheme::JcEcc:
        return "JC+ECC";
      case Scheme::Rca:
        return "RCA";
      case Scheme::RcaTmr:
        return "RCA+TMR";
      case Scheme::RcaEcc:
        return "RCA+ECC";
    }
    return "?";
}

inline bool
isJc(Scheme s)
{
    return s == Scheme::Jc || s == Scheme::JcTmr ||
           s == Scheme::JcEcc;
}

/**
 * Engine config of @p s: radix-10, 24-bit JC counters, or a 24-bit
 * RCA accumulator (radix 2 with 22 capacity bits).
 */
inline core::EngineConfig
schemeConfig(Scheme s, double fault_rate, size_t counters,
             unsigned mask_rows, uint64_t seed, unsigned groups = 1)
{
    core::EngineConfig cfg;
    cfg.radix = 10;
    cfg.capacityBits = 24;
    if (!isJc(s)) {
        cfg.backend = core::BackendKind::Rca;
        cfg.radix = 2;
        cfg.capacityBits = 22;
    }
    cfg.numCounters = counters;
    cfg.maxMaskRows = mask_rows;
    cfg.numGroups = groups;
    cfg.faultRate = fault_rate;
    cfg.seed = seed;
    if (s == Scheme::JcTmr || s == Scheme::RcaTmr)
        cfg.protection = core::Protection::Tmr;
    if (s == Scheme::JcEcc || s == Scheme::RcaEcc) {
        cfg.protection = core::Protection::Ecc;
        cfg.frChecks = 2; // Tab. 1's "4 FR checks" column + commit
        cfg.maxRetries = 6;
    }
    return cfg;
}

/**
 * Fig. 4a: RMSE of a masked accumulation stream of small values
 * against exact arithmetic.
 */
inline double
accumulationRmse(Scheme scheme, double fault_rate, size_t counters,
                 int num_inputs, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> mask(counters);
    for (auto &b : mask)
        b = rng.nextBool(0.5);

    std::vector<uint64_t> inputs(num_inputs);
    for (auto &v : inputs)
        v = 1 + rng.nextBounded(255); // circa 4-8 bit values (Fig. 3)
    int64_t expected_on = 0;
    for (auto v : inputs)
        expected_on += static_cast<int64_t>(v);

    std::vector<int64_t> expected(counters, 0);
    for (size_t j = 0; j < counters; ++j)
        if (mask[j])
            expected[j] = expected_on;

    core::C2MEngine eng(
        schemeConfig(scheme, fault_rate, counters, 2, seed));
    const unsigned h = eng.addMask(mask);
    for (auto v : inputs)
        eng.accumulate(v, h);
    return rmse(eng.readCounters(), expected);
}

/** Fig. 4b / Fig. 17a: DNA pre-alignment filtering F1. */
inline double
dnaFilterF1(Scheme scheme, double fault_rate,
            const workloads::DnaWorkload &dna, uint64_t seed)
{
    std::vector<std::vector<int64_t>> scores;
    const auto tokens = static_cast<unsigned>(dna.numTokens());

    core::C2MEngine eng(schemeConfig(scheme, fault_rate,
                                     dna.numBins(), tokens, seed));
    std::vector<unsigned> handles;
    for (unsigned t = 0; t < tokens; ++t)
        handles.push_back(eng.addMask(dna.tokenMask(t)));
    for (const auto &read : dna.reads()) {
        eng.clear();
        for (const auto &[tok, cnt] : dna.readTokens(read))
            eng.accumulate(cnt, handles[tok]);
        scores.push_back(eng.readCounters());
    }
    return dna.evaluate(scores).f1();
}

/** Fig. 17b: BERT-proxy classification accuracy. */
inline double
bertAccuracy(Scheme scheme, double fault_rate,
             const workloads::BertProxy &proxy, uint64_t seed)
{
    uint64_t invocation = 0;
    auto gemv = [&](const std::vector<int64_t> &x,
                    const std::vector<std::vector<int8_t>> &W)
        -> std::vector<int64_t> {
        const size_t N = W[0].size();
        const unsigned K = static_cast<unsigned>(W.size());
        const uint64_t sd = seed + 7919 * ++invocation;
        if (isJc(scheme)) {
            auto cfg = schemeConfig(scheme, fault_rate, N, 2 * K, sd, 2);
            cfg.capacityBits = 20;
            core::C2MEngine eng(cfg);
            return core::gemvIntTernary(eng, x, W);
        }
        auto cfg = schemeConfig(scheme, fault_rate, N, 2 * K, sd);
        cfg.capacityBits = 18; // W = 20
        core::C2MEngine eng(cfg);
        return core::simdramGemvTernary(eng, x, W);
    };
    return proxy.accuracy(gemv);
}

// ---- Shape checks over the printed tables ----

/** DNA filter F1 at or above which a scheme counts as usable. */
inline constexpr double kUsableF1 = 0.8;

/** A printed cell read back, so a check compares what was shown. */
inline double
shown(const std::string &cell)
{
    return std::stod(cell);
}

inline const char *
verdict(bool ok)
{
    return ok ? "holds" : "does not hold";
}

/**
 * Index of the highest fault rate up to which every F1 of @p f1 (one
 * per rate, rates rising) is usable; -1 when the first is not.
 */
inline int
usableUpTo(const std::vector<double> &f1)
{
    size_t i = 0;
    while (i < f1.size() && f1[i] >= kUsableF1)
        ++i;
    return static_cast<int>(i) - 1;
}

/**
 * "JC up to 1e-04 (0.873)": how far @p name stays usable. The rates
 * step by 10x, so one row further is 10x the fault rate.
 */
inline std::string
usableText(const std::string &name, const std::vector<double> &rates,
           const std::vector<double> &f1)
{
    std::string out = name;
    const int i = usableUpTo(f1);
    if (i < 0) {
        out += " at no rate";
        return out;
    }
    out += " up to ";
    out += TextTable::sci(rates[i], 0);
    out += " (";
    out += TextTable::fmt(f1[i], 3);
    out += ")";
    return out;
}

} // namespace bench
} // namespace c2m

#endif // C2M_BENCH_FAULT_LAB_HPP
