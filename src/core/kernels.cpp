#include "core/kernels.hpp"

#include "common/logging.hpp"

namespace c2m {
namespace core {

std::vector<int64_t>
refGemvBinary(const std::vector<uint64_t> &x,
              const std::vector<std::vector<uint8_t>> &Z)
{
    C2M_ASSERT(x.size() == Z.size(), "x length must match rows of Z");
    C2M_ASSERT(!Z.empty(), "empty matrix");
    std::vector<int64_t> y(Z[0].size(), 0);
    for (size_t i = 0; i < x.size(); ++i)
        for (size_t j = 0; j < y.size(); ++j)
            if (Z[i][j])
                y[j] += static_cast<int64_t>(x[i]);
    return y;
}

std::vector<int64_t>
refGemvTernary(const std::vector<int64_t> &x,
               const std::vector<std::vector<int8_t>> &Z)
{
    C2M_ASSERT(x.size() == Z.size(), "x length must match rows of Z");
    C2M_ASSERT(!Z.empty(), "empty matrix");
    std::vector<int64_t> y(Z[0].size(), 0);
    for (size_t i = 0; i < x.size(); ++i)
        for (size_t j = 0; j < y.size(); ++j)
            y[j] += x[i] * Z[i][j];
    return y;
}

std::vector<std::vector<int64_t>>
refGemmTernary(const std::vector<std::vector<int64_t>> &X,
               const std::vector<std::vector<int8_t>> &Z)
{
    std::vector<std::vector<int64_t>> Y;
    Y.reserve(X.size());
    for (const auto &row : X)
        Y.push_back(refGemvTernary(row, Z));
    return Y;
}

std::vector<int64_t>
gemvIntBinary(C2MEngine &engine, const std::vector<uint64_t> &x,
              const std::vector<std::vector<uint8_t>> &Z)
{
    C2M_ASSERT(x.size() == Z.size(), "x length must match rows of Z");
    std::vector<unsigned> handles;
    handles.reserve(Z.size());
    for (const auto &row : Z)
        handles.push_back(engine.addMask(row));
    for (size_t i = 0; i < x.size(); ++i)
        engine.accumulate(x[i], handles[i]);
    return engine.readCounters(0);
}

namespace {

/** Register the +1 and -1 mask planes of a ternary matrix. */
void
addTernaryMasks(C2MEngine &engine,
                const std::vector<std::vector<int8_t>> &Z,
                std::vector<unsigned> &plus,
                std::vector<unsigned> &minus)
{
    for (const auto &row : Z) {
        std::vector<uint8_t> p(row.size()), m(row.size());
        for (size_t j = 0; j < row.size(); ++j) {
            p[j] = row[j] > 0;
            m[j] = row[j] < 0;
        }
        plus.push_back(engine.addMask(p));
        minus.push_back(engine.addMask(m));
    }
}

} // namespace

std::vector<int64_t>
gemvIntTernary(C2MEngine &engine, const std::vector<int64_t> &x,
               const std::vector<std::vector<int8_t>> &Z)
{
    C2M_ASSERT(x.size() == Z.size(), "x length must match rows of Z");
    C2M_ASSERT(engine.config().numGroups >= 2,
               "ternary kernel needs two counter groups (dual rail)");

    std::vector<unsigned> plus, minus;
    addTernaryMasks(engine, Z, plus, minus);

    for (size_t i = 0; i < x.size(); ++i) {
        if (x[i] == 0)
            continue;
        const uint64_t mag =
            static_cast<uint64_t>(x[i] < 0 ? -x[i] : x[i]);
        // x * (+1) goes to the positive rail unless x is negative.
        const unsigned pos_rail = x[i] > 0 ? 0 : 1;
        engine.accumulate(mag, plus[i], pos_rail);
        engine.accumulate(mag, minus[i], 1 - pos_rail);
    }

    const auto p = engine.readCounters(0);
    const auto m = engine.readCounters(1);
    std::vector<int64_t> y(p.size());
    for (size_t j = 0; j < y.size(); ++j)
        y[j] = p[j] - m[j];
    return y;
}

std::vector<std::vector<int64_t>>
gemmIntTernary(C2MEngine &engine,
               const std::vector<std::vector<int64_t>> &X,
               const std::vector<std::vector<int8_t>> &Z)
{
    C2M_ASSERT(!X.empty(), "empty input matrix");
    C2M_ASSERT(engine.config().numGroups >= 2,
               "ternary kernel needs two counter groups");

    std::vector<unsigned> plus, minus;
    addTernaryMasks(engine, Z, plus, minus);

    std::vector<std::vector<int64_t>> Y;
    Y.reserve(X.size());
    for (const auto &xrow : X) {
        C2M_ASSERT(xrow.size() == Z.size(),
                   "X columns must match rows of Z");
        for (size_t i = 0; i < xrow.size(); ++i) {
            if (xrow[i] == 0)
                continue;
            const uint64_t mag = static_cast<uint64_t>(
                xrow[i] < 0 ? -xrow[i] : xrow[i]);
            const unsigned pos_rail = xrow[i] > 0 ? 0 : 1;
            engine.accumulate(mag, plus[i], pos_rail);
            engine.accumulate(mag, minus[i], 1 - pos_rail);
        }
        const auto p = engine.readCounters(0);
        const auto m = engine.readCounters(1);
        std::vector<int64_t> y(p.size());
        for (size_t j = 0; j < y.size(); ++j)
            y[j] = p[j] - m[j];
        Y.push_back(std::move(y));
        engine.clear(); // counters reused for the next output row
    }
    return Y;
}

std::vector<int64_t>
simdramGemvTernary(C2MEngine &engine,
                   const std::vector<int64_t> &x,
                   const std::vector<std::vector<int8_t>> &Z)
{
    C2M_ASSERT(x.size() == Z.size(), "x length must match rows of Z");
    std::vector<unsigned> plus, minus;
    addTernaryMasks(engine, Z, plus, minus);
    for (size_t i = 0; i < x.size(); ++i) {
        // The RCA baseline cannot skip zeros: both planes are added
        // for every input element.
        engine.accumulateSigned(x[i], plus[i]);
        engine.accumulateSigned(-x[i], minus[i]);
    }
    return engine.readCounters(0);
}

} // namespace core
} // namespace c2m
