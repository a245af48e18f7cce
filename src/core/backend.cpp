#include "core/backend.hpp"

#include "cim/ambit.hpp"
#include "common/logging.hpp"
#include "core/backend_ambit.hpp"
#include "core/backend_nvm.hpp"
#include "core/backend_rca.hpp"
#include "uprog/microop.hpp"

namespace c2m {
namespace core {

void
runCheckedOnSubarray(cim::AmbitSubarray &sub,
                     const uprog::CheckedProgram &prog,
                     size_t num_cols, unsigned max_retries,
                     EngineStats &stats)
{
    for (const auto &block : prog.blocks) {
        unsigned attempt = 0;
        for (;;) {
            sub.run(block.prog);
            if (block.checks.empty())
                break;

            bool mismatch = false;
            for (const auto &chk : block.checks) {
                ++stats.checksRun;
                const BitVector &fr = sub.hostReadRow(chk.frRow);
                if (chk.mode == uprog::FrCheck::Mode::EqualRows) {
                    if (fr != sub.hostReadRow(chk.rowA))
                        mismatch = true;
                    continue;
                }
                BitVector a(num_cols);
                a.copyFrom(sub.hostReadRow(chk.rowA));
                if (chk.aNeg)
                    a.invert();
                BitVector b(num_cols);
                b.copyFrom(sub.hostReadRow(chk.rowB));
                if (chk.bNeg)
                    b.invert();
                BitVector expect(num_cols);
                expect.assignXor(a, b);
                if (fr != expect)
                    mismatch = true;
            }
            if (!mismatch)
                break;

            ++stats.faultsDetected;
            if (attempt++ >= max_retries) {
                ++stats.uncorrectedBlocks;
                break;
            }
            ++stats.retries;
        }
    }
}

void
voteRowsOnSubarray(cim::AmbitSubarray &sub,
                   const std::array<unsigned, 3> &rows,
                   EngineStats &stats)
{
    using cim::RowRef;
    using cim::RowSet;
    cim::AmbitProgram p;
    p.aap(RowRef::data(rows[0]), RowRef::t(0));
    p.aap(RowRef::data(rows[1]), RowRef::t(1));
    p.aap(RowRef::data(rows[2]), RowRef::t(2));
    p.aap(RowSet::b12(), RowSet{RowRef::data(rows[0]),
                                RowRef::data(rows[1]),
                                RowRef::data(rows[2])});
    sub.run(p);
    stats.voteOps += p.size();
}

const char *
backendName(BackendKind kind)
{
    switch (kind) {
    case BackendKind::Ambit:
        return "ambit";
    case BackendKind::NvmPinatubo:
        return "nvm-pinatubo";
    case BackendKind::NvmMagic:
        return "nvm-magic";
    case BackendKind::Rca:
        return "rca";
    }
    return "unknown";
}

// Default implementations: capability-gated operations panic when a
// backend that does not advertise them is driven anyway. The engine
// checks caps() up front, so reaching one of these is a library bug.

void
CountingBackend::maskedAdd(unsigned, uint64_t, unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend has no binary accumulator for whole-value adds");
}

const BitVector &
CountingBackend::pendingRow(unsigned, unsigned)
{
    C2M_PANIC(backendName(kind()), " backend has no pending flags");
}

void
CountingBackend::clearPending(unsigned, unsigned)
{
    C2M_PANIC(backendName(kind()), " backend has no pending flags");
}

void
CountingBackend::voteDigit(const std::array<unsigned, 3> &, unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support TMR voting");
}

const BitVector &
CountingBackend::scrubReadRow(unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support row scrubbing");
}

void
CountingBackend::scrubWriteRow(unsigned, const BitVector &)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support row scrubbing");
}

const jc::CounterLayout &
CountingBackend::layout(unsigned) const
{
    C2M_PANIC(backendName(kind()),
              " backend has no Johnson-counter row layout");
}

void
CountingBackend::rowCopy(unsigned, unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support row-level tensor logic");
}

void
CountingBackend::rowOr(unsigned, unsigned, unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support row-level tensor logic");
}

void
CountingBackend::rowAndNot(unsigned, unsigned, unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support row-level tensor logic");
}

void
CountingBackend::relu(unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support tensor ops");
}

void
CountingBackend::copyCounters(unsigned, unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support tensor ops");
}

std::unique_ptr<CountingBackend>
makeBackend(const EngineConfig &cfg, unsigned physical_groups,
            EngineStats &stats)
{
    switch (cfg.backend) {
    case BackendKind::Ambit:
        return std::make_unique<AmbitBackend>(cfg, physical_groups,
                                              stats);
    case BackendKind::NvmPinatubo:
    case BackendKind::NvmMagic:
        return std::make_unique<NvmBackend>(cfg, physical_groups,
                                            stats);
    case BackendKind::Rca:
        return std::make_unique<RcaBackend>(cfg, physical_groups,
                                            stats);
    }
    C2M_PANIC("unknown backend kind");
}

} // namespace core
} // namespace c2m
