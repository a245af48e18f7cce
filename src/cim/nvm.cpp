#include "cim/nvm.hpp"

#include "common/logging.hpp"

namespace c2m {
namespace cim {

std::string
NvmOp::toString() const
{
    auto ref = [](const NvmRef &r) {
        return (r.neg ? std::string("!R") : std::string("R")) +
               std::to_string(r.row);
    };
    switch (kind) {
      case Kind::And:
        return "AND R" + std::to_string(dst) + ", " + ref(a) + ", " +
               ref(b);
      case Kind::Or:
        return "OR  R" + std::to_string(dst) + ", " + ref(a) + ", " +
               ref(b);
      case Kind::Not:
        return "NOT R" + std::to_string(dst) + ", " + ref(a);
      case Kind::Nor:
        return "NOR R" + std::to_string(dst) + ", " + ref(a) + ", " +
               ref(b);
      case Kind::Copy:
        return "CP  R" + std::to_string(dst) + ", " + ref(a);
    }
    return "?";
}

size_t
NvmProgram::logicOps() const
{
    size_t n = 0;
    for (const auto &op : ops)
        if (op.kind != NvmOp::Kind::Copy)
            ++n;
    return n;
}

NvmMachine::NvmMachine(size_t num_rows, size_t num_cols, NvmTech tech,
                       FaultModel fault, uint64_t seed)
    : numCols_(num_cols),
      tech_(tech),
      rows_(num_rows, BitVector(num_cols)),
      fault_(fault),
      rng_(seed)
{
}

const BitVector &
NvmMachine::row(size_t r) const
{
    C2M_ASSERT(r < rows_.size(), "row ", r, " out of range");
    return rows_[r];
}

void
NvmMachine::hostWriteRow(size_t r, const BitVector &v)
{
    C2M_ASSERT(r < rows_.size(), "row ", r, " out of range");
    C2M_ASSERT(v.size() == numCols_, "row width mismatch");
    ++stats_.rowWrites;
    stats_.charge(costs_.rowWriteNs, costs_.rowWriteNj);
    rows_[r] = v;
}

const BitVector &
NvmMachine::hostReadRow(size_t r)
{
    C2M_ASSERT(r < rows_.size(), "row ", r, " out of range");
    ++stats_.rowReads;
    stats_.charge(costs_.rowReadNs, costs_.rowReadNj);
    return rows_[r];
}

BitVector
NvmMachine::readRef(const NvmRef &ref) const
{
    C2M_ASSERT(ref.row < rows_.size(), "row ", ref.row,
               " out of range");
    if (!ref.neg)
        return rows_[ref.row];
    C2M_ASSERT(tech_ == NvmTech::Pinatubo,
               "negated operands require Pinatubo-style sensing");
    BitVector v(numCols_);
    v.assignNot(rows_[ref.row]);
    return v;
}

void
NvmMachine::execute(const NvmOp &op)
{
    C2M_ASSERT(op.dst < rows_.size(), "dst row out of range");
    if (tech_ == NvmTech::Magic) {
        C2M_ASSERT(op.kind == NvmOp::Kind::Nor ||
                   op.kind == NvmOp::Kind::Copy,
                   "MAGIC supports only NOR (and init copies)");
    }

    BitVector result(numCols_);
    bool is_logic = true;
    switch (op.kind) {
      case NvmOp::Kind::And:
        result.assignAnd(readRef(op.a), readRef(op.b));
        break;
      case NvmOp::Kind::Or:
        result.assignOr(readRef(op.a), readRef(op.b));
        break;
      case NvmOp::Kind::Not:
        result.assignNot(readRef(op.a));
        break;
      case NvmOp::Kind::Nor:
        result.assignNor(readRef(op.a), readRef(op.b));
        break;
      case NvmOp::Kind::Copy:
        result = readRef(op.a);
        is_logic = false;
        break;
    }

    ++stats_.aap; // count every op as one array command
    stats_.charge(costs_.aapNs, costs_.aapNj);
    if (is_logic) {
        ++stats_.tra;
        if (fault_.pMaj > 0.0)
            stats_.faultsInjected +=
                result.injectFaults(rng_, fault_.pMaj);
    } else if (fault_.pCopy > 0.0) {
        stats_.faultsInjected +=
            result.injectFaults(rng_, fault_.pCopy);
    }

    rows_[op.dst] = result;
}

void
NvmMachine::run(const NvmProgram &prog)
{
    for (const auto &op : prog.ops)
        execute(op);
}

} // namespace cim
} // namespace c2m
