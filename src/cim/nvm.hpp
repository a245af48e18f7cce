#ifndef C2M_CIM_NVM_HPP
#define C2M_CIM_NVM_HPP

/**
 * @file
 * Bulk-bitwise CIM backends for non-volatile memories (Sec. 4.6).
 *
 * Count2Multiply is technology-agnostic: any functionally complete
 * bulk-bitwise substrate can host the counters. We model two:
 *
 *  - Pinatubo-style non-stateful logic: (N)AND/(N)OR/NOT of one or two
 *    rows sensed in peripheral circuitry and written back; operands
 *    may be sensed negated. Counting costs 3n+4 ops, overflow +3
 *    (Fig. 10a).
 *  - MAGIC: stateful, NOR-only memristor logic. Counting costs 6n+4
 *    ops with the optimized program (Fig. 10b).
 *
 * The machine is a flat row space (data rows followed by named temp
 * rows allocated by the code generators), with per-op fault injection
 * like the Ambit model.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "cim/cost.hpp"
#include "cim/fault.hpp"
#include "common/bitvec.hpp"
#include "common/rng.hpp"

namespace c2m {
namespace cim {

enum class NvmTech : uint8_t
{
    Pinatubo, ///< AND/OR/NOT with optional negated operands
    Magic,    ///< NOR only, plain operands
};

/** Row operand with optional sensing negation (Pinatubo only). */
struct NvmRef
{
    uint32_t row = 0;
    bool neg = false;

    static NvmRef of(uint32_t r) { return {r, false}; }
    static NvmRef inv(uint32_t r) { return {r, true}; }
};

struct NvmOp
{
    enum class Kind : uint8_t { And, Or, Not, Nor, Copy };

    Kind kind = Kind::Copy;
    uint32_t dst = 0;
    NvmRef a;
    NvmRef b; ///< unused for Not/Copy

    std::string toString() const;
};

struct NvmProgram
{
    std::vector<NvmOp> ops;

    void and_(uint32_t dst, NvmRef a, NvmRef b)
    {
        ops.push_back({NvmOp::Kind::And, dst, a, b});
    }
    void or_(uint32_t dst, NvmRef a, NvmRef b)
    {
        ops.push_back({NvmOp::Kind::Or, dst, a, b});
    }
    void not_(uint32_t dst, NvmRef a)
    {
        ops.push_back({NvmOp::Kind::Not, dst, a, {}});
    }
    void nor(uint32_t dst, NvmRef a, NvmRef b)
    {
        ops.push_back({NvmOp::Kind::Nor, dst, a, b});
    }
    void copy(uint32_t dst, NvmRef a)
    {
        ops.push_back({NvmOp::Kind::Copy, dst, a, {}});
    }

    void append(const NvmProgram &other)
    {
        ops.insert(ops.end(), other.ops.begin(), other.ops.end());
    }

    size_t size() const { return ops.size(); }
};

class NvmMachine
{
  public:
    NvmMachine(size_t num_rows, size_t num_cols, NvmTech tech,
               FaultModel fault = FaultModel::reliable(),
               uint64_t seed = 1);

    size_t numRows() const { return rows_.size(); }
    size_t numCols() const { return numCols_; }
    NvmTech tech() const { return tech_; }

    const BitVector &row(size_t r) const;

    /** Read a row through the charged host path (counts a rowRead). */
    const BitVector &hostReadRow(size_t r);

    /** Overwrite a row through the host path (counts a rowWrite). */
    void hostWriteRow(size_t r, const BitVector &v);

    void execute(const NvmOp &op);
    void run(const NvmProgram &prog);

    OpStats &stats() { return stats_; }
    const OpStats &stats() const { return stats_; }

    /**
     * Install per-command fabric costs; every array op and host row
     * access from here on charges OpStats::fabricNs/fabricNj.
     * Defaults to all-zero (pure command counting).
     */
    void setCosts(const CommandCosts &c) { costs_ = c; }
    const CommandCosts &costs() const { return costs_; }

  private:
    BitVector readRef(const NvmRef &ref) const;

    size_t numCols_;
    NvmTech tech_;
    std::vector<BitVector> rows_;
    FaultModel fault_;
    OpStats stats_;
    CommandCosts costs_;
    Rng rng_;
};

} // namespace cim
} // namespace c2m

#endif // C2M_CIM_NVM_HPP
