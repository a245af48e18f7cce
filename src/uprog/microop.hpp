#ifndef C2M_UPROG_MICROOP_HPP
#define C2M_UPROG_MICROOP_HPP

/**
 * @file
 * Checked muProgram container (Sec. 5.1, Sec. 6).
 *
 * A muProgram is a straight-line AAP/AP sequence; in protected mode it
 * is split into blocks, each optionally followed by FR checks: the
 * block synthesizes FR = a XOR b in a data row whose correctness the
 * ECC hardware verifies (Fig. 12/13). A block with a failing check is
 * re-executed; blocks are arranged so they never overwrite their own
 * inputs before their checks pass (the committing write is always the
 * last block).
 */

#include <cstdint>
#include <vector>

#include "cim/rowaddr.hpp"

namespace c2m {
namespace uprog {

/**
 * One FR verification point: after the owning block runs,
 *
 *  - XorOfRows: row @p frRow must equal rowA ^ rowB (operands
 *    optionally complemented) -- the Fig. 12 scheme, where the engine
 *    evaluates the check with the row values observed at block entry
 *    (the ECC-hardware idealization the paper itself uses when it
 *    compares FR against "the actual XOR result", Fig. 12b);
 *  - EqualRows: rows @p frRow and @p rowA must be identical -- the
 *    duplicate-compute adaptation used to protect the MAJ3 full-adder
 *    steps of the RCA baseline (Sec. 7.3.1).
 */
struct FrCheck
{
    enum class Mode : uint8_t { XorOfRows, EqualRows };

    Mode mode = Mode::XorOfRows;
    unsigned frRow = 0;
    unsigned rowA = 0;
    bool aNeg = false;
    unsigned rowB = 0;
    bool bNeg = false;

    static FrCheck
    xorOf(unsigned fr, unsigned a, bool a_neg, unsigned b, bool b_neg)
    {
        return {Mode::XorOfRows, fr, a, a_neg, b, b_neg};
    }

    static FrCheck
    equalRows(unsigned fr, unsigned other)
    {
        return {Mode::EqualRows, fr, other, false, 0, false};
    }
};

struct Block
{
    cim::AmbitProgram prog;
    std::vector<FrCheck> checks;
};

struct CheckedProgram
{
    std::vector<Block> blocks;

    /** Append a block with no checks (merging into the tail block). */
    void appendUnchecked(const cim::AmbitProgram &prog);

    /** Append a checked block. */
    void appendBlock(Block block);

    size_t totalOps() const;
    bool empty() const { return blocks.empty(); }
};

} // namespace uprog
} // namespace c2m

#endif // C2M_UPROG_MICROOP_HPP
