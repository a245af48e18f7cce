#include "uprog/microop.hpp"

namespace c2m {
namespace uprog {

void
CheckedProgram::appendUnchecked(const cim::AmbitProgram &prog)
{
    if (prog.empty())
        return;
    if (!blocks.empty() && blocks.back().checks.empty()) {
        blocks.back().prog.append(prog);
        return;
    }
    blocks.push_back(Block{prog, {}});
}

void
CheckedProgram::appendBlock(Block block)
{
    blocks.push_back(std::move(block));
}

size_t
CheckedProgram::totalOps() const
{
    size_t n = 0;
    for (const auto &b : blocks)
        n += b.prog.size();
    return n;
}

} // namespace uprog
} // namespace c2m
