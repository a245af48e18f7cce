#include "core/backend_nvm.hpp"

#include "common/logging.hpp"
#include "core/fabriccost.hpp"

namespace c2m {
namespace core {

namespace {

cim::NvmTech
techOf(BackendKind kind)
{
    C2M_ASSERT(kind == BackendKind::NvmPinatubo ||
                   kind == BackendKind::NvmMagic,
               "not an NVM backend kind");
    return kind == BackendKind::NvmPinatubo ? cim::NvmTech::Pinatubo
                                            : cim::NvmTech::Magic;
}

} // namespace

NvmBackend::NvmBackend(const EngineConfig &cfg,
                       unsigned physical_groups, EngineStats &stats)
    : JcBackend(cfg, physical_groups, stats, techOf(cfg.backend),
                techOf(cfg.backend))
{
    fabric_.setCosts(commandCosts(cfg.backend, cfg.numCounters));
}

void
NvmBackend::clearPending(unsigned phys, unsigned digit)
{
    fabric_.run(codegen_[phys].clearPending(digit));
}

void
NvmBackend::foldTopBorrowIntoSign(unsigned phys)
{
    fabric_.run(codegen_[phys].foldTopBorrowIntoSign());
}

} // namespace core
} // namespace c2m
