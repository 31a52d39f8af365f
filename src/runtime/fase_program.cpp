#include "runtime/fase_program.h"

#include "common/panic.h"

namespace ido::rt {

const RegionMeta&
FaseProgram::region(uint32_t idx) const
{
    IDO_ASSERT(idx < regions.size());
    return regions[idx];
}

FaseRegistry&
FaseRegistry::instance()
{
    static FaseRegistry registry;
    return registry;
}

void
FaseRegistry::register_program(const FaseProgram* prog)
{
    IDO_ASSERT(prog != nullptr);
    IDO_ASSERT(!prog->regions.empty(), "FASE with no regions");
    // A recovery_pc packs 16-bit FASE ids and region indexes, and the
    // all-ones pc is the inactive sentinel.
    IDO_ASSERT(prog->fase_id < 0xffffu && prog->regions.size() < 0xffffu,
               "FASE '%s': id or region count does not fit a recovery_pc",
               prog->name);
    if (table_.size() <= prog->fase_id)
        table_.resize(prog->fase_id + 1, nullptr);
    table_[prog->fase_id] = prog;
}

const FaseProgram*
FaseRegistry::lookup(uint32_t fase_id) const
{
    const FaseProgram* p = try_lookup(fase_id);
    if (p == nullptr)
        panic("FaseRegistry: unknown fase_id %u", fase_id);
    return p;
}

const FaseProgram*
FaseRegistry::try_lookup(uint32_t fase_id) const
{
    if (fase_id >= table_.size())
        return nullptr;
    return table_[fase_id];
}

std::vector<const FaseProgram*>
FaseRegistry::programs() const
{
    std::vector<const FaseProgram*> out;
    for (const FaseProgram* p : table_) {
        if (p != nullptr)
            out.push_back(p);
    }
    return out;
}

void
FaseRegistry::clear()
{
    table_.clear();
}

} // namespace ido::rt
