#include "nvm/root_registry.h"

#include "common/panic.h"
#include "nvm/persist_domain.h"

namespace ido::nvm {

// --------------------------------------------------------------------------
// TypeRegistry
// --------------------------------------------------------------------------

TypeRegistry&
TypeRegistry::instance()
{
    static TypeRegistry reg;
    return reg;
}

TypeRegistry::TypeRegistry()
    : table_(static_cast<size_t>(TypeId::kMaxTypes)),
      known_(static_cast<size_t>(TypeId::kMaxTypes), false)
{
    // The substrate's own types are described here; everything else is
    // registered by the module owning the layout.
    TypeDescriptor buf;
    buf.name = "log_buffer";
    register_type(TypeId::kLogBuffer, std::move(buf));
}

void
TypeRegistry::register_type(TypeId id, TypeDescriptor desc)
{
    const auto idx = static_cast<size_t>(id);
    IDO_ASSERT(idx < table_.size(), "TypeId out of range");
    IDO_ASSERT(id != TypeId::kUntyped,
               "kUntyped is the absence of a descriptor");
    std::lock_guard<std::mutex> g(mu_);
    table_[idx] = std::move(desc);
    known_[idx] = true;
}

const TypeDescriptor*
TypeRegistry::describe(TypeId id) const
{
    const auto idx = static_cast<size_t>(id);
    if (idx >= table_.size())
        return nullptr;
    std::lock_guard<std::mutex> g(mu_);
    return known_[idx] ? &table_[idx] : nullptr;
}

const char*
TypeRegistry::name(TypeId id) const
{
    const TypeDescriptor* d = describe(id);
    return d ? d->name.c_str() : "untyped";
}

// --------------------------------------------------------------------------
// RootRegistry
// --------------------------------------------------------------------------

namespace {

const std::vector<RootDecl>&
root_table()
{
    // One declaration per RootSlot, in enum order.  This is the single
    // source of truth for what each durable root *is*; the GC marks
    // from exactly the kBlockRef entries.
    static const std::vector<RootDecl> table = {
        {RootSlot::kAppRoot, "app_root", RootKind::kBlockRef,
         TypeId::kUntyped},
        {RootSlot::kIdoLogHead, "ido_log_head", RootKind::kBlockRef,
         TypeId::kIdoLogRec},
        {RootSlot::kAtlasState, "atlas_log_head", RootKind::kBlockRef,
         TypeId::kAtlasLog},
        {RootSlot::kMnemosyneState, "mnemosyne_log_head",
         RootKind::kBlockRef, TypeId::kMnemosyneLog},
        {RootSlot::kJustdoState, "justdo_log_head", RootKind::kBlockRef,
         TypeId::kJustdoLogRec},
        {RootSlot::kNvmlState, "nvml_log_head", RootKind::kBlockRef,
         TypeId::kNvmlLog},
        {RootSlot::kNvthreadsState, "nvthreads_log_head",
         RootKind::kBlockRef, TypeId::kNvthreadsLog},
        {RootSlot::kLockEpoch, "lock_epoch", RootKind::kScalar,
         TypeId::kUntyped},
        {RootSlot::kAllocator, "allocator_state", RootKind::kAllocator,
         TypeId::kUntyped},
        {RootSlot::kUser0, "user0", RootKind::kBlockRef, TypeId::kUntyped},
        {RootSlot::kUser1, "user1", RootKind::kBlockRef, TypeId::kUntyped},
        {RootSlot::kUser2, "user2", RootKind::kBlockRef, TypeId::kUntyped},
    };
    return table;
}

} // namespace

const std::vector<RootDecl>&
RootRegistry::table()
{
    return root_table();
}

const RootDecl&
RootRegistry::describe(RootSlot slot)
{
    const auto idx = static_cast<size_t>(slot);
    const auto& t = root_table();
    IDO_ASSERT(idx < t.size(), "RootSlot out of range");
    IDO_ASSERT(t[idx].slot == slot, "root table out of order");
    return t[idx];
}

uint64_t
RootRegistry::get_ref(const PersistentHeap& heap, RootSlot slot)
{
    IDO_ASSERT(describe(slot).kind == RootKind::kBlockRef,
               "root slot does not hold a block reference");
    return heap.root(slot);
}

void
RootRegistry::set_ref(PersistentHeap& heap, RootSlot slot, uint64_t off,
                      PersistDomain& dom)
{
    const RootDecl& d = describe(slot);
    IDO_ASSERT(d.kind == RootKind::kBlockRef,
               "set_ref into a non-reference root slot");
    heap.set_root(slot, off, dom);
}

uint64_t
RootRegistry::get_scalar(const PersistentHeap& heap, RootSlot slot)
{
    IDO_ASSERT(describe(slot).kind == RootKind::kScalar,
               "root slot does not hold a scalar");
    return heap.root(slot);
}

void
RootRegistry::set_scalar(PersistentHeap& heap, RootSlot slot,
                         uint64_t value, PersistDomain& dom)
{
    IDO_ASSERT(describe(slot).kind == RootKind::kScalar,
               "set_scalar into a non-scalar root slot");
    heap.set_root(slot, value, dom);
}

std::vector<std::pair<RootSlot, uint64_t>>
RootRegistry::block_roots(const PersistentHeap& heap)
{
    std::vector<std::pair<RootSlot, uint64_t>> out;
    for (const RootDecl& d : root_table()) {
        if (d.kind != RootKind::kBlockRef)
            continue;
        const uint64_t off = heap.root(d.slot);
        if (off != 0)
            out.emplace_back(d.slot, off);
    }
    return out;
}

} // namespace ido::nvm
