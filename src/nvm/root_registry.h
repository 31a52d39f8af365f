/**
 * @file
 * Typed persistent-root registry: the metadata layer that makes heap
 * reachability decidable without running any application code.
 *
 * NvHeap v2 gave every persistent block a crash-consistent lifecycle
 * (LIVE/FREEING/FREE) but no *identity*: a block was just bytes, and
 * the only way to know what pointed where was to run the owning
 * structure's traversal code.  That is exactly the gap Makalu-style
 * recovery GC (the allocator Atlas pairs with) closes: durable roots
 * are *named and typed*, every allocation declares its type, and each
 * type publishes a link-field map -- so an offline tool (tools/ido_heap)
 * or the recovery path can mark from the roots and decide, from
 * metadata alone, which LIVE blocks are reachable.
 *
 * Three pieces, all declarative:
 *
 *  - TypeId: a 7-bit type tag carried in every block header's meta
 *    word (co-located in the block's own first cache line, after
 *    *Fine-Grain Checkpointing with In-Cache-Line Logging*: marking
 *    reads it without touching mutator-hot lines).
 *  - TypeDescriptor: per-type layout facts -- expected payload size,
 *    fixed link-field offsets, an optional dynamic link enumerator
 *    for variable-shape blocks (hash-bucket arrays), and the blocks
 *    an interrupted FASE's log record reserves.
 *  - RootRegistry: a static declaration, per RootSlot, of what the
 *    slot *is* -- a traced block reference, a scalar counter
 *    (kLockEpoch), or allocator-internal state (kAllocator) -- with
 *    typed accessors replacing ad-hoc root(slot)/set_root calls.
 *
 * Descriptors are registered by the module that owns the layout (ds/,
 * apps/, baselines/, ido/) at static-initialization time, so the id
 * namespace lives here but the offsetof() truth stays with the struct.
 * A block whose TypeId was never described is treated conservatively:
 * reachable if marked, but opaque -- audit reports it.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "nvm/persistent_heap.h"

namespace ido::nvm {

class PersistDomain;

/**
 * Block type tags.  At most 128 values (the header carries 7 bits);
 * the namespace is owned here so every layer agrees on the numbers,
 * while layouts are registered by the owning module.
 */
enum class TypeId : uint8_t
{
    kUntyped = 0,   ///< legacy / opaque: conservatively kept, never traced
    kLogBuffer,     ///< baseline per-thread log buffer (opaque leaf)
    kRetired2,      ///< unused: keeps every later id's number stable
    // ds/
    kListNode,      ///< ds::PListNode (also hash-map chain nodes)
    kMapRoot,       ///< ds::PMapRoot + inline bucket sentinels
    kQueueRoot,     ///< ds::PQueueRoot
    kQueueNode,     ///< ds::PQueueNode
    kStackRoot,     ///< ds::PStackRoot
    kStackNode,     ///< ds::PStackNode
    // apps/
    kMcRoot,        ///< apps::McRoot
    kMcShard,       ///< apps::McShard + inline bucket heads
    kMcItem,        ///< apps::McItem
    kRedisRoot,     ///< apps::RedisRoot + inline bucket heads
    kRedisItem,     ///< apps::RedisItem
    // runtimes
    kIdoLogRec,     ///< ido::IdoLogRec
    kAtlasLog,      ///< baselines::AtlasThreadLog
    kMnemosyneLog,  ///< baselines::MnemosyneThreadLog
    kJustdoLogRec,  ///< baselines::JustdoLogRec
    kNvmlLog,       ///< baselines::NvmlThreadLog
    kNvthreadsLog,  ///< baselines::NvthreadsThreadLog
    // tests
    kTestBlock,     ///< test fixtures' generic traced block
    kMaxTypes
};

static_assert(static_cast<uint8_t>(TypeId::kMaxTypes) <= 128,
              "TypeId must fit the 7-bit header field");

/**
 * Layout facts for one TypeId.  Link fields are u64 heap offsets read
 * from the *published* payload (for line-aligned blocks that is the
 * aligned payload, not the raw class payload).  A link value of 0 is
 * null; a link may point at another block's payload or *into* a block
 * (interior pointer, e.g. a hash map's inline bucket sentinel).
 */
struct TypeDescriptor
{
    std::string name = "untyped";

    /** Exact published payload size, 0 if variable (inline arrays). */
    uint32_t payload_size = 0;

    /** Byte offsets of fixed u64 link fields in the payload. */
    std::vector<uint32_t> link_offsets;

    /**
     * Dynamic link enumeration for variable-shape blocks: reads the
     * payload (bucket counts etc.) and appends link *field offsets*
     * (heap offsets of the u64 fields themselves) to out.  Fixed
     * link_offsets are enumerated by the caller either way.
     */
    std::function<void(const PersistentHeap&, uint64_t payload_off,
                       std::vector<uint64_t>* out)>
        enumerate_link_fields;

    /**
     * Blocks this LIVE block durably claims although they need not be
     * LIVE themselves: an interrupted FASE's log record names the
     * blocks its resumed region will take back or free.  Appends raw
     * payload offsets to out; NvHeap::recover_leaks never relinks
     * them.
     */
    std::function<void(const PersistentHeap&, uint64_t payload_off,
                       std::vector<uint64_t>* out)>
        reserved_blocks;
};

/** Process-wide TypeId -> TypeDescriptor table. */
class TypeRegistry
{
  public:
    static TypeRegistry& instance();

    /** Register (or replace) the descriptor for a type.  Thread-safe;
     *  normally called once per type from a static registrar in the
     *  module owning the layout. */
    void register_type(TypeId id, TypeDescriptor desc);

    /** Descriptor for id, or nullptr if the type was never described
     *  (callers must treat such blocks as opaque). */
    const TypeDescriptor* describe(TypeId id) const;

    /** Human name for diagnostics ("untyped" for unknown ids). */
    const char* name(TypeId id) const;

  private:
    TypeRegistry();
    mutable std::mutex mu_;
    std::vector<TypeDescriptor> table_;
    std::vector<bool> known_;
};

/** What a RootSlot durably holds. */
enum class RootKind : uint8_t
{
    kUnused,    ///< reserved slot, must stay 0
    kBlockRef,  ///< heap offset of a block payload (traced by the GC)
    kScalar,    ///< a counter/value, never dereferenced (kLockEpoch)
    kAllocator, ///< allocator-internal state offset (GC substrate)
};

/** Static declaration of one root slot. */
struct RootDecl
{
    RootSlot slot;
    const char* name;
    RootKind kind;
    TypeId type; ///< expected head type for kBlockRef (kUntyped = any)
};

/**
 * The typed face of PersistentHeap's root table.  All reads/writes of
 * named roots go through here so a slot can never be used against its
 * declared kind (storing a block ref into a scalar slot, or bumping a
 * counter that the GC would then chase as a pointer).
 */
class RootRegistry
{
  public:
    static const RootDecl& describe(RootSlot slot);
    static const std::vector<RootDecl>& table();

    /** Read a kBlockRef slot (0 = unset). */
    static uint64_t get_ref(const PersistentHeap& heap, RootSlot slot);

    /** Durably publish a block reference into a kBlockRef slot. */
    static void set_ref(PersistentHeap& heap, RootSlot slot, uint64_t off,
                        PersistDomain& dom);

    /** Read a kScalar slot's counter value. */
    static uint64_t get_scalar(const PersistentHeap& heap, RootSlot slot);

    /** Durably store a kScalar slot's counter value. */
    static void set_scalar(PersistentHeap& heap, RootSlot slot,
                           uint64_t value, PersistDomain& dom);

    /** Every non-null kBlockRef root: the GC's mark sources. */
    static std::vector<std::pair<RootSlot, uint64_t>>
    block_roots(const PersistentHeap& heap);
};

} // namespace ido::nvm
