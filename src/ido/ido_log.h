/**
 * @file
 * The iDO log (paper Fig. 3 and Sec. III-A).
 *
 * One persistent record per thread, linked from a persistent head
 * (RootSlot::kIdoLogHead) so recovery can find every thread's state:
 *
 *  - recovery_pc: (fase_id, region_index) of the current idempotent
 *    region while the FASE's log is active -- from its first storing
 *    region up to the boundary after its last -- and the inactive
 *    sentinel otherwise (read-only prefix, store-free tail, outside
 *    FASEs).  Updated (with its own persist fence) only after the
 *    previous region's outputs have persisted.
 *  - intRF / floatRF: live-out register values; each register has a
 *    fixed slot, which is what makes persist coalescing (Sec. IV-B)
 *    safe: registers logged in the current region are consumed only by
 *    later regions, so flushing whole lines in slot order is fine.
 *  - lock_array + lock_bitmap: indirect lock holders owned by the
 *    thread (Sec. III-B), meaningful only while recovery_pc is active.
 *    The activation writes every lock already held (ordered by its
 *    fence 1) and clears bits a previous FASE's tail left behind; an
 *    active lock op then pays a single fence.  Locks released in the
 *    store-free tail keep their bits until the next activation.
 *  - entries: the FASE's allocations and frees (DESIGN.md Sec. 5a),
 *    one {tag, block} pair each, in the order the FASE made them.  A
 *    tag names the FASE instance (the record's activation count, also
 *    packed into every active recovery_pc), the region, the call's
 *    index within the region, and the entry's own position.  An
 *    allocation entry lets a resumed region get back the block it
 *    already took instead of leaking it; a free entry survives a crash
 *    that would have dropped a volatile deferred-free list.  Each
 *    entry is written back with the region's outputs (boundary fence
 *    1).  Recovery pins the blocks an active record's current-instance
 *    entries name, and completes every uncleared free entry.
 *
 * recovery_pc packs fase(16) | instance(24) | entries(8) | region(16):
 * `entries` is how many entries the instance had recorded when the
 * named region began, so every dynamic execution of a region -- a
 * loop runs one region many times -- has its own entry positions.
 *
 * The record is laid out so each logically-distinct persist target sits
 * on its own cache line(s).
 */
#pragma once

#include <cstdint>

#include "common/cacheline.h"
#include "runtime/region_ctx.h"

namespace ido {

constexpr size_t kMaxHeldLocks = 15;

/** recovery_pc value when the thread is not inside a FASE. */
constexpr uint64_t kInactivePc = ~0ull;

inline uint64_t
pack_recovery_pc(uint32_t fase_id, uint32_t region_idx,
                 uint32_t instance = 0, uint32_t entries = 0)
{
    return (static_cast<uint64_t>(fase_id & 0xffffu) << 48)
           | (static_cast<uint64_t>(instance & 0xffffffu) << 24)
           | (static_cast<uint64_t>(entries & 0xffu) << 16)
           | (region_idx & 0xffffu);
}

inline uint32_t
recovery_pc_fase(uint64_t pc)
{
    return static_cast<uint32_t>(pc >> 48);
}

inline uint32_t
recovery_pc_region(uint64_t pc)
{
    return static_cast<uint32_t>(pc & 0xffffu);
}

/** Activation count of the FASE instance an active pc belongs to. */
inline uint32_t
recovery_pc_instance(uint64_t pc)
{
    return static_cast<uint32_t>((pc >> 24) & 0xffffffu);
}

/** Entries the instance had recorded when the named region began. */
inline uint32_t
recovery_pc_entries(uint64_t pc)
{
    return static_cast<uint32_t>((pc >> 16) & 0xffu);
}

/** Largest instance number; the next activation wipes the entries. */
constexpr uint32_t kMaxInstance = 0xffffffu;

/** Allocations plus frees one FASE instance may record. */
constexpr size_t kMaxLogEntries = 4;

enum class LogEntryKind : uint8_t
{
    kAlloc = 1,
    kFree = 2,
};

/** One allocation or free of a FASE (a 0 tag is an empty entry). */
struct IdoLogEntry
{
    uint64_t tag;   ///< make_entry_tag(...)
    uint64_t block; ///< make_entry_block(...)
};

/**
 * An entry's block word: the raw payload offset, plus -- for an
 * allocation -- the block's TypeId (7 bits) and aligned flag in the
 * top byte, which recovery needs to re-mark it LIVE.
 */
inline uint64_t
make_entry_block(uint64_t raw, uint8_t type = 0, bool aligned = false)
{
    return raw | (static_cast<uint64_t>(type & 0x7fu) << 56)
           | (aligned ? uint64_t{1} << 63 : 0);
}

inline uint64_t
entry_block_raw(uint64_t block)
{
    return block & ((uint64_t{1} << 56) - 1);
}

inline uint8_t
entry_block_type(uint64_t block)
{
    return static_cast<uint8_t>((block >> 56) & 0x7fu);
}

inline bool
entry_block_aligned(uint64_t block)
{
    return (block >> 63) != 0;
}

inline uint64_t
make_entry_tag(uint32_t instance, LogEntryKind kind, uint32_t region,
               uint32_t index, uint32_t position)
{
    return (static_cast<uint64_t>(instance & 0xffffffu) << 40)
           | (static_cast<uint64_t>(kind) << 32)
           | (static_cast<uint64_t>(region & 0xffffu) << 16)
           | ((index & 0xffu) << 8) | (position & 0xffu);
}

inline uint32_t
entry_instance(uint64_t tag)
{
    return static_cast<uint32_t>(tag >> 40);
}

inline LogEntryKind
entry_kind(uint64_t tag)
{
    return static_cast<LogEntryKind>((tag >> 32) & 0xffu);
}

/** Per-thread persistent log record. */
struct alignas(kCacheLineBytes) IdoLogRec
{
    // --- line 0: list link and control -------------------------------
    uint64_t next;        ///< heap offset of the next record, 0 = end
    uint64_t thread_tag;  ///< diagnostic id of the owning thread
    uint64_t recovery_pc; ///< pack(fase, region) or kInactivePc
    uint64_t reserved[5];

    // --- lines 1-2: integer register file ----------------------------
    uint64_t intRF[rt::kNumIntRegs];

    // --- line 3: floating-point register file ------------------------
    double floatRF[rt::kNumFloatRegs];

    // --- lines 4-5: indirect lock ownership ---------------------------
    // The bitmap shares a line with the first seven array slots so the
    // common lock depth (1-2) persists a lock operation's whole record
    // with one cache-line write-back.
    uint64_t lock_bitmap; ///< live bits for lock_array slots
    uint64_t lock_array[kMaxHeldLocks];

    // --- line 6: allocations and frees of the current FASE ----------
    IdoLogEntry entries[kMaxLogEntries];
};

static_assert(kMaxHeldLocks == 15);
static_assert(sizeof(IdoLogRec) == 7 * kCacheLineBytes);
// Runtime::log_records() walks the list through the link at offset 0.
static_assert(offsetof(IdoLogRec, next) == 0);
static_assert(offsetof(IdoLogRec, intRF) == kCacheLineBytes);
static_assert(offsetof(IdoLogRec, floatRF) == 3 * kCacheLineBytes);
static_assert(offsetof(IdoLogRec, lock_bitmap) == 4 * kCacheLineBytes);
static_assert(offsetof(IdoLogRec, entries) == 6 * kCacheLineBytes);
static_assert(sizeof(IdoLogEntry) * kMaxLogEntries == kCacheLineBytes);

} // namespace ido
