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
pack_recovery_pc(uint32_t fase_id, uint32_t region_idx)
{
    return (static_cast<uint64_t>(fase_id) << 32) | region_idx;
}

inline uint32_t
recovery_pc_fase(uint64_t pc)
{
    return static_cast<uint32_t>(pc >> 32);
}

inline uint32_t
recovery_pc_region(uint64_t pc)
{
    return static_cast<uint32_t>(pc & 0xffffffffu);
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
};

static_assert(kMaxHeldLocks == 15);
static_assert(sizeof(IdoLogRec) == 6 * kCacheLineBytes);
static_assert(offsetof(IdoLogRec, intRF) == kCacheLineBytes);
static_assert(offsetof(IdoLogRec, floatRF) == 3 * kCacheLineBytes);
static_assert(offsetof(IdoLogRec, lock_bitmap) == 4 * kCacheLineBytes);

} // namespace ido
