/**
 * @file
 * The iDO failure-atomicity runtime (paper Sec. III-IV).
 *
 * Normal-execution protocol, per idempotent region boundary r -> s:
 *   1. write the output registers of r (Def_r ∩ LiveOut_r, Eq. 1) into
 *      their fixed intRF/floatRF slots, initiate write-back of the
 *      touched register-file lines (persist coalescing: up to eight
 *      registers per write-back) and of every heap line stored in r
 *      (pointer-accessed writes are tracked at run time), then fence;
 *   2. update recovery_pc to point at s, flush, fence;
 *   3. execute s.
 * Two persist fences per region, independent of the number of stores --
 * this is the paper's entire performance argument.
 *
 * Logging is live only between a FASE's first and last storing region:
 *
 *  - Lazy activation.  A read-only prefix logs nothing; the first
 *    may_store region's first durable effect activates the log
 *    (live-ins, held-lock records, then the first active recovery_pc).
 *  - One-word FASEs (kSingle, beyond the paper).  The first may_store
 *    region starts unlogged, with its entry registers snapshotted.  If
 *    its one store is an aligned 8-byte word, that store is held in a
 *    volatile slot (loads of the word read the slot), and if the
 *    region's successor starts a store-free tail, the boundary writes
 *    the word back behind one fence (`ido.fence.single_store`): the
 *    word persists whole or not at all, so no log is needed.  Anything
 *    else -- a second store, another size or alignment, nv_alloc or
 *    nv_free, a lock op or a partly overlapping load while the word is
 *    held, a successor that may store -- activates the log from the
 *    snapshot and replays the held store.  Until that activation's pc
 *    fence retires, nothing of the FASE is in the heap.  A may_store
 *    region that stores nothing costs no fence.
 *  - Deactivation at the last store.  The boundary that enters a
 *    store-free tail (no may_store region at a later index) persists
 *    the heap lines of the finished region (fence 1), then writes
 *    recovery_pc = inactive (fence 2).  The tail runs unlogged: no pc
 *    advances, no register slots, no lock records.
 *
 * Lock protocol (indirect locking, Sec. III-B): ownership records
 * (lock_array entry + bitmap bit) are persisted only while the log is
 * active.  Activation writes every held lock's record (fence 1 orders
 * it ahead of the activation pc); an active acquire/release pays one
 * fence.  Prefix and tail lock ops touch only the volatile mirror, so
 * a GET pays no fence, a delete-hit four, and a set-update, whose one
 * word never activates the log, one.
 *
 * The deactivating pc fence, like a one-word commit's fence, must
 * retire before the tail releases a lock.  Otherwise the durable pc
 * could still name the storing region after another thread took the
 * lock and committed; recovery would then re-run the old store over the
 * newer, acknowledged value.
 *
 * Allocation protocol (DESIGN.md Sec. 5a): a FASE allocates and frees
 * only in an active storing region, and records each call in an entry
 * of its log record, written back with the region's outputs.
 *
 *  - nv_alloc names the block in its entry before the block can be
 *    durably LIVE: the allocator's own fence orders the two, or, on a
 *    transient-cache hit, boundary fence 1 does and the LIVE mark
 *    rides fence 2.  A resumed region's nv_alloc returns the block its
 *    entry names instead of allocating again.
 *  - nv_free records the block; the deactivating boundary marks it
 *    FREEING between its fences, then clears the entry with a plain
 *    store that the next reuse of the block writes back first.
 *
 * So a crash leaks nothing, and recovery walks no heap.
 */
#pragma once

#include <atomic>
#include <vector>

#include "ido/ido_log.h"
#include "runtime/runtime.h"
#include "stats/persist_stats.h"

namespace ido {

class IdoRuntime final : public rt::Runtime
{
  public:
    IdoRuntime(nvm::PersistentHeap& heap, nvm::PersistDomain& dom,
               const rt::RuntimeConfig& cfg);

    const char* name() const override { return "ido"; }
    rt::RuntimeTraits traits() const override;

    std::unique_ptr<rt::RuntimeThread> make_thread() override;
    void recover() override;

    /** Allocate and durably link a fresh per-thread log record. */
    uint64_t allocate_log_rec();

  private:
    /**
     * Recovery: complete the free entries inactive records still hold,
     * exactly once, before any resumed FASE can reuse a block.
     * @return blocks freed (the rest were freed before the crash).
     */
    uint64_t complete_recorded_frees(const std::vector<uint64_t>& recs);
};

class IdoThread final : public rt::RuntimeThread
{
  public:
    /** Normal-execution thread with a freshly linked log record. */
    explicit IdoThread(IdoRuntime& rt);

    /** Recovery thread adopting the record of a crashed thread. */
    IdoThread(IdoRuntime& rt, uint64_t existing_rec_off);

    IdoLogRec* rec() { return rec_; }
    uint64_t rec_off() const { return rec_off_; }

    /**
     * Recovery step 3 (Sec. III-C): reacquire every lock named in the
     * adopted record's lock_array.
     * @return number of crash-held locks reclaimed (recovery stats).
     */
    uint64_t reacquire_crashed_locks();

    /** Recovery step 4: rebuild the register file from the log. */
    void restore_ctx(rt::RegionCtx& ctx) const;

    /**
     * Inside a FASE: allocate in an active storing region, recorded in
     * an allocation entry (a resumed region gets its block back).
     * Outside: the base allocator, durable once the caller publishes.
     */
    uint64_t nv_alloc(size_t n) override;

    /**
     * Inside a FASE: record a free entry; the block is freed when the
     * log deactivates (or by recovery, exactly once, after a crash).
     * Outside: an immediate free.
     */
    void nv_free(uint64_t off) override;

  protected:
    void on_fase_begin(const rt::FaseProgram& prog,
                       rt::RegionCtx& ctx) override;
    void on_region_begin(const rt::FaseProgram& prog, uint32_t idx,
                         rt::RegionCtx& ctx) override;
    void on_region_boundary(const rt::FaseProgram& prog,
                            uint32_t finished_idx, rt::RegionCtx& ctx,
                            uint32_t next_idx) override;
    void do_load(uint64_t off, void* dst, size_t n) override;
    void do_store(uint64_t off, const void* src, size_t n) override;
    void do_lock(uint64_t holder_off, rt::TransientLock& l) override;
    void do_unlock(uint64_t holder_off, rt::TransientLock& l) override;

  private:
    /** Where the current FASE stands with respect to its log. */
    enum class Phase : uint8_t
    {
        kPrefix, ///< before the first may_store region: nothing logged
        kSingle, ///< first storing region, unlogged: its store waits
                 ///< in single_val_ for a one-fence commit
        kActive, ///< recovery_pc names the running region
        kTail,   ///< past the last store: recovery_pc inactive again
    };

    struct PendingRange
    {
        uint64_t off;
        uint32_t len;
    };

    /** Persist fence attributed to a site (`ido.fence.*`). */
    void fence(FenceSite site);

    /** Step 1 of the boundary protocol: persist OutputSet_r. */
    void persist_outputs(const rt::RegionMeta& meta,
                         const rt::RegionCtx& ctx, FenceSite site);

    /**
     * Lazy activation: persist the live-ins of every region from
     * `entry` (region idx's entry state) and the held locks' records,
     * then the first active recovery_pc, naming region idx.
     */
    void activate(const rt::FaseProgram& prog, uint32_t idx,
                  const rt::RegionCtx& entry);

    /**
     * Leave kSingle for the log: activate from the region-entry
     * snapshot, then replay the held store, if any, as an active store.
     */
    void fall_back_from_single();

    /** Commit the held store of a kSingle region: write, flush, fence. */
    void commit_single();

    /** Step 2: durably set recovery_pc. */
    void set_recovery_pc(uint64_t pc, FenceSite site);

    /** Start write-back of lock_bitmap and lock_array[0..top_slot]. */
    void flush_lock_record(size_t top_slot);

    /**
     * Persist one lock op of an active FASE: store lock_array[slot] and
     * the bitmap, flush, then fence.
     */
    void record_lock_op(size_t slot, uint64_t holder_off);

    /** Count the fences issued since `fences_before` as kAlloc. */
    void credit_alloc_fences(uint64_t fences_before);

    /** Panic unless the current region may allocate or free. */
    void require_storing_region(const char* what) const;

    /** Claim slot of the next entry; panics when the record is full. */
    uint32_t next_entry_slot(const char* what) const;

    /** Store and write back entry `slot` (no fence). */
    void write_entry(uint32_t slot, uint64_t tag, uint64_t block);

    /** After fence 1: mark this region's claimed blocks LIVE. */
    void mark_claimed_live();

    /** Deactivation: mark the recorded frees FREEING (before fence 2). */
    void begin_recorded_frees();

    /** After the deactivating fence 2: clear the free entries (the
     *  next reuse writes the clear back) and park the blocks. */
    void finish_recorded_frees();

    struct AllocEntryClaim;

    /** A block allocated in the current region, awaiting its LIVE mark. */
    struct ClaimedBlock
    {
        uint64_t raw;
        nvm::TypeId type;
        bool aligned;
    };

    IdoLogRec* rec_;
    uint64_t rec_off_;
    /** Held-lock slots; rec_->lock_bitmap matches it while active. */
    uint64_t lock_bitmap_mirror_ = 0;
    /**
     * Last value stored to rec_->lock_bitmap.  A deactivated tail
     * releases locks in the mirror only, so the record keeps their
     * bits (unread: the pc is inactive) until the next activation
     * clears them.
     */
    uint64_t rec_bitmap_ = 0;
    Phase phase_ = Phase::kPrefix;
    /** kSingle: the region's one store is held in single_val_, out of
     *  the heap.  Every load checks it, so it sits by phase_. */
    bool single_held_ = false;
    /** Activations of this record so far, packed into its pcs and tags. */
    uint32_t instance_ = 0;
    /** Entries the current FASE instance has recorded. */
    uint32_t entries_ = 0;
    /** entries_ when recovery_pc last named a region (its first slot). */
    uint32_t region_entries_ = 0;
    /** Running the region a recovery thread resumed: an allocation
     *  entry the crashed run left for the same call is taken back. */
    bool resuming_ = false;
    /** Adopted from a crashed run (recovery thread). */
    bool recovering_ = false;
    std::vector<ClaimedBlock> claimed_;
    /** Entry slots of the FASE's frees (their raw payloads wait in
     *  deferred_frees_ until the log deactivates). */
    uint8_t free_slots_ = 0;
    std::vector<PendingRange> pending_;
    /** Lines persist_outputs wrote back before the current fence 1. */
    std::vector<uintptr_t> line_scratch_;
    /** kSingle: the held store, and the region's entry registers for
     *  a late activation. */
    uint64_t single_off_ = 0;
    uint64_t single_val_ = 0;
    rt::RegionCtx single_entry_;
};

} // namespace ido
