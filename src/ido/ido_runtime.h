/**
 * @file
 * The iDO failure-atomicity runtime (paper Sec. III-IV).
 *
 * Normal-execution protocol, per idempotent region boundary r -> s:
 *   1. write the output registers of r (Def_r ∩ LiveOut_r, Eq. 1) into
 *      their fixed intRF/floatRF slots, initiate write-back of the
 *      touched register-file lines (persist coalescing: up to eight
 *      registers per clflush) and of every heap line stored in r
 *      (pointer-accessed writes are tracked at run time), then fence;
 *   2. update recovery_pc to point at s, flush, fence;
 *   3. execute s.
 * Two persist fences per region, independent of the number of stores --
 * this is the paper's entire performance argument.
 *
 * Lock protocol (indirect locking, Sec. III-B): lock ownership records
 * (lock_array entry + bitmap bit) are persisted from activation on.  A
 * lock taken in a FASE's lazily-unactivated read-only prefix lives only
 * in the volatile mirror; activation writes every held lock's record
 * and boundary fence 1 orders it ahead of the activation recovery_pc.
 * After activation each acquire/release pays one persist fence.  A
 * FASE that never stores (a GET) thus pays no fence at all.
 */
#pragma once

#include <atomic>
#include <vector>

#include "ido/ido_log.h"
#include "runtime/runtime.h"

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

    /** Offsets of all linked log records (head first). */
    std::vector<uint64_t> log_rec_offsets();

  private:
    std::atomic<uint64_t> next_thread_tag_{1};
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
     */
    /** @return number of crash-held locks reclaimed (recovery stats). */
    uint64_t reacquire_crashed_locks();

    /** Recovery step 4: rebuild the register file from the log. */
    void restore_ctx(rt::RegionCtx& ctx) const;

    /**
     * Recovery step 5 epilogue.  A group-mode crash can leave a stale
     * ownership record: the unfenced slot-clear of an already-released
     * lock, resolved in favour of the older value.  Recovery then
     * reacquires a lock the resumed FASE never releases (its unlock
     * region names a different -- or no -- holder).  Releasing the
     * leftovers here restores the "no locks held after recovery"
     * post-condition; under the stock protocol this is a no-op.
     */
    void release_leftover_locks();

    /**
     * Group-persist mode (ido-serve group commit).  Between begin and
     * end, the two kinds of fences whose only role is to *publish
     * markers* are deferred:
     *
     *  - boundary fence 2 (recovery_pc advance) keeps its store+flush
     *    but fences lazily WHEN every region still to run in the FASE
     *    is store-free (the trailing unlock region, and the FASE-end
     *    inactive marker).  The durable pc then only LAGS program
     *    order across fenced, idempotent work, so every crash state is
     *    one the stock protocol already reaches between a boundary's
     *    fence 1 and fence 2.  The restriction is load-bearing: cache
     *    lines dirtied by a store persist (or not) independently at a
     *    crash, regardless of fences, so deferring the pc fence across
     *    a may_store region lets that region's lines persist while the
     *    pc drops -- recovery then resumes an earlier region against
     *    newer state (a cross-region WAR, e.g. a build region
     *    reloading a list head its link region already moved), or, for
     *    the activation pc, never resumes at all.  The crash-point
     *    sweep in test_group_commit.cpp exercises exactly this.
     *
     *  - lock-operation fences (Sec. III-B's one-fence-per-lock-op,
     *    paid only after activation) are deferred entirely.  Sound
     *    only under the group contract (runtime.h): every lock taken
     *    inside a group is thread-private, so a crash-torn ownership
     *    record at worst skips a reacquisition nobody contends, or
     *    reacquires a lock already released (both handled by the
     *    existing torn-record and idempotent-unlock paths).
     *
     * Boundary fence 1 (persist_outputs) is NEVER deferred: region
     * outputs must not be outrun by the pc line, and at activation it
     * also orders the read-only prefix's lock records.  end_persist_group
     * issues one closing fence covering every deferred marker, so a
     * reply released after it implies full durability of the batch.
     */
    void begin_persist_group() override;
    void end_persist_group() override;

  protected:
    void on_fase_begin(const rt::FaseProgram& prog,
                       rt::RegionCtx& ctx) override;
    void on_region_begin(const rt::FaseProgram& prog, uint32_t idx,
                         rt::RegionCtx& ctx) override;
    void on_region_boundary(const rt::FaseProgram& prog,
                            uint32_t finished_idx, rt::RegionCtx& ctx,
                            uint32_t next_idx) override;
    void do_store(uint64_t off, const void* src, size_t n) override;
    void do_store_covered(uint64_t off, const void* src,
                          size_t n) override;
    void do_lock(uint64_t holder_off, rt::TransientLock& l) override;
    void do_unlock(uint64_t holder_off, rt::TransientLock& l) override;

  private:
    /** Step 1 of the boundary protocol: persist OutputSet_r. */
    void persist_outputs(const rt::RegionMeta& meta,
                         const rt::RegionCtx& ctx);

    /**
     * Step 2: durably advance recovery_pc.  The fence is deferred
     * (group mode) only when `tail_read_only`: the caller asserts that
     * no may_store region runs before the next fence, the condition
     * that keeps a lagging durable pc sound (class comment above).
     */
    void advance_recovery_pc(uint64_t pc, bool tail_read_only);

    struct PendingRange
    {
        uint64_t off;
        uint32_t len;
    };

    /** Fence a deferred recovery_pc flush (group mode), if any. */
    void fence_pending_pc();

    /** Start write-back of lock_bitmap and lock_array[0..top_slot]. */
    void flush_lock_record(size_t top_slot);

    /**
     * Persist one lock op after activation: store lock_array[slot] and
     * the bitmap, flush, then fence (or defer to the batch close).
     */
    void record_lock_op(size_t slot, uint64_t holder_off);

    IdoLogRec* rec_;
    uint64_t rec_off_;
    /** Held-lock slots; rec_->lock_bitmap matches it once activated. */
    uint64_t lock_bitmap_mirror_ = 0;
    bool activated_ = false; ///< lazy: logging live for this FASE?
    bool group_mode_ = false;      ///< inside begin/end_persist_group?
    bool pc_flush_pending_ = false;   ///< recovery_pc flushed, unfenced
    bool marker_flush_pending_ = false; ///< lock records flushed, unfenced
    std::vector<PendingRange> pending_;
    /** Scratch for boundary-time pending-line dedup (flush_elision). */
    std::vector<uintptr_t> line_scratch_;
};

} // namespace ido
