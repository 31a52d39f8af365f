/**
 * @file
 * JUSTDO logging (Izraelevitz et al., ASPLOS 2016) -- the paper's
 * closest ancestor and a key baseline.
 *
 * Like iDO it recovers via resumption, but it logs at *store*
 * granularity: immediately before each persistent store it persists
 * (program counter, address, value), and on conventional hardware both
 * the log entry and the store itself must be ordered with persist
 * fences -- two fences per store.  Lock operations maintain a lock
 * intention record and a lock ownership record, each with its own
 * fence: two fences per lock op versus iDO's one (Sec. III-B).
 *
 * As in the paper's own evaluation (Sec. V), this implementation adopts
 * the iDO strategy of keeping the program "stack" (here: the RegionCtx)
 * in nonvolatile memory: the full register file is persisted at region
 * boundaries, modeling JUSTDO's prohibition on volatile state inside
 * FASEs.  Recovery re-applies the last logged store and resumes at the
 * recorded region -- a faithful analogue of JUSTDO's resume-at-PC on
 * our region-structured programs.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "common/cacheline.h"
#include "runtime/runtime.h"

namespace ido::baselines {

/**
 * One resume snapshot: the recovery pc together with the register file
 * it belongs to.  The record holds two of these, written alternately:
 * a boundary fills the inactive buffer (fence), then flips the
 * `cur_snap` selector (fence).  A crash between the two fences leaves
 * the selector on the old -- complete -- snapshot, so recovery never
 * observes a pc from one boundary paired with registers from another.
 * (With a single buffer that torn pairing is reachable: the register
 * lines persist at fence 1, the pc line at fence 2, and resuming the
 * old region with the next region's entry registers walks garbage.)
 */
struct alignas(kCacheLineBytes) JustdoCtxSnapshot
{
    // line 0: the resume point this register file belongs to
    uint64_t recovery_pc; ///< pack(fase, region) or kInactivePc
    uint64_t pad0[7];

    // lines 1-2: integer register file ("stack in NVM")
    uint64_t intRF[rt::kNumIntRegs];

    // line 3: float register file
    double floatRF[rt::kNumFloatRegs];
};

static_assert(sizeof(JustdoCtxSnapshot) == 4 * kCacheLineBytes);

/** Per-thread persistent JUSTDO log record. */
struct alignas(kCacheLineBytes) JustdoLogRec
{
    // line 0: control
    uint64_t next;
    uint64_t thread_tag;
    uint64_t cur_snap; ///< index (0/1) of the current snapshot
    uint64_t lock_bitmap;
    uint64_t lock_intention; ///< holder being acquired/released, 0 = none
    uint64_t reserved[3];

    // line 1: the per-store log entry
    uint64_t st_addr_off; ///< heap offset of the pending store, 0 = none
    uint64_t st_val;
    uint64_t st_size;
    uint64_t st_pc; ///< (region << 16) | store ordinal, diagnostic
    uint64_t pad1[4];

    // lines 2-9: double-buffered resume snapshots
    JustdoCtxSnapshot snap[2];

    // lines 10-11: lock ownership array
    uint64_t lock_array[16];

    /** The snapshot the selector currently points at. */
    const JustdoCtxSnapshot& cur() const { return snap[cur_snap & 1]; }
};

static_assert(sizeof(JustdoLogRec) == 12 * kCacheLineBytes);
// Runtime::log_records() walks the list through the link at offset 0.
static_assert(offsetof(JustdoLogRec, next) == 0);

class JustdoRuntime final : public rt::Runtime
{
  public:
    JustdoRuntime(nvm::PersistentHeap& heap, nvm::PersistDomain& dom,
                  const rt::RuntimeConfig& cfg);

    const char* name() const override { return "justdo"; }

    rt::RuntimeTraits
    traits() const override
    {
        return {"Lock-inferred FASE", "Resumption", "Store",
                /*dependence_tracking=*/false,
                /*transient_caches=*/false};
    }

    std::unique_ptr<rt::RuntimeThread> make_thread() override;
    void recover() override;

    uint64_t allocate_log_rec();
};

class JustdoThread final : public rt::RuntimeThread
{
  public:
    explicit JustdoThread(JustdoRuntime& rt);
    JustdoThread(JustdoRuntime& rt, uint64_t existing_rec_off);

    JustdoLogRec* rec() { return rec_; }

    void reacquire_crashed_locks();
    void restore_ctx(rt::RegionCtx& ctx) const;

    /** Re-apply the last logged (possibly lost) store, durably. */
    void redo_pending_store();

  protected:
    void on_fase_begin(const rt::FaseProgram& prog,
                       rt::RegionCtx& ctx) override;
    void on_region_boundary(const rt::FaseProgram& prog,
                            uint32_t finished_idx, rt::RegionCtx& ctx,
                            uint32_t next_idx) override;
    void do_store(uint64_t off, const void* src, size_t n) override;
    void do_lock(uint64_t holder_off, rt::TransientLock& l) override;
    void do_unlock(uint64_t holder_off, rt::TransientLock& l) override;

  private:
    /**
     * Durably publish (ctx, pc) as the new resume snapshot: write the
     * inactive buffer, fence, flip `cur_snap` (also retiring the
     * pending-store entry with the same fence), fence.
     */
    void persist_snapshot(const rt::RegionCtx& ctx, uint64_t pc,
                          bool retire_store);
    void log_one_store(uint64_t off, uint64_t val, uint64_t size);

    JustdoLogRec* rec_;
    uint64_t rec_off_;
    uint64_t lock_bitmap_mirror_ = 0;
    uint64_t cur_snap_mirror_ = 0;
    uint32_t store_ordinal_ = 0;
};

} // namespace ido::baselines
