/**
 * @file
 * The failure-atomicity runtime API.
 *
 * Every system evaluated in the paper (iDO, Atlas, Mnemosyne, JUSTDO,
 * NVML, NVThreads, Origin) is a subclass pair of Runtime (process-wide
 * state: heap, allocator, lock table, logs) and RuntimeThread (the
 * per-thread instrumented execution engine).  Data-structure and
 * application code is written once, as FasePrograms whose region bodies
 * access persistent memory exclusively through RuntimeThread; the
 * subclass hooks implement each system's logging protocol.  This mirrors
 * the paper's methodology: "all runtimes use the same FASEs".
 *
 * Execution contract for region bodies (enforced in checked builds):
 *  - all persistent data access goes through load_/store_ methods,
 *    addressed by heap offset;
 *  - no region loads a location and later stores it (antidependence
 *    freedom, Sec. II-C); register reuse is fine -- recovery restores
 *    the register file from the log's boundary snapshot -- but any
 *    register a region redefines and a successor consumes must be in
 *    its output mask;
 *  - fase_unlock may appear only before the region's first store;
 *    fase_lock only after its last store (the compiler places region
 *    boundaries immediately after acquires and before releases,
 *    Sec. III-B);
 *  - nv_free is deferred by the runtime to FASE completion, so a
 *    re-executed region never double-frees (iDO records it in its log
 *    so a crash cannot lose it either; ido_runtime.h).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "nvm/nv_heap.h"
#include "nvm/persist_domain.h"
#include "nvm/persistent_heap.h"
#include "runtime/crash_sim.h"
#include "runtime/fase_program.h"
#include "runtime/indirect_lock.h"
#include "runtime/region_ctx.h"

namespace ido::rt {

/** Qualitative system properties (paper Table II). */
struct RuntimeTraits
{
    const char* semantics;    ///< failure-atomic region semantics
    const char* recovery;     ///< UNDO / REDO / Resumption
    const char* granularity;  ///< logging granularity
    bool dependence_tracking; ///< needs cross-FASE dependence tracking?
    bool transient_caches;    ///< designed for volatile caches?
};

struct RuntimeConfig
{
    /** Record Fig. 8 region statistics into the registry's region.*
     *  recorders (stats/region_stats.h; off for scalability runs). */
    bool collect_region_stats = false;

    /** Enable the idempotence/contract checker (tests only). */
    bool check_contracts = false;

    /** Per-thread Atlas/JUSTDO/Mnemosyne/NVThreads log bytes. */
    size_t log_bytes_per_thread = 1u << 20;

    /**
     * No effect.  Recovery once ran a whole-heap GC, in repair mode
     * when this was set; iDO FASEs now log their allocations and frees,
     * so recovery leaves no leak to collect and walks no heap (audit
     * with `ido_heap audit`).  Kept only because the repo benchmark's
     * harness still assigns it; the field is deleted once that
     * assignment is dropped in a benchmark-only change.
     */
    bool gc_repair_on_recovery = false;
};

class RuntimeThread;

/** Process-wide runtime state; one instance per run epoch. */
class Runtime
{
  public:
    Runtime(nvm::PersistentHeap& heap, nvm::PersistDomain& dom,
            const RuntimeConfig& cfg);
    virtual ~Runtime();

    Runtime(const Runtime&) = delete;
    Runtime& operator=(const Runtime&) = delete;

    virtual const char* name() const = 0;
    virtual RuntimeTraits traits() const = 0;

    /**
     * Create the execution engine for the calling worker thread.
     * Runtimes that keep persistent per-thread logs allocate and link
     * them here.  Thread safe.
     */
    virtual std::unique_ptr<RuntimeThread> make_thread() = 0;

    /**
     * Post-crash recovery.  Requires all FasePrograms of the crashed
     * run to be re-registered with FaseRegistry.  On return, persistent
     * state is consistent and no locks are held.
     */
    virtual void recover() = 0;

    /** Whether recover() is implemented (Origin's is not). */
    virtual bool supports_recovery() const { return true; }

    nvm::PersistentHeap& heap() { return heap_; }
    nvm::PersistDomain& domain() { return dom_; }
    nvm::NvHeap& allocator() { return alloc_; }
    LockTable& locks() { return locks_; }
    CrashScheduler& crash_scheduler() { return crash_; }
    const RuntimeConfig& config() const { return cfg_; }

    /**
     * Offsets of the per-thread log records linked from root slot
     * `head` (head first; empty if the slot is unset).  Every
     * runtime's log record type keeps its `next` heap offset (0 = end)
     * at offset 0, static_asserted beside the type, so this one walk
     * serves them all.
     */
    std::vector<uint64_t> log_records(nvm::RootSlot head) const;

  protected:
    /** Fresh nonzero diagnostic tag for a newly linked log record. */
    uint64_t
    next_thread_tag()
    {
        return next_thread_tag_.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * Durably advance the heap's persistent lock-epoch counter
     * (RootSlot::kLockEpoch) and move the lock table onto the new
     * epoch.  Called at construction and by every recovery path:
     * holder slots cache *transient* lock pointers tagged with the
     * writer's epoch, and those writers include crashed processes, so
     * the tag sequence must be unique per heap across process
     * lifetimes -- a per-process counter would repeat after a restart
     * and resurrect a dead process's pointers.
     */
    uint32_t bump_lock_epoch();

    nvm::PersistentHeap& heap_;
    nvm::PersistDomain& dom_;
    RuntimeConfig cfg_;
    nvm::NvHeap alloc_;
    LockTable locks_;
    CrashScheduler crash_;

  private:
    std::atomic<uint64_t> next_thread_tag_{1};
};

/**
 * Per-thread instrumented execution engine.  Drives FasePrograms and
 * exposes the persistent-memory access API used by region bodies.
 */
class RuntimeThread
{
  public:
    explicit RuntimeThread(Runtime& rt);
    virtual ~RuntimeThread();

    RuntimeThread(const RuntimeThread&) = delete;
    RuntimeThread& operator=(const RuntimeThread&) = delete;

    Runtime& runtime() { return rt_; }
    nvm::PersistentHeap& heap() { return rt_.heap(); }
    nvm::PersistDomain& dom() { return rt_.domain(); }

    // ---- FASE execution ------------------------------------------------

    /**
     * Execute one failure-atomic section from its first region.
     * ctx carries the FASE arguments in, and results out.
     */
    virtual void run_fase(const FaseProgram& prog, RegionCtx& ctx);

    /**
     * Resume an interrupted FASE at a given region with restored live
     * state (recovery path; skips the FASE-begin instrumentation).
     */
    void resume_fase(const FaseProgram& prog, uint32_t start_region,
                     RegionCtx& ctx);

    // ---- persistent data access (for region bodies) --------------------

    uint64_t load_u64(uint64_t off);
    void store_u64(uint64_t off, uint64_t v);
    void load_bytes(uint64_t off, void* dst, size_t n);
    void store_bytes(uint64_t off, const void* src, size_t n);

    // ---- allocation -----------------------------------------------------

    /**
     * Allocate persistent memory.  Under iDO a FASE allocation is
     * logged, so a crash never leaks it and a resumed region gets the
     * same block back (ido_runtime.h); the baselines may leak (never
     * corrupt) a block allocated by a crashed FASE.
     */
    virtual uint64_t nv_alloc(size_t n);

    /**
     * Typed allocation: tag the block's header with its TypeId so the
     * heap GC can trace it from the root registry's descriptors.  The
     * tag rides a pending slot consumed by the virtual nv_alloc, so
     * subclass logging hooks still run.
     */
    uint64_t
    nv_alloc_as(nvm::TypeId type, size_t n)
    {
        pending_alloc_type_ = type;
        return nv_alloc(n);
    }

    /** Free persistent memory; deferred until the FASE commits. */
    virtual void nv_free(uint64_t off);

    // ---- FASE-boundary locks --------------------------------------------

    /**
     * Acquire the lock whose indirect holder slot lives at holder_off.
     * Idempotent: a no-op if this thread already holds it (which is how
     * recovery re-execution stays safe).
     */
    void fase_lock(uint64_t holder_off);

    /** Release; idempotent like fase_lock. */
    void fase_unlock(uint64_t holder_off);

    bool holds_lock(uint64_t holder_off) const;
    size_t locks_held() const { return held_.size(); }

    // ---- validated reads ------------------------------------------------

    /**
     * Run `body`, a read-only pass over data guarded by the lock whose
     * holder slot is at holder_off, without taking that lock: wait
     * while a writer holds it, run body, and run body again whenever a
     * writer took the lock meanwhile.  The result returned comes from a
     * pass no critical section overlapped, so it is a state a locked
     * read could have seen, durability included: every runtime
     * releases its locks only once a locked reader may see the data
     * (DESIGN.md §5a).  No FASE, no crash opportunity, no persist
     * traffic.
     *
     * body may see torn state and must survive it: it checks every
     * offset it follows against the heap and bounds every walk.  The
     * caller must not hold the lock.  Throws SimCrashException when a
     * simulated crash has fired while a writer holds the lock, since
     * that writer will never release it.
     */
    template <typename Body>
    auto
    read_validated(uint64_t holder_off, Body&& body)
    {
        const std::atomic<uint64_t>& seq = read_sequence(holder_off);
        for (;;) {
            uint64_t s = seq_read_begin(seq);
            if ((s & 1) != 0) [[unlikely]]
                s = wait_for_writer(seq, holder_off);
            auto result = body();
            if (seq_read_valid(seq, s)) [[likely]]
                return result;
            note_read_retry();
        }
    }

    /** Crash-injection opportunity (no-op unless a test armed it). */
    void
    crash_tick()
    {
        rt_.crash_scheduler().tick();
    }

    /** Program currently executing (null outside run_fase). */
    const FaseProgram* current_program() const { return cur_prog_; }

    /** Index of the region currently executing. */
    uint32_t current_region() const { return cur_region_; }

  protected:
    // ---- per-runtime instrumentation hooks ------------------------------

    /** Before region 0 of a FASE executes. */
    virtual void on_fase_begin(const FaseProgram& prog, RegionCtx& ctx);

    /** Before each region body runs (iDO's lazy log activation). */
    virtual void on_region_begin(const FaseProgram& prog, uint32_t idx,
                                 RegionCtx& ctx);

    /**
     * After region finished_idx completed; next_idx is its successor or
     * kRegionEnd.  This is where iDO runs the 3-step boundary protocol.
     */
    virtual void on_region_boundary(const FaseProgram& prog,
                                    uint32_t finished_idx, RegionCtx& ctx,
                                    uint32_t next_idx);

    /** After the last boundary of a FASE. */
    virtual void on_fase_end(const FaseProgram& prog, RegionCtx& ctx);

    /** Data-access instrumentation (default: direct via the domain). */
    virtual void do_load(uint64_t off, void* dst, size_t n);
    virtual void do_store(uint64_t off, const void* src, size_t n);

    /**
     * The version word read_validated checks for holder_off's data:
     * the transient lock's sequence.  Mnemosyne takes no program
     * locks and overrides it with its global version.
     */
    virtual const std::atomic<uint64_t>& read_sequence(uint64_t holder_off);

    /** Lock instrumentation around the transient acquire/release. */
    virtual void do_lock(uint64_t holder_off, TransientLock& l);
    virtual void do_unlock(uint64_t holder_off, TransientLock& l);

    /**
     * Acquire a transient lock, aborting if a simulated crash fires.
     * holder_off (when known) labels the contention trace event.
     */
    void acquire_transient(TransientLock& l, uint64_t holder_off = 0);

    /** read_validated's cold paths: wait until `seq` is even (counted
     *  in rt.read.waits) and return it; count a failed validation
     *  (rt.read.retries). */
    uint64_t wait_for_writer(const std::atomic<uint64_t>& seq,
                             uint64_t holder_off);
    void note_read_retry();

    /** Execute deferred frees after FASE commit. */
    void drain_deferred_frees();

    struct HeldLock
    {
        uint64_t holder_off;
        uint8_t slot; ///< lock_array slot (used by iDO/JUSTDO)
        /** The transient lock acquired, which fase_unlock releases
         *  whatever the holder slot resolves to by then.  The word is a
         *  sequence, so releasing a lock never acquired would leave it
         *  odd, held by nobody, forever. */
        TransientLock* lock;
    };

    /** The entry of held_ for holder_off, or null. */
    const HeldLock* find_held(uint64_t holder_off) const;

    /** The driver loop (exposed so Mnemosyne can wrap it in a retry). */
    void run_regions(const FaseProgram& prog, uint32_t start, RegionCtx& ctx);

    Runtime& rt_;
    std::vector<HeldLock> held_;
    std::vector<uint64_t> deferred_frees_;

    // Driver bookkeeping (accessible to subclasses for logging).
    const FaseProgram* cur_prog_ = nullptr;
    uint32_t cur_region_ = 0;
    uint32_t region_stores_ = 0;
    bool in_fase_ = false;
    bool lock_taken_in_region_ = false;
    nvm::TypeId pending_alloc_type_ = nvm::TypeId::kUntyped;

  private:

    // Contract checker state (cfg.check_contracts only).
    void checker_region_entry(const RegionMeta& meta, const RegionCtx& ctx);
    void checker_region_exit(const RegionMeta& meta, const RegionCtx& ctx,
                             uint32_t next_idx);
    void checker_on_load(uint64_t off, size_t n);
    void checker_on_store(uint64_t off, size_t n);

    std::unordered_set<uint64_t> loaded_chunks_;
    std::unordered_set<uint64_t> stored_chunks_;
    RegionCtx ctx_snapshot_;
    uint32_t tainted_int_ = 0;
    uint32_t tainted_float_ = 0;
};

} // namespace ido::rt
