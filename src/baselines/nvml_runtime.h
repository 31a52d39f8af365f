/**
 * @file
 * NVML (Intel's persistent-memory library, now PMDK): library-based
 * UNDO logging with programmer-delineated failure-atomic regions.
 *
 * NVML neither instruments locks nor tracks cross-FASE dependences --
 * the programmer is responsible for synchronization and for annotating
 * persistent accesses (paper Secs. V and V-A).  Its undo log works at
 * object granularity: the first write to an 8-byte chunk inside a
 * transaction snapshots the old value (one log flush + fence); repeat
 * writes to the same chunk are free.  Commit flushes the transaction's
 * data in place and retires the log with a single durable lap bump.
 *
 * The missing lock instrumentation is exactly why NVML beats Atlas on
 * single-threaded Redis (Fig. 6) -- Atlas's automatic dependence
 * tracking buys nothing there and costs fences.
 *
 * Lock discipline: locks released inside a transaction are *deferred*
 * to commit (two-phase locking), mirroring PMDK's pmemobj_tx_lock,
 * which holds transaction locks until the transaction ends.  Releasing
 * at the unlock site would let another thread read this transaction's
 * uncommitted (unflushed) stores; if the crash then drops them, the
 * reader's committed state embeds values that never became durable --
 * and the reader's own committed effects can be rolled back by this
 * transaction's undo log, resurrecting freed objects (observed as the
 * queue-invariant / allocator double-free flakes in the concurrent
 * crash sweeps).
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "common/cacheline.h"
#include "runtime/runtime.h"

namespace ido::baselines {

/** 32-byte undo entry, lap-tagged for O(1) truncation. */
struct NvmlEntry
{
    uint16_t type; ///< 1 = undo
    uint16_t size;
    uint32_t lap;
    uint64_t addr_off;
    uint64_t old_val;
    uint64_t pad;
};

static_assert(sizeof(NvmlEntry) == 32);

struct alignas(kCacheLineBytes) NvmlThreadLog
{
    uint64_t next;
    uint64_t thread_tag;
    uint64_t buf_off;
    uint64_t buf_bytes;
    uint64_t lap; ///< bumped at commit: entries with lap==header.lap are live
    uint64_t reserved[3];
};

static_assert(sizeof(NvmlThreadLog) == kCacheLineBytes);
// Runtime::log_records() walks the list through the link at offset 0.
static_assert(offsetof(NvmlThreadLog, next) == 0);

class NvmlRuntime final : public rt::Runtime
{
  public:
    NvmlRuntime(nvm::PersistentHeap& heap, nvm::PersistDomain& dom,
                const rt::RuntimeConfig& cfg);

    const char* name() const override { return "nvml"; }

    rt::RuntimeTraits
    traits() const override
    {
        return {"Programmer Delineated", "UNDO", "Object",
                /*dependence_tracking=*/false, /*transient_caches=*/true};
    }

    std::unique_ptr<rt::RuntimeThread> make_thread() override;
    void recover() override;

    uint64_t allocate_thread_log();
};

class NvmlThread final : public rt::RuntimeThread
{
  public:
    explicit NvmlThread(NvmlRuntime& rt);

  protected:
    void on_fase_begin(const rt::FaseProgram& prog,
                       rt::RegionCtx& ctx) override;
    void on_fase_end(const rt::FaseProgram& prog,
                     rt::RegionCtx& ctx) override;
    void do_store(uint64_t off, const void* src, size_t n) override;
    void do_lock(uint64_t holder_off, rt::TransientLock& l) override;
    void do_unlock(uint64_t holder_off, rt::TransientLock& l) override;

  private:
    NvmlThreadLog* log_;
    uint8_t* buf_;
    uint64_t cursor_ = 0;
    std::unordered_set<uint64_t> snapshotted_;
    std::vector<std::pair<uint64_t, uint32_t>> dirty_;
    /** Locks whose release is deferred to commit (2PL). */
    std::vector<std::pair<uint64_t, rt::TransientLock*>> tx_locks_;
};

} // namespace ido::baselines
