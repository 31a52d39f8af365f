/**
 * @file
 * Atlas (Chakrabarti et al., OOPSLA 2014): lock-inferred FASEs with
 * UNDO logging -- the paper's primary baseline.
 *
 * Per persistent store, Atlas logs a 32-byte undo entry (address, old
 * value) that must persist *before* the in-place store: one cache-line
 * write-back plus one persist fence per store.  The FASE's own data
 * writes-back are delayed to the end of the FASE.  Lock acquires and
 * releases are also logged (with a global sequence number) because the
 * lack of isolation between FASEs forces Atlas to track cross-FASE
 * happens-before dependences: recovery must roll back not only the
 * FASEs that were interrupted by the crash, but every completed FASE
 * that transitively observed their data (paper Secs. I and V).
 *
 * Log validity is self-certifying: each entry carries the log's current
 * lap tag, so truncation after recovery (and wrap-around during long
 * runs) is a single durable lap increment rather than a buffer wipe.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "common/cacheline.h"
#include "runtime/runtime.h"

namespace ido::baselines {

enum class AtlasEntryType : uint16_t
{
    kInvalid = 0,
    kStore = 1,
    kAcquire = 2,
    kRelease = 3,
    kFaseBegin = 4,
    kFaseEnd = 5,
};

/** One 32-byte log entry (the paper cites 32 bytes/store for Atlas). */
struct AtlasEntry
{
    uint16_t type;     ///< AtlasEntryType
    uint16_t size;     ///< store size in bytes (<= 8)
    uint32_t lap;      ///< validity tag; must match the log header
    uint64_t addr_off; ///< store: heap offset; sync: lock holder offset
    uint64_t old_val;  ///< store: previous value (undo data)
    uint64_t seq;      ///< sync & FASE markers: global sequence number
};

static_assert(sizeof(AtlasEntry) == 32);

/** Per-thread persistent log descriptor. */
struct alignas(kCacheLineBytes) AtlasThreadLog
{
    uint64_t next;
    uint64_t thread_tag;
    uint64_t buf_off;   ///< offset of the entry buffer
    uint64_t buf_bytes; ///< buffer capacity
    uint64_t lap;       ///< current lap (durable)
    uint64_t reserved[3];
};

static_assert(sizeof(AtlasThreadLog) == kCacheLineBytes);
// Runtime::log_records() walks the list through the link at offset 0.
static_assert(offsetof(AtlasThreadLog, next) == 0);

class AtlasRuntime final : public rt::Runtime
{
  public:
    AtlasRuntime(nvm::PersistentHeap& heap, nvm::PersistDomain& dom,
                 const rt::RuntimeConfig& cfg);

    const char* name() const override { return "atlas"; }

    rt::RuntimeTraits
    traits() const override
    {
        return {"Lock-inferred FASE", "UNDO", "Store",
                /*dependence_tracking=*/true, /*transient_caches=*/true};
    }

    std::unique_ptr<rt::RuntimeThread> make_thread() override;

    /**
     * Rollback recovery: scan every thread log, reconstruct FASE
     * instances and their happens-before edges, doom interrupted FASEs
     * and (transitively) their dependents, and undo their stores in
     * reverse order.  Cost is proportional to total log volume, which
     * is what Table I measures.
     */
    void recover() override;

    uint64_t allocate_thread_log();

    uint64_t
    next_seq()
    {
        return seq_.fetch_add(1, std::memory_order_acq_rel);
    }

  private:
    std::atomic<uint64_t> seq_{1};
};

class AtlasThread final : public rt::RuntimeThread
{
  public:
    explicit AtlasThread(AtlasRuntime& rt);

  protected:
    void on_fase_begin(const rt::FaseProgram& prog,
                       rt::RegionCtx& ctx) override;
    void on_fase_end(const rt::FaseProgram& prog,
                     rt::RegionCtx& ctx) override;
    void do_store(uint64_t off, const void* src, size_t n) override;
    void do_lock(uint64_t holder_off, rt::TransientLock& l) override;
    void do_unlock(uint64_t holder_off, rt::TransientLock& l) override;

  private:
    /** Append one entry (no fence); caller orders with a fence. */
    void append(AtlasEntry e);

    AtlasRuntime& atlas_rt_;
    AtlasThreadLog* log_;
    uint8_t* buf_;
    uint64_t cursor_ = 0; ///< volatile append position
    std::vector<std::pair<uint64_t, uint32_t>> dirty_;
};

} // namespace ido::baselines
