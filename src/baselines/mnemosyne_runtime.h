/**
 * @file
 * Mnemosyne (Volos et al., ASPLOS 2011): REDO-logged durable
 * transactions.
 *
 * As in the paper's evaluation, FASEs are treated as "critical sections
 * on a single global lock, with a speculative implementation"
 * (Sec. V): readers run optimistically against a global version word
 * (TML-style), writers buffer updates in a redo write-set and serialize
 * at commit.  Lock operations inside the FASE are subsumed by the
 * transaction and cost nothing -- which is why Mnemosyne wins at low
 * thread counts and on coarse-lock code (memcached 1.2.4, the ordered
 * list) -- while the single commit point saturates as concurrency
 * grows, which is why iDO overtakes it at scale (Figs. 5 and 7).
 *
 * Durability: at commit the write-set is persisted to a per-thread redo
 * log (flush + fence), a committed flag is set durably, the updates are
 * applied in place and flushed, and the flag is cleared.  Recovery
 * replays any log whose committed flag survived and discards the rest.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/cacheline.h"
#include "runtime/runtime.h"

namespace ido::baselines {

/** Internal control transfer on speculation failure. */
struct TxAbort
{
};

/** Per-thread persistent redo-log descriptor. */
struct alignas(kCacheLineBytes) MnemosyneThreadLog
{
    uint64_t next;
    uint64_t thread_tag;
    uint64_t buf_off;
    uint64_t buf_bytes;
    uint64_t count;     ///< valid entries, durable before committed
    uint64_t committed; ///< 1 while a commit is being applied
    uint64_t reserved[2];
};

static_assert(sizeof(MnemosyneThreadLog) == kCacheLineBytes);
// Runtime::log_records() walks the list through the link at offset 0.
static_assert(offsetof(MnemosyneThreadLog, next) == 0);

/** 16-byte redo entry: one 8-byte-aligned chunk. */
struct RedoEntry
{
    uint64_t chunk_off;
    uint64_t val;
};

class MnemosyneRuntime final : public rt::Runtime
{
  public:
    MnemosyneRuntime(nvm::PersistentHeap& heap, nvm::PersistDomain& dom,
                     const rt::RuntimeConfig& cfg);

    const char* name() const override { return "mnemosyne"; }

    rt::RuntimeTraits
    traits() const override
    {
        return {"C++ Transactions", "REDO", "Store",
                /*dependence_tracking=*/false, /*transient_caches=*/true};
    }

    std::unique_ptr<rt::RuntimeThread> make_thread() override;
    void recover() override;

    uint64_t allocate_thread_log();

    /** TML global version word: even = quiescent, odd = writer active. */
    std::atomic<uint64_t>& global_version() { return version_.value; }

  private:
    Padded<std::atomic<uint64_t>> version_{};
};

class MnemosyneThread final : public rt::RuntimeThread
{
  public:
    explicit MnemosyneThread(MnemosyneRuntime& rt);

    /** Speculative execution with retry (replaces the base driver). */
    void run_fase(const rt::FaseProgram& prog, rt::RegionCtx& ctx) override;

    uint64_t nv_alloc(size_t n) override;

    uint64_t aborts() const { return aborts_; }

  protected:
    /** Writers apply their redo in place while the global version is
     *  odd, and take no program locks: readers validate against it. */
    const std::atomic<uint64_t>&
    read_sequence(uint64_t) override
    {
        return mn_rt_.global_version();
    }

    void do_load(uint64_t off, void* dst, size_t n) override;
    void do_store(uint64_t off, const void* src, size_t n) override;
    void do_lock(uint64_t holder_off, rt::TransientLock& l) override;
    void do_unlock(uint64_t holder_off, rt::TransientLock& l) override;

  private:
    void tx_begin();
    void tx_commit();
    void tx_abort_cleanup();
    uint64_t read_chunk(uint64_t chunk_off);

    MnemosyneRuntime& mn_rt_;
    MnemosyneThreadLog* log_;
    uint8_t* buf_;
    std::unordered_map<uint64_t, uint64_t> write_set_; ///< chunk -> value
    std::vector<uint64_t> write_order_; ///< chunks in first-write order
    std::vector<uint64_t> attempt_allocs_;
    uint64_t start_version_ = 0;
    uint64_t aborts_ = 0;
    bool in_tx_ = false;
};

} // namespace ido::baselines
