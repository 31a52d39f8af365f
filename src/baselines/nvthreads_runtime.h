/**
 * @file
 * NVThreads (Hsu et al., EuroSys 2017): lock-based REDO logging at
 * *page* granularity.
 *
 * Critical sections run against copy-on-write page buffers; at each
 * outermost lock release (and at the end of programmer-delineated
 * durable regions) the dirty pages are persisted to a per-thread redo
 * log with a commit record, then merged in place.  Logging whole pages
 * makes small critical sections extremely expensive -- the flat curves
 * of Figs. 5 and 7 -- but costs nothing per individual store.
 *
 * Unlike real NVThreads (which relies on OS page protection and its
 * own dependence tracking to resolve page-level write sharing), we
 * track dirty 8-byte chunks within each page and merge only those at
 * commit, so false page sharing between threads never loses updates.
 */
#pragma once

#include <array>
#include <bitset>
#include <memory>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/cacheline.h"
#include "runtime/runtime.h"

namespace ido::baselines {

constexpr size_t kNvtPageBytes = 4096;
constexpr size_t kNvtChunksPerPage = kNvtPageBytes / 8;

/** On-log page record: header line + bitmap line + page image. */
struct NvtPageLogEntry
{
    uint64_t page_off;
    uint64_t reserved[7];
    uint64_t dirty_bitmap[kNvtChunksPerPage / 64]; // 512 bits
    uint8_t data[kNvtPageBytes];
};

static_assert(sizeof(NvtPageLogEntry) == 128 + kNvtPageBytes);
static_assert(sizeof(NvtPageLogEntry) % kCacheLineBytes == 0);

struct alignas(kCacheLineBytes) NvthreadsThreadLog
{
    uint64_t next;
    uint64_t thread_tag;
    uint64_t buf_off;
    uint64_t buf_bytes;
    uint64_t npages;    ///< pages in the pending commit
    uint64_t committed; ///< 1 while a commit is being applied
    uint64_t reserved[2];
};

static_assert(sizeof(NvthreadsThreadLog) == kCacheLineBytes);
// Runtime::log_records() walks the list through the link at offset 0.
static_assert(offsetof(NvthreadsThreadLog, next) == 0);

class NvthreadsRuntime final : public rt::Runtime
{
  public:
    NvthreadsRuntime(nvm::PersistentHeap& heap, nvm::PersistDomain& dom,
                     const rt::RuntimeConfig& cfg);

    const char* name() const override { return "nvthreads"; }

    rt::RuntimeTraits
    traits() const override
    {
        return {"Lock-inferred FASE", "REDO", "Page",
                /*dependence_tracking=*/true, /*transient_caches=*/true};
    }

    std::unique_ptr<rt::RuntimeThread> make_thread() override;
    void recover() override;

    uint64_t allocate_thread_log();
};

class NvthreadsThread final : public rt::RuntimeThread
{
  public:
    explicit NvthreadsThread(NvthreadsRuntime& rt);

  protected:
    void on_fase_end(const rt::FaseProgram& prog,
                     rt::RegionCtx& ctx) override;
    void do_load(uint64_t off, void* dst, size_t n) override;
    void do_store(uint64_t off, const void* src, size_t n) override;
    void do_unlock(uint64_t holder_off, rt::TransientLock& l) override;

  private:
    struct PageCopy
    {
        std::array<uint8_t, kNvtPageBytes> data;
        std::bitset<kNvtChunksPerPage> dirty;
    };

    PageCopy& copy_for(uint64_t page_off);

    /** Persist + merge all dirty pages (the lock-release commit). */
    void commit_pages();

    NvthreadsThreadLog* log_;
    uint8_t* buf_;
    std::unordered_map<uint64_t, std::unique_ptr<PageCopy>> pages_;
};

} // namespace ido::baselines
