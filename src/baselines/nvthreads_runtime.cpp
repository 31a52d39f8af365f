#include "baselines/nvthreads_runtime.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "common/panic.h"
#include "stats/persist_stats.h"
#include "trace/trace.h"

namespace ido::baselines {

namespace {

// GC layout facts for the audit's mark.
const bool g_nvthreads_log_type = [] {
    nvm::TypeDescriptor d;
    d.name = "nvthreads_log";
    d.payload_size = sizeof(NvthreadsThreadLog);
    d.link_offsets = {offsetof(NvthreadsThreadLog, next),
                      offsetof(NvthreadsThreadLog, buf_off)};
    nvm::TypeRegistry::instance().register_type(nvm::TypeId::kNvthreadsLog,
                                                std::move(d));
    return true;
}();

} // namespace

NvthreadsRuntime::NvthreadsRuntime(nvm::PersistentHeap& heap,
                                   nvm::PersistDomain& dom,
                                   const rt::RuntimeConfig& cfg)
    : Runtime(heap, dom, cfg)
{
}

uint64_t
NvthreadsRuntime::allocate_thread_log()
{
    // Room for a handful of pages per commit is plenty for the paper's
    // workloads (each critical section touches a few pages at most).
    const size_t buf_bytes =
        std::max<size_t>(cfg_.log_bytes_per_thread,
                         16 * sizeof(NvtPageLogEntry));
    const uint64_t buf_off =
        alloc_.alloc_aligned(buf_bytes, dom_, nvm::TypeId::kLogBuffer);
    IDO_ASSERT(buf_off != 0, "out of persistent memory for NVThreads logs");
    const uint64_t log_off = alloc_.alloc_linked(
        nvm::RootSlot::kNvthreadsState, nvm::TypeId::kNvthreadsLog,
        sizeof(NvthreadsThreadLog), dom_,
        [&](void* log, uint64_t prev_head) {
            NvthreadsThreadLog init{};
            init.next = prev_head;
            init.thread_tag = next_thread_tag();
            init.buf_off = buf_off;
            init.buf_bytes = buf_bytes;
            dom_.store(log, &init, sizeof(init));
        });
    IDO_ASSERT(log_off != 0, "out of persistent memory for NVThreads logs");
    return log_off;
}

std::unique_ptr<rt::RuntimeThread>
NvthreadsRuntime::make_thread()
{
    return std::make_unique<NvthreadsThread>(*this);
}

void
NvthreadsRuntime::recover()
{
    bump_lock_epoch();
    // Relink any block the crashed epoch stranded mid-free (NvHeap's
    // online leak reclamation, from the census the attach took).
    alloc_.recover_leaks(dom_);
    trace::emit(trace::EventKind::kRecoveryBegin, 5);
    for (uint64_t off : log_records(nvm::RootSlot::kNvthreadsState)) {
        auto* log = heap_.resolve<NvthreadsThreadLog>(off);
        if (dom_.load_val(&log->committed) != 1)
            continue; // commit never became durable: discard buffers
        const uint64_t npages = dom_.load_val(&log->npages);
        const auto* buf = heap_.resolve<uint8_t>(log->buf_off);
        trace::emit(trace::EventKind::kRecoverUndoBegin, off);
        for (uint64_t i = 0; i < npages; ++i) {
            const auto* e = reinterpret_cast<const NvtPageLogEntry*>(
                buf + i * sizeof(NvtPageLogEntry));
            const uint64_t page_off = dom_.load_val(&e->page_off);
            // Replay only the chunks this commit actually dirtied, so
            // other threads' newer data on the same page survives.
            for (size_t c = 0; c < kNvtChunksPerPage; ++c) {
                const uint64_t word =
                    dom_.load_val(&e->dirty_bitmap[c / 64]);
                if (!(word & (1ull << (c % 64))))
                    continue;
                void* p = heap_.resolve<void>(page_off + c * 8);
                uint64_t v;
                dom_.load(e->data + c * 8, &v, 8);
                dom_.store(p, &v, 8);
                dom_.flush(p, 8);
            }
        }
        dom_.fence();
        dom_.store_val(&log->committed, uint64_t{0});
        dom_.flush(&log->committed, sizeof(uint64_t));
        dom_.fence();
        trace::emit(trace::EventKind::kRecoverUndoEnd, off, npages);
    }
    trace::emit(trace::EventKind::kRecoveryEnd, 5);
}

// --------------------------------------------------------------------------
// NvthreadsThread
// --------------------------------------------------------------------------

NvthreadsThread::NvthreadsThread(NvthreadsRuntime& rt)
    : RuntimeThread(rt)
{
    const uint64_t log_off = rt.allocate_thread_log();
    log_ = heap().resolve<NvthreadsThreadLog>(log_off);
    buf_ = heap().resolve<uint8_t>(log_->buf_off);
}

NvthreadsThread::PageCopy&
NvthreadsThread::copy_for(uint64_t page_off)
{
    auto it = pages_.find(page_off);
    if (it == pages_.end()) {
        auto copy = std::make_unique<PageCopy>();
        dom().load(heap().resolve<void>(page_off), copy->data.data(),
                   kNvtPageBytes);
        it = pages_.emplace(page_off, std::move(copy)).first;
    }
    return *it->second;
}

void
NvthreadsThread::do_store(uint64_t off, const void* src, size_t n)
{
    if (!in_fase_) {
        void* p = heap().resolve<void>(off);
        dom().store(p, src, n);
        dom().flush(p, n);
        dom().fence();
        return;
    }
    const auto* bytes = static_cast<const uint8_t*>(src);
    size_t done = 0;
    while (done < n) {
        const uint64_t cur = off + done;
        const uint64_t page_off = cur & ~uint64_t{kNvtPageBytes - 1};
        const size_t in_page = cur - page_off;
        const size_t take = std::min(n - done, kNvtPageBytes - in_page);
        PageCopy& pc = copy_for(page_off);
        std::memcpy(pc.data.data() + in_page, bytes + done, take);
        for (size_t c = in_page / 8; c <= (in_page + take - 1) / 8; ++c)
            pc.dirty.set(c);
        done += take;
    }
}

void
NvthreadsThread::do_load(uint64_t off, void* dst, size_t n)
{
    if (pages_.empty()) {
        dom().load(heap().resolve<void>(off), dst, n);
        return;
    }
    auto* out = static_cast<uint8_t*>(dst);
    size_t done = 0;
    while (done < n) {
        const uint64_t cur = off + done;
        const uint64_t page_off = cur & ~uint64_t{kNvtPageBytes - 1};
        const size_t in_page = cur - page_off;
        const size_t take = std::min(n - done, kNvtPageBytes - in_page);
        auto it = pages_.find(page_off);
        if (it == pages_.end()) {
            dom().load(heap().resolve<void>(cur), out + done, take);
        } else {
            // Byte-accurate read-through: dirty chunks from the copy,
            // clean ones from memory (another thread may own them).
            const PageCopy& pc = *it->second;
            for (size_t b = 0; b < take; ++b) {
                const size_t chunk = (in_page + b) / 8;
                if (pc.dirty.test(chunk)) {
                    out[done + b] = pc.data[in_page + b];
                } else {
                    dom().load(heap().resolve<void>(cur + b),
                               out + done + b, 1);
                }
            }
        }
        done += take;
    }
}

void
NvthreadsThread::commit_pages()
{
    if (pages_.empty())
        return;
    IDO_ASSERT(pages_.size() * sizeof(NvtPageLogEntry)
                   <= log_->buf_bytes,
               "NVThreads commit overflows its page log");
    uint64_t i = 0;
    for (const auto& [page_off, pc] : pages_) {
        auto* e = reinterpret_cast<NvtPageLogEntry*>(
            buf_ + i * sizeof(NvtPageLogEntry));
        dom().store_val(&e->page_off, page_off);
        for (size_t w = 0; w < kNvtChunksPerPage / 64; ++w) {
            uint64_t word = 0;
            for (size_t b = 0; b < 64; ++b) {
                if (pc->dirty.test(w * 64 + b))
                    word |= 1ull << b;
            }
            dom().store_val(&e->dirty_bitmap[w], word);
        }
        dom().store(e->data, pc->data.data(), kNvtPageBytes);
        dom().flush(e, sizeof(NvtPageLogEntry));
        tls_persist_counters().log_bytes += sizeof(NvtPageLogEntry);
        ++i;
    }
    dom().fence(); // page images durable
    dom().store_val(&log_->npages, i);
    dom().store_val(&log_->committed, uint64_t{1});
    dom().flush(&log_->npages, 2 * sizeof(uint64_t));
    dom().fence(); // commit point
    crash_tick();
    // Merge dirty chunks in place.
    for (const auto& [page_off, pc] : pages_) {
        for (size_t c = 0; c < kNvtChunksPerPage; ++c) {
            if (!pc->dirty.test(c))
                continue;
            void* p = heap().resolve<void>(page_off + c * 8);
            dom().store(p, pc->data.data() + c * 8, 8);
            dom().flush(p, 8);
        }
    }
    dom().fence();
    dom().store_val(&log_->committed, uint64_t{0});
    dom().flush(&log_->committed, sizeof(uint64_t));
    dom().fence();
    pages_.clear();
}

void
NvthreadsThread::do_unlock(uint64_t holder_off, rt::TransientLock& l)
{
    // Dirty pages are shared at lock release: commit before the lock
    // becomes available to anyone else.
    commit_pages();
    RuntimeThread::do_unlock(holder_off, l);
}

void
NvthreadsThread::on_fase_end(const rt::FaseProgram&, rt::RegionCtx&)
{
    commit_pages(); // durable code regions without locks
}

} // namespace ido::baselines
