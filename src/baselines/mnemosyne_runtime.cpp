#include "baselines/mnemosyne_runtime.h"

#include <cstddef>
#include <cstring>

#include "common/panic.h"
#include "stats/persist_stats.h"
#include "trace/trace.h"

namespace ido::baselines {

namespace {

// GC layout facts for the audit's mark.
const bool g_mnemosyne_log_type = [] {
    nvm::TypeDescriptor d;
    d.name = "mnemosyne_log";
    d.payload_size = sizeof(MnemosyneThreadLog);
    d.link_offsets = {offsetof(MnemosyneThreadLog, next),
                      offsetof(MnemosyneThreadLog, buf_off)};
    nvm::TypeRegistry::instance().register_type(nvm::TypeId::kMnemosyneLog,
                                                std::move(d));
    return true;
}();

} // namespace

MnemosyneRuntime::MnemosyneRuntime(nvm::PersistentHeap& heap,
                                   nvm::PersistDomain& dom,
                                   const rt::RuntimeConfig& cfg)
    : Runtime(heap, dom, cfg)
{
    version_.value.store(0, std::memory_order_release);
}

uint64_t
MnemosyneRuntime::allocate_thread_log()
{
    const uint64_t buf_off = alloc_.alloc_aligned(
        cfg_.log_bytes_per_thread, dom_, nvm::TypeId::kLogBuffer);
    IDO_ASSERT(buf_off != 0, "out of persistent memory for Mnemosyne logs");
    const uint64_t log_off = alloc_.alloc_linked(
        nvm::RootSlot::kMnemosyneState, nvm::TypeId::kMnemosyneLog,
        sizeof(MnemosyneThreadLog), dom_,
        [&](void* log, uint64_t prev_head) {
            MnemosyneThreadLog init{};
            init.next = prev_head;
            init.thread_tag = next_thread_tag();
            init.buf_off = buf_off;
            init.buf_bytes = cfg_.log_bytes_per_thread;
            dom_.store(log, &init, sizeof(init));
        });
    IDO_ASSERT(log_off != 0, "out of persistent memory for Mnemosyne logs");
    return log_off;
}

std::unique_ptr<rt::RuntimeThread>
MnemosyneRuntime::make_thread()
{
    return std::make_unique<MnemosyneThread>(*this);
}

void
MnemosyneRuntime::recover()
{
    bump_lock_epoch();
    // Relink any block the crashed epoch stranded mid-free (NvHeap's
    // online leak reclamation, from the census the attach took).
    alloc_.recover_leaks(dom_);
    trace::emit(trace::EventKind::kRecoveryBegin, 2);
    for (uint64_t off : log_records(nvm::RootSlot::kMnemosyneState)) {
        auto* log = heap_.resolve<MnemosyneThreadLog>(off);
        if (dom_.load_val(&log->committed) != 1)
            continue; // never reached its commit point: discard
        const uint64_t count = dom_.load_val(&log->count);
        const auto* buf = heap_.resolve<uint8_t>(log->buf_off);
        trace::emit(trace::EventKind::kRecoverUndoBegin, off);
        for (uint64_t i = 0; i < count; ++i) {
            RedoEntry e;
            dom_.load(buf + i * sizeof(RedoEntry), &e, sizeof(e));
            void* p = heap_.resolve<void>(e.chunk_off);
            dom_.store(p, &e.val, sizeof(uint64_t));
            dom_.flush(p, sizeof(uint64_t));
        }
        dom_.fence();
        dom_.store_val(&log->committed, uint64_t{0});
        dom_.flush(&log->committed, sizeof(uint64_t));
        dom_.fence();
        trace::emit(trace::EventKind::kRecoverUndoEnd, off, count);
    }
    trace::emit(trace::EventKind::kRecoveryEnd, 2);
}

// --------------------------------------------------------------------------
// MnemosyneThread
// --------------------------------------------------------------------------

MnemosyneThread::MnemosyneThread(MnemosyneRuntime& rt)
    : RuntimeThread(rt), mn_rt_(rt)
{
    const uint64_t log_off = rt.allocate_thread_log();
    log_ = heap().resolve<MnemosyneThreadLog>(log_off);
    buf_ = heap().resolve<uint8_t>(log_->buf_off);
    write_set_.reserve(64);
}

void
MnemosyneThread::tx_begin()
{
    auto& gv = mn_rt_.global_version();
    for (;;) {
        const uint64_t v = gv.load(std::memory_order_acquire);
        if ((v & 1) == 0) {
            start_version_ = v;
            in_tx_ = true;
            return;
        }
        if (rt_.crash_scheduler().crashed())
            throw rt::SimCrashException{};
#if defined(__x86_64__)
        __builtin_ia32_pause();
#endif
    }
}

uint64_t
MnemosyneThread::read_chunk(uint64_t chunk_off)
{
    auto it = write_set_.find(chunk_off);
    if (it != write_set_.end())
        return it->second;
    uint64_t v;
    dom().load(heap().resolve<void>(chunk_off), &v, sizeof(v));
    // TML validation: any committed writer since tx_begin may have
    // made this read inconsistent; abort immediately (opacity -- a
    // zombie transaction chasing torn pointers could loop forever).
    if (mn_rt_.global_version().load(std::memory_order_acquire)
        != start_version_) {
        throw TxAbort{};
    }
    return v;
}

void
MnemosyneThread::do_load(uint64_t off, void* dst, size_t n)
{
    if (!in_tx_) {
        dom().load(heap().resolve<void>(off), dst, n);
        return;
    }
    auto* out = static_cast<uint8_t*>(dst);
    size_t done = 0;
    while (done < n) {
        const uint64_t cur = off + done;
        const uint64_t chunk_off = cur & ~uint64_t{7};
        const size_t in_chunk = cur - chunk_off;
        const size_t take = std::min(n - done, 8 - in_chunk);
        const uint64_t v = read_chunk(chunk_off);
        std::memcpy(out + done,
                    reinterpret_cast<const uint8_t*>(&v) + in_chunk,
                    take);
        done += take;
    }
}

void
MnemosyneThread::do_store(uint64_t off, const void* src, size_t n)
{
    if (!in_tx_) {
        void* p = heap().resolve<void>(off);
        dom().store(p, src, n);
        dom().flush(p, n);
        dom().fence();
        return;
    }
    const auto* in = static_cast<const uint8_t*>(src);
    size_t done = 0;
    while (done < n) {
        const uint64_t cur = off + done;
        const uint64_t chunk_off = cur & ~uint64_t{7};
        const size_t in_chunk = cur - chunk_off;
        const size_t take = std::min(n - done, 8 - in_chunk);
        uint64_t v = read_chunk(chunk_off); // merge base for partials
        std::memcpy(reinterpret_cast<uint8_t*>(&v) + in_chunk,
                    in + done, take);
        auto [it, fresh] = write_set_.insert_or_assign(chunk_off, v);
        (void)it;
        if (fresh)
            write_order_.push_back(chunk_off);
        done += take;
    }
}

void
MnemosyneThread::do_lock(uint64_t, rt::TransientLock&)
{
    // Subsumed by the transaction: Mnemosyne does not log or take the
    // program's locks (Sec. V-B), which is exactly its low-thread-count
    // advantage on hand-over-hand code.
}

void
MnemosyneThread::do_unlock(uint64_t, rt::TransientLock&)
{
}

uint64_t
MnemosyneThread::nv_alloc(size_t n)
{
    const uint64_t off = RuntimeThread::nv_alloc(n);
    if (in_tx_)
        attempt_allocs_.push_back(off); // reclaimed if the tx aborts
    return off;
}

void
MnemosyneThread::tx_abort_cleanup()
{
    write_set_.clear();
    write_order_.clear();
    for (uint64_t off : attempt_allocs_)
        rt_.allocator().free_block(off, dom());
    attempt_allocs_.clear();
    deferred_frees_.clear(); // the aborted attempt's frees are void
    in_tx_ = false;
    ++aborts_;
}

void
MnemosyneThread::tx_commit()
{
    auto& gv = mn_rt_.global_version();
    if (write_set_.empty()) {
        // Read-only: validated on every read; nothing to do.
        in_tx_ = false;
        return;
    }
    uint64_t expected = start_version_;
    if (!gv.compare_exchange_strong(expected, start_version_ + 1,
                                    std::memory_order_acq_rel)) {
        throw TxAbort{}; // another writer committed since tx_begin
    }
    // Validated readers (read_sequence) that see an in-place store
    // below also see the version odd.
    std::atomic_thread_fence(std::memory_order_release);
    // --- writer section (global version is odd) -----------------------
    const uint64_t n = write_order_.size();
    IDO_ASSERT(n * sizeof(RedoEntry) <= log_->buf_bytes,
               "Mnemosyne write set overflows its redo log");
    for (uint64_t i = 0; i < n; ++i) {
        RedoEntry e{write_order_[i], write_set_[write_order_[i]]};
        dom().store(buf_ + i * sizeof(RedoEntry), &e, sizeof(e));
    }
    dom().flush(buf_, n * sizeof(RedoEntry));
    dom().store_val(&log_->count, n);
    dom().flush(&log_->count, sizeof(uint64_t));
    dom().fence(); // redo log durable
    tls_persist_counters().log_bytes += n * sizeof(RedoEntry);
    crash_tick();
    dom().store_val(&log_->committed, uint64_t{1});
    dom().flush(&log_->committed, sizeof(uint64_t));
    dom().fence(); // commit point
    crash_tick();
    for (uint64_t i = 0; i < n; ++i) {
        const uint64_t chunk = write_order_[i];
        void* p = heap().resolve<void>(chunk);
        const uint64_t v = write_set_[chunk];
        dom().store(p, &v, sizeof(v));
        dom().flush(p, sizeof(v));
    }
    dom().fence(); // in-place data durable
    dom().store_val(&log_->committed, uint64_t{0});
    dom().flush(&log_->committed, sizeof(uint64_t));
    dom().fence(); // log retired
    write_set_.clear();
    write_order_.clear();
    attempt_allocs_.clear();
    in_tx_ = false;
    gv.store(start_version_ + 2, std::memory_order_release);
}

void
MnemosyneThread::run_fase(const rt::FaseProgram& prog, rt::RegionCtx& ctx)
{
    IDO_ASSERT(!in_fase_, "nested run_fase");
    const rt::RegionCtx snapshot = ctx;
    in_fase_ = true;
    cur_prog_ = &prog;
    for (;;) {
        try {
            tx_begin();
            run_regions(prog, 0, ctx);
            tx_commit();
            break;
        } catch (const TxAbort&) {
            tx_abort_cleanup();
            ctx = snapshot;
            // Brief backoff before retrying.
#if defined(__x86_64__)
            for (int i = 0; i < 64; ++i)
                __builtin_ia32_pause();
#endif
        } catch (...) {
            // Simulated crash (or test failure): leave tx state as-is
            // for the recovery path, but restore the driver flags.
            in_fase_ = false;
            cur_prog_ = nullptr;
            in_tx_ = false;
            throw;
        }
    }
    in_fase_ = false;
    cur_prog_ = nullptr;
    held_.clear(); // lock ops are no-ops; nothing is really held
    drain_deferred_frees();
}

} // namespace ido::baselines
