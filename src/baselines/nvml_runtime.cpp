#include "baselines/nvml_runtime.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "common/panic.h"
#include "stats/persist_stats.h"
#include "trace/trace.h"

namespace ido::baselines {

namespace {

// GC layout facts for the audit's mark.
const bool g_nvml_log_type = [] {
    nvm::TypeDescriptor d;
    d.name = "nvml_log";
    d.payload_size = sizeof(NvmlThreadLog);
    d.link_offsets = {offsetof(NvmlThreadLog, next),
                      offsetof(NvmlThreadLog, buf_off)};
    nvm::TypeRegistry::instance().register_type(nvm::TypeId::kNvmlLog,
                                                std::move(d));
    return true;
}();

} // namespace

NvmlRuntime::NvmlRuntime(nvm::PersistentHeap& heap,
                         nvm::PersistDomain& dom,
                         const rt::RuntimeConfig& cfg)
    : Runtime(heap, dom, cfg)
{
}

uint64_t
NvmlRuntime::allocate_thread_log()
{
    const uint64_t buf_off = alloc_.alloc_aligned(
        cfg_.log_bytes_per_thread, dom_, nvm::TypeId::kLogBuffer);
    IDO_ASSERT(buf_off != 0, "out of persistent memory for NVML logs");
    std::memset(heap_.resolve<void>(buf_off), 0,
                cfg_.log_bytes_per_thread);
    const uint64_t log_off = alloc_.alloc_linked(
        nvm::RootSlot::kNvmlState, nvm::TypeId::kNvmlLog,
        sizeof(NvmlThreadLog), dom_,
        [&](void* log, uint64_t prev_head) {
            NvmlThreadLog init{};
            init.next = prev_head;
            init.thread_tag = next_thread_tag();
            init.buf_off = buf_off;
            init.buf_bytes = cfg_.log_bytes_per_thread
                & ~uint64_t{sizeof(NvmlEntry) - 1};
            init.lap = 1;
            dom_.store(log, &init, sizeof(init));
        });
    IDO_ASSERT(log_off != 0, "out of persistent memory for NVML logs");
    return log_off;
}

std::unique_ptr<rt::RuntimeThread>
NvmlRuntime::make_thread()
{
    return std::make_unique<NvmlThread>(*this);
}

void
NvmlRuntime::recover()
{
    bump_lock_epoch();
    // Relink any block the crashed epoch stranded mid-free (NvHeap's
    // online leak reclamation, from the census the attach took).
    alloc_.recover_leaks(dom_);
    trace::emit(trace::EventKind::kRecoveryBegin, 4);
    for (uint64_t off : log_records(nvm::RootSlot::kNvmlState)) {
        auto* log = heap_.resolve<NvmlThreadLog>(off);
        const uint64_t lap = dom_.load_val(&log->lap);
        const auto* buf = heap_.resolve<uint8_t>(log->buf_off);
        const size_t n_slots = log->buf_bytes / sizeof(NvmlEntry);
        trace::emit(trace::EventKind::kRecoverUndoBegin, off);
        // Collect the interrupted transaction's live entries.
        std::vector<NvmlEntry> live;
        for (size_t i = 0; i < n_slots; ++i) {
            NvmlEntry e;
            dom_.load(buf + i * sizeof(NvmlEntry), &e, sizeof(e));
            if (e.type != 1 || e.lap != static_cast<uint32_t>(lap))
                break;
            // A live-lap entry is durable before its data store ever
            // happens, so a malformed one can only mean log corruption
            // -- and undoing it would spray old_val over an arbitrary
            // heap offset.  Fail stop with forensics instead.
            IDO_ASSERT(e.size >= 1 && e.size <= 8
                           && e.addr_off >= heap_.arena_begin()
                           && e.addr_off + e.size <= heap_.size(),
                       "NVML recovery: corrupt undo entry (slot %zu, "
                       "addr_off=0x%llx size=%u lap=%u)",
                       i, (unsigned long long)e.addr_off,
                       (unsigned)e.size, (unsigned)e.lap);
            live.push_back(e);
        }
        // Undo in reverse append order.
        for (auto it = live.rbegin(); it != live.rend(); ++it) {
            void* p = heap_.resolve<void>(it->addr_off);
            dom_.store(p, &it->old_val, it->size);
            dom_.flush(p, it->size);
        }
        dom_.fence();
        dom_.store_val(&log->lap, lap + 1);
        dom_.flush(&log->lap, sizeof(uint64_t));
        dom_.fence();
        trace::emit(trace::EventKind::kRecoverUndoEnd, off, live.size());
    }
    trace::emit(trace::EventKind::kRecoveryEnd, 4);
}

// --------------------------------------------------------------------------
// NvmlThread
// --------------------------------------------------------------------------

NvmlThread::NvmlThread(NvmlRuntime& rt)
    : RuntimeThread(rt)
{
    const uint64_t log_off = rt.allocate_thread_log();
    log_ = heap().resolve<NvmlThreadLog>(log_off);
    buf_ = heap().resolve<uint8_t>(log_->buf_off);
    snapshotted_.reserve(64);
    dirty_.reserve(64);
}

void
NvmlThread::on_fase_begin(const rt::FaseProgram&, rt::RegionCtx&)
{
    cursor_ = 0;
    snapshotted_.clear();
    dirty_.clear();
}

void
NvmlThread::on_fase_end(const rt::FaseProgram&, rt::RegionCtx&)
{
    for (const auto& [off, len] : dirty_)
        dom().flush(heap().resolve<void>(off), len);
    dirty_.clear();
    dom().fence(); // data durable before the log is retired
    crash_tick();
    // Commit == truncate: the lap bump atomically invalidates every
    // live undo entry (they carry the old lap).  Read the lap through
    // the domain -- the committed value is always fenced, but a direct
    // read would silently bypass the simulated cache model.
    const uint64_t lap = dom().load_val(&log_->lap);
    dom().store_val(&log_->lap, lap + 1);
    dom().flush(&log_->lap, sizeof(uint64_t));
    dom().fence();
    snapshotted_.clear();
    // Commit point passed: release the transaction's deferred locks.
    // Releasing earlier (at the unlock region) would publish this
    // transaction's unflushed stores to other threads, and a crash
    // before the lap bump would then undo state their committed
    // transactions already built on.
    for (auto& [holder_off, l] : tx_locks_) {
        l->unlock();
        trace::emit(trace::EventKind::kLockRelease, holder_off);
    }
    tx_locks_.clear();
}

void
NvmlThread::do_store(uint64_t off, const void* src, size_t n)
{
    if (!in_fase_) {
        // Unannotated store outside any transaction: NVML leaves the
        // programmer on their own; write through durably.
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
        const uint64_t chunk_off = cur & ~uint64_t{7};
        const size_t in_chunk = cur - chunk_off;
        const size_t take = std::min(n - done, 8 - in_chunk);
        if (snapshotted_.insert(chunk_off).second) {
            // First write to this chunk in the transaction: snapshot
            // its old value durably before modifying it.
            IDO_ASSERT(cursor_ + sizeof(NvmlEntry) <= log_->buf_bytes,
                       "NVML undo log overflow");
            NvmlEntry e{};
            e.type = 1;
            e.size = 8;
            e.lap = static_cast<uint32_t>(log_->lap);
            e.addr_off = chunk_off;
            dom().load(heap().resolve<void>(chunk_off), &e.old_val, 8);
            auto* dst = reinterpret_cast<NvmlEntry*>(buf_ + cursor_);
            dom().store(dst, &e, sizeof(e));
            dom().flush(dst, sizeof(e));
            dom().fence();
            cursor_ += sizeof(NvmlEntry);
            tls_persist_counters().log_bytes += sizeof(e);
            crash_tick();
        }
        void* p = heap().resolve<void>(cur);
        dom().store(p, bytes + done, take);
        done += take;
    }
    dirty_.emplace_back(off, static_cast<uint32_t>(n));
}

void
NvmlThread::do_lock(uint64_t holder_off, rt::TransientLock& l)
{
    // Re-acquiring a lock whose release was deferred: we still own the
    // transient lock, so just re-adopt it (avoids self-deadlock).
    for (size_t i = 0; i < tx_locks_.size(); ++i) {
        if (tx_locks_[i].first == holder_off) {
            held_.push_back(HeldLock{holder_off, 0, tx_locks_[i].second});
            tx_locks_.erase(tx_locks_.begin() + static_cast<long>(i));
            return;
        }
    }
    RuntimeThread::do_lock(holder_off, l);
}

void
NvmlThread::do_unlock(uint64_t holder_off, rt::TransientLock& l)
{
    if (!in_fase_) {
        RuntimeThread::do_unlock(holder_off, l);
        return;
    }
    // 2PL: drop logical ownership now, release the transient lock only
    // at commit (on_fase_end).  A crashed transaction abandons its
    // deferred locks; recovery's LockTable::new_epoch() reclaims them.
    for (size_t i = 0; i < held_.size(); ++i) {
        if (held_[i].holder_off == holder_off) {
            held_.erase(held_.begin() + static_cast<long>(i));
            break;
        }
    }
    tx_locks_.emplace_back(holder_off, &l);
}

} // namespace ido::baselines
