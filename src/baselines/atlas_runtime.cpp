#include "baselines/atlas_runtime.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "common/panic.h"
#include "stats/persist_stats.h"

namespace ido::baselines {

namespace {

// GC layout facts: the log record links the per-runtime log list and
// owns its entry buffer.
const bool g_atlas_log_type = [] {
    nvm::TypeDescriptor d;
    d.name = "atlas_log";
    d.payload_size = sizeof(AtlasThreadLog);
    d.link_offsets = {offsetof(AtlasThreadLog, next),
                      offsetof(AtlasThreadLog, buf_off)};
    nvm::TypeRegistry::instance().register_type(nvm::TypeId::kAtlasLog,
                                                std::move(d));
    return true;
}();

} // namespace

AtlasRuntime::AtlasRuntime(nvm::PersistentHeap& heap,
                           nvm::PersistDomain& dom,
                           const rt::RuntimeConfig& cfg)
    : Runtime(heap, dom, cfg)
{
}

uint64_t
AtlasRuntime::allocate_thread_log()
{
    const uint64_t buf_off = alloc_.alloc_aligned(
        cfg_.log_bytes_per_thread, dom_, nvm::TypeId::kLogBuffer);
    IDO_ASSERT(buf_off != 0, "out of persistent memory for Atlas logs");

    // Entry validity relies on a zeroed first lap.  The zeroing is not
    // flushed: if stale lines survive a crash they carry lap 0 (or a
    // retired lap) and scan as invalid either way.
    std::memset(heap_.resolve<void>(buf_off), 0,
                cfg_.log_bytes_per_thread);

    const uint64_t log_off = alloc_.alloc_linked(
        nvm::RootSlot::kAtlasState, nvm::TypeId::kAtlasLog,
        sizeof(AtlasThreadLog), dom_,
        [&](void* log, uint64_t prev_head) {
            AtlasThreadLog init{};
            init.next = prev_head;
            init.thread_tag = next_thread_tag();
            init.buf_off = buf_off;
            init.buf_bytes = cfg_.log_bytes_per_thread
                & ~uint64_t{sizeof(AtlasEntry) - 1};
            init.lap = 1;
            dom_.store(log, &init, sizeof(init));
        });
    IDO_ASSERT(log_off != 0, "out of persistent memory for Atlas logs");
    return log_off;
}

std::unique_ptr<rt::RuntimeThread>
AtlasRuntime::make_thread()
{
    return std::make_unique<AtlasThread>(*this);
}

// --------------------------------------------------------------------------
// AtlasThread
// --------------------------------------------------------------------------

AtlasThread::AtlasThread(AtlasRuntime& rt)
    : RuntimeThread(rt), atlas_rt_(rt)
{
    const uint64_t log_off = rt.allocate_thread_log();
    log_ = heap().resolve<AtlasThreadLog>(log_off);
    buf_ = heap().resolve<uint8_t>(log_->buf_off);
    dirty_.reserve(64);
}

void
AtlasThread::append(AtlasEntry e)
{
    if (cursor_ + sizeof(AtlasEntry) > log_->buf_bytes) {
        // Wrap: bump the lap durably so the stale suffix ages out.
        // (Real Atlas prunes completed FASEs with a helper thread; the
        // ring with lap tags is our equivalent.  A FASE longer than the
        // whole buffer would lose entries, which we rule out by size.)
        dom().store_val(&log_->lap, log_->lap + 1);
        dom().flush(&log_->lap, sizeof(uint64_t));
        dom().fence();
        cursor_ = 0;
    }
    e.lap = static_cast<uint32_t>(log_->lap);
    auto* dst = reinterpret_cast<AtlasEntry*>(buf_ + cursor_);
    dom().store(dst, &e, sizeof(e));
    dom().flush(dst, sizeof(e));
    cursor_ += sizeof(AtlasEntry);
    tls_persist_counters().log_bytes += sizeof(e);
}

void
AtlasThread::on_fase_begin(const rt::FaseProgram&, rt::RegionCtx&)
{
    AtlasEntry e{};
    e.type = static_cast<uint16_t>(AtlasEntryType::kFaseBegin);
    e.seq = atlas_rt_.next_seq();
    append(e);
    dom().fence();
}

void
AtlasThread::on_fase_end(const rt::FaseProgram&, rt::RegionCtx&)
{
    // UNDO logging lets Atlas delay the FASE's data writes-back to the
    // end of the FASE -- but not the log's own.
    for (const auto& [off, len] : dirty_)
        dom().flush(heap().resolve<void>(off), len);
    dirty_.clear();
    dom().fence();
    AtlasEntry e{};
    e.type = static_cast<uint16_t>(AtlasEntryType::kFaseEnd);
    e.seq = atlas_rt_.next_seq();
    append(e);
    dom().fence();
}

void
AtlasThread::do_store(uint64_t off, const void* src, size_t n)
{
    if (!in_fase_) {
        // Setup / non-FASE store: write through durably, unlogged
        // (Atlas instruments only code reachable from critical
        // sections).
        void* p = heap().resolve<void>(off);
        dom().store(p, src, n);
        dom().flush(p, n);
        dom().fence();
        return;
    }
    const auto* bytes = static_cast<const uint8_t*>(src);
    size_t done = 0;
    while (done < n) {
        const size_t chunk = std::min<size_t>(8, n - done);
        void* p = heap().resolve<void>(off + done);
        AtlasEntry e{};
        e.type = static_cast<uint16_t>(AtlasEntryType::kStore);
        e.size = static_cast<uint16_t>(chunk);
        e.addr_off = off + done;
        e.old_val = 0;
        dom().load(p, &e.old_val, chunk);
        append(e);
        // The undo entry must be durable before the in-place store.
        dom().fence();
        crash_tick();
        dom().store(p, bytes + done, chunk);
        done += chunk;
    }
    dirty_.emplace_back(off, static_cast<uint32_t>(n));
}

void
AtlasThread::do_lock(uint64_t holder_off, rt::TransientLock& l)
{
    acquire_transient(l);
    held_.push_back(HeldLock{holder_off, 0, &l});
    AtlasEntry e{};
    e.type = static_cast<uint16_t>(AtlasEntryType::kAcquire);
    e.addr_off = holder_off;
    e.seq = atlas_rt_.next_seq();
    append(e);
    dom().fence(); // ordered persistent write per lock op (Sec. V-B)
}

void
AtlasThread::do_unlock(uint64_t holder_off, rt::TransientLock& l)
{
    AtlasEntry e{};
    e.type = static_cast<uint16_t>(AtlasEntryType::kRelease);
    e.addr_off = holder_off;
    e.seq = atlas_rt_.next_seq();
    append(e);
    dom().fence(); // release entry durable before successors can acquire
    crash_tick();
    for (size_t i = 0; i < held_.size(); ++i) {
        if (held_[i].holder_off == holder_off) {
            held_.erase(held_.begin() + static_cast<long>(i));
            break;
        }
    }
    l.unlock();
}

} // namespace ido::baselines
