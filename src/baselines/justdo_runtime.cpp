#include "baselines/justdo_runtime.h"

#include <barrier>
#include <cstddef>
#include <cstring>
#include <thread>

#include "common/panic.h"
#include "ido/ido_log.h" // pack_recovery_pc / kInactivePc helpers
#include "stats/persist_stats.h"
#include "trace/trace.h"

namespace ido::baselines {

using rt::RegionCtx;

namespace {

// GC layout facts: JUSTDO log records link only the list.
const bool g_justdo_log_type = [] {
    nvm::TypeDescriptor d;
    d.name = "justdo_log";
    d.payload_size = sizeof(JustdoLogRec);
    d.link_offsets = {offsetof(JustdoLogRec, next)};
    nvm::TypeRegistry::instance().register_type(nvm::TypeId::kJustdoLogRec,
                                                std::move(d));
    return true;
}();

} // namespace

JustdoRuntime::JustdoRuntime(nvm::PersistentHeap& heap,
                             nvm::PersistDomain& dom,
                             const rt::RuntimeConfig& cfg)
    : Runtime(heap, dom, cfg)
{
}

uint64_t
JustdoRuntime::allocate_log_rec()
{
    const uint64_t off = alloc_.alloc_linked(
        nvm::RootSlot::kJustdoState, nvm::TypeId::kJustdoLogRec,
        sizeof(JustdoLogRec), dom_,
        [&](void* rec, uint64_t prev_head) {
            JustdoLogRec init{};
            init.next = prev_head;
            init.thread_tag = next_thread_tag();
            init.snap[0].recovery_pc = kInactivePc;
            init.snap[1].recovery_pc = kInactivePc;
            dom_.store(rec, &init, sizeof(init));
        });
    IDO_ASSERT(off != 0, "out of persistent memory for JUSTDO logs");
    return off;
}

std::unique_ptr<rt::RuntimeThread>
JustdoRuntime::make_thread()
{
    return std::make_unique<JustdoThread>(*this);
}

void
JustdoRuntime::recover()
{
    bump_lock_epoch();
    // Relink any block the crashed epoch stranded mid-free (NvHeap's
    // online leak reclamation, from the census the attach took).
    alloc_.recover_leaks(dom_);
    std::vector<uint64_t> active;
    for (uint64_t off : log_records(nvm::RootSlot::kJustdoState)) {
        auto* rec = heap_.resolve<JustdoLogRec>(off);
        const uint64_t cur = dom_.load_val(&rec->cur_snap) & 1;
        if (dom_.load_val(&rec->snap[cur].recovery_pc) != kInactivePc)
            active.push_back(off);
    }
    if (active.empty())
        return;
    trace::emit(trace::EventKind::kRecoveryBegin, 3, active.size());

    std::barrier barrier(static_cast<std::ptrdiff_t>(active.size()));
    std::vector<std::thread> workers;
    for (uint64_t rec_off : active) {
        workers.emplace_back([this, rec_off, &barrier] {
            bool arrived = false;
            try {
                JustdoThread th(*this, rec_off);
                th.reacquire_crashed_locks();
                arrived = true;
                barrier.arrive_and_wait();
                th.redo_pending_store();
                auto* r = th.rec();
                const uint64_t pc = dom_.load_val(
                    &r->snap[dom_.load_val(&r->cur_snap) & 1]
                         .recovery_pc);
                const rt::FaseProgram* prog =
                    rt::FaseRegistry::instance().lookup(
                        recovery_pc_fase(pc));
                RegionCtx ctx;
                th.restore_ctx(ctx);
                trace::emit(trace::EventKind::kRecoverResumeBegin, pc);
                th.resume_fase(*prog, recovery_pc_region(pc), ctx);
                trace::emit(trace::EventKind::kRecoverResumeEnd, pc);
            } catch (const rt::SimCrashException&) {
                if (!arrived)
                    barrier.arrive_and_drop();
            }
        });
    }
    for (std::thread& t : workers)
        t.join();
    trace::emit(trace::EventKind::kRecoveryEnd, 3, active.size());
}

// --------------------------------------------------------------------------
// JustdoThread
// --------------------------------------------------------------------------

JustdoThread::JustdoThread(JustdoRuntime& rt)
    : RuntimeThread(rt), rec_off_(rt.allocate_log_rec())
{
    rec_ = heap().resolve<JustdoLogRec>(rec_off_);
    trace::emit(trace::EventKind::kLogRecAttach, rec_off_,
                dom().load_val(&rec_->thread_tag));
}

JustdoThread::JustdoThread(JustdoRuntime& rt, uint64_t existing_rec_off)
    : RuntimeThread(rt), rec_off_(existing_rec_off)
{
    rec_ = heap().resolve<JustdoLogRec>(rec_off_);
    lock_bitmap_mirror_ = dom().load_val(&rec_->lock_bitmap);
    cur_snap_mirror_ = dom().load_val(&rec_->cur_snap) & 1;
    trace::emit(trace::EventKind::kLogRecAttach, rec_off_,
                dom().load_val(&rec_->thread_tag));
}

void
JustdoThread::reacquire_crashed_locks()
{
    trace::emit(trace::EventKind::kRecoverLocksBegin);
    for (size_t slot = 0; slot < 16; ++slot) {
        if (!(lock_bitmap_mirror_ & (1ull << slot)))
            continue;
        const uint64_t holder_off =
            dom().load_val(&rec_->lock_array[slot]);
        if (holder_off == 0) {
            // Torn record: stolen-lock window (see IdoThread).
            lock_bitmap_mirror_ &= ~(1ull << slot);
            continue;
        }
        rt::TransientLock& l =
            rt_.locks().lock_for(heap().resolve<uint64_t>(holder_off));
        acquire_transient(l, holder_off);
        held_.push_back(
            HeldLock{holder_off, static_cast<uint8_t>(slot), &l});
    }
    trace::emit(trace::EventKind::kRecoverLocksEnd, 0, held_.size());
}

void
JustdoThread::restore_ctx(RegionCtx& ctx) const
{
    trace::emit(trace::EventKind::kRecoverRestoreCtx, rec_off_,
                cur_snap_mirror_ & 1);
    const JustdoCtxSnapshot& s = rec_->snap[cur_snap_mirror_ & 1];
    for (size_t i = 0; i < rt::kNumIntRegs; ++i)
        ctx.r[i] = s.intRF[i];
    for (size_t i = 0; i < rt::kNumFloatRegs; ++i)
        ctx.f[i] = s.floatRF[i];
}

void
JustdoThread::redo_pending_store()
{
    const uint64_t addr_off = dom().load_val(&rec_->st_addr_off);
    if (addr_off == 0)
        return;
    const uint64_t val = dom().load_val(&rec_->st_val);
    const uint64_t size = dom().load_val(&rec_->st_size);
    IDO_ASSERT(size <= 8);
    void* p = heap().resolve<void>(addr_off);
    dom().store(p, &val, size);
    dom().flush(p, size);
    dom().fence();
}

void
JustdoThread::persist_snapshot(const RegionCtx& ctx, uint64_t pc,
                               bool retire_store)
{
    // JUSTDO permits no volatile program state inside a FASE; the
    // whole register file lives in NVM and is persisted wholesale,
    // paired with the pc it belongs to (see JustdoCtxSnapshot).
    const uint64_t idx = cur_snap_mirror_ ^ 1;
    JustdoCtxSnapshot* s = &rec_->snap[idx];
    for (size_t i = 0; i < rt::kNumIntRegs; ++i)
        dom().store_val(&s->intRF[i], ctx.r[i]);
    for (size_t i = 0; i < rt::kNumFloatRegs; ++i)
        dom().store_val(&s->floatRF[i], ctx.f[i]);
    dom().store_val(&s->recovery_pc, pc);
    dom().flush(s, sizeof(JustdoCtxSnapshot));
    dom().fence(); // snapshot complete, not yet selected
    crash_tick();
    cur_snap_mirror_ = idx;
    dom().store_val(&rec_->cur_snap, idx);
    dom().flush(&rec_->cur_snap, sizeof(uint64_t));
    if (retire_store) {
        // The resume point has advanced past the last logged store;
        // retire it so recovery never re-applies a store whose
        // protected location another thread may legitimately overwrite
        // in the meantime.
        dom().store_val(&rec_->st_addr_off, uint64_t{0});
        dom().flush(&rec_->st_addr_off, sizeof(uint64_t));
    }
    dom().fence(); // the (pc, RF) pair switches atomically
}

void
JustdoThread::on_fase_begin(const rt::FaseProgram& prog, RegionCtx& ctx)
{
    persist_snapshot(ctx, pack_recovery_pc(prog.fase_id, 0),
                     /*retire_store=*/false);
    store_ordinal_ = 0;
}

void
JustdoThread::on_region_boundary(const rt::FaseProgram& prog,
                                 uint32_t, RegionCtx& ctx,
                                 uint32_t next_idx)
{
    const uint64_t pc = (next_idx == rt::kRegionEnd)
        ? kInactivePc
        : pack_recovery_pc(prog.fase_id, next_idx);
    persist_snapshot(ctx, pc, /*retire_store=*/true);
    crash_tick();
}

void
JustdoThread::log_one_store(uint64_t off, uint64_t val, uint64_t size)
{
    // Persist the log entry before the store it describes...
    dom().store_val(&rec_->st_addr_off, off);
    dom().store_val(&rec_->st_val, val);
    dom().store_val(&rec_->st_size, size);
    dom().store_val(&rec_->st_pc,
                    (static_cast<uint64_t>(cur_region_) << 16)
                        | store_ordinal_++);
    dom().flush(&rec_->st_addr_off, 4 * sizeof(uint64_t));
    dom().fence(); // fence 1 of 2
    tls_persist_counters().log_bytes += 32;
    crash_tick();
    // ...then perform the store and persist it before the next log
    // entry can overwrite this one.
    void* p = heap().resolve<void>(off);
    dom().store(p, &val, size);
    dom().flush(p, size);
    dom().fence(); // fence 2 of 2
}

void
JustdoThread::do_store(uint64_t off, const void* src, size_t n)
{
    // JUSTDO writes are atomic at 8-byte granularity; wider stores are
    // logged chunk by chunk.
    const auto* bytes = static_cast<const uint8_t*>(src);
    size_t done = 0;
    while (done < n) {
        const size_t chunk = std::min<size_t>(8, n - done);
        uint64_t val = 0;
        std::memcpy(&val, bytes + done, chunk);
        log_one_store(off + done, val, chunk);
        done += chunk;
    }
}

void
JustdoThread::do_lock(uint64_t holder_off, rt::TransientLock& l)
{
    // Lock intention log, fence (1 of 2).
    dom().store_val(&rec_->lock_intention, holder_off);
    dom().flush(&rec_->lock_intention, sizeof(uint64_t));
    dom().fence();
    acquire_transient(l);
    crash_tick();
    // Lock ownership log, fence (2 of 2).
    int slot = -1;
    for (size_t i = 0; i < 16; ++i) {
        if (!(lock_bitmap_mirror_ & (1ull << i))) {
            slot = static_cast<int>(i);
            break;
        }
    }
    IDO_ASSERT(slot >= 0);
    lock_bitmap_mirror_ |= 1ull << slot;
    dom().store_val(&rec_->lock_array[slot], holder_off);
    dom().store_val(&rec_->lock_bitmap, lock_bitmap_mirror_);
    dom().store_val(&rec_->lock_intention, uint64_t{0});
    dom().flush(&rec_->lock_array[slot], sizeof(uint64_t));
    dom().flush(&rec_->lock_bitmap, sizeof(uint64_t));
    dom().flush(&rec_->lock_intention, sizeof(uint64_t));
    dom().fence();
    held_.push_back(HeldLock{holder_off, static_cast<uint8_t>(slot), &l});
}

void
JustdoThread::do_unlock(uint64_t holder_off, rt::TransientLock& l)
{
    // Intention, fence; clear ownership, fence; release.
    dom().store_val(&rec_->lock_intention, holder_off);
    dom().flush(&rec_->lock_intention, sizeof(uint64_t));
    dom().fence();
    int slot = -1;
    for (size_t i = 0; i < held_.size(); ++i) {
        if (held_[i].holder_off == holder_off) {
            slot = held_[i].slot;
            held_.erase(held_.begin() + static_cast<long>(i));
            break;
        }
    }
    IDO_ASSERT(slot >= 0);
    lock_bitmap_mirror_ &= ~(1ull << slot);
    dom().store_val(&rec_->lock_array[slot], uint64_t{0});
    dom().store_val(&rec_->lock_bitmap, lock_bitmap_mirror_);
    dom().store_val(&rec_->lock_intention, uint64_t{0});
    // Retire the pending store before the lock becomes available to
    // others (see on_region_boundary).
    dom().store_val(&rec_->st_addr_off, uint64_t{0});
    dom().flush(&rec_->lock_array[slot], sizeof(uint64_t));
    dom().flush(&rec_->lock_bitmap, sizeof(uint64_t));
    dom().flush(&rec_->lock_intention, sizeof(uint64_t));
    dom().flush(&rec_->st_addr_off, sizeof(uint64_t));
    dom().fence();
    l.unlock();
}

} // namespace ido::baselines
