#include "runtime/runtime.h"

#include "common/cacheline.h"
#include "common/panic.h"
#include "fuzz/rr.h"
#include "stats/metrics.h"
#include "stats/persist_stats.h"
#include "trace/trace.h"

namespace ido::rt {

Runtime::Runtime(nvm::PersistentHeap& heap, nvm::PersistDomain& dom,
                 const RuntimeConfig& cfg)
    : heap_(heap), dom_(dom), cfg_(cfg), alloc_(heap, dom)
{
    // Record/replay names transient locks by their holder slot's heap
    // offset, which is stable across runs; absolute addresses are not.
    locks_.set_key_base(heap.base());
    bump_lock_epoch();
    // Publish the validated-read counters from the start, zero or not.
    MetricsRegistry& reg = MetricsRegistry::instance();
    reg.counter(kReadRetriesMetric);
    reg.counter(kReadWaitsMetric);
}

uint32_t
Runtime::bump_lock_epoch()
{
    uint64_t n =
        nvm::RootRegistry::get_scalar(heap_, nvm::RootSlot::kLockEpoch);
    // Tag 0 is reserved: a zero-initialized holder slot must never
    // look current.  (The tag is the low 16 bits of the epoch.)
    do {
        ++n;
    } while ((n & 0xffff) == 0);
    nvm::RootRegistry::set_scalar(heap_, nvm::RootSlot::kLockEpoch, n, dom_);
    const auto epoch = static_cast<uint32_t>(n);
    locks_.set_epoch(epoch);
    return epoch;
}

Runtime::~Runtime() = default;

std::vector<uint64_t>
Runtime::log_records(nvm::RootSlot head) const
{
    std::vector<uint64_t> offs;
    uint64_t off = heap_.root(head);
    while (off != 0) {
        offs.push_back(off);
        off = *heap_.resolve<uint64_t>(off); // the record's `next`
        IDO_ASSERT(offs.size() < 1u << 20, "log list cycle at root slot %u",
                   static_cast<unsigned>(head));
    }
    return offs;
}

RuntimeThread::RuntimeThread(Runtime& rt)
    : rt_(rt)
{
    held_.reserve(8);
    deferred_frees_.reserve(8);
}

RuntimeThread::~RuntimeThread() = default;

// --------------------------------------------------------------------------
// Persistent data access
// --------------------------------------------------------------------------

void
RuntimeThread::do_load(uint64_t off, void* dst, size_t n)
{
    dom().load(heap().resolve<void>(off), dst, n);
}

void
RuntimeThread::do_store(uint64_t off, const void* src, size_t n)
{
    dom().store(heap().resolve<void>(off), src, n);
}

uint64_t
RuntimeThread::load_u64(uint64_t off)
{
    if (rt_.config().check_contracts)
        checker_on_load(off, 8);
    uint64_t v;
    do_load(off, &v, 8);
    return v;
}

void
RuntimeThread::store_u64(uint64_t off, uint64_t v)
{
    crash_tick();
    if (rt_.config().check_contracts)
        checker_on_store(off, 8);
    ++region_stores_;
    do_store(off, &v, 8);
}

void
RuntimeThread::load_bytes(uint64_t off, void* dst, size_t n)
{
    if (rt_.config().check_contracts)
        checker_on_load(off, n);
    do_load(off, dst, n);
}

void
RuntimeThread::store_bytes(uint64_t off, const void* src, size_t n)
{
    crash_tick();
    if (rt_.config().check_contracts)
        checker_on_store(off, n);
    ++region_stores_;
    do_store(off, src, n);
}

// --------------------------------------------------------------------------
// Allocation
// --------------------------------------------------------------------------

uint64_t
RuntimeThread::nv_alloc(size_t n)
{
    crash_tick();
    // Consume the pending type tag (set by nv_alloc_as); it must not
    // leak into an unrelated later allocation.
    const nvm::TypeId type = pending_alloc_type_;
    pending_alloc_type_ = nvm::TypeId::kUntyped;
    // Line-sized objects get line alignment (false-sharing padding and
    // honest per-line flush accounting); small ones stay compact.
    const uint64_t off = n >= kCacheLineBytes
        ? rt_.allocator().alloc_aligned(n, dom(), type)
        : rt_.allocator().alloc(n, dom(), type);
    if (off == 0)
        panic("nv_alloc: persistent arena exhausted (%zu bytes requested)",
              n);
    return off;
}

void
RuntimeThread::nv_free(uint64_t off)
{
    if (off == 0)
        return;
    if (in_fase_) {
        // Defer: a re-executed idempotent region must not double-free.
        deferred_frees_.push_back(off);
    } else {
        rt_.allocator().free_block(off, dom());
    }
}

void
RuntimeThread::drain_deferred_frees()
{
    for (uint64_t off : deferred_frees_)
        rt_.allocator().free_block(off, dom());
    deferred_frees_.clear();
}

// --------------------------------------------------------------------------
// FASE-boundary locks
// --------------------------------------------------------------------------

const RuntimeThread::HeldLock*
RuntimeThread::find_held(uint64_t holder_off) const
{
    for (const HeldLock& h : held_) {
        if (h.holder_off == holder_off)
            return &h;
    }
    return nullptr;
}

bool
RuntimeThread::holds_lock(uint64_t holder_off) const
{
    return find_held(holder_off) != nullptr;
}

void
RuntimeThread::acquire_transient(TransientLock& l, uint64_t holder_off)
{
    const fuzz::RrMode rrm = fuzz::rr::mode();
    if (rrm == fuzz::RrMode::kReplay) [[unlikely]] {
        // The log is authoritative: it says this thread acquired this
        // lock next, so wait for the recorded turn and take it.  No
        // crashed()-abandon here -- a thread the recording killed has
        // a shorter log and dies at exhaustion instead.
        fuzz::rr::pre(l.rr_key());
        while (!l.try_lock())
            l.spin_wait();
        fuzz::rr::post(l.rr_key());
        return;
    }
    if (rrm == fuzz::RrMode::kRecord) [[unlikely]]
        fuzz::rr::pre(l.rr_key());
    // Always crash-aware: under injection a lock owner may have "died"
    // holding the lock (and the scheduler may be armed concurrently by
    // a watchdog), so every waiter re-checks the crash flag while
    // spinning instead of blocking forever.  The check is a single
    // mostly-unchanging shared load per backoff round.
    bool contended = false;
    while (!l.try_lock()) {
        if (!contended) {
            contended = true;
            trace::emit(trace::EventKind::kLockContend, holder_off);
        }
        if (rt_.crash_scheduler().crashed())
            throw SimCrashException{};
        l.spin_wait();
    }
    if (rrm == fuzz::RrMode::kRecord) [[unlikely]]
        fuzz::rr::post(l.rr_key());
}

const std::atomic<uint64_t>&
RuntimeThread::read_sequence(uint64_t holder_off)
{
    return rt_.locks()
        .lock_for(heap().resolve<uint64_t>(holder_off))
        .sequence();
}

uint64_t
RuntimeThread::wait_for_writer(const std::atomic<uint64_t>& seq,
                               uint64_t holder_off)
{
    IDO_ASSERT(!holds_lock(holder_off),
               "validated read under its own lock (holder 0x%llx)",
               static_cast<unsigned long long>(holder_off));
    ++tls_persist_counters().read_waits;
    // Crash-aware like acquire_transient: the holder may have died.
    uint64_t s;
    while (((s = seq_read_begin(seq)) & 1) != 0) {
        if (rt_.crash_scheduler().crashed())
            throw SimCrashException{};
        seq_spin_wait(seq);
    }
    return s;
}

void
RuntimeThread::note_read_retry()
{
    ++tls_persist_counters().read_retries;
}

void
RuntimeThread::fase_lock(uint64_t holder_off)
{
    if (holds_lock(holder_off))
        return; // recovery / re-execution path
    TransientLock& l =
        rt_.locks().lock_for(heap().resolve<uint64_t>(holder_off));
    crash_tick();
    do_lock(holder_off, l); // acquires, then records ownership durably
    trace::emit(trace::EventKind::kLockAcquire, holder_off);
    if (rt_.config().check_contracts)
        lock_taken_in_region_ = true;
}

void
RuntimeThread::fase_unlock(uint64_t holder_off)
{
    // A release must precede any store in its region (the compiler puts
    // a region boundary immediately before each release): re-executing
    // a region that stored to data and then released its lock could
    // clobber another thread's subsequent update.
    IDO_ASSERT(!rt_.config().check_contracts || region_stores_ == 0,
               "fase_unlock after a store within the same region");
    const HeldLock* held = find_held(holder_off);
    if (held == nullptr)
        return; // recovery re-execution of an unlock already performed
    // The lock acquired, whatever the holder slot resolves to now;
    // clears ownership durably, then releases.
    do_unlock(holder_off, *held->lock);
    trace::emit(trace::EventKind::kLockRelease, holder_off);
}

// Default lock instrumentation: plain mutual exclusion (Origin, NVML,
// NVThreads take this path; iDO/Atlas/JUSTDO override).
void
RuntimeThread::do_lock(uint64_t holder_off, TransientLock& l)
{
    acquire_transient(l, holder_off);
    held_.push_back(HeldLock{holder_off, 0, &l});
}

void
RuntimeThread::do_unlock(uint64_t holder_off, TransientLock& l)
{
    for (size_t i = 0; i < held_.size(); ++i) {
        if (held_[i].holder_off == holder_off) {
            held_.erase(held_.begin() + static_cast<long>(i));
            break;
        }
    }
    l.unlock();
}

// Default FASE instrumentation: nothing (Origin).
void
RuntimeThread::on_fase_begin(const FaseProgram&, RegionCtx&)
{
}

void
RuntimeThread::on_region_begin(const FaseProgram&, uint32_t, RegionCtx&)
{
}

void
RuntimeThread::on_region_boundary(const FaseProgram&, uint32_t, RegionCtx&,
                                  uint32_t)
{
}

void
RuntimeThread::on_fase_end(const FaseProgram&, RegionCtx&)
{
}

} // namespace ido::rt
