#include "trace/trace.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

#include "baselines/justdo_runtime.h"
#include "ido/ido_runtime.h"
#include "runtime/fase_program.h"
#include "trace/forensics.h"

namespace ido::trace {

namespace detail {

std::atomic<bool> g_armed{false};
std::atomic<uint64_t> g_epoch{1};

} // namespace detail

namespace {

struct TracerState
{
    std::mutex mutex;
    std::vector<std::unique_ptr<detail::ThreadRing>> rings;
    size_t capacity = Tracer::kDefaultCapacity;
    uint64_t origin_ns = 0;
    uint32_t next_tid = 0;
    std::vector<ForensicLogRec> forensics;
};

TracerState&
state()
{
    static TracerState* s = new TracerState; // immortal: threads may
    return *s;                               // outlive static dtors
}

size_t
round_up_pow2(size_t v)
{
    size_t p = 64;
    while (p < v)
        p <<= 1;
    return p;
}

uint64_t
wall_now_ns()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

uint64_t g_origin_ns = 0;

/** Marks the owning thread's ring retired when the thread exits. */
struct TlsRingRef
{
    detail::ThreadRing* ring = nullptr;
    uint64_t epoch = 0;

    ~TlsRingRef()
    {
        if (ring == nullptr)
            return;
        std::lock_guard<std::mutex> g(state().mutex);
        // Only retire if the ring still belongs to the current arm
        // epoch (reset() may have discarded it already).
        if (epoch == detail::g_epoch.load(std::memory_order_relaxed))
            ring->retired = true;
        ring = nullptr;
    }
};

thread_local TlsRingRef t_ring;

/** Oldest-first copy of one ring. */
ThreadTrace
snapshot_ring(const detail::ThreadRing& ring)
{
    ThreadTrace out;
    out.tid = ring.tid;
    out.emitted = ring.next_seq;
    const size_t cap = ring.slots.size();
    out.dropped = ring.next_seq > cap ? ring.next_seq - cap : 0;
    const uint64_t first = out.dropped;
    out.records.reserve(ring.next_seq - first);
    for (uint64_t seq = first; seq < ring.next_seq; ++seq)
        out.records.push_back(ring.slots[seq & (cap - 1)]);
    return out;
}

} // namespace

namespace detail {

ThreadRing::ThreadRing(uint32_t tid_, size_t capacity)
    : slots(capacity), tid(tid_)
{
}

ThreadRing*
ring_for_thread()
{
    const uint64_t epoch = g_epoch.load(std::memory_order_relaxed);
    if (t_ring.ring != nullptr && t_ring.epoch == epoch)
        return t_ring.ring;
    // Cold path: first event of this thread in this arm epoch.
    TracerState& s = state();
    std::lock_guard<std::mutex> g(s.mutex);
    if (epoch != g_epoch.load(std::memory_order_relaxed))
        return nullptr; // raced with reset(); caller drops the event
    s.rings.push_back(
        std::make_unique<ThreadRing>(s.next_tid++, s.capacity));
    t_ring.ring = s.rings.back().get();
    t_ring.epoch = epoch;
    return t_ring.ring;
}

uint64_t
now_ns()
{
    return wall_now_ns() - g_origin_ns;
}

} // namespace detail

void
Tracer::arm(size_t capacity)
{
    TracerState& s = state();
    std::lock_guard<std::mutex> g(s.mutex);
    detail::g_armed.store(false, std::memory_order_relaxed);
    s.rings.clear();
    s.forensics.clear();
    s.next_tid = 0;
    s.capacity = round_up_pow2(capacity);
    detail::g_epoch.fetch_add(1, std::memory_order_relaxed);
    g_origin_ns = wall_now_ns();
    s.origin_ns = g_origin_ns;
    detail::g_armed.store(true, std::memory_order_relaxed);
}

void
Tracer::disarm()
{
    detail::g_armed.store(false, std::memory_order_relaxed);
}

void
Tracer::reset()
{
    TracerState& s = state();
    std::lock_guard<std::mutex> g(s.mutex);
    detail::g_armed.store(false, std::memory_order_relaxed);
    s.rings.clear();
    s.forensics.clear();
    s.next_tid = 0;
    detail::g_epoch.fetch_add(1, std::memory_order_relaxed);
}

std::vector<ThreadTrace>
Tracer::snapshot()
{
    TracerState& s = state();
    std::lock_guard<std::mutex> g(s.mutex);
    std::vector<ThreadTrace> out;
    out.reserve(s.rings.size());
    for (const auto& ring : s.rings)
        out.push_back(snapshot_ring(*ring));
    return out;
}

uint64_t
Tracer::dropped_total()
{
    TracerState& s = state();
    std::lock_guard<std::mutex> g(s.mutex);
    uint64_t total = 0;
    for (const auto& ring : s.rings) {
        const size_t cap = ring->slots.size();
        if (ring->next_seq > cap)
            total += ring->next_seq - cap;
    }
    return total;
}

size_t
Tracer::thread_count()
{
    TracerState& s = state();
    std::lock_guard<std::mutex> g(s.mutex);
    return s.rings.size();
}

// --------------------------------------------------------------------------
// Forensics
// --------------------------------------------------------------------------

void
add_forensic(const ForensicLogRec& rec)
{
    TracerState& s = state();
    std::lock_guard<std::mutex> g(s.mutex);
    s.forensics.push_back(rec);
}

std::vector<ForensicLogRec>
pending_forensics()
{
    TracerState& s = state();
    std::lock_guard<std::mutex> g(s.mutex);
    return s.forensics;
}

size_t
collect_ido_forensics(IdoRuntime& rt)
{
    size_t captured = 0;
    auto& heap = rt.heap();
    auto& dom = rt.domain();
    for (uint64_t off : rt.log_records(nvm::RootSlot::kIdoLogHead)) {
        const auto* rec = heap.resolve<IdoLogRec>(off);
        const uint64_t pc = dom.load_val(&rec->recovery_pc);
        if (pc == kInactivePc)
            continue;
        ForensicLogRec f;
        f.source = ForensicSource::kIdo;
        f.rec_off = off;
        f.thread_tag = dom.load_val(&rec->thread_tag);
        f.recovery_pc = pc;
        const uint64_t bitmap = dom.load_val(&rec->lock_bitmap);
        for (size_t slot = 0; slot < kMaxHeldLocks; ++slot) {
            if (bitmap & (1ull << slot))
                f.lock_holders.push_back(
                    dom.load_val(&rec->lock_array[slot]));
        }
        for (size_t i = 0; i < rt::kNumIntRegs; ++i)
            f.intRF[i] = dom.load_val(&rec->intRF[i]);
        for (size_t i = 0; i < rt::kNumFloatRegs; ++i)
            f.floatRF[i] = dom.load_val(&rec->floatRF[i]);
        add_forensic(f);
        ++captured;
    }
    return captured;
}

size_t
collect_justdo_forensics(baselines::JustdoRuntime& rt)
{
    using baselines::JustdoLogRec;
    size_t captured = 0;
    auto& heap = rt.heap();
    auto& dom = rt.domain();
    for (uint64_t off : rt.log_records(nvm::RootSlot::kJustdoState)) {
        const auto* rec = heap.resolve<JustdoLogRec>(off);
        const uint64_t sel = dom.load_val(&rec->cur_snap) & 1;
        const auto* snap = &rec->snap[sel];
        const uint64_t pc = dom.load_val(&snap->recovery_pc);
        if (pc == kInactivePc)
            continue;
        ForensicLogRec f;
        f.source = ForensicSource::kJustdo;
        f.rec_off = off;
        f.thread_tag = dom.load_val(&rec->thread_tag);
        f.recovery_pc = pc;
        f.snap_selector = sel;
        const uint64_t bitmap = dom.load_val(&rec->lock_bitmap);
        for (size_t slot = 0; slot < 16; ++slot) {
            if (bitmap & (1ull << slot))
                f.lock_holders.push_back(
                    dom.load_val(&rec->lock_array[slot]));
        }
        for (size_t i = 0; i < rt::kNumIntRegs; ++i)
            f.intRF[i] = dom.load_val(&snap->intRF[i]);
        for (size_t i = 0; i < rt::kNumFloatRegs; ++i)
            f.floatRF[i] = dom.load_val(&snap->floatRF[i]);
        add_forensic(f);
        ++captured;
    }
    return captured;
}

// --------------------------------------------------------------------------
// Binary serialization (ido-trace format v1)
// --------------------------------------------------------------------------
//
//   u64 magic "IDOTRACE" | u32 version | u32 reserved
//   name table:  u32 n_fases, then per FASE:
//                u32 fase_id, u32 n_regions, strz name, strz regions...
//   threads:     u32 n_threads, then per thread:
//                u32 tid, u32 pad, u64 emitted, u64 dropped,
//                u64 n_records, raw TraceRecord[n_records]
//   forensics:   u32 n_recs, then per record:
//                u32 source, u32 n_locks, u64 rec_off, u64 thread_tag,
//                u64 recovery_pc, u64 snap_selector,
//                u64 locks[n_locks], u64 intRF[16], f64 floatRF[8]

namespace {

constexpr uint64_t kMagic = 0x45434152544f4449ull; // "IDOTRACE" LE
constexpr uint32_t kVersion = 1;

void
put_u32(std::FILE* f, uint32_t v)
{
    std::fwrite(&v, sizeof(v), 1, f);
}

void
put_u64(std::FILE* f, uint64_t v)
{
    std::fwrite(&v, sizeof(v), 1, f);
}

void
put_strz(std::FILE* f, const char* s)
{
    std::fwrite(s, 1, std::strlen(s) + 1, f);
}

} // namespace

bool
Tracer::write_file(const std::string& path)
{
    const std::vector<ThreadTrace> threads = snapshot();
    const std::vector<ForensicLogRec> forensics = pending_forensics();
    const auto programs = rt::FaseRegistry::instance().programs();

    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return false;
    put_u64(f, kMagic);
    put_u32(f, kVersion);
    put_u32(f, 0);

    put_u32(f, static_cast<uint32_t>(programs.size()));
    for (const rt::FaseProgram* p : programs) {
        put_u32(f, p->fase_id);
        put_u32(f, static_cast<uint32_t>(p->regions.size()));
        put_strz(f, p->name);
        for (const rt::RegionMeta& m : p->regions)
            put_strz(f, m.name);
    }

    put_u32(f, static_cast<uint32_t>(threads.size()));
    for (const ThreadTrace& t : threads) {
        put_u32(f, t.tid);
        put_u32(f, 0);
        put_u64(f, t.emitted);
        put_u64(f, t.dropped);
        put_u64(f, t.records.size());
        if (!t.records.empty())
            std::fwrite(t.records.data(), sizeof(TraceRecord),
                        t.records.size(), f);
    }

    put_u32(f, static_cast<uint32_t>(forensics.size()));
    for (const ForensicLogRec& fr : forensics) {
        put_u32(f, static_cast<uint32_t>(fr.source));
        put_u32(f, static_cast<uint32_t>(fr.lock_holders.size()));
        put_u64(f, fr.rec_off);
        put_u64(f, fr.thread_tag);
        put_u64(f, fr.recovery_pc);
        put_u64(f, fr.snap_selector);
        for (uint64_t h : fr.lock_holders)
            put_u64(f, h);
        std::fwrite(fr.intRF, sizeof(uint64_t), rt::kNumIntRegs, f);
        std::fwrite(fr.floatRF, sizeof(double), rt::kNumFloatRegs, f);
    }

    const bool ok = std::fflush(f) == 0 && !std::ferror(f);
    std::fclose(f);
    return ok;
}

// --------------------------------------------------------------------------
// Event-kind metadata
// --------------------------------------------------------------------------

const char*
event_kind_name(EventKind k)
{
    switch (k) {
      case EventKind::kNone:
        return "none";
      case EventKind::kFaseBegin:
        return "fase.begin";
      case EventKind::kFaseEnd:
        return "fase.end";
      case EventKind::kFaseResume:
        return "fase.resume";
      case EventKind::kRegionBegin:
        return "region.begin";
      case EventKind::kRegionEnd:
        return "region.end";
      case EventKind::kLockAcquire:
        return "lock.acquire";
      case EventKind::kLockContend:
        return "lock.contend";
      case EventKind::kLockRelease:
        return "lock.release";
      case EventKind::kCrashFired:
        return "crash.fired";
      case EventKind::kFlush:
        return "persist.flush";
      case EventKind::kFence:
        return "persist.fence";
      case EventKind::kAlloc:
        return "alloc.alloc";
      case EventKind::kFree:
        return "alloc.free";
      case EventKind::kPersistOutputs:
        return "ido.persist_outputs";
      case EventKind::kAdvancePc:
        return "ido.advance_pc";
      case EventKind::kSingleStore:
        return "ido.single_store";
      case EventKind::kLogRecAttach:
        return "log.attach";
      case EventKind::kRecoveryBegin:
        return "recovery.begin";
      case EventKind::kRecoveryEnd:
        return "recovery.end";
      case EventKind::kRecoverLocksBegin:
        return "recovery.locks.begin";
      case EventKind::kRecoverLocksEnd:
        return "recovery.locks.end";
      case EventKind::kRecoverRestoreCtx:
        return "recovery.restore_ctx";
      case EventKind::kRecoverResumeBegin:
        return "recovery.resume.begin";
      case EventKind::kRecoverResumeEnd:
        return "recovery.resume.end";
      case EventKind::kRecoverUndoBegin:
        return "recovery.undo.begin";
      case EventKind::kRecoverUndoEnd:
        return "recovery.undo.end";
      case EventKind::kArenaRefill:
        return "alloc.refill";
      case EventKind::kCacheSpill:
        return "alloc.spill";
      case EventKind::kLeakReclaim:
        return "alloc.reclaim";
      case EventKind::kConnOpen:
        return "net.conn.open";
      case EventKind::kConnClose:
        return "net.conn.close";
      case EventKind::kGroupOpen:
        return "net.group.open";
      case EventKind::kGroupClose:
        return "net.group.close";
      case EventKind::kNetRequest:
        return "net.request";
      case EventKind::kMaxKind:
        break;
    }
    return "?";
}

bool
event_kind_is_begin(EventKind k)
{
    return event_kind_end_of(k) != EventKind::kNone;
}

EventKind
event_kind_end_of(EventKind k)
{
    switch (k) {
      case EventKind::kFaseBegin:
      case EventKind::kFaseResume:
        return EventKind::kFaseEnd;
      case EventKind::kRegionBegin:
        return EventKind::kRegionEnd;
      case EventKind::kRecoveryBegin:
        return EventKind::kRecoveryEnd;
      case EventKind::kRecoverLocksBegin:
        return EventKind::kRecoverLocksEnd;
      case EventKind::kRecoverResumeBegin:
        return EventKind::kRecoverResumeEnd;
      case EventKind::kRecoverUndoBegin:
        return EventKind::kRecoverUndoEnd;
      case EventKind::kConnOpen:
        return EventKind::kConnClose;
      case EventKind::kGroupOpen:
        return EventKind::kGroupClose;
      default:
        return EventKind::kNone;
    }
}

} // namespace ido::trace
