/**
 * @file
 * ido-trace: per-thread, lock-free ring-buffer event tracing.
 *
 * The paper's argument is entirely about *where persistence events
 * happen* -- log writes and fences at region boundaries, lock
 * reacquisition during resumption -- so the tracer records exactly
 * those: FASE begin/end, region boundaries, lock acquire/contend/
 * release, crash-opportunity firing, every recovery phase, and
 * allocator / persist-domain flush+fence traffic.
 *
 * Hot-path contract (the Sec. V-B scalability runs must not be
 * perturbed):
 *  - disarmed: one relaxed load + predicted-not-taken branch per
 *    instrumentation point; no stores, no clock reads;
 *  - armed: plain (non-atomic) stores into a fixed-size thread-local
 *    ring plus one steady-clock read; no allocation, no atomic RMW,
 *    no locks.  Ring registration (first event of a thread) is the
 *    only cold path that takes a mutex.
 *
 * Overflow never blocks and never reallocates: the ring overwrites its
 * oldest records and the per-thread sequence counter keeps an exact
 * count of how many were dropped (seq_total - capacity).
 *
 * Buffers outlive their threads (they are owned by a global registry,
 * not by TLS), so a post-crash forensic dump sees the final events of
 * every fail-stopped worker -- the whole point of crash forensics.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ido::trace {

/** What happened.  a0/a1 meanings are per-kind (see comments). */
enum class EventKind : uint16_t
{
    kNone = 0,

    // FASE execution (fase_executor)
    kFaseBegin,   ///< a0 = fase_id
    kFaseEnd,     ///< a0 = fase_id
    kFaseResume,  ///< a0 = pack(fase_id, region): recovery re-entry
    kRegionBegin, ///< a0 = pack(fase_id, region_idx)
    kRegionEnd,   ///< a0 = pack(fase_id, region_idx), a1 = stores

    // Indirect locking (runtime.cpp / per-runtime do_lock)
    kLockAcquire, ///< a0 = holder slot heap offset
    kLockContend, ///< a0 = holder slot heap offset (first failed TAS)
    kLockRelease, ///< a0 = holder slot heap offset

    // Crash simulation
    kCrashFired, ///< a0 = 1 fuse burnt down here, 0 = killed after

    // Persist-domain traffic (Real + Shadow domains)
    kFlush, ///< a0 = address/offset, a1 = cache lines written back
    kFence, ///< persist fence retired

    // Allocator (nv_heap)
    kAlloc, ///< a0 = payload offset, a1 = bytes
    kFree,  ///< a0 = payload offset

    // iDO region-boundary persist pair (ido_runtime)
    kPersistOutputs, ///< a0 = finished pc; boundary step 1 + fence
    kAdvancePc,      ///< a0 = new recovery_pc; boundary step 2 + fence
    kSingleStore,    ///< a0 = heap offset, a1 = value: one-word commit

    // Log-record identity: lets the forensic timeline pair a trace
    // thread with its durable per-thread log record.
    kLogRecAttach, ///< a0 = log record heap offset, a1 = thread_tag

    // Recovery phases (ido_recovery + all baseline recover() paths)
    kRecoveryBegin,      ///< a0 = runtime kind ordinal
    kRecoveryEnd,        ///< a0 = runtime kind ordinal
    kRecoverLocksBegin,  ///< per-thread lock reacquisition starts
    kRecoverLocksEnd,    ///< a1 = locks reacquired
    kRecoverRestoreCtx,  ///< register file restored from the log
    kRecoverResumeBegin, ///< a0 = resume pc; forward re-execution
    kRecoverResumeEnd,   ///< a0 = resume pc
    kRecoverUndoBegin,   ///< a0 = log record offset (undo/redo walk)
    kRecoverUndoEnd,     ///< a1 = entries applied

    // NvHeap v2 (nv_heap)
    kArenaRefill, ///< a0 = chunk offset, a1 = chunk bytes
    kCacheSpill,  ///< a0 = size class, a1 = blocks spilled to a shard
    kLeakReclaim, ///< a0 = payload offset, a1 = pre-reclaim state word

    // ido-serve network front-end (src/net)
    kConnOpen,    ///< a0 = connection id
    kConnClose,   ///< a0 = connection id, a1 = requests served
    kGroupOpen,   ///< a0 = connection id; one callback's batch starts
    kGroupClose,  ///< a0 = connection id, a1 = requests in the batch
    kNetRequest,  ///< a0 = connection id, a1 = opcode (MemcOp)

    kMaxKind
};

const char* event_kind_name(EventKind k);

/** True for kinds that open a span closed by their matching end kind. */
bool event_kind_is_begin(EventKind k);

/** The matching end kind for a begin kind (kNone otherwise). */
EventKind event_kind_end_of(EventKind k);

/** One 32-byte trace record. */
struct TraceRecord
{
    uint64_t ts_ns; ///< steady-clock ns since Tracer::arm()
    uint64_t a0;
    uint64_t a1;
    uint32_t seq; ///< per-thread sequence number (drop accounting)
    uint16_t kind;
    uint16_t pad;
};

static_assert(sizeof(TraceRecord) == 32);

/** Snapshot of one thread's ring, oldest record first. */
struct ThreadTrace
{
    uint32_t tid = 0;          ///< tracer-assigned dense thread id
    uint64_t emitted = 0;      ///< total records emitted by the thread
    uint64_t dropped = 0;      ///< records lost to ring overwrite
    std::vector<TraceRecord> records;
};

namespace detail {

struct ThreadRing
{
    explicit ThreadRing(uint32_t tid_, size_t capacity);

    std::vector<TraceRecord> slots; ///< fixed at construction
    uint64_t next_seq = 0;          ///< total emitted (monotonic)
    uint32_t tid;
    bool retired = false; ///< owning thread exited
};

extern std::atomic<bool> g_armed;
extern std::atomic<uint64_t> g_epoch;

/** Resolve (or register) the calling thread's ring.  Cold path. */
ThreadRing* ring_for_thread();

uint64_t now_ns();

} // namespace detail

/**
 * Process-global tracer control.  arm()/disarm()/snapshot are called
 * from test or tool code only; emit() is the instrumentation point.
 */
class Tracer
{
  public:
    /** Default per-thread ring capacity (records; power of two). */
    static constexpr size_t kDefaultCapacity = 1u << 14;

    /**
     * Start recording.  Threads get a fresh ring of `capacity` records
     * (rounded up to a power of two) on their first event.  Resets the
     * clock origin; previously captured data is discarded.
     */
    static void arm(size_t capacity = kDefaultCapacity);

    /** Stop recording.  Captured rings remain readable. */
    static void disarm();

    static bool armed()
    {
        return detail::g_armed.load(std::memory_order_relaxed);
    }

    /** Drop all captured data and thread registrations. */
    static void reset();

    /** Copy out every thread's ring, oldest record first per thread. */
    static std::vector<ThreadTrace> snapshot();

    /** Sum of records lost to ring overwrite across all threads. */
    static uint64_t dropped_total();

    /** Number of threads that have emitted at least one record. */
    static size_t thread_count();

    /**
     * Serialize the captured trace (plus the FASE name table from the
     * live FaseRegistry, plus any forensic records collected via
     * trace::collect_*_forensics) to the ido-trace binary format.
     * @return true on success.
     */
    static bool write_file(const std::string& path);
};

/**
 * Record one event.  Safe to call from any thread at any time; a
 * no-op (one predicted branch) while disarmed.
 */
inline void
emit(EventKind kind, uint64_t a0 = 0, uint64_t a1 = 0)
{
    if (!Tracer::armed()) [[likely]]
        return;
    detail::ThreadRing* ring = detail::ring_for_thread();
    if (!ring)
        return; // registration raced with reset(); drop the event
    const uint64_t seq = ring->next_seq++;
    TraceRecord& r = ring->slots[seq & (ring->slots.size() - 1)];
    r.ts_ns = detail::now_ns();
    r.a0 = a0;
    r.a1 = a1;
    r.seq = static_cast<uint32_t>(seq);
    r.kind = static_cast<uint16_t>(kind);
    r.pad = 0;
}

} // namespace ido::trace
