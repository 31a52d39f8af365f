/**
 * @file
 * ido-fuzz record/replay core (mem-order / COREMU style).
 *
 * Multi-threaded crash tests are only as good as their reproducibility:
 * a failing interleaving found by randomized scheduling is gone forever
 * once the process exits.  This layer makes any simulated run bit-for-
 * bit reproducible by recording the *synchronization order* of the run
 * into lock-free per-thread logs and replaying it exactly.
 *
 * Model.  Every cross-thread ordering decision in the simulated world
 * is funneled through a small set of sync objects, each named by a
 * stable 64-bit key (obj_key): the 64 ShadowDomain shard mutexes, the
 * NvHeap refill/shard/link/tcache mutexes, each indirect-lock holder
 * slot (keyed by its heap *offset*, stable across runs), and the
 * CrashScheduler fuse (one global object, so the countdown order --
 * and therefore the crash point and the thread that burns the fuse --
 * is part of the recording).  Per object we keep a version counter:
 *
 *  - record: acquire the object natively, then append {key, version}
 *    to the calling thread's log and bump the version (serialized by
 *    the object itself, exactly the seqlock idiom of mem-order).
 *  - replay: before acquiring, spin until the object's version equals
 *    the recorded value -- i.e. wait for this thread's recorded turn --
 *    then acquire and bump.  Program order plus the per-object recorded
 *    total orders reconstruct the recorded happens-before relation, so
 *    the replayed waits-for graph is a subgraph of a real execution's
 *    and can never deadlock, provided every mutex whose critical
 *    section contains instrumented waits is itself instrumented (true
 *    for the set above; see DESIGN.md Sec. 14).
 *
 * Everything else that a run observes is derived state: persistent
 * values flow through ShadowDomain (shard-ordered), allocator metadata
 * through the NvHeap mutexes (ordered), workload choices through seeded
 * per-thread RNGs, and the crash-time line lottery through a pure hash
 * of (seed, line offset).  A thread that died mid-recording (fail-stop)
 * simply has a shorter log; in replay, exhausting a log of a crashed
 * recording kills the thread with SimCrashException at its next sync
 * attempt -- the same fail-stop semantics.
 *
 * The logs are lock-free on the hot path (preallocated slots + one
 * release-store of the count per append), so a panic handler can
 * snapshot them safely while worker threads are still running -- a
 * crashing fuzz sample leaves a usable .rec artifact behind.
 *
 * Cost when off: one relaxed load + branch per sync point.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ido::fuzz {

enum class RrMode : uint8_t
{
    kOff = 0,
    kRecord = 1,
    kReplay = 2,
};

/** Namespaces of the 64-bit sync-object key space. */
enum class ObjKind : uint8_t
{
    kTick = 1,        ///< the CrashScheduler fuse (one global object)
    kShadowShard,     ///< ShadowDomain shard mutex; id = shard index
    kHeapRefill,      ///< NvHeap global bump mutex
    kHeapShard,       ///< NvHeap free-list shard mutex; id = shard
    kHeapLink,        ///< NvHeap alloc_linked root mutex; id = RootSlot
    kHeapTc,          ///< NvHeap thread-cache registration mutex
    kFaseLock,        ///< indirect lock; id = holder slot heap offset
    kScenario,        ///< scripted regression scenarios (fuzz driver)
};

constexpr uint64_t
obj_key(ObjKind kind, uint64_t id = 0)
{
    return (static_cast<uint64_t>(kind) << 56) | (id & ((1ull << 56) - 1));
}

constexpr ObjKind
obj_key_kind(uint64_t key)
{
    return static_cast<ObjKind>(key >> 56);
}

constexpr uint64_t
obj_key_id(uint64_t key)
{
    return key & ((1ull << 56) - 1);
}

const char* obj_kind_name(ObjKind kind);

/** One recorded sync operation: the thread took `key`'s turn number
 *  `version`.  16 bytes, the unit of the .rec artifact's logs. */
struct MemOp
{
    uint64_t key;
    uint64_t version;
};

inline bool
operator==(const MemOp& a, const MemOp& b)
{
    return a.key == b.key && a.version == b.version;
}

namespace rr {

namespace detail {
extern std::atomic<uint8_t> g_mode;
void pre_slow(uint64_t key);
void post_slow(uint64_t key);
void mutex_lock_slow(std::mutex& m, uint64_t key);
} // namespace detail

inline RrMode
mode()
{
    return static_cast<RrMode>(
        detail::g_mode.load(std::memory_order_relaxed));
}

inline bool
active()
{
    return mode() != RrMode::kOff;
}

// ---- session control (fuzz driver / test side) -------------------------

/**
 * Begin recording.  All worker threads of the recorded phase must be
 * created after this call and register with ThreadScope; they must be
 * joined before stop_record().  `chaos_pct` is the per-sync-point
 * probability of a seeded schedule perturbation (yield or a short spin)
 * -- the fuzzer's interleaving-exploration knob; whatever schedule the
 * perturbation provokes is recorded, so it replays.  `log_capacity` is
 * per-thread (ops); overflowing it voids the session (failed()).
 */
void start_record(uint64_t seed, uint32_t chaos_pct,
                  size_t log_capacity = size_t{1} << 19);

/** End recording; returns per-logical-tid logs.  Threads must be joined. */
std::vector<std::vector<MemOp>> stop_record();

/**
 * Lock-free snapshot of the in-progress recording (panic-handler path:
 * safe against concurrently appending workers, may miss the very last
 * entries of a thread mid-append).
 */
std::vector<std::vector<MemOp>> snapshot_record_logs();

/**
 * Begin replay of previously recorded logs.  `recording_crashed` tells
 * exhaustion apart from divergence: when the recording ended in a
 * simulated crash, a thread that consumed its whole log dies with
 * SimCrashException at its next sync attempt (it died there in the
 * recording, at an un-logged point); otherwise running past the log is
 * a divergence.
 */
void start_replay(const std::vector<std::vector<MemOp>>& logs,
                  bool recording_crashed);

/**
 * End replay; returns the *consumed* per-thread log prefixes (the
 * replay-fidelity tests compare these against the recording).  Flags a
 * failure if the session neither failed nor consumed every log fully.
 */
std::vector<std::vector<MemOp>> stop_replay();

/** True once the session is void: replay divergence, a stuck replay
 *  wait, or a record-side log overflow. */
bool failed();

/** First failure description ("" if none). */
std::string failure_reason();

// ---- thread registration ----------------------------------------------

/**
 * Registers the calling thread under a stable logical tid (its index in
 * the artifact's log table).  Record and replay must use the same tid
 * for the same worker role.  No-op when rr is off, so worker loops can
 * register unconditionally.
 */
class ThreadScope
{
  public:
    explicit ThreadScope(uint32_t logical_tid);
    ~ThreadScope();

    ThreadScope(const ThreadScope&) = delete;
    ThreadScope& operator=(const ThreadScope&) = delete;

  private:
    bool registered_ = false;
};

// ---- instrumentation points --------------------------------------------

/**
 * Before attempting to acquire sync object `key`.  Record: seeded chaos
 * perturbation only.  Replay: block until this thread's recorded turn;
 * throws SimCrashException on log exhaustion of a crashed recording and
 * on divergence (after flagging failed()).
 */
inline void
pre(uint64_t key)
{
    if (active()) [[unlikely]]
        detail::pre_slow(key);
}

/**
 * After acquiring `key` (the caller must hold the underlying object, so
 * the version access is serialized).  Record: append {key, version} to
 * the thread log and bump.  Replay: consume the log entry and bump.
 */
inline void
post(uint64_t key)
{
    if (active()) [[unlikely]]
        detail::post_slow(key);
}

/** Drop-in lock_guard replacement for instrumented std::mutex sites. */
class OrderedGuard
{
  public:
    OrderedGuard(std::mutex& m, uint64_t key) : m_(m)
    {
        if (!active()) [[likely]] {
            m_.lock();
            return;
        }
        detail::mutex_lock_slow(m_, key); // pre + lock + post
    }

    ~OrderedGuard() { m_.unlock(); }

    OrderedGuard(const OrderedGuard&) = delete;
    OrderedGuard& operator=(const OrderedGuard&) = delete;

  private:
    std::mutex& m_;
};

/**
 * RAII section making one CrashScheduler::tick a recorded sync op on
 * the global kTick object.  The constructor takes the turn (record: a
 * process-wide tick spinlock; replay: the recorded turn -- may throw);
 * the *destructor* appends/consumes the log entry, so it runs during
 * SimCrashException unwinding and the fatal tick itself is recorded.
 * Ticks are thus globally totally ordered, which makes the fuse
 * countdown -- and the identity of the thread that burns it -- exactly
 * reproducible.
 */
class TickSection
{
  public:
    TickSection();
    ~TickSection();

    TickSection(const TickSection&) = delete;
    TickSection& operator=(const TickSection&) = delete;
};

} // namespace rr
} // namespace ido::fuzz
