#include "fuzz/rr.h"

#include <array>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/panic.h"
#include "common/rng.h"
#include "runtime/crash_sim.h"

namespace ido::fuzz::rr {

namespace detail {
std::atomic<uint8_t> g_mode{0};
} // namespace detail

namespace {

/** One worker's log.  Slots are preallocated and appended with a
 *  release-store of the count, so a concurrent snapshot (panic path)
 *  reads a consistent prefix without locks. */
struct ThreadLog
{
    uint32_t tid = 0;
    std::vector<MemOp> ops;       ///< record: fixed capacity, index-assigned
    std::atomic<size_t> count{0}; ///< record: entries written
    size_t pos = 0;               ///< replay: next source entry to consume
    Rng chaos{0};
    bool overflowed = false;
};

struct Session
{
    uint64_t seed = 0;
    uint32_t chaos_pct = 0;
    size_t capacity = 0;
    bool recording_crashed = false;

    std::mutex reg_mutex;
    std::vector<std::unique_ptr<ThreadLog>> logs; ///< index = logical tid
    std::vector<std::vector<MemOp>> source;       ///< replay input

    std::atomic<bool> failed{false};
    std::mutex fail_mutex;
    std::string fail_reason;
};

Session g_session;

thread_local ThreadLog* t_log = nullptr;

/** Version counters, one per sync-object key, sharded for concurrent
 *  lookup-or-create.  Cell addresses are stable (heap-allocated), so
 *  replay waiters can spin on them without holding the shard mutex. */
struct VersionShard
{
    std::mutex m;
    std::unordered_map<uint64_t, std::unique_ptr<std::atomic<uint64_t>>>
        cells;
};

std::array<VersionShard, 64> g_versions;

/** Bumped by reset_versions; invalidates every thread's cell cache
 *  (cells are freed between sessions, so cached pointers go stale). */
std::atomic<uint64_t> g_version_generation{0};

std::atomic<uint64_t>*
version_cell_slow(uint64_t key)
{
    VersionShard& sh = g_versions[(key * 0x9e3779b97f4a7c15ull) >> 58];
    std::lock_guard<std::mutex> g(sh.m);
    auto& up = sh.cells[key];
    if (!up)
        up = std::make_unique<std::atomic<uint64_t>>(0);
    return up.get();
}

/**
 * Lookup-or-create with a thread-local memo on top: a sync-dense
 * workload hits the same few dozen keys (shadow shards, allocator
 * shards) millions of times, and the global shard mutex + hash lookup
 * was the dominant recording cost.
 */
std::atomic<uint64_t>*
version_cell(uint64_t key)
{
    struct Memo
    {
        uint64_t generation = ~uint64_t{0};
        std::unordered_map<uint64_t, std::atomic<uint64_t>*> cells;
    };
    thread_local Memo memo;
    const uint64_t gen =
        g_version_generation.load(std::memory_order_acquire);
    if (memo.generation != gen) {
        memo.cells.clear();
        memo.generation = gen;
    }
    auto it = memo.cells.find(key);
    if (it != memo.cells.end())
        return it->second;
    std::atomic<uint64_t>* cell = version_cell_slow(key);
    memo.cells.emplace(key, cell);
    return cell;
}

void
reset_versions()
{
    for (VersionShard& sh : g_versions) {
        std::lock_guard<std::mutex> g(sh.m);
        sh.cells.clear();
    }
    g_version_generation.fetch_add(1, std::memory_order_acq_rel);
}

/** Record-mode tick serialization (replay serializes by turn order). */
std::atomic<bool> g_tick_lock{false};

void
set_failed(const std::string& why)
{
    bool expected = false;
    if (g_session.failed.compare_exchange_strong(expected, true)) {
        std::lock_guard<std::mutex> g(g_session.fail_mutex);
        g_session.fail_reason = why;
        std::fprintf(stderr, "[ido-fuzz] rr session failed: %s\n",
                     why.c_str());
    }
}

std::string
key_str(uint64_t key)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s:%llu",
                  obj_kind_name(obj_key_kind(key)),
                  static_cast<unsigned long long>(obj_key_id(key)));
    return buf;
}

ThreadLog&
require_log(uint64_t key)
{
    ThreadLog* tl = t_log;
    if (tl == nullptr) {
        panic("ido-fuzz: sync op on %s from a thread with no "
              "rr::ThreadScope while record/replay is active -- every "
              "thread of the recorded phase must register a logical tid",
              key_str(key).c_str());
    }
    return *tl;
}

void
inject_chaos(ThreadLog& tl)
{
    if (g_session.chaos_pct == 0 || !tl.chaos.percent(g_session.chaos_pct))
        return;
    switch (tl.chaos.next_below(3)) {
      case 0:
        std::this_thread::yield();
        break;
      case 1:
        for (uint64_t i = tl.chaos.next_below(256); i > 0; --i) {
#if defined(__x86_64__)
            __builtin_ia32_pause();
#endif
        }
        break;
      default:
        for (uint64_t i = tl.chaos.next_below(4096); i > 0; --i) {
#if defined(__x86_64__)
            __builtin_ia32_pause();
#endif
        }
        break;
    }
}

void
record_append(ThreadLog& tl, uint64_t key, uint64_t version)
{
    const size_t n = tl.count.load(std::memory_order_relaxed);
    if (n >= tl.ops.size()) {
        if (!tl.overflowed) {
            tl.overflowed = true;
            set_failed("record log overflow on thread "
                       + std::to_string(tl.tid) + " (capacity "
                       + std::to_string(tl.ops.size())
                       + "); raise log_capacity");
        }
        return;
    }
    tl.ops[n] = MemOp{key, version};
    tl.count.store(n + 1, std::memory_order_release);
}

/** Replay: block until this thread's recorded turn on `key`.  Throws
 *  SimCrashException to unwind the worker on exhaustion/divergence. */
void
replay_wait_turn(ThreadLog& tl, uint64_t key)
{
    const std::vector<MemOp>& src = g_session.source[tl.tid];
    if (tl.pos >= src.size()) {
        // The recorded thread performed no further sync ops.  If the
        // recording ended in a crash it died at some un-logged point
        // past here; fail-stop this thread the same way.  A session
        // that already failed also unwinds (don't wait on a schedule
        // nobody is driving anymore).
        if (!g_session.recording_crashed
            && !g_session.failed.load(std::memory_order_relaxed)) {
            set_failed("replay ran past the recorded log on thread "
                       + std::to_string(tl.tid) + " (next op "
                       + key_str(key)
                       + "): stale artifact or unrecorded "
                         "nondeterminism");
        }
        throw rt::SimCrashException{};
    }
    const MemOp expect = src[tl.pos];
    if (expect.key != key) {
        set_failed("replay divergence on thread " + std::to_string(tl.tid)
                   + " at log index " + std::to_string(tl.pos)
                   + ": recorded " + key_str(expect.key) + " v"
                   + std::to_string(expect.version) + ", executing "
                   + key_str(key)
                   + " -- stale artifact or unrecorded nondeterminism");
        throw rt::SimCrashException{};
    }
    std::atomic<uint64_t>* cell = version_cell(key);
    uint64_t spins = 0;
    while (cell->load(std::memory_order_acquire) != expect.version) {
        if (g_session.failed.load(std::memory_order_relaxed))
            throw rt::SimCrashException{};
        if (++spins > (uint64_t{1} << 26)) {
            set_failed("replay stuck waiting for turn v"
                       + std::to_string(expect.version) + " on "
                       + key_str(key) + " (thread "
                       + std::to_string(tl.tid)
                       + "): stale artifact or unrecorded "
                         "nondeterminism");
            throw rt::SimCrashException{};
        }
        if ((spins & 0x3f) == 0) {
            std::this_thread::yield();
        } else {
#if defined(__x86_64__)
            __builtin_ia32_pause();
#endif
        }
    }
}

void
consume_and_bump(ThreadLog& tl, uint64_t key)
{
    ++tl.pos;
    // The turn holder is exclusive between wait and bump; a plain
    // store would do, but fetch_add keeps the invariant obvious.
    version_cell(key)->fetch_add(1, std::memory_order_acq_rel);
}

void
reset_session(uint64_t seed, uint32_t chaos_pct, size_t capacity)
{
    std::lock_guard<std::mutex> g(g_session.reg_mutex);
    g_session.seed = seed;
    g_session.chaos_pct = chaos_pct;
    g_session.capacity = capacity;
    g_session.recording_crashed = false;
    g_session.logs.clear();
    g_session.source.clear();
    g_session.failed.store(false, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> fg(g_session.fail_mutex);
        g_session.fail_reason.clear();
    }
    reset_versions();
    g_tick_lock.store(false, std::memory_order_relaxed);
}

} // namespace

// ---- detail slow paths -------------------------------------------------

namespace detail {

void
pre_slow(uint64_t key)
{
    ThreadLog& tl = require_log(key);
    if (mode() == RrMode::kRecord) {
        inject_chaos(tl);
        return;
    }
    replay_wait_turn(tl, key);
}

void
post_slow(uint64_t key)
{
    ThreadLog& tl = require_log(key);
    std::atomic<uint64_t>* cell = version_cell(key);
    if (mode() == RrMode::kRecord) {
        // Serialized by the object the caller holds.
        const uint64_t v = cell->load(std::memory_order_relaxed);
        record_append(tl, key, v);
        cell->store(v + 1, std::memory_order_release);
        return;
    }
    consume_and_bump(tl, key);
}

void
mutex_lock_slow(std::mutex& m, uint64_t key)
{
    pre_slow(key); // replay may throw -- before the lock, so no leak
    m.lock();
    post_slow(key);
}

} // namespace detail

// ---- session control ---------------------------------------------------

void
start_record(uint64_t seed, uint32_t chaos_pct, size_t log_capacity)
{
    IDO_ASSERT(mode() == RrMode::kOff,
               "start_record with an rr session already active");
    reset_session(seed, chaos_pct, log_capacity);
    detail::g_mode.store(static_cast<uint8_t>(RrMode::kRecord),
                         std::memory_order_release);
}

std::vector<std::vector<MemOp>>
stop_record()
{
    IDO_ASSERT(mode() == RrMode::kRecord, "stop_record while not recording");
    detail::g_mode.store(static_cast<uint8_t>(RrMode::kOff),
                         std::memory_order_release);
    std::lock_guard<std::mutex> g(g_session.reg_mutex);
    std::vector<std::vector<MemOp>> out(g_session.logs.size());
    for (size_t i = 0; i < g_session.logs.size(); ++i) {
        if (!g_session.logs[i])
            continue;
        ThreadLog& tl = *g_session.logs[i];
        const size_t n = tl.count.load(std::memory_order_acquire);
        out[i].assign(tl.ops.begin(),
                      tl.ops.begin() + static_cast<long>(n));
    }
    return out;
}

std::vector<std::vector<MemOp>>
snapshot_record_logs()
{
    std::lock_guard<std::mutex> g(g_session.reg_mutex);
    std::vector<std::vector<MemOp>> out(g_session.logs.size());
    for (size_t i = 0; i < g_session.logs.size(); ++i) {
        if (!g_session.logs[i])
            continue;
        ThreadLog& tl = *g_session.logs[i];
        const size_t n = tl.count.load(std::memory_order_acquire);
        out[i].assign(tl.ops.begin(),
                      tl.ops.begin() + static_cast<long>(n));
    }
    return out;
}

void
start_replay(const std::vector<std::vector<MemOp>>& logs,
             bool recording_crashed)
{
    IDO_ASSERT(mode() == RrMode::kOff,
               "start_replay with an rr session already active");
    reset_session(0, 0, 0);
    {
        std::lock_guard<std::mutex> g(g_session.reg_mutex);
        g_session.source = logs;
        g_session.recording_crashed = recording_crashed;
    }
    detail::g_mode.store(static_cast<uint8_t>(RrMode::kReplay),
                         std::memory_order_release);
}

std::vector<std::vector<MemOp>>
stop_replay()
{
    IDO_ASSERT(mode() == RrMode::kReplay, "stop_replay while not replaying");
    detail::g_mode.store(static_cast<uint8_t>(RrMode::kOff),
                         std::memory_order_release);
    std::lock_guard<std::mutex> g(g_session.reg_mutex);
    std::vector<std::vector<MemOp>> out(g_session.source.size());
    bool complete = true;
    for (size_t i = 0; i < g_session.source.size(); ++i) {
        size_t pos = 0;
        if (i < g_session.logs.size() && g_session.logs[i])
            pos = g_session.logs[i]->pos;
        out[i].assign(g_session.source[i].begin(),
                      g_session.source[i].begin() + static_cast<long>(pos));
        if (pos != g_session.source[i].size())
            complete = false;
    }
    if (!complete && !g_session.failed.load(std::memory_order_relaxed)) {
        set_failed("replay ended with unconsumed log entries: the "
                   "replayed run performed fewer sync ops than the "
                   "recording");
    }
    return out;
}

bool
failed()
{
    return g_session.failed.load(std::memory_order_acquire);
}

std::string
failure_reason()
{
    std::lock_guard<std::mutex> g(g_session.fail_mutex);
    return g_session.fail_reason;
}

// ---- ThreadScope -------------------------------------------------------

ThreadScope::ThreadScope(uint32_t logical_tid)
{
    if (!active())
        return;
    registered_ = true;
    std::lock_guard<std::mutex> g(g_session.reg_mutex);
    if (g_session.logs.size() <= logical_tid)
        g_session.logs.resize(logical_tid + 1);
    IDO_ASSERT(!g_session.logs[logical_tid],
               "duplicate rr logical tid registration");
    auto tl = std::make_unique<ThreadLog>();
    tl->tid = logical_tid;
    if (mode() == RrMode::kRecord) {
        tl->ops.resize(g_session.capacity);
        uint64_t sm = g_session.seed ^ 0xc4a05u;
        sm += uint64_t{logical_tid} * 0x9e3779b97f4a7c15ull;
        tl->chaos = Rng(splitmix64(sm));
    } else {
        IDO_ASSERT(logical_tid < g_session.source.size(),
                   "replay thread tid beyond the recorded log table");
    }
    t_log = tl.get();
    g_session.logs[logical_tid] = std::move(tl);
}

ThreadScope::~ThreadScope()
{
    if (registered_)
        t_log = nullptr;
}

// ---- TickSection -------------------------------------------------------

TickSection::TickSection()
{
    constexpr uint64_t key = obj_key(ObjKind::kTick, 0);
    ThreadLog& tl = require_log(key);
    if (mode() == RrMode::kRecord) {
        inject_chaos(tl);
        uint64_t spins = 0;
        while (g_tick_lock.exchange(true, std::memory_order_acquire)) {
            if ((++spins & 0x3f) == 0) {
                std::this_thread::yield();
            } else {
#if defined(__x86_64__)
                __builtin_ia32_pause();
#endif
            }
        }
        return;
    }
    replay_wait_turn(tl, key); // may throw: no entry appended, no lock held
}

TickSection::~TickSection()
{
    constexpr uint64_t key = obj_key(ObjKind::kTick, 0);
    ThreadLog* tl = t_log; // non-null: the constructor succeeded
    if (mode() == RrMode::kRecord) {
        std::atomic<uint64_t>* cell = version_cell(key);
        const uint64_t v = cell->load(std::memory_order_relaxed);
        record_append(*tl, key, v);
        cell->store(v + 1, std::memory_order_release);
        g_tick_lock.store(false, std::memory_order_release);
        return;
    }
    consume_and_bump(*tl, key);
}

} // namespace ido::fuzz::rr

namespace ido::fuzz {

const char*
obj_kind_name(ObjKind kind)
{
    switch (kind) {
      case ObjKind::kTick:
        return "tick";
      case ObjKind::kShadowShard:
        return "shadow_shard";
      case ObjKind::kHeapRefill:
        return "heap_refill";
      case ObjKind::kHeapShard:
        return "heap_shard";
      case ObjKind::kHeapLink:
        return "heap_link";
      case ObjKind::kHeapTc:
        return "heap_tc";
      case ObjKind::kFaseLock:
        return "fase_lock";
      case ObjKind::kScenario:
        return "scenario";
    }
    return "?";
}

} // namespace ido::fuzz
