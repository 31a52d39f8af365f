#include "fuzz/fuzz_driver.h"

#include <atomic>
#include <cstdio>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>

#include "baselines/runtime_factory.h"
#include "common/panic.h"
#include "common/rng.h"
#include "ds/workload.h"
#include "nvm/heap_gc.h"
#include "nvm/nv_heap.h"
#include "nvm/persistent_heap.h"
#include "nvm/root_registry.h"
#include "nvm/shadow_domain.h"
#include "runtime/crash_sim.h"

namespace ido::fuzz {

namespace {

constexpr size_t kWorldHeapBytes = 32u << 20;
constexpr uint64_t kPendingLineStamp = 0xA11CE5EEDull;

// ---- panic artifact ---------------------------------------------------

struct PanicCtx
{
    std::mutex m;
    bool armed = false;
    FuzzCase fc;
    std::string path;
};

PanicCtx g_panic_ctx;

void
panic_artifact_hook()
{
    // Best effort from a dying process: other threads may still be
    // appending, which the lock-free log snapshot tolerates.
    std::lock_guard<std::mutex> g(g_panic_ctx.m);
    if (!g_panic_ctx.armed)
        return;
    Recording rec;
    rec.fc = g_panic_ctx.fc;
    rec.outcome = Outcome::kPending;
    rec.reason = "panic during sample (see stderr for the panic message)";
    rec.logs = rr::snapshot_record_logs();
    if (save_recording(g_panic_ctx.path, rec)) {
        std::fprintf(stderr,
                     "[ido-fuzz] panic: repro artifact written to %s\n",
                     g_panic_ctx.path.c_str());
    }
}

// ---- the simulated world ----------------------------------------------

struct World
{
    explicit World(const FuzzCase& fc)
        : heap({.size = kWorldHeapBytes}),
          shadow(heap.base(), heap.size(), fc.seed)
    {
    }

    void
    make_runtime(const FuzzCase& fc)
    {
        rt::RuntimeConfig cfg;
        cfg.check_contracts = true;
        runtime = baselines::make_runtime(
            static_cast<baselines::RuntimeKind>(fc.runtime), heap, shadow,
            cfg);
    }

    nvm::PersistentHeap heap;
    nvm::ShadowDomain shadow;
    std::unique_ptr<rt::Runtime> runtime;
};

bool
is_ds_workload(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::kDsStack:
      case WorkloadKind::kDsQueue:
      case WorkloadKind::kDsOrderedList:
      case WorkloadKind::kDsHashMap:
        return true;
      default:
        return false;
    }
}

ds::DsKind
ds_kind_of(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::kDsQueue:
        return ds::DsKind::kQueue;
      case WorkloadKind::kDsOrderedList:
        return ds::DsKind::kOrderedList;
      case WorkloadKind::kDsHashMap:
        return ds::DsKind::kHashMap;
      default:
        return ds::DsKind::kStack;
    }
}

ds::WorkloadConfig
workload_config_of(const FuzzCase& fc)
{
    ds::WorkloadConfig cfg;
    cfg.ds = ds_kind_of(fc.workload);
    cfg.threads = fc.threads;
    cfg.ops_per_thread = fc.ops_per_thread; // count mode: deterministic
    cfg.seed = fc.seed;
    cfg.key_range = 256;
    cfg.remove_pct = 20;
    cfg.get_pct = 30;
    return cfg;
}

/** Image hashes are only meaningful when the workload takes no FASE
 *  locks: lock-holder slots persist raw transient pointers, which
 *  differ across address spaces even on a faithful replay. */
bool
hashes_image(WorkloadKind kind)
{
    return kind == WorkloadKind::kHeapChurn
           || kind == WorkloadKind::kPendingLine;
}

/** First line-aligned arena offset: the scripted scenario's target. */
uint64_t
pending_line_off(const nvm::PersistentHeap& heap)
{
    return (heap.arena_begin() + 63) & ~uint64_t{63};
}

// ---- workload bodies (run under rr record or replay) -------------------

void
run_ds_phase(World& w, const FuzzCase& fc, uint64_t root)
{
    ds::workload_run(*w.runtime, root, workload_config_of(fc));
}

void
churn_worker(World& w, const FuzzCase& fc, uint32_t tid)
{
    rr::ThreadScope scope(tid);
    Rng rng(mix_seed(fc.seed * 1009 + 7919ull * tid));
    std::vector<uint64_t> mine;
    nvm::NvHeap& alloc = w.runtime->allocator();
    rt::CrashScheduler& sched = w.runtime->crash_scheduler();
    try {
        for (uint64_t i = 0; i < fc.ops_per_thread; ++i) {
            sched.tick(); // one crash opportunity per churn op
            if (mine.empty() || rng.percent(55)) {
                const size_t n = 8 + rng.next_below(300);
                const uint64_t off = alloc.alloc(n, w.shadow);
                if (off == 0)
                    continue; // arena exhausted: keep churning frees
                uint64_t stamp = off * 0x9e3779b97f4a7c15ull + tid;
                void* p = w.heap.resolve<void>(off);
                w.shadow.store(p, &stamp, sizeof(stamp));
                w.shadow.flush(p, sizeof(stamp));
                w.shadow.fence();
                mine.push_back(off);
            } else {
                const size_t vi = rng.next_below(mine.size());
                const uint64_t off = mine[vi];
                mine[vi] = mine.back();
                mine.pop_back();
                alloc.free_block(off, w.shadow);
            }
        }
    } catch (const rt::SimCrashException&) {
        // Fail-stop: abandon everything this thread held.
    }
}

void
run_churn_phase(World& w, const FuzzCase& fc)
{
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < fc.threads; ++t)
        threads.emplace_back([&w, &fc, t] { churn_worker(w, fc, t); });
    for (auto& t : threads)
        t.join();
}

/**
 * The seed's pending-line bug as a deterministic two-thread script:
 * T0 stores A into a line and flushes it; T1 then stores B into the
 * *same* line (re-dirtying it while T0's write-back is in flight); T0
 * fences; the world crashes with kDropAll.  A is flushed+fenced, so it
 * must survive any crash -- the buggy seed ShadowDomain resolved the
 * in-flight write-back with a coin flip and could lose it.  The step
 * gating below enforces the interleaving on the recording run; replay
 * then reproduces it from the log alone.
 */
void
run_pending_line_phase(World& w)
{
    const uint64_t off = pending_line_off(w.heap);
    auto* line = w.heap.resolve<uint8_t>(off);
    std::atomic<int> step{0};
    std::thread t0([&] {
        rr::ThreadScope scope(0);
        try {
            uint64_t a = kPendingLineStamp;
            w.shadow.store(line, &a, sizeof(a));
            w.shadow.flush(line, sizeof(a));
            step.store(1, std::memory_order_release);
            while (step.load(std::memory_order_acquire) != 2)
                std::this_thread::yield();
            w.shadow.fence();
        } catch (const rt::SimCrashException&) {
            step.store(2, std::memory_order_release); // unblock peer
        }
    });
    std::thread t1([&] {
        rr::ThreadScope scope(1);
        try {
            while (step.load(std::memory_order_acquire) != 1)
                std::this_thread::yield();
            uint64_t b = 0xB0B5B0B5ull;
            w.shadow.store(line + 8, &b, sizeof(b));
            step.store(2, std::memory_order_release);
        } catch (const rt::SimCrashException&) {
            step.store(2, std::memory_order_release);
        }
    });
    t0.join();
    t1.join();
}

// ---- record/replay-shared sample execution -----------------------------

/** Everything after the workload phase: crash resolution, recovery,
 *  audit.  Runs with rr off; deterministic given the heap image, the
 *  case, and whether the fuse fired. */
void
finish_sample(World& w, const FuzzCase& fc, uint64_t root, bool crashed,
              Recording& rec)
{
    const bool with_runtime = fc.workload != WorkloadKind::kPendingLine;
    if (crashed) {
        w.shadow.crash(static_cast<nvm::CrashPolicy>(fc.crash_policy));
        if (hashes_image(fc.workload))
            rec.hash_post_crash = hash_heap_image(w.heap);
        if (with_runtime) {
            w.make_runtime(fc); // fresh scheduler, new lock epoch
            if (w.runtime->supports_recovery())
                w.runtime->recover();
        }
        w.shadow.drain_all();
    } else {
        if (with_runtime)
            w.runtime->crash_scheduler().disarm();
        w.shadow.drain_all(); // clean shutdown: everything durable
        if (hashes_image(fc.workload))
            rec.hash_post_crash = hash_heap_image(w.heap);
    }
    if (hashes_image(fc.workload))
        rec.hash_post_recovery = hash_heap_image(w.heap);

    // Audit.  Dangling links and allocator-walk violations always fail.
    // Post-crash leaks fail a data-structure workload (whose FASEs do
    // all its allocation, reachable from the app root) under iDO, which
    // logs every FASE allocation and free.  They stay legal for the
    // baselines, whose crashed allocations only an offline `ido_heap
    // gc` reclaims, and for heap_churn, which allocates outside FASEs
    // and roots nothing.
    std::string reason;
    bool ok = true;
    if (with_runtime) {
        if (!w.runtime->allocator().check_consistency()) {
            ok = false;
            reason = "allocator consistency walk failed";
        }
        nvm::HeapGc gc(w.runtime->allocator(), w.shadow);
        const nvm::GcStats stats = gc.audit();
        if (stats.dangling_links != 0) {
            ok = false;
            reason = "gc audit: " + std::to_string(stats.dangling_links)
                     + " dangling links";
            if (!stats.findings.empty())
                reason += " (" + stats.findings.front() + ")";
        } else if (stats.leaked_blocks != 0
                   && is_ds_workload(fc.workload)
                   && fc.runtime
                          == static_cast<uint32_t>(
                              baselines::RuntimeKind::kIdo)) {
            ok = false;
            reason = "gc audit: " + std::to_string(stats.leaked_blocks)
                     + " leaked blocks under ido";
            if (!stats.findings.empty())
                reason += " (" + stats.findings.front() + ")";
        }
    }
    if (is_ds_workload(fc.workload)
        && !ds::workload_check_invariants(w.heap, ds_kind_of(fc.workload),
                                          root)) {
        ok = false;
        reason = std::string(workload_kind_name(fc.workload))
                 + " structural invariants violated";
    }
    if (fc.workload == WorkloadKind::kPendingLine) {
        uint64_t got = 0;
        w.shadow.load(w.heap.resolve<void>(pending_line_off(w.heap)), &got,
                      sizeof(got));
        if (got != kPendingLineStamp) {
            ok = false;
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "flushed+fenced value lost: got %#llx",
                          static_cast<unsigned long long>(got));
            reason = buf;
        }
    }
    rec.crashed = crashed;
    rec.outcome = ok ? Outcome::kOk : Outcome::kInvariantFail;
    rec.reason = reason;
}

/** Setup phase (rr off, deterministic): build the world and structure.
 *  Returns the ds root (0 for non-ds workloads). */
uint64_t
setup_sample(World& w, const FuzzCase& fc)
{
    if (fc.workload == WorkloadKind::kPendingLine)
        return 0; // raw ShadowDomain scenario: no runtime, no allocator
    w.make_runtime(fc);
    if (!is_ds_workload(fc.workload))
        return 0;
    const uint64_t root =
        ds::workload_setup(*w.runtime, workload_config_of(fc));
    // Publish the structure as the GC's app root so the reachability
    // audit actually traces it (creates don't register roots).
    if (root != 0)
        nvm::RootRegistry::set_ref(w.heap, nvm::RootSlot::kAppRoot, root,
                                   w.shadow);
    return root;
}

void
run_workload_phase(World& w, const FuzzCase& fc, uint64_t root)
{
    if (fc.crash_fuse >= 0 && fc.workload != WorkloadKind::kPendingLine)
        w.runtime->crash_scheduler().arm(fc.crash_fuse);
    switch (fc.workload) {
      case WorkloadKind::kHeapChurn:
        run_churn_phase(w, fc);
        break;
      case WorkloadKind::kPendingLine:
        run_pending_line_phase(w);
        break;
      default:
        run_ds_phase(w, fc, root);
        break;
    }
}

bool
sample_crashed(World& w, const FuzzCase& fc)
{
    // The scripted scenario is *defined* by its driver-initiated crash;
    // everything else crashes iff the armed fuse fired.
    if (fc.workload == WorkloadKind::kPendingLine)
        return true;
    return w.runtime->crash_scheduler().crashed();
}

/** Save/restore the process seed around a sample: cases pin their own
 *  session seed without perturbing the host test binary's streams. */
class SeedScope
{
  public:
    explicit SeedScope(uint64_t seed) : saved_(global_seed())
    {
        set_global_seed(seed);
    }
    ~SeedScope() { set_global_seed(saved_); }

  private:
    uint64_t saved_;
};

} // namespace

void
arm_panic_artifact(const FuzzCase& fc, const std::string& path)
{
    std::lock_guard<std::mutex> g(g_panic_ctx.m);
    g_panic_ctx.armed = true;
    g_panic_ctx.fc = fc;
    g_panic_ctx.path = path;
    set_panic_hook(&panic_artifact_hook);
}

void
disarm_panic_artifact()
{
    std::lock_guard<std::mutex> g(g_panic_ctx.m);
    g_panic_ctx.armed = false;
    set_panic_hook(nullptr);
}

Recording
run_case_record(const FuzzCase& fc_in)
{
    FuzzCase fc = fc_in;
    if (fc.global_seed == 0)
        fc.global_seed = global_seed();
    SeedScope seed_scope(fc.global_seed);

    Recording rec;
    rec.fc = fc;
    World w(fc);
    const uint64_t root = setup_sample(w, fc);
    w.shadow.drain_all(); // workload phase starts from a durable image

    rr::start_record(fc.seed, fc.chaos_pct);
    run_workload_phase(w, fc, root);
    const bool crashed = sample_crashed(w, fc);
    rec.logs = rr::stop_record();
    if (rr::failed()) {
        rec.crashed = crashed;
        rec.outcome = Outcome::kLogOverflow;
        rec.reason = rr::failure_reason();
        return rec;
    }
    finish_sample(w, fc, root, crashed, rec);
    return rec;
}

Recording
run_case_replay(const Recording& source)
{
    const FuzzCase& fc = source.fc;
    SeedScope seed_scope(fc.global_seed);

    Recording rec;
    rec.fc = fc;
    World w(fc);
    const uint64_t root = setup_sample(w, fc);
    w.shadow.drain_all();

    rr::start_replay(source.logs, source.crashed);
    run_workload_phase(w, fc, root);
    const bool crashed = sample_crashed(w, fc);
    rec.logs = rr::stop_replay(); // consumed prefixes
    if (rr::failed()) {
        rec.crashed = crashed;
        rec.outcome = Outcome::kDivergence;
        rec.reason = rr::failure_reason();
        return rec;
    }
    finish_sample(w, fc, root, crashed, rec);
    return rec;
}

bool
logs_equal(const std::vector<std::vector<MemOp>>& a,
           const std::vector<std::vector<MemOp>>& b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i])
            return false;
    }
    return true;
}

bool
replay_matches(const Recording& source, const Recording& replayed,
               std::string* why)
{
    auto fail = [why](const std::string& s) {
        if (why != nullptr)
            *why = s;
        return false;
    };
    if (replayed.outcome == Outcome::kDivergence)
        return fail("schedule divergence: " + replayed.reason);
    if (replayed.crashed != source.crashed)
        return fail(source.crashed ? "recorded crash did not fire"
                                   : "spurious crash on replay");
    if (replayed.outcome != source.outcome)
        return fail(std::string("outcome ") + outcome_name(replayed.outcome)
                    + " != recorded " + outcome_name(source.outcome));
    if (replayed.hash_post_crash != source.hash_post_crash)
        return fail("post-crash image hash differs");
    if (replayed.hash_post_recovery != source.hash_post_recovery)
        return fail("post-recovery image hash differs");
    if (!logs_equal(source.logs, replayed.logs))
        return fail("replay consumed a different sync-op sequence");
    return true;
}

Recording
record_pending_line_case(uint64_t seed)
{
    FuzzCase fc;
    fc.workload = WorkloadKind::kPendingLine;
    fc.runtime = static_cast<uint32_t>(baselines::RuntimeKind::kIdo);
    fc.threads = 2;
    fc.ops_per_thread = 0;
    fc.crash_policy = static_cast<uint32_t>(nvm::CrashPolicy::kDropAll);
    fc.crash_fuse = -1;
    fc.chaos_pct = 0;
    fc.seed = seed;
    // The scripted interleaving always crashes (that is the scenario);
    // the fuse stays disarmed because the crash is driver-initiated.
    return run_case_record(fc);
}

SweepResult
fuzz_sweep(const SweepOptions& opts)
{
    static const WorkloadKind kSweepWorkloads[] = {
        WorkloadKind::kDsStack,    WorkloadKind::kDsQueue,
        WorkloadKind::kDsOrderedList, WorkloadKind::kDsHashMap,
        WorkloadKind::kHeapChurn,
    };
    std::vector<uint32_t> runtimes = opts.runtimes;
    if (runtimes.empty())
        runtimes.push_back(
            static_cast<uint32_t>(baselines::RuntimeKind::kIdo));

    SweepResult result;
    uint64_t sm = opts.master_seed ^ 0x5eedf00dull;
    for (uint32_t i = 0; i < opts.runs; ++i) {
        FuzzCase fc;
        fc.workload = kSweepWorkloads[splitmix64(sm)
                                      % std::size(kSweepWorkloads)];
        fc.runtime = runtimes[i % runtimes.size()];
        fc.threads = 2 + static_cast<uint32_t>(splitmix64(sm) % 7);
        fc.ops_per_thread = 64 + splitmix64(sm) % 512;
        fc.crash_policy = static_cast<uint32_t>(splitmix64(sm) % 3);
        const uint64_t budget = fc.threads * fc.ops_per_thread;
        // 1 in 8 samples runs crash-free (pure interleaving search);
        // the rest arm the fuse somewhere in the op budget.
        fc.crash_fuse = (splitmix64(sm) % 8 == 0)
            ? -1
            : static_cast<int64_t>(1 + splitmix64(sm) % (budget * 2));
        static const uint32_t kChaos[] = {0, 5, 15, 40};
        fc.chaos_pct = kChaos[splitmix64(sm) % std::size(kChaos)];
        fc.seed = splitmix64(sm);
        fc.global_seed = global_seed();

        const std::string artifact_path = opts.out_dir + "/fuzz_fail_"
                                          + std::to_string(i) + ".rec";
        arm_panic_artifact(fc, artifact_path);
        Recording rec = run_case_record(fc);
        disarm_panic_artifact();

        result.total += 1;
        if (rec.crashed)
            result.crashed += 1;
        if (opts.verbose) {
            std::fprintf(
                stderr,
                "[ido-fuzz] #%u %s/%s threads=%u ops=%llu policy=%u "
                "fuse=%lld chaos=%u -> %s%s%s\n",
                i, workload_kind_name(fc.workload),
                baselines::runtime_kind_name(
                    static_cast<baselines::RuntimeKind>(fc.runtime)),
                fc.threads,
                static_cast<unsigned long long>(fc.ops_per_thread),
                fc.crash_policy, static_cast<long long>(fc.crash_fuse),
                fc.chaos_pct, outcome_name(rec.outcome),
                rec.crashed ? " (crashed)" : "",
                rec.reason.empty() ? "" : (" -- " + rec.reason).c_str());
        }
        if (rec.outcome != Outcome::kOk) {
            result.failures += 1;
            if (save_recording(artifact_path, rec)) {
                result.artifacts.push_back(artifact_path);
                std::fprintf(stderr,
                             "[ido-fuzz] sample #%u FAILED (%s: %s) -- "
                             "artifact: %s\n",
                             i, outcome_name(rec.outcome),
                             rec.reason.c_str(), artifact_path.c_str());
            }
        }
    }
    return result;
}

} // namespace ido::fuzz
