/**
 * @file
 * iDO recovery (paper Sec. III-C).
 *
 *  1. detect the crash and retrieve the iDO log list;
 *  2. create a recovery thread for each interrupted record;
 *  3. each recovery thread reacquires the locks in its lock_array and
 *     executes a barrier with respect to the other recovery threads;
 *  4. each thread restores its registers from the log and jumps to the
 *     beginning of its interrupted idempotent region;
 *  5. each thread executes to the end of its FASE, at which point no
 *     lock is held and recovery is complete.
 */
#include <atomic>
#include <barrier>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/panic.h"
#include "ido/ido_runtime.h"
#include "nvm/heap_gc.h"
#include "stats/persist_stats.h"
#include "stats/recovery_timeline.h"
#include "stats/stat_plane.h"
#include "trace/trace.h"

namespace ido {

void
IdoRuntime::recover()
{
    RecoveryTimeline& tl = RecoveryTimeline::instance();
    tl.start("crash");
    persist_counters_flush_tls();
    const PersistCounters persist_before = persist_counters_global();
    std::atomic<uint64_t> locks_reacquired{0};
    // Reachability GC rides the recovery timeline: audit by default
    // (census + leak report, writes nothing), repair when the config
    // opts in.  It runs after the log-driven phases so resumed FASEs
    // have retired their log records -- an interrupted record pins the
    // heap and would otherwise show up as a pinned finding.
    const auto run_heap_gc = [&] {
        const uint64_t t = stat_now_ns();
        nvm::HeapGc gc(alloc_, dom_);
        const nvm::GcStats gs =
            cfg_.gc_repair_on_recovery ? gc.repair() : gc.audit();
        nvm::HeapGc::publish(gs);
        tl.add_phase("heap-gc", stat_now_ns() - t, gs.leaked_blocks);
        tl.set_field("leaked_blocks", gs.leaked_blocks);
        tl.set_field("leaked_bytes", gs.leaked_bytes);
        // Where the heap-gc phase went, from the GC's own stamps.
        tl.set_field("gc_index_ms", gs.index_ns / 1000000);
        tl.set_field("gc_mark_ms", gs.mark_ns / 1000000);
        tl.set_field("gc_census_ms", gs.census_ns / 1000000);
        tl.set_field("gc_reclaim_ms", gs.reclaim_ns / 1000000);
        tl.set_field("gc_mark_threads", gs.mark_threads);
        if (cfg_.gc_repair_on_recovery)
            tl.set_field("gc_reclaimed_blocks", gs.reclaimed_blocks);
    };
    const auto seal_timeline = [&] {
        // Worker-thread persist counters folded at their exits; only
        // the caller's TLS still needs flushing.
        persist_counters_flush_tls();
        const PersistCounters after = persist_counters_global();
        tl.set_field("locks_reacquired",
                     locks_reacquired.load(std::memory_order_relaxed));
        tl.set_field("flushes",
                     after.flushes - persist_before.flushes);
        tl.set_field("fences", after.fences - persist_before.fences);
        tl.finish();
        tl.publish_metrics();
        if (const char* d = std::getenv("IDO_TRACE_DIR");
            d != nullptr && *d != '\0')
            tl.write_file(d);
    };

    // The crashed run's transient locks are all implicitly released.
    uint64_t t0 = stat_now_ns();
    bump_lock_epoch();
    // Relink any block the crashed epoch stranded mid-free
    // (NvHeap's online leak reclamation).
    const uint64_t reclaimed = alloc_.recover_leaks(dom_);
    tl.add_phase("leak-reclaim", stat_now_ns() - t0, reclaimed);
    tl.set_field("leaks_reclaimed", reclaimed);

    t0 = stat_now_ns();
    std::vector<uint64_t> active;
    for (uint64_t off : log_rec_offsets()) {
        auto* rec = heap_.resolve<IdoLogRec>(off);
        if (dom_.load_val(&rec->recovery_pc) != kInactivePc)
            active.push_back(off);
    }
    tl.add_phase("scan-log-records", stat_now_ns() - t0, active.size());
    tl.set_field("fases_resumed", active.size());
    if (active.empty()) {
        run_heap_gc();
        seal_timeline();
        return;
    }
    trace::emit(trace::EventKind::kRecoveryBegin, 0, active.size());
    t0 = stat_now_ns();

    std::barrier barrier(static_cast<std::ptrdiff_t>(active.size()));
    std::vector<std::thread> workers;
    workers.reserve(active.size());
    for (uint64_t rec_off : active) {
        workers.emplace_back(
            [this, rec_off, &barrier, &locks_reacquired] {
            bool arrived = false;
            try {
                IdoThread th(*this, rec_off);
                locks_reacquired.fetch_add(
                    th.reacquire_crashed_locks(),
                    std::memory_order_relaxed);
                // No recovery thread may start executing before every
                // lock held at crash time has been reclaimed by its
                // owner; otherwise a FASE could race with a
                // not-yet-reprotected peer (recovery step 3).
                arrived = true;
                barrier.arrive_and_wait();
                const uint64_t pc =
                    dom_.load_val(&th.rec()->recovery_pc);
                const rt::FaseProgram* prog =
                    rt::FaseRegistry::instance().lookup(
                        recovery_pc_fase(pc));
                rt::RegionCtx ctx;
                th.restore_ctx(ctx);
                trace::emit(trace::EventKind::kRecoverResumeBegin, pc);
                th.resume_fase(*prog, recovery_pc_region(pc), ctx);
                trace::emit(trace::EventKind::kRecoverResumeEnd, pc);
            } catch (const rt::SimCrashException&) {
                // Recovery itself "crashed" (test injection).  The log
                // record still names the interrupted region, so a later
                // recovery pass redoes this work -- recovery is
                // idempotent by the same argument as the regions.
                if (!arrived)
                    barrier.arrive_and_drop();
            }
        });
    }
    for (std::thread& t : workers)
        t.join();
    trace::emit(trace::EventKind::kRecoveryEnd, 0, active.size());
    tl.add_phase("resume-fases", stat_now_ns() - t0, active.size());
    run_heap_gc();
    seal_timeline();

    // Post-condition: every record is inactive and no locks are held
    // (unless recovery itself was crash-injected, in which case the
    // next recovery pass finishes the job).
    if (!crash_.crashed()) {
        for (uint64_t off : active) {
            auto* rec = heap_.resolve<IdoLogRec>(off);
            IDO_ASSERT(dom_.load_val(&rec->recovery_pc) == kInactivePc,
                       "recovery left an active FASE behind");
        }
    }
}

} // namespace ido
