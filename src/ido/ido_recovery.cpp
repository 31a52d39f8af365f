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
 *
 * Around those steps: the allocator's crash strays are relinked first
 * (blocks an interrupted FASE's entries name are pinned), and every
 * free a finished FASE recorded but may not have completed is finished
 * before any resumed FASE can allocate.  The strays come from the
 * census the allocator took at attach, so recovery reads no block
 * header itself.  Recovery never looks for unreachable blocks: a
 * FASE's allocations and frees are logged (ido_log.h), so a crash
 * leaves none.  Auditing reachability is `ido_heap audit`.
 */
#include <atomic>
#include <barrier>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/panic.h"
#include "ido/ido_runtime.h"
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
    // (NvHeap's online leak reclamation).  The phase owns the census
    // that found the strays: a census the attach took ran before this
    // timeline started, so its walk time is added here and to the
    // wall time.
    const uint64_t reclaimed = alloc_.recover_leaks(dom_);
    const nvm::NvHeap::CensusStats census = alloc_.census_stats();
    const uint64_t prior_ns = census.reused ? census.ns : 0;
    tl.backdate(prior_ns);
    tl.add_phase("leak-reclaim", stat_now_ns() - t0 + prior_ns, reclaimed);
    tl.set_field("leaks_reclaimed", reclaimed);
    tl.set_field("census_ns", census.ns);
    tl.set_field("census_blocks", census.blocks);
    tl.set_field("census_extents", census.extents);
    tl.set_field("census_threads", census.threads);

    t0 = stat_now_ns();
    std::vector<uint64_t> active;
    std::vector<uint64_t> inactive;
    for (uint64_t off : log_records(nvm::RootSlot::kIdoLogHead)) {
        auto* rec = heap_.resolve<IdoLogRec>(off);
        if (dom_.load_val(&rec->recovery_pc) != kInactivePc)
            active.push_back(off);
        else
            inactive.push_back(off);
    }
    tl.add_phase("scan-log-records", stat_now_ns() - t0, active.size());
    tl.set_field("fases_resumed", active.size());

    t0 = stat_now_ns();
    const uint64_t frees = complete_recorded_frees(inactive);
    tl.add_phase("finish-frees", stat_now_ns() - t0, frees);
    tl.set_field("frees_finished", frees);
    if (active.empty()) {
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

uint64_t
IdoRuntime::complete_recorded_frees(const std::vector<uint64_t>& recs)
{
    // A finished FASE cleared its free entries only after their FREEING
    // marks were durable, and the clear reaches memory before any of
    // those blocks can be reused.  So an entry that is still set names
    // a block that is either still LIVE (the crash beat the FREEING
    // mark: free it now) or freed and never reused (recover_leaks has
    // relinked it: nothing to do).  The FREEING marks are fenced before
    // the clear, so a crash in here redoes at most the LIVE ones.
    std::vector<std::pair<uint64_t*, uint64_t>> pending; // tag, raw
    for (uint64_t off : recs) {
        auto* rec = heap_.resolve<IdoLogRec>(off);
        for (IdoLogEntry& e : rec->entries) {
            const uint64_t tag = dom_.load_val(&e.tag);
            if (tag != 0 && entry_kind(tag) == LogEntryKind::kFree)
                pending.emplace_back(&e.tag, dom_.load_val(&e.block));
        }
    }
    if (pending.empty())
        return 0;
    std::vector<uint64_t> freed;
    for (const auto& [tag, raw] : pending) {
        if (alloc_.is_live(raw, dom_))
            freed.push_back(alloc_.begin_free(raw, dom_));
    }
    crash_.tick();
    dom_.fence();
    crash_.tick();
    for (const auto& [tag, raw] : pending) {
        dom_.store_val(tag, uint64_t{0});
        dom_.flush(tag, sizeof(uint64_t));
    }
    dom_.fence();
    for (const uint64_t raw : freed)
        alloc_.finish_free(raw, dom_);
    return freed.size();
}

} // namespace ido
