/**
 * @file
 * Anatomy of an iDO crash and recovery, narrated step by step.
 *
 * Runs a hash-map workload under the crash-accurate ShadowDomain,
 * detonates a simulated fail-stop mid-operation, shows the persistent
 * iDO log records of the interrupted FASEs (recovery_pc, held locks),
 * runs recovery-via-resumption, and verifies the structure.
 */
#include <cstdio>

#include "ds/hashmap.h"
#include "ds/workload.h"
#include "ido/ido_runtime.h"
#include "nvm/shadow_domain.h"

int
main()
{
    using namespace ido;

    nvm::PersistentHeap heap({.size = 64u << 20});
    nvm::ShadowDomain shadow(heap.base(), heap.size(), /*seed=*/2026);
    auto runtime = std::make_unique<IdoRuntime>(
        heap, shadow, rt::RuntimeConfig{});
    ds::register_all_programs();

    ds::WorkloadConfig cfg;
    cfg.ds = ds::DsKind::kHashMap;
    cfg.threads = 4;
    cfg.key_range = 64;
    cfg.map_buckets = 8;
    cfg.ops_per_thread = 1u << 20;
    const uint64_t root = ds::workload_setup(*runtime, cfg);
    shadow.drain_all();

    std::printf("running 4 threads against a persistent hash map, "
                "crash fuse armed...\n");
    runtime->crash_scheduler().arm(2000);
    ds::workload_run(*runtime, root, cfg);
    std::printf("CRASH: all threads fail-stopped; un-persisted cache "
                "lines: %zu\n",
                shadow.outstanding_lines());
    shadow.crash(nvm::CrashPolicy::kRandom);

    std::printf("\npersistent iDO log records after the crash:\n");
    for (uint64_t off : runtime->log_records(nvm::RootSlot::kIdoLogHead)) {
        const auto* rec = heap.resolve<IdoLogRec>(off);
        if (rec->recovery_pc == kInactivePc) {
            std::printf("  thread %llu: idle (no FASE in flight)\n",
                        (unsigned long long)rec->thread_tag);
        } else {
            std::printf("  thread %llu: interrupted in fase=%u "
                        "region=%u, holding %d lock(s)\n",
                        (unsigned long long)rec->thread_tag,
                        recovery_pc_fase(rec->recovery_pc),
                        recovery_pc_region(rec->recovery_pc),
                        __builtin_popcountll(rec->lock_bitmap));
        }
    }

    std::printf("\nrestarting: fresh runtime, recovery via "
                "resumption...\n");
    runtime = std::make_unique<IdoRuntime>(heap, shadow,
                                           rt::RuntimeConfig{});
    runtime->recover();
    shadow.drain_all();

    const bool ok = ds::PHashMap::check_invariants(heap, root);
    std::printf("recovery complete: every interrupted FASE ran to its "
                "end; map invariants %s; %llu keys live\n",
                ok ? "hold" : "VIOLATED",
                (unsigned long long)ds::PHashMap::size(heap, root));
    return ok ? 0 : 1;
}
