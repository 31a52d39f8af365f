/**
 * @file
 * Figure 8 reproduction: cumulative dynamic distribution of (top)
 * persistent stores per idempotent region and (bottom) live-in
 * registers per region, for each benchmark.  The paper collected
 * these with Pin; here the runtime observes every dynamic region
 * directly.
 *
 * Paper shape: microbenchmark regions mostly have 0-1 stores; roughly
 * 30% (memcached) to 50% (redis set-path) of application regions have
 * multiple stores (the consolidation that buys iDO its advantage);
 * more than 99% of dynamic regions have fewer than five live-in
 * registers, so one cache-line flush usually covers the inputs.
 *
 * Each row counts the regions of its timed run only: the recorders are
 * zeroed after the setup (create + prefill) and before the run.
 *
 * Also prints the static region characteristics the compiler pipeline
 * derives for the IR function library (Sec. V-C flavour).
 */
#include "apps/memcached_client.h"
#include "apps/redis_client.h"
#include "bench/bench_util.h"
#include "compiler/fase_compiler.h"
#include "compiler/ir_library.h"
#include "ds/workload.h"
#include "stats/region_stats.h"

using namespace ido;
using namespace ido::bench;

int
main()
{
    const double secs = bench_seconds();

    // --- dynamic distributions (Fig. 8 proper) ------------------------
    const ds::DsKind micro[] = {ds::DsKind::kStack, ds::DsKind::kQueue,
                                ds::DsKind::kOrderedList,
                                ds::DsKind::kHashMap};
    for (const ds::DsKind s : micro) {
        nvm::PersistentHeap heap({.size = 256u << 20});
        nvm::RealDomain dom;
        rt::RuntimeConfig cfg;
        cfg.collect_region_stats = true;
        auto runtime = baselines::make_runtime(
            baselines::RuntimeKind::kIdo, heap, dom, cfg);
        ds::WorkloadConfig wl;
        wl.ds = s;
        wl.threads = 2;
        wl.duration_seconds = secs;
        const uint64_t root = ds::workload_setup(*runtime, wl);
        region_stats_reset();
        const auto result = ds::workload_run(*runtime, root, wl);
        std::fputs(format_fig8(ds::ds_kind_name(s)).c_str(), stdout);
        emit_json_row("fig8_regions", ds::ds_kind_name(s), wl.threads,
                      result.total_ops, secs);
    }

    {
        nvm::PersistentHeap heap({.size = 256u << 20});
        nvm::RealDomain dom;
        rt::RuntimeConfig cfg;
        cfg.collect_region_stats = true;
        auto runtime = baselines::make_runtime(
            baselines::RuntimeKind::kIdo, heap, dom, cfg);
        apps::MemcachedWorkloadConfig wl;
        wl.threads = 2;
        wl.set_pct = 50;
        wl.duration_seconds = secs;
        const uint64_t root = apps::memcached_setup(*runtime, wl);
        region_stats_reset();
        const auto result = apps::memcached_run(*runtime, root, wl);
        std::fputs(format_fig8("memcached").c_str(), stdout);
        emit_json_row("fig8_regions", "memcached", wl.threads,
                      result.total_ops, secs);
    }

    {
        nvm::PersistentHeap heap({.size = 512u << 20});
        nvm::RealDomain dom;
        rt::RuntimeConfig cfg;
        cfg.collect_region_stats = true;
        auto runtime = baselines::make_runtime(
            baselines::RuntimeKind::kIdo, heap, dom, cfg);
        apps::RedisWorkloadConfig wl;
        wl.key_range = 100000;
        wl.duration_seconds = secs;
        const uint64_t root = apps::redis_setup(*runtime, wl);
        region_stats_reset();
        const auto result = apps::redis_run(*runtime, root, wl);
        std::fputs(format_fig8("redis").c_str(), stdout);
        emit_json_row("fig8_regions", "redis", 1, result.total_ops,
                      secs);
    }

    // --- static region characteristics from the compiler pipeline -----
    print_header("compiler-derived static region characteristics");
    struct Entry
    {
        const char* name;
        compiler::IrFase (*make)();
    };
    const Entry entries[] = {
        {"ir.stack.push", compiler::ir_stack_push},
        {"ir.stack.pop", compiler::ir_stack_pop},
        {"ir.counter.incr", compiler::ir_counter_increment},
        {"ir.array.addloop", compiler::ir_array_add_loop},
    };
    uint32_t next_id = 7100;
    for (const Entry& e : entries) {
        compiler::IrFase f = e.make();
        compiler::CompiledFase cf(next_id++, std::move(f.fn));
        std::printf("%-18s regions=%2u antidep_cuts=%u "
                    "mandatory_cuts=%u\n",
                    e.name, cf.partition().num_regions(),
                    cf.partition().antidep_cut_count(),
                    cf.partition().mandatory_cut_count());
        for (uint32_t r = 0; r < cf.region_info().size(); ++r) {
            const auto& ri = cf.region_info()[r];
            std::printf("    region %u: instrs=%u loads=%u stores=%u "
                        "live_in=%d outputs=%d%s%s\n",
                        r, ri.num_instrs, ri.num_loads, ri.num_stores,
                        __builtin_popcountll(ri.live_in),
                        __builtin_popcountll(ri.outputs),
                        ri.has_lock ? " lock" : "",
                        ri.has_unlock ? " unlock" : "");
        }
    }
    return 0;
}
