#include "ds/workload.h"

#include <pthread.h>

#include <optional>
#include <thread>
#include <vector>

#include "common/panic.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "ds/fase_ids.h"
#include "fuzz/rr.h"
#include "ds/hashmap.h"
#include "ds/ordered_list.h"
#include "ds/queue.h"
#include "ds/stack.h"
#include "stats/persist_stats.h"

namespace ido::ds {

const char*
ds_kind_name(DsKind kind)
{
    switch (kind) {
      case DsKind::kStack:
        return "stack";
      case DsKind::kQueue:
        return "queue";
      case DsKind::kOrderedList:
        return "orderedlist";
      case DsKind::kHashMap:
        return "hashmap";
    }
    return "?";
}

void
register_all_programs()
{
    auto& reg = rt::FaseRegistry::instance();
    reg.register_program(&PStack::push_program());
    reg.register_program(&PStack::pop_program());
    reg.register_program(&PQueue::enqueue_program());
    reg.register_program(&PQueue::dequeue_program());
    reg.register_program(&POrderedList::insert_program());
    reg.register_program(&POrderedList::remove_program());
    reg.register_program(&POrderedList::lookup_program());
}

uint64_t
workload_setup(rt::Runtime& rt, const WorkloadConfig& cfg)
{
    register_all_programs();
    auto th = rt.make_thread();
    uint64_t root = 0;
    switch (cfg.ds) {
      case DsKind::kStack:
        root = PStack::create(*th);
        break;
      case DsKind::kQueue:
        root = PQueue::create(*th);
        break;
      case DsKind::kOrderedList:
        root = POrderedList::create(*th);
        break;
      case DsKind::kHashMap:
        root = PHashMap::create(*th, cfg.map_buckets);
        break;
    }
    if (cfg.prefill
        && (cfg.ds == DsKind::kOrderedList || cfg.ds == DsKind::kHashMap)) {
        Rng rng(mix_seed(cfg.seed ^ 0xfeedfaceull));
        for (uint64_t i = 0; i < cfg.key_range / 2; ++i) {
            const uint64_t key = 1 + rng.next_below(cfg.key_range);
            if (cfg.ds == DsKind::kOrderedList) {
                POrderedList(root).insert(*th, key, key * 3);
            } else {
                PHashMap(rt.heap(), root).put(*th, key, key * 3);
            }
        }
    }
    persist_counters_flush_tls();
    return root;
}

namespace {

void
pin_to_core(uint32_t tid)
{
    const unsigned ncores = std::thread::hardware_concurrency();
    if (ncores == 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(tid % ncores, &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/** One worker's operation loop; returns completed ops. */
uint64_t
worker_loop(rt::Runtime& rt, uint64_t root, const WorkloadConfig& cfg,
            uint32_t tid, const Stopwatch& clock)
{
    auto th = rt.make_thread();
    // Seeded through the process-wide session seed (IDO_SEED), so any
    // randomized workload failure is re-runnable from the printed seed.
    Rng rng(mix_seed(cfg.seed + 0x1234567ull * (tid + 1)));
    uint64_t ops = 0;
    uint64_t scratch = 0;

    PStack stack(root);
    PQueue queue(root);
    POrderedList list(root);
    std::optional<PHashMap> map;
    if (cfg.ds == DsKind::kHashMap)
        map.emplace(rt.heap(), root);

    const bool count_mode = cfg.ops_per_thread != 0;
    try {
        for (;;) {
            if (count_mode) {
                if (ops >= cfg.ops_per_thread)
                    break;
            } else if ((ops & 31) == 0
                       && clock.elapsed_seconds()
                              >= cfg.duration_seconds) {
                break;
            }
            switch (cfg.ds) {
              case DsKind::kStack:
                if (rng.percent(50))
                    stack.push(*th, rng.next() | 1);
                else
                    stack.pop(*th, &scratch);
                break;
              case DsKind::kQueue:
                if (rng.percent(50))
                    queue.enqueue(*th, rng.next() | 1);
                else
                    queue.dequeue(*th, &scratch);
                break;
              case DsKind::kOrderedList:
              case DsKind::kHashMap: {
                const uint64_t key = 1 + rng.next_below(cfg.key_range);
                const uint32_t dice =
                    static_cast<uint32_t>(rng.next_below(100));
                const bool is_map = cfg.ds == DsKind::kHashMap;
                if (dice < cfg.get_pct) {
                    if (is_map)
                        map->get(*th, key, &scratch);
                    else
                        list.lookup(*th, key, &scratch);
                } else if (dice < cfg.get_pct + cfg.remove_pct) {
                    if (is_map)
                        map->remove(*th, key);
                    else
                        list.remove(*th, key);
                } else {
                    if (is_map)
                        map->put(*th, key, rng.next() | 1);
                    else
                        list.insert(*th, key, rng.next() | 1);
                }
                break;
              }
            }
            ++ops;
        }
    } catch (const rt::SimCrashException&) {
        // Fail-stop: this thread is dead; its locks and volatile state
        // are abandoned exactly as a SIGKILL would abandon them.
    }
    persist_counters_flush_tls();
    return ops;
}

} // namespace

WorkloadResult
workload_run(rt::Runtime& rt, uint64_t root_off, const WorkloadConfig& cfg)
{
    std::vector<std::thread> threads;
    std::vector<uint64_t> ops(cfg.threads, 0);
    Stopwatch clock;
    for (uint32_t t = 0; t < cfg.threads; ++t) {
        threads.emplace_back([&, t] {
            if (cfg.pin_threads)
                pin_to_core(t);
            // Stable logical tid for record/replay (no-op when off).
            fuzz::rr::ThreadScope rr_scope(t);
            ops[t] = worker_loop(rt, root_off, cfg, t, clock);
        });
    }
    for (auto& t : threads)
        t.join();

    WorkloadResult result;
    result.seconds = clock.elapsed_seconds();
    for (uint64_t o : ops)
        result.total_ops += o;
    result.crashed = rt.crash_scheduler().crashed();
    return result;
}

bool
workload_check_invariants(nvm::PersistentHeap& heap, DsKind ds,
                          uint64_t root_off)
{
    switch (ds) {
      case DsKind::kStack:
        return PStack::check_invariants(heap, root_off);
      case DsKind::kQueue:
        return PQueue::check_invariants(heap, root_off);
      case DsKind::kOrderedList:
        return POrderedList::check_invariants(heap, root_off);
      case DsKind::kHashMap:
        return PHashMap::check_invariants(heap, root_off);
    }
    return false;
}

} // namespace ido::ds
