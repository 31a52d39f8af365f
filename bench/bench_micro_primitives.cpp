/**
 * @file
 * Microbenchmarks of the substrate primitives every runtime is built
 * from: persist fences, cache-line write-backs, transient spinlocks,
 * the NvHeap allocator, the Zipf sampler, and the shadow domain's
 * interposition overhead.  These calibrate the cost model behind the
 * figure harnesses.
 */
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "compiler/fase_compiler.h"
#include "compiler/ir_library.h"
#include "ds/stack.h"
#include "fuzz/rr.h"
#include "ido/ido_runtime.h"
#include "nvm/heap_gc.h"
#include "nvm/nv_heap.h"
#include "nvm/persist_domain.h"
#include "nvm/shadow_domain.h"
#include "runtime/indirect_lock.h"

using namespace ido;

namespace {

void
BM_StoreOnly(benchmark::State& state)
{
    nvm::PersistentHeap heap({.size = 16u << 20});
    nvm::RealDomain dom;
    auto* p = heap.resolve<uint64_t>(4096);
    uint64_t v = 0;
    for (auto _ : state)
        dom.store_val(p, ++v);
}

void
BM_FlushFence(benchmark::State& state)
{
    nvm::PersistentHeap heap({.size = 16u << 20});
    nvm::RealDomain dom;
    auto* p = heap.resolve<uint64_t>(4096);
    uint64_t v = 0;
    for (auto _ : state) {
        dom.store_val(p, ++v);
        dom.flush(p, 8);
        dom.fence();
    }
}

void
BM_FlushFenceWithDelay(benchmark::State& state)
{
    nvm::PersistentHeap heap({.size = 16u << 20});
    nvm::RealDomain dom(static_cast<uint32_t>(state.range(0)));
    auto* p = heap.resolve<uint64_t>(4096);
    uint64_t v = 0;
    for (auto _ : state) {
        dom.store_val(p, ++v);
        dom.flush(p, 8);
        dom.fence();
    }
}

void
BM_TransientLock(benchmark::State& state)
{
    rt::TransientLock lock;
    for (auto _ : state) {
        lock.lock();
        lock.unlock();
    }
}

void
BM_LockTableResolve(benchmark::State& state)
{
    nvm::PersistentHeap heap({.size = 16u << 20});
    rt::LockTable table;
    auto* slot = heap.resolve<uint64_t>(4096);
    *slot = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(&table.lock_for(slot));
}

void
BM_NvHeapAllocFree(benchmark::State& state)
{
    nvm::PersistentHeap heap({.size = 64u << 20});
    nvm::RealDomain dom;
    nvm::NvHeap h(heap, dom);
    for (auto _ : state) {
        const uint64_t off = h.alloc(64, dom);
        h.free_block(off, dom);
    }
}

// --------------------------------------------------------------------------
// Allocator scalability series (BENCH_alloc.json)
// --------------------------------------------------------------------------

/**
 * Fixed-duration alloc/free churn on `threads` workers; returns ops
 * completed.  Mixed sizes keep several classes hot, matching the
 * runtimes' log-record + ds-node mix rather than a single-class
 * best case.
 */
template <typename Allocator>
uint64_t
alloc_churn(Allocator& alloc, nvm::PersistDomain& dom, uint32_t threads,
            double seconds)
{
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> total_ops{0};
    std::vector<std::thread> workers;
    for (uint32_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            Rng rng(t * 7919 + 13);
            std::vector<uint64_t> live;
            live.reserve(128);
            uint64_t ops = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                if (live.size() < 64 || rng.percent(50)) {
                    const uint64_t off =
                        alloc.alloc(8 + rng.next_below(248), dom);
                    if (off != 0)
                        live.push_back(off);
                } else {
                    const size_t idx = rng.next_below(live.size());
                    alloc.free_block(live[idx], dom);
                    live[idx] = live.back();
                    live.pop_back();
                }
                ++ops;
            }
            for (uint64_t off : live)
                alloc.free_block(off, dom);
            total_ops.fetch_add(ops, std::memory_order_relaxed);
        });
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_relaxed);
    for (auto& w : workers)
        w.join();
    return total_ops.load();
}

/**
 * NvHeap throughput at 1/2/4/8 threads.  Each row lands in
 * BENCH_alloc.json when IDO_BENCH_JSON is set; the printed table is
 * the paper-style summary.  The scaling column is relative to the
 * single-thread rate of the same build, which is what the sharded
 * design is supposed to improve (the retired v1 single-mutex
 * allocator flat-lined here -- see DESIGN.md Sec. 9).
 */
void
run_alloc_series()
{
    const double seconds = bench::bench_seconds();
    std::printf("\n=== allocator scalability (alloc/free churn, "
                "%.2fs per point) ===\n",
                seconds);
    std::printf("%-12s %8s %14s %14s %8s\n", "allocator", "threads",
                "ops", "ops/sec", "scaling");
    double one_thread_rate = 0;
    for (uint32_t threads : bench::thread_sweep()) {
        nvm::RealDomain dom;
        nvm::PersistentHeap heap({.size = 256u << 20});
        nvm::NvHeap v2(heap, dom);
        const uint64_t ops = alloc_churn(v2, dom, threads, seconds);
        const double rate = double(ops) / seconds;
        if (threads == 1)
            one_thread_rate = rate;
        std::printf("%-12s %8u %14llu %14.0f %7.2fx\n", "nvheap-v2",
                    threads, static_cast<unsigned long long>(ops), rate,
                    one_thread_rate > 0 ? rate / one_thread_rate : 0.0);
        bench::emit_json_row("alloc", "nvheap_v2", threads, ops,
                             seconds);
    }
}

// --------------------------------------------------------------------------
// Compiled-FASE boundary series (BENCH_micro.json)
// --------------------------------------------------------------------------

/**
 * The iDO boundary protocol's write-back cost on compiled stack
 * push/pop pairs under IdoRuntime, single thread (row ido_compiled).
 * Each pair writes back 17 lines; test_ido_protocol pins that count.
 */
void
run_boundary_series()
{
    using namespace ido::compiler;
    std::printf("\n=== compiled push/pop boundary cost ===\n");
    std::printf("%-12s %10s %14s   %s\n", "config", "ops", "ops/sec",
                "persist profile");
    IrFase push_ir = ir_stack_push();
    IrFase pop_ir = ir_stack_pop();
    CompiledFase push(9101, std::move(push_ir.fn));
    CompiledFase pop(9103, std::move(pop_ir.fn));
    nvm::PersistentHeap heap({.size = 64u << 20});
    nvm::RealDomain dom;
    IdoRuntime runtime(heap, dom, rt::RuntimeConfig{});
    auto th = runtime.make_thread();
    const uint64_t root = ds::PStack::create(*th);

    // Setup counts (and any residue of the google-benchmark loops
    // above) must not leak into this row's profile.
    persist_counters_flush_tls();
    persist_counters_reset_global();

    constexpr uint64_t kPairs = 20000;
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < kPairs; ++i) {
        rt::RegionCtx c1;
        c1.r[push_ir.arg0] = root;
        c1.r[push_ir.arg1] = i;
        th->run_fase(push.program(), c1);
        rt::RegionCtx c2;
        c2.r[pop_ir.arg0] = root;
        th->run_fase(pop.program(), c2);
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - t0)
            .count();
    persist_counters_flush_tls();

    const uint64_t ops = kPairs * 2;
    std::printf("%-12s %10llu %14.0f   %s\n", "ido_compiled",
                static_cast<unsigned long long>(ops),
                seconds > 0 ? double(ops) / seconds : 0.0,
                bench::persist_profile(ops).c_str());
    bench::emit_json_row("micro", "ido_compiled", 1, ops, seconds);
}

// --------------------------------------------------------------------------
// Heap audit series (BENCH_heap.json)
// --------------------------------------------------------------------------

/**
 * Reachability audit cost on a churned typed corpus.  Builds a rooted
 * chain, deletes three quarters of it (the sparse-heap shape a
 * long-running server produces), plants a batch of unrooted blocks,
 * and times HeapGc::audit.  One BENCH_heap.json row whose ops are
 * blocks walked; its embedded metrics snapshot carries
 * heap.fragmentation plus the heap.gc.* counters.
 */
void
run_heap_series()
{
    struct Node
    {
        uint64_t next;
        uint64_t tag;
        uint64_t pad[2];
    };
    nvm::TypeDescriptor d;
    d.name = "bench.heap_node";
    d.payload_size = sizeof(Node);
    d.link_offsets = {0};
    nvm::TypeRegistry::instance().register_type(nvm::TypeId::kTestBlock,
                                                d);

    nvm::PersistentHeap heap({.size = 256u << 20});
    nvm::RealDomain dom;
    nvm::NvHeap h(heap, dom);
    constexpr uint64_t kNodes = 20000;
    // Chunk-carved nodes, each published after its write-back.
    for (uint64_t t = 0; t < kNodes; ++t) {
        const uint64_t off =
            h.alloc_aligned(sizeof(Node), dom, nvm::TypeId::kTestBlock);
        Node* p = heap.resolve<Node>(off);
        const Node n{nvm::RootRegistry::get_ref(heap,
                                                nvm::RootSlot::kUser0),
                     t, {0, 0}};
        dom.store(p, &n, sizeof(n));
        dom.flush(p, sizeof(n));
        dom.fence();
        nvm::RootRegistry::set_ref(heap, nvm::RootSlot::kUser0, off, dom);
    }
    // Delete 3 of every 4 nodes, unlinking durably as a mutator would.
    uint64_t head = nvm::RootRegistry::get_ref(heap,
                                               nvm::RootSlot::kUser0);
    while (head != 0) {
        const Node* n = heap.resolve<Node>(head);
        if (n->tag % 4 == 0)
            break;
        const uint64_t next = n->next;
        nvm::RootRegistry::set_ref(heap, nvm::RootSlot::kUser0, next,
                                   dom);
        h.free_block(head, dom);
        head = next;
    }
    for (uint64_t prev = head; prev != 0;) {
        Node* pn = heap.resolve<Node>(prev);
        const uint64_t cur = pn->next;
        if (cur == 0)
            break;
        if (heap.resolve<Node>(cur)->tag % 4 == 0) {
            prev = cur;
            continue;
        }
        const uint64_t next = heap.resolve<Node>(cur)->next;
        dom.store_val(&pn->next, next);
        dom.flush(&pn->next, sizeof(uint64_t));
        dom.fence();
        h.free_block(cur, dom);
    }
    // Unrooted blocks give the audit leaks to report.
    constexpr uint64_t kLeaks = 1000;
    for (uint64_t i = 0; i < kLeaks; ++i) {
        const uint64_t off =
            h.alloc(sizeof(Node), dom, nvm::TypeId::kTestBlock);
        Node z{0, 0, {0, 0}};
        dom.store(heap.resolve<void>(off), &z, sizeof(z));
    }

    std::printf("\n=== heap audit (%llu-node corpus, 1/4 live) ===\n",
                static_cast<unsigned long long>(kNodes));
    std::printf("%-12s %10s %14s %14s\n", "phase", "ops", "ops/sec",
                "notes");
    const auto t0 = std::chrono::steady_clock::now();
    const nvm::GcStats s = nvm::HeapGc(h, dom).audit();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    nvm::HeapGc::publish(s);
    std::printf("%-12s %10llu %14.0f live %llu  leaked %llu\n", "gc_audit",
                static_cast<unsigned long long>(s.blocks),
                seconds > 0 ? double(s.blocks) / seconds : 0.0,
                static_cast<unsigned long long>(s.live_blocks),
                static_cast<unsigned long long>(s.leaked_blocks));
    bench::emit_json_row("heap", "gc_audit", 1, s.blocks, seconds);
}

// --------------------------------------------------------------------------
// Record/replay overhead series (BENCH_fuzz.json)
// --------------------------------------------------------------------------

/**
 * Fixed-op shadowed alloc/free churn: every allocator shard acquisition
 * and every ShadowDomain shard acquisition is an rr sync point, so this
 * is the worst realistic density of recorded ops.  Returns wall time.
 */
struct RrChurnWorld
{
    RrChurnWorld()
        : heap({.size = 256u << 20}),
          shadow(heap.base(), heap.size(), 1),
          alloc(heap, shadow)
    {
    }
    nvm::PersistentHeap heap;
    nvm::ShadowDomain shadow;
    nvm::NvHeap alloc;
};

double
rr_churn(RrChurnWorld& w, uint32_t threads, uint64_t ops_per_thread)
{
    nvm::PersistentHeap& heap = w.heap;
    nvm::ShadowDomain& shadow = w.shadow;
    nvm::NvHeap& alloc = w.alloc;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (uint32_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            fuzz::rr::ThreadScope scope(t); // no-op when rr is off
            Rng rng(t * 7919 + 13);
            std::vector<uint64_t> live;
            live.reserve(128);
            for (uint64_t i = 0; i < ops_per_thread; ++i) {
                if (live.size() < 64 || rng.percent(50)) {
                    const uint64_t off =
                        alloc.alloc(8 + rng.next_below(248), shadow);
                    if (off == 0)
                        continue;
                    uint64_t stamp = off ^ (uint64_t{t} << 48);
                    void* p = heap.resolve<void>(off);
                    shadow.store(p, &stamp, sizeof(stamp));
                    shadow.flush(p, sizeof(stamp));
                    shadow.fence();
                    live.push_back(off);
                } else {
                    const size_t idx = rng.next_below(live.size());
                    alloc.free_block(live[idx], shadow);
                    live[idx] = live.back();
                    live.pop_back();
                }
            }
        });
    }
    for (auto& w : workers)
        w.join();
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t0)
        .count();
}

/**
 * ido-fuzz recording cost vs the uninstrumented fast path, same fixed
 * op count at 8 threads.  CI's rr-overhead gate reads the two
 * BENCH_fuzz.json rows and asserts record time <= 3x off time.
 */
void
run_rr_overhead_series()
{
    // Each alloc's fence records all 64 shadow shards, so op counts
    // are sized to stay within the default per-thread log capacity.
    constexpr uint32_t kThreads = 8;
    constexpr uint64_t kOpsPerThread = 8000;
    constexpr uint64_t kOps = kThreads * kOpsPerThread;
    std::printf("\n=== rr recording overhead (8-thread shadowed churn, "
                "%llu ops) ===\n",
                static_cast<unsigned long long>(kOps));

    double off = 0, rec = 0;
    {
        RrChurnWorld w;
        off = rr_churn(w, kThreads, kOpsPerThread);
        w.shadow.drain_all();
    }
    {
        // World construction (allocator formatting writes through the
        // shadow) happens before recording starts: the recorded phase
        // is exactly the churn, as in the fuzz driver.
        RrChurnWorld w;
        fuzz::rr::start_record(1, /*chaos_pct=*/0);
        rec = rr_churn(w, kThreads, kOpsPerThread);
        fuzz::rr::stop_record();
        w.shadow.drain_all();
    }

    std::printf("%-12s %10llu %14.0f ops/sec\n", "rr_off",
                static_cast<unsigned long long>(kOps),
                off > 0 ? double(kOps) / off : 0.0);
    std::printf("%-12s %10llu %14.0f ops/sec  (%.2fx)\n", "rr_record",
                static_cast<unsigned long long>(kOps),
                rec > 0 ? double(kOps) / rec : 0.0,
                off > 0 ? rec / off : 0.0);
    bench::emit_json_row("fuzz", "rr_off", kThreads, kOps, off);
    bench::emit_json_row("fuzz", "rr_record", kThreads, kOps, rec);
}

void
BM_ZipfSample(benchmark::State& state)
{
    ZipfSampler zipf(1000000, 0.8);
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.next(rng));
}

void
BM_ShadowStoreLoad(benchmark::State& state)
{
    nvm::PersistentHeap heap({.size = 16u << 20});
    nvm::ShadowDomain shadow(heap.base(), heap.size());
    auto* p = heap.resolve<uint64_t>(4096);
    uint64_t v = 0;
    for (auto _ : state) {
        shadow.store_val(p, ++v);
        benchmark::DoNotOptimize(shadow.load_val(p));
    }
}

/**
 * The console reporter, also keeping each benchmark's real time per
 * iteration in ns, so main can check what the delay benchmarks cost.
 */
class KeepTimesReporter : public benchmark::ConsoleReporter
{
  public:
    KeepTimesReporter()
        : ConsoleReporter(isatty(STDOUT_FILENO) ? OO_Defaults : OO_Tabular)
    {
    }

    void
    ReportRuns(const std::vector<Run>& runs) override
    {
        for (const Run& r : runs) {
            if (r.run_type == Run::RT_Iteration)
                ns_[r.benchmark_name()] =
                    r.GetAdjustedRealTime() * 1e9
                    / benchmark::GetTimeUnitMultiplier(r.time_unit);
        }
        ConsoleReporter::ReportRuns(runs);
    }

    /** Real ns per iteration, or a negative value if it did not run. */
    double
    ns(const std::string& name) const
    {
        auto it = ns_.find(name);
        return it == ns_.end() ? -1.0 : it->second;
    }

  private:
    std::map<std::string, double> ns_;
};

/**
 * The Fig. 9 delay must not hide behind the write-back: RealDomain
 * charges it after the sfence, so a 500 ns delay must add at least
 * 450 ns to a one-line flush+fence.  Returns the exit status (0 when
 * either benchmark was filtered out).
 */
int
check_fig9_delay(const KeepTimesReporter& times)
{
    const double base = times.ns("BM_FlushFence");
    const double slow = times.ns("BM_FlushFenceWithDelay/500");
    if (base < 0 || slow < 0)
        return 0;
    const double delta = slow - base;
    const bool ok = delta >= 450.0;
    std::printf("\nFig.9 delay (%s): BM_FlushFenceWithDelay/500 - "
                "BM_FlushFence = %.0f ns (want >= 450): %s\n",
                nvm::flush_insn_name(nvm::flush_insn()), delta,
                ok ? "ok" : "FAIL");
    return ok ? 0 : 1;
}

} // namespace

BENCHMARK(BM_StoreOnly);
BENCHMARK(BM_FlushFence);
BENCHMARK(BM_FlushFenceWithDelay)->Arg(20)->Arg(100)->Arg(500);
BENCHMARK(BM_TransientLock);
BENCHMARK(BM_LockTableResolve);
BENCHMARK(BM_NvHeapAllocFree);
BENCHMARK(BM_ZipfSample);
BENCHMARK(BM_ShadowStoreLoad);

int
main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    KeepTimesReporter times;
    benchmark::RunSpecifiedBenchmarks(&times);
    benchmark::Shutdown();
    const int rc = check_fig9_delay(times);
    run_alloc_series();
    run_boundary_series();
    run_heap_series();
    run_rr_overhead_series();
    return rc;
}
