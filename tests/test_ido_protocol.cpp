/**
 * @file
 * Protocol-level tests for iDO normal execution: log-record lifecycle,
 * recovery_pc sequencing, fence economy (two per boundary with outputs,
 * one without; zero extra for acquires, one for releases), persist
 * coalescing of register outputs, lock_array maintenance, deactivation
 * at the last store, the boundary's write-back of each dirty heap line
 * exactly once, and exact per-op fence/flush counts of the memcached
 * FASEs (read-only FASEs persist nothing; a set-update's one word
 * commits without the log), broken down by fence site.
 */
#include <gtest/gtest.h>

#include "apps/memcached_mini.h"
#include "common/cacheline.h"
#include "compiler/fase_compiler.h"
#include "compiler/ir_library.h"
#include "ds/fase_ids.h"
#include "ds/stack.h"
#include "ds/workload.h"
#include "ido/ido_runtime.h"
#include "net/memc_protocol.h"
#include "nvm/persist_domain.h"
#include "nvm/shadow_domain.h"
#include "runtime/crash_sim.h"
#include "stats/metrics.h"
#include "stats/persist_stats.h"
#include "stats/stat_plane.h"

namespace ido {
namespace {

struct IdoFixture : public ::testing::Test
{
    IdoFixture()
        : heap({.size = 16u << 20}), dom(),
          runtime(heap, dom, rt::RuntimeConfig{.check_contracts = true})
    {
        ds::register_all_programs();
    }

    nvm::PersistentHeap heap;
    nvm::RealDomain dom;
    IdoRuntime runtime;
};

/** Line-aligned scratch block of the probe programs below. */
uint64_t g_scratch_off;

/**
 * A 16-byte store to the scratch line.  The one-word path holds only
 * an aligned 8-byte store, so a probe region that calls this activates
 * the log, and its boundary writes back one heap line.
 */
void
store_two_words(rt::RuntimeThread& t)
{
    const uint64_t v[2] = {1, 2};
    t.store_bytes(g_scratch_off, v, sizeof v);
}

TEST_F(IdoFixture, LogRecLinkedOnThreadCreation)
{
    EXPECT_TRUE(runtime.log_records(nvm::RootSlot::kIdoLogHead).empty());
    auto t1 = runtime.make_thread();
    EXPECT_EQ(runtime.log_records(nvm::RootSlot::kIdoLogHead).size(), 1u);
    auto t2 = runtime.make_thread();
    EXPECT_EQ(runtime.log_records(nvm::RootSlot::kIdoLogHead).size(), 2u);
    // "the number of iDO logs matches the number of threads created"
}

TEST_F(IdoFixture, FreshRecIsInactive)
{
    auto th = runtime.make_thread();
    auto* ido_th = static_cast<IdoThread*>(th.get());
    EXPECT_EQ(ido_th->rec()->recovery_pc, kInactivePc);
    EXPECT_EQ(ido_th->rec()->lock_bitmap, 0u);
}

TEST_F(IdoFixture, RecoveryPcInactiveAfterFase)
{
    auto th = runtime.make_thread();
    auto* ido_th = static_cast<IdoThread*>(th.get());
    ds::PStack stack(ds::PStack::create(*th));
    stack.push(*th, 42);
    EXPECT_EQ(ido_th->rec()->recovery_pc, kInactivePc);
    EXPECT_EQ(th->locks_held(), 0u);
    // The push released its lock in the deactivated tail, so the record
    // still names it; recovery never reads it behind an inactive pc,
    // and the next activation clears it.
    EXPECT_EQ(ido_th->rec()->lock_bitmap, 1u);
    stack.push(*th, 43);
    EXPECT_EQ(ido_th->rec()->lock_bitmap, 1u);
}

TEST_F(IdoFixture, ActivationClearsStaleLockRecord)
{
    // A lock-free storing FASE after a push: its activation finds the
    // push's tail-released lock still in the record and clears it.
    auto store_r = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        store_two_words(t);
        return rt::kRegionEnd;
    };
    rt::FaseProgram p;
    p.fase_id = 9007;
    p.name = "store_only";
    p.regions = {{store_r, "s", 0, 0, 0, 0}};

    auto th = runtime.make_thread();
    auto* ido_th = static_cast<IdoThread*>(th.get());
    ds::PStack stack(ds::PStack::create(*th));
    stack.push(*th, 42);
    ASSERT_EQ(ido_th->rec()->lock_bitmap, 1u);
    g_scratch_off = runtime.allocator().alloc_aligned(64, dom);
    rt::RegionCtx ctx;
    th->run_fase(p, ctx);
    EXPECT_EQ(ido_th->rec()->lock_bitmap, 0u);
    EXPECT_EQ(ido_th->rec()->lock_array[0], 0u);
    EXPECT_EQ(ido_th->rec()->recovery_pc, kInactivePc);
}

TEST_F(IdoFixture, StoreAfterDeactivationPanics)
{
    // Region 1 is read-only and the highest-numbered region, so the
    // boundary entering it deactivates the log; it then branches back
    // to storing region 0.  Running that store unlogged would tear the
    // FASE, so the runtime refuses.
    static uint64_t data_off;
    static int laps;
    auto store_r = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.store_u64(data_off, 1);
        return 1;
    };
    auto latch_r = +[](rt::RuntimeThread&, rt::RegionCtx&) -> uint32_t {
        return ++laps < 2 ? 0 : rt::kRegionEnd;
    };
    rt::FaseProgram p;
    p.fase_id = 9008;
    p.name = "loop_back";
    p.regions = {{store_r, "store", 0, 0, 0, 0},
                 {latch_r, "latch", 0, 0, 0, 0, /*may_store=*/0}};
    data_off = runtime.allocator().alloc(64, dom);
    laps = 0;
    EXPECT_DEATH(
        {
            auto th = runtime.make_thread();
            rt::RegionCtx ctx;
            th->run_fase(p, ctx);
        },
        "runs after the log deactivated");
}

TEST_F(IdoFixture, AllocationInReadOnlyPrefixPanics)
{
    // An allocation before activation has no entry that a boundary
    // fence could make durable: a crash would leak the block.
    auto scan_r = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.nv_alloc(16);
        return rt::kRegionEnd;
    };
    rt::FaseProgram p;
    p.fase_id = 9010;
    p.name = "prefix_alloc";
    p.regions = {{scan_r, "scan", 0, 0, 0, 0, /*may_store=*/0}};
    EXPECT_DEATH(
        {
            auto th = runtime.make_thread();
            rt::RegionCtx ctx;
            th->run_fase(p, ctx);
        },
        "FASE 'prefix_alloc': nv_alloc in region 'scan' outside an active "
        "storing region");
}

TEST_F(IdoFixture, FreeInDeactivatedTailPanics)
{
    // The boundary entering the read-only tail deactivates the log; a
    // free recorded after that would be lost by a crash.
    static uint64_t data_off;
    auto store_r = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.store_u64(data_off, 1);
        return 1;
    };
    auto tail_r = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.nv_free(data_off);
        return rt::kRegionEnd;
    };
    rt::FaseProgram p;
    p.fase_id = 9011;
    p.name = "tail_free";
    p.regions = {{store_r, "store", 0, 0, 0, 0},
                 {tail_r, "tail", 0, 0, 0, 0, /*may_store=*/0}};
    data_off = runtime.allocator().alloc(64, dom);
    EXPECT_DEATH(
        {
            auto th = runtime.make_thread();
            rt::RegionCtx ctx;
            th->run_fase(p, ctx);
        },
        "FASE 'tail_free': nv_free in region 'tail' outside an active "
        "storing region");
}

TEST_F(IdoFixture, RecoveryPcTracksRegions)
{
    // A probe program that snapshots its own log record mid-FASE.
    static IdoThread* probe_th;
    static uint64_t pc_seen_in_r1;
    auto r0 = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        store_two_words(t);
        return 1;
    };
    auto r1 = +[](rt::RuntimeThread&, rt::RegionCtx&) -> uint32_t {
        pc_seen_in_r1 = probe_th->rec()->recovery_pc;
        return rt::kRegionEnd;
    };
    rt::FaseProgram p;
    p.fase_id = 9000;
    p.name = "probe";
    p.regions = {{r0, "r0", 0, 0, 0, 0}, {r1, "r1", 0, 0, 0, 0}};

    auto th = runtime.make_thread();
    probe_th = static_cast<IdoThread*>(th.get());
    g_scratch_off = runtime.allocator().alloc_aligned(64, dom);
    rt::RegionCtx ctx;
    th->run_fase(p, ctx);
    // The first activation of a fresh record is instance 1, and r0
    // recorded no allocation or free entry.
    EXPECT_EQ(pc_seen_in_r1, pack_recovery_pc(9000, 1, /*instance=*/1,
                                              /*entries=*/0));
}

TEST_F(IdoFixture, OutputRegistersLandInFixedSlots)
{
    static constexpr uint16_t R2 = 1u << 2, R5 = 1u << 5;
    auto r0 = +[](rt::RuntimeThread& t, rt::RegionCtx& ctx) -> uint32_t {
        store_two_words(t);
        ctx.r[2] = 0xaa;
        ctx.r[5] = 0xbb;
        ctx.f[1] = 2.5;
        return 1;
    };
    auto r1 = +[](rt::RuntimeThread&, rt::RegionCtx& ctx) -> uint32_t {
        (void)ctx;
        return rt::kRegionEnd;
    };
    rt::FaseProgram p;
    p.fase_id = 9001;
    p.name = "slots";
    p.regions = {{r0, "def", 0, R2 | R5, 0, /*out_float f1*/ 2},
                 {r1, "use", R2 | R5, 0, 2, 0}};

    auto th = runtime.make_thread();
    auto* ido_th = static_cast<IdoThread*>(th.get());
    g_scratch_off = runtime.allocator().alloc_aligned(64, dom);
    rt::RegionCtx ctx;
    th->run_fase(p, ctx);
    EXPECT_EQ(ido_th->rec()->intRF[2], 0xaau);
    EXPECT_EQ(ido_th->rec()->intRF[5], 0xbbu);
    EXPECT_EQ(ido_th->rec()->floatRF[1], 2.5);
}

TEST_F(IdoFixture, FenceEconomyPerBoundary)
{
    static bool store;
    auto a = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        if (store)
            store_two_words(t);
        return 1;
    };
    auto no_out = +[](rt::RuntimeThread&, rt::RegionCtx&) -> uint32_t {
        return 2;
    };
    auto end = +[](rt::RuntimeThread&, rt::RegionCtx&) -> uint32_t {
        return rt::kRegionEnd;
    };
    rt::FaseProgram p;
    p.fase_id = 9002;
    p.name = "fences";
    p.regions = {{a, "a", 0, 0, 0, 0},
                 {no_out, "b", 0, 0, 0, 0},
                 {end, "c", 0, 0, 0, 0}};

    auto th = runtime.make_thread();
    g_scratch_off = runtime.allocator().alloc_aligned(64, dom);
    tls_persist_counters().clear();
    rt::RegionCtx ctx;
    // may_store regions that store nothing leave the log inactive.
    store = false;
    th->run_fase(p, ctx);
    EXPECT_EQ(tls_persist_counters().fences, 0u);
    // No args and no outputs: activation is a single pc fence (1), a->b
    // writes back the stored line (2), b->c has nothing to order ahead
    // of its pc (1), and c's boundary deactivates (1).  Total 5.
    store = true;
    th->run_fase(p, ctx);
    EXPECT_EQ(tls_persist_counters().fences, 5u);
    EXPECT_EQ(tls_persist_counters().site(FenceSite::kBoundary1), 1u);
    EXPECT_EQ(tls_persist_counters().site(FenceSite::kBoundary2), 2u);
    tls_persist_counters().clear();
}

TEST_F(IdoFixture, FenceEconomyWithOutputs)
{
    static constexpr uint16_t R1 = 1u << 1;
    auto def = +[](rt::RuntimeThread& t, rt::RegionCtx& ctx) -> uint32_t {
        store_two_words(t);
        ctx.r[1] = 5;
        return 1;
    };
    auto use = +[](rt::RuntimeThread&, rt::RegionCtx& ctx) -> uint32_t {
        (void)ctx.r[1];
        return rt::kRegionEnd;
    };
    rt::FaseProgram p;
    p.fase_id = 9003;
    p.name = "fences2";
    p.regions = {{def, "def", 0, R1, 0, 0}, {use, "use", R1, 0, 0, 0}};

    auto th = runtime.make_thread();
    g_scratch_off = runtime.allocator().alloc_aligned(64, dom);
    tls_persist_counters().clear();
    rt::RegionCtx ctx;
    th->run_fase(p, ctx);
    // Activation persists the args-union (r1 is live-in somewhere):
    // 2 fences; def->use boundary has an output: 2; final: 1.  Total 5.
    EXPECT_EQ(tls_persist_counters().fences, 5u);
    tls_persist_counters().clear();
}

TEST_F(IdoFixture, StackPushFenceBudget)
{
    auto th = runtime.make_thread();
    ds::PStack stack(ds::PStack::create(*th));
    stack.push(*th, 1); // warm the lock table
    tls_persist_counters().clear();
    stack.push(*th, 2);
    // The lock is taken in the read-only prefix and released in the
    // store-free tail: activation at build (args + lock record, pc) 2,
    // build -> publish 2, publish deactivates (node + head, pc) 2.
    // The allocator's own fences are counted apart.
    PersistCounters& c = tls_persist_counters();
    EXPECT_EQ(c.fences - c.site(FenceSite::kAlloc), 6u);
    EXPECT_EQ(c.site(FenceSite::kDeactivate), 1u);
    EXPECT_EQ(c.site(FenceSite::kLock), 0u);
    c.clear();
}

TEST_F(IdoFixture, PersistCoalescingFlushesWholeRfLines)
{
    // Eight int outputs in slots 0..7 share one cache line: exactly
    // one RF flush regardless of how many of the eight are written.
    static constexpr uint16_t kLow8 = 0x00ff;
    auto def = +[](rt::RuntimeThread& t, rt::RegionCtx& ctx) -> uint32_t {
        store_two_words(t);
        for (int i = 0; i < 8; ++i)
            ctx.r[i] = i + 1;
        return 1;
    };
    auto use = +[](rt::RuntimeThread&, rt::RegionCtx& ctx) -> uint32_t {
        (void)ctx;
        return rt::kRegionEnd;
    };
    rt::FaseProgram p;
    p.fase_id = 9004;
    p.name = "coalesce";
    p.regions = {{def, "def", 0, kLow8, 0, 0},
                 {use, "use", kLow8, 0, 0, 0}};

    auto th = runtime.make_thread();
    g_scratch_off = runtime.allocator().alloc_aligned(64, dom);
    tls_persist_counters().clear();
    rt::RegionCtx ctx;
    th->run_fase(p, ctx);
    // Activation: args flush (1 line) + pc flush; def boundary: 1 RF
    // line + the scratch line + pc; final: pc.  6 flushes total -- not
    // 8+ per-register ones.
    EXPECT_EQ(tls_persist_counters().flushes, 6u);
    tls_persist_counters().clear();
}

/** A RealDomain that counts write-backs of lines inside [lo, hi). */
struct LineCountingDomain final : nvm::PersistDomain
{
    void
    store(void* dst, const void* src, size_t n) override
    {
        inner.store(dst, src, n);
    }
    void
    load(const void* src, void* dst, size_t n) override
    {
        inner.load(src, dst, n);
    }
    void
    flush(const void* addr, size_t n) override
    {
        const uintptr_t a = reinterpret_cast<uintptr_t>(addr);
        for (uintptr_t lb = line_base(a); n != 0 && lb < a + n;
             lb += kCacheLineBytes) {
            if (lb >= lo && lb < hi)
                ++lines;
        }
        inner.flush(addr, n);
    }
    void fence() override { inner.fence(); }

    nvm::RealDomain inner;
    uintptr_t lo = 0;
    uintptr_t hi = 0;
    uint64_t lines = 0;
};

TEST(IdoBoundaryDedup, EachDirtyLineIsWrittenBackOnce)
{
    // One storing region per FASE; the count is of write-backs that
    // land on the two-line data block, so log lines do not enter it.
    static uint64_t data;
    auto one_line = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.store_u64(data, 1);
        t.store_u64(data + 8, 2);
        t.store_u64(data + 16, 3);
        return rt::kRegionEnd;
    };
    auto straddle = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        const uint64_t v[2] = {4, 5};
        t.store_bytes(data + 56, v, sizeof v);
        return rt::kRegionEnd;
    };
    auto two_lines = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.store_u64(data, 6);
        t.store_u64(data + 64, 7);
        return rt::kRegionEnd;
    };
    struct Case
    {
        rt::RegionFn fn;
        const char* name;
        uint64_t lines;
    };
    const Case cases[] = {{one_line, "three stores, one line", 1},
                          {straddle, "one store across two lines", 2},
                          {two_lines, "two stores, two lines", 2}};

    nvm::PersistentHeap heap({.size = 16u << 20});
    LineCountingDomain dom;
    IdoRuntime runtime(heap, dom, rt::RuntimeConfig{});
    auto th = runtime.make_thread();
    data = runtime.allocator().alloc_aligned(2 * kCacheLineBytes, dom);
    dom.lo = reinterpret_cast<uintptr_t>(heap.resolve<void>(data));
    dom.hi = dom.lo + 2 * kCacheLineBytes;

    uint32_t fase_id = 9011;
    for (const Case& c : cases) {
        rt::FaseProgram p;
        p.fase_id = fase_id++;
        p.name = c.name;
        p.regions = {{c.fn, "store"}};
        dom.lines = 0;
        rt::RegionCtx ctx;
        th->run_fase(p, ctx);
        EXPECT_EQ(dom.lines, c.lines) << c.name;
    }
}

TEST(IdoBoundaryDedup, CompiledPushPopPairWritesBack17Lines)
{
    // The compiled stack push/pop pair bench_micro_primitives reports
    // as its ido_compiled row: 8.5 write-backs per op.
    compiler::IrFase push_ir = compiler::ir_stack_push();
    compiler::IrFase pop_ir = compiler::ir_stack_pop();
    compiler::CompiledFase push(9014, std::move(push_ir.fn));
    compiler::CompiledFase pop(9015, std::move(pop_ir.fn));
    nvm::PersistentHeap heap({.size = 16u << 20});
    nvm::RealDomain dom;
    IdoRuntime runtime(heap, dom, rt::RuntimeConfig{});
    auto th = runtime.make_thread();
    const uint64_t root = ds::PStack::create(*th);
    auto pair = [&](uint64_t v) {
        rt::RegionCtx c1;
        c1.r[push_ir.arg0] = root;
        c1.r[push_ir.arg1] = v;
        th->run_fase(push.program(), c1);
        rt::RegionCtx c2;
        c2.r[pop_ir.arg0] = root;
        th->run_fase(pop.program(), c2);
    };
    pair(0); // warm the lock table and the allocator's cache

    constexpr uint64_t kPairs = 8;
    tls_persist_counters().clear();
    for (uint64_t i = 1; i <= kPairs; ++i)
        pair(i);
    EXPECT_EQ(tls_persist_counters().flushes, 17 * kPairs);
    tls_persist_counters().clear();
}

TEST_F(IdoFixture, LockArrayTracksHeldLocks)
{
    static IdoThread* probe;
    static uint64_t bitmap_mid, array0_mid;
    static uint64_t holder_slot_off;

    auto lock_r = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        store_two_words(t); // activates: the acquire is recorded
        t.fase_lock(holder_slot_off);
        return 1;
    };
    auto mid_r = +[](rt::RuntimeThread&, rt::RegionCtx&) -> uint32_t {
        bitmap_mid = probe->rec()->lock_bitmap;
        array0_mid = probe->rec()->lock_array[0];
        return 2;
    };
    auto unlock_r =
        +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
            t.fase_unlock(holder_slot_off);
            return rt::kRegionEnd;
        };
    rt::FaseProgram p;
    p.fase_id = 9005;
    p.name = "locks";
    p.regions = {{lock_r, "l", 0, 0, 0, 0},
                 {mid_r, "m", 0, 0, 0, 0},
                 {unlock_r, "u", 0, 0, 0, 0}};

    auto th = runtime.make_thread();
    probe = static_cast<IdoThread*>(th.get());
    holder_slot_off = runtime.allocator().alloc(64, dom);
    g_scratch_off = runtime.allocator().alloc_aligned(64, dom);
    rt::RegionCtx ctx;
    th->run_fase(p, ctx);
    EXPECT_EQ(bitmap_mid, 1u);
    EXPECT_EQ(array0_mid, holder_slot_off);
    EXPECT_EQ(probe->rec()->lock_bitmap, 0u);
    EXPECT_EQ(probe->rec()->lock_array[0], 0u);
}

TEST_F(IdoFixture, PrefixLockForcesActivationFenceOne)
{
    // No region has live-in registers, so only the lock taken in the
    // read-only prefix makes activation pay fence 1: it orders the lock
    // record ahead of the activation recovery_pc.  A one-word store
    // needs no activation, so its FASE pays a single fence.
    static uint64_t holder_off;
    static bool one_word;
    auto lock_r = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.fase_lock(holder_off);
        return 1;
    };
    auto store_r = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        if (one_word)
            t.store_u64(g_scratch_off, 1);
        else
            store_two_words(t);
        return 2;
    };
    auto unlock_r =
        +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
            t.fase_unlock(holder_off);
            return rt::kRegionEnd;
        };
    rt::FaseProgram p;
    p.fase_id = 9006;
    p.name = "prefix_lock";
    p.regions = {{lock_r, "l", 0, 0, 0, 0, /*may_store=*/0},
                 {store_r, "s", 0, 0, 0, 0},
                 {unlock_r, "u", 0, 0, 0, 0, /*may_store=*/0}};

    auto th = runtime.make_thread();
    auto* ido_th = static_cast<IdoThread*>(th.get());
    holder_off = runtime.allocator().alloc(64, dom);
    g_scratch_off = runtime.allocator().alloc_aligned(64, dom);
    PersistCounters& c = tls_persist_counters();
    c.clear();
    rt::RegionCtx ctx;
    one_word = true;
    th->run_fase(p, ctx);
    // The store's line, one fence; the lock record is never written.
    EXPECT_EQ(c.fences, 1u);
    EXPECT_EQ(c.flushes, 1u);
    EXPECT_EQ(c.site(FenceSite::kSingleStore), 1u);
    EXPECT_EQ(ido_th->rec()->lock_bitmap, 0u);
    c.clear();
    one_word = false;
    th->run_fase(p, ctx);
    // Activation: lock record + fence 1, pc 2; the store boundary
    // deactivates (data, inactive pc) 2; the unlock tail pays nothing.
    EXPECT_EQ(c.fences, 4u);
    // Lock line, pc; data, pc.
    EXPECT_EQ(c.flushes, 4u);
    EXPECT_EQ(c.site(FenceSite::kActivate1), 1u);
    EXPECT_EQ(ido_th->rec()->lock_bitmap, 1u);
    c.clear();
}

/** Persist cost of one memcached op on RealDomain. */
struct OpCost
{
    uint64_t fences;
    uint64_t flushes;
    /** Published `ido.fence.*` deltas, by site. */
    uint64_t sites[kNumFenceSites];
    /** Published `ido.single_store.*` deltas. */
    uint64_t single_store_commits;
    uint64_t single_store_fallbacks;

    uint64_t
    site(FenceSite s) const
    {
        return sites[static_cast<size_t>(s)];
    }
};

/**
 * One cache with keys 1..4 present, driven by one iDO thread.  Costs
 * are read from the published registry totals (persist.fences and the
 * ido.fence.* sites), so they cover the fold as well as the counting.
 */
struct McCostFixture : public ::testing::Test
{
    McCostFixture()
        : heap({.size = 16u << 20}), runtime(heap, dom, {}),
          th(runtime.make_thread()),
          cache(heap, apps::MemcachedMini::create(*th, 1, 64))
    {
        apps::MemcachedMini::register_programs();
        for (uint64_t k = 1; k <= 4; ++k)
            cache.set(*th, k, 0, 10 * k);
    }

    template <typename Op>
    OpCost
    cost(Op&& op)
    {
        persist_counters_flush_tls();
        const PersistCounters before = persist_counters_global();
        op();
        persist_counters_flush_tls();
        const PersistCounters after = persist_counters_global();
        OpCost c{after.fences - before.fences,
                 after.flushes - before.flushes, {},
                 after.single_store_commits - before.single_store_commits,
                 after.single_store_fallbacks
                     - before.single_store_fallbacks};
        uint64_t sum = 0;
        for (size_t i = 0; i < kNumFenceSites; ++i) {
            c.sites[i] = after.fence_sites[i] - before.fence_sites[i];
            sum += c.sites[i];
        }
        // Every fence of an iDO thread has exactly one site.
        EXPECT_EQ(sum, c.fences);
        return c;
    }

    nvm::PersistentHeap heap;
    nvm::RealDomain dom;
    IdoRuntime runtime;
    std::unique_ptr<rt::RuntimeThread> th;
    apps::MemcachedMini cache;
};

TEST_F(McCostFixture, ReadOnlyFasesPersistNothing)
{
    // A GET is a validated read, no FASE; a delete-miss never reaches
    // a may_store region, so the log never activates and its lock
    // record stays in the volatile mirror.
    uint64_t v = 0;
    const OpCost hit = cost([&] { EXPECT_TRUE(cache.get(*th, 1, 0, &v)); });
    const OpCost miss =
        cost([&] { EXPECT_FALSE(cache.get(*th, 99, 0, &v)); });
    const OpCost del_miss =
        cost([&] { EXPECT_FALSE(cache.del(*th, 99, 0)); });
    for (const OpCost& c : {hit, miss, del_miss}) {
        EXPECT_EQ(c.fences, 0u);
        EXPECT_EQ(c.flushes, 0u);
    }
}

TEST_F(McCostFixture, WriteFenceCounts)
{
    // set-update: the update region's one store is an aligned word and
    // the unlock tail stores nothing, so the log never activates: the
    // boundary writes the word back and fences once.
    const OpCost update = cost([&] { cache.set(*th, 2, 0, 7); });
    EXPECT_EQ(update.fences, 1u);
    EXPECT_EQ(update.flushes, 1u); // the item's line
    EXPECT_EQ(update.site(FenceSite::kSingleStore), 1u);
    // set-insert allocates in build, which falls back to the log:
    // activation 2, build boundary 2, link deactivates 2, plus one
    // allocator fence for the fresh item.
    const OpCost insert = cost([&] { cache.set(*th, 50, 0, 7); });
    EXPECT_EQ(insert.fences, 7u);
    // 14 lines: activation 4 (lock record, two register lines, pc),
    // the alloc entry, the new block's header, build's boundary 4 (two
    // register lines, the item, pc), link's 3 (bucket, shard header,
    // old LRU head) and the deactivating pc.  The 48-byte item takes
    // the class-48 path: no aligned back-pointer to write back, and
    // here its 64-byte block is one whole line, so the header and the
    // item are written back from the same line.
    EXPECT_EQ(insert.flushes, 14u);
    EXPECT_EQ(insert.site(FenceSite::kBoundary2), 1u);
    EXPECT_EQ(insert.site(FenceSite::kDeactivate), 1u);
    EXPECT_EQ(insert.site(FenceSite::kAlloc), 1u);
    // delete-hit stores four words at unlink: its second store falls
    // back to activation, and the boundary deactivates: 2 + 2.
    const OpCost del = cost([&] { cache.del(*th, 50, 0); });
    EXPECT_EQ(del.fences, 4u);
    // 10: the 9 of a delete-hit before free entries, plus the entry
    // recording the free; the entry's clear is not written back here.
    EXPECT_EQ(del.flushes, 10u);
    EXPECT_EQ(del.site(FenceSite::kDeactivate), 1u);
    for (const OpCost& c : {update, insert, del})
        EXPECT_EQ(c.site(FenceSite::kLock), 0u);
    for (const OpCost& c : {insert, del}) {
        EXPECT_EQ(c.site(FenceSite::kSingleStore), 0u);
        EXPECT_EQ(c.single_store_fallbacks, 1u);
    }
    EXPECT_EQ(update.single_store_commits, 1u);
    EXPECT_EQ(update.single_store_fallbacks, 0u);
}

TEST_F(McCostFixture, FenceSitesPublished)
{
    // The sites, the one-word FASE counters and the validated-read
    // counters reach /metrics (Prometheus text), /stats.json (the
    // registry's JSON, which every BENCH_*.json row embeds) and the
    // memcached `stats` reply.
    cache.set(*th, 2, 0, 8);
    persist_counters_flush_tls();
    const std::string prom = stat_prometheus_text();
    const std::string json = MetricsRegistry::instance().format_json();
    const std::string stats = net::memc_reply_stats();
    std::vector<std::string> names = {kSingleStoreCommitsMetric,
                                      kSingleStoreFallbacksMetric,
                                      kReadRetriesMetric, kReadWaitsMetric};
    for (size_t i = 0; i < kNumFenceSites; ++i)
        names.push_back(fence_site_metric(static_cast<FenceSite>(i)));
    for (std::string name : names) {
        EXPECT_NE(json.find("\"" + name + "\""), std::string::npos)
            << name;
        EXPECT_NE(stats.find("STAT " + name + " "), std::string::npos)
            << name;
        for (char& ch : name)
            ch = ch == '.' ? '_' : ch;
        EXPECT_NE(prom.find(name + "_total"), std::string::npos) << name;
    }
}

TEST(IdoReadOnlyFase, DeleteMissLeavesDurableLogUntouched)
{
    // Crash a delete-miss at every opportunity, and once more after it
    // finishes, keeping every dirty line: the durable log record must
    // still read inactive with the lock bitmap the set left, because
    // nothing the read-only FASE did was ever written.  (A GET is no
    // FASE at all: it has no crash opportunity to sweep.)
    apps::MemcachedMini::register_programs();
    for (int64_t k = 1;; ++k) {
        ASSERT_LT(k, 1000) << "delete never completed";
        nvm::PersistentHeap heap({.size = 16u << 20});
        nvm::ShadowDomain shadow(heap.base(), heap.size(),
                                 static_cast<uint64_t>(k));
        IdoRuntime runtime(heap, shadow, {.check_contracts = true});
        auto th = runtime.make_thread();
        apps::MemcachedMini cache(heap,
                                  apps::MemcachedMini::create(*th, 1, 64));
        cache.set(*th, 1, 0, 10);
        shadow.drain_all();
        const IdoLogRec* rec = static_cast<IdoThread*>(th.get())->rec();
        const uint64_t bitmap_before = rec->lock_bitmap;

        runtime.crash_scheduler().arm(k);
        bool crashed = false;
        try {
            EXPECT_FALSE(cache.del(*th, 99, 0));
        } catch (const rt::SimCrashException&) {
            crashed = true;
        }
        runtime.crash_scheduler().disarm();
        shadow.crash(nvm::CrashPolicy::kPersistAll);
        EXPECT_EQ(shadow.last_crash_census().lines_outstanding, 0u)
            << "k=" << k;
        EXPECT_EQ(rec->recovery_pc, kInactivePc) << "k=" << k;
        EXPECT_EQ(rec->lock_bitmap, bitmap_before) << "k=" << k;
        if (!crashed)
            break;
    }
}

TEST_F(IdoFixture, TraitsMatchTableTwo)
{
    const rt::RuntimeTraits t = runtime.traits();
    EXPECT_STREQ(t.semantics, "Lock-inferred FASE");
    EXPECT_STREQ(t.recovery, "Resumption");
    EXPECT_STREQ(t.granularity, "Idempotent Region");
    EXPECT_FALSE(t.dependence_tracking);
    EXPECT_TRUE(t.transient_caches);
}

} // namespace
} // namespace ido
