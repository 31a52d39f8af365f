/**
 * @file
 * Tests for the FASE driver and the idempotence-contract checker: the
 * dynamic enforcement of the properties the iDO compiler proves by
 * construction (no antidependence on memory inputs, no live-in
 * overwrite, declared outputs, lock placement rules).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "baselines/origin_runtime.h"
#include "nvm/persist_domain.h"
#include "runtime/runtime.h"
#include "stats/persist_stats.h"

namespace ido::rt {
namespace {

struct DriverFixture : public ::testing::Test
{
    DriverFixture()
        : heap({.size = 4u << 20}), dom(),
          runtime(heap, dom,
                  RuntimeConfig{.collect_region_stats = false,
                                .check_contracts = true})
    {
        th = runtime.make_thread();
        data_off = runtime.allocator().alloc(4096, dom);
    }

    nvm::PersistentHeap heap;
    nvm::RealDomain dom;
    baselines::OriginRuntime runtime;
    std::unique_ptr<RuntimeThread> th;
    uint64_t data_off = 0;
};

FaseProgram
make_program(uint32_t id, std::vector<RegionMeta> regions)
{
    FaseProgram p;
    p.fase_id = id;
    p.name = "test";
    p.regions = std::move(regions);
    return p;
}

constexpr uint16_t R0 = 1, R1 = 2, R2 = 4;

TEST_F(DriverFixture, RegionsRunInReturnedOrder)
{
    static uint32_t trace[8];
    static int pos;
    pos = 0;
    auto r0 = +[](RuntimeThread&, RegionCtx&) -> uint32_t {
        trace[pos++] = 0;
        return 2; // skip region 1
    };
    auto r1 = +[](RuntimeThread&, RegionCtx&) -> uint32_t {
        trace[pos++] = 1;
        return kRegionEnd;
    };
    auto r2 = +[](RuntimeThread&, RegionCtx&) -> uint32_t {
        trace[pos++] = 2;
        return 1;
    };
    const FaseProgram p = make_program(
        100, {{r0, "r0", 0, 0, 0, 0}, {r1, "r1", 0, 0, 0, 0},
              {r2, "r2", 0, 0, 0, 0}});
    RegionCtx ctx;
    th->run_fase(p, ctx);
    ASSERT_EQ(pos, 3);
    EXPECT_EQ(trace[0], 0u);
    EXPECT_EQ(trace[1], 2u);
    EXPECT_EQ(trace[2], 1u);
}

TEST_F(DriverFixture, CtxCarriesResultsOut)
{
    auto r0 = +[](RuntimeThread&, RegionCtx& ctx) -> uint32_t {
        ctx.r[1] = ctx.r[0] * 2;
        return kRegionEnd;
    };
    const FaseProgram p =
        make_program(101, {{r0, "dbl", R0, R1, 0, 0}});
    RegionCtx ctx;
    ctx.r[0] = 21;
    th->run_fase(p, ctx);
    EXPECT_EQ(ctx.r[1], 42u);
}

TEST_F(DriverFixture, StoreThenLoadSameChunkAllowed)
{
    const uint64_t off = data_off;
    auto r0 = +[](RuntimeThread& t, RegionCtx& ctx) -> uint32_t {
        t.store_u64(ctx.r[0], 5);
        EXPECT_EQ(t.load_u64(ctx.r[0]), 5u); // flow dep: fine
        t.store_u64(ctx.r[0], 6);            // S-L-S: still fine
        return kRegionEnd;
    };
    const FaseProgram p = make_program(102, {{r0, "sls", R0, 0, 0, 0}});
    RegionCtx ctx;
    ctx.r[0] = off;
    th->run_fase(p, ctx);
    EXPECT_EQ(th->load_u64(off), 6u);
}

TEST_F(DriverFixture, AntidependenceDetected)
{
    auto r0 = +[](RuntimeThread& t, RegionCtx& ctx) -> uint32_t {
        const uint64_t v = t.load_u64(ctx.r[0]);
        t.store_u64(ctx.r[0], v + 1); // load-then-store: antidep
        return kRegionEnd;
    };
    const FaseProgram p =
        make_program(103, {{r0, "bad", R0, 0, 0, 0}});
    RegionCtx ctx;
    ctx.r[0] = data_off;
    EXPECT_DEATH(th->run_fase(p, ctx), "antidependence");
}

TEST_F(DriverFixture, LiveInOverwriteAllowedWhenDeclaredOutput)
{
    // Overwriting a live-in register is legal in the log-restore model
    // (recovery restores region-entry values from the log); the value
    // only needs to be declared an output if a successor consumes it.
    auto r0 = +[](RuntimeThread&, RegionCtx& ctx) -> uint32_t {
        ctx.r[0] = ctx.r[0] + 1; // shift-style reuse of the slot
        return 1;
    };
    auto r1 = +[](RuntimeThread&, RegionCtx& ctx) -> uint32_t {
        ctx.r[1] = ctx.r[0] * 2;
        return kRegionEnd;
    };
    const FaseProgram p = make_program(
        104, {{r0, "bump", R0, R0, 0, 0}, {r1, "use", R0, R1, 0, 0}});
    RegionCtx ctx;
    ctx.r[0] = 20;
    th->run_fase(p, ctx);
    EXPECT_EQ(ctx.r[1], 42u);
}

TEST_F(DriverFixture, UndeclaredOutputConsumptionDetected)
{
    auto r0 = +[](RuntimeThread&, RegionCtx& ctx) -> uint32_t {
        ctx.r[1] = 7; // changed but NOT declared as output
        return 1;
    };
    auto r1 = +[](RuntimeThread&, RegionCtx& ctx) -> uint32_t {
        (void)ctx.r[1]; // consumes the tainted register
        return kRegionEnd;
    };
    const FaseProgram p = make_program(
        105,
        {{r0, "taint", 0, /*out: none!*/ 0, 0, 0},
         {r1, "use", R1, 0, 0, 0}});
    RegionCtx ctx;
    EXPECT_DEATH(th->run_fase(p, ctx), "not declared as outputs");
}

TEST_F(DriverFixture, DeclaredOutputConsumptionOk)
{
    auto r0 = +[](RuntimeThread&, RegionCtx& ctx) -> uint32_t {
        ctx.r[1] = 7;
        return 1;
    };
    auto r1 = +[](RuntimeThread&, RegionCtx& ctx) -> uint32_t {
        ctx.r[2] = ctx.r[1] + 1;
        return kRegionEnd;
    };
    const FaseProgram p = make_program(
        106, {{r0, "def", 0, R1, 0, 0}, {r1, "use", R1, R2, 0, 0}});
    RegionCtx ctx;
    th->run_fase(p, ctx);
    EXPECT_EQ(ctx.r[2], 8u);
}

TEST_F(DriverFixture, StoreAfterLockDetected)
{
    auto r0 = +[](RuntimeThread& t, RegionCtx& ctx) -> uint32_t {
        t.fase_lock(ctx.r[0] + 512);
        t.store_u64(ctx.r[0], 1); // store after acquire: forbidden
        return kRegionEnd;
    };
    const FaseProgram p =
        make_program(107, {{r0, "bad", R0, 0, 0, 0}});
    RegionCtx ctx;
    ctx.r[0] = data_off;
    EXPECT_DEATH(th->run_fase(p, ctx), "store after lock");
}

TEST_F(DriverFixture, UnlockAfterStoreDetected)
{
    auto r0 = +[](RuntimeThread& t, RegionCtx& ctx) -> uint32_t {
        t.fase_lock(ctx.r[0] + 512);
        return 1;
    };
    auto r1 = +[](RuntimeThread& t, RegionCtx& ctx) -> uint32_t {
        t.store_u64(ctx.r[0], 1);
        t.fase_unlock(ctx.r[0] + 512); // release after a store
        return kRegionEnd;
    };
    const FaseProgram p = make_program(
        108, {{r0, "lock", R0, 0, 0, 0}, {r1, "bad", R0, 0, 0, 0}});
    RegionCtx ctx;
    ctx.r[0] = data_off;
    EXPECT_DEATH(th->run_fase(p, ctx), "fase_unlock after a store");
}

TEST_F(DriverFixture, FaseMustReleaseAllLocks)
{
    auto r0 = +[](RuntimeThread& t, RegionCtx& ctx) -> uint32_t {
        t.fase_lock(ctx.r[0] + 512);
        return kRegionEnd; // never unlocks
    };
    const FaseProgram p =
        make_program(109, {{r0, "leak", R0, 0, 0, 0}});
    RegionCtx ctx;
    ctx.r[0] = data_off;
    EXPECT_DEATH(th->run_fase(p, ctx), "locks held");
}

TEST_F(DriverFixture, LockIdempotentUnderReacquire)
{
    auto r0 = +[](RuntimeThread& t, RegionCtx& ctx) -> uint32_t {
        t.fase_lock(ctx.r[0] + 512);
        t.fase_lock(ctx.r[0] + 512); // second acquire: no-op
        return 1;
    };
    auto r1 = +[](RuntimeThread& t, RegionCtx& ctx) -> uint32_t {
        t.fase_unlock(ctx.r[0] + 512);
        t.fase_unlock(ctx.r[0] + 512); // second release: no-op
        return kRegionEnd;
    };
    const FaseProgram p = make_program(
        110, {{r0, "l", R0, 0, 0, 0}, {r1, "u", R0, 0, 0, 0}});
    RegionCtx ctx;
    ctx.r[0] = data_off;
    th->run_fase(p, ctx);
    EXPECT_EQ(th->locks_held(), 0u);
}

TEST_F(DriverFixture, DeferredFreeRunsAfterFase)
{
    const uint64_t before = runtime.allocator().live_blocks();
    static uint64_t block;
    block = th->nv_alloc(64);
    EXPECT_EQ(runtime.allocator().live_blocks(), before + 1);
    auto r0 = +[](RuntimeThread& t, RegionCtx&) -> uint32_t {
        t.nv_free(block);
        return kRegionEnd;
    };
    const FaseProgram p =
        make_program(111, {{r0, "free", 0, 0, 0, 0}});
    RegionCtx ctx;
    th->run_fase(p, ctx);
    EXPECT_EQ(runtime.allocator().live_blocks(), before);
}

TEST_F(DriverFixture, ValidatedReadRetriesWhenAWriterOverlaps)
{
    // The first pass's writer (another thread's lock and unlock) moves
    // the sequence by two: the pass fails validation and is run again.
    auto writer = runtime.make_thread();
    const uint64_t holder = data_off + 512;
    const uint64_t retries0 = tls_persist_counters().read_retries;
    int passes = 0;
    const int result = th->read_validated(holder, [&] {
        if (++passes == 1) {
            writer->fase_lock(holder);
            writer->fase_unlock(holder);
        }
        return passes;
    });
    EXPECT_EQ(result, 2);
    EXPECT_EQ(tls_persist_counters().read_retries, retries0 + 1);
}

TEST_F(DriverFixture, ValidatedReadWaitsForAHeldLock)
{
    const uint64_t holder = data_off + 512;
    th->fase_lock(holder);
    std::atomic<bool> done{false};
    uint64_t waits = 0;
    std::thread reader([&] {
        auto t = runtime.make_thread();
        t->read_validated(holder, [] { return 0; });
        waits = tls_persist_counters().read_waits;
        done = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(done.load());
    th->fase_unlock(holder);
    reader.join();
    EXPECT_EQ(waits, 1u);
}

TEST_F(DriverFixture, ValidatedReadThrowsBehindACrashedHolder)
{
    const uint64_t holder = data_off + 512;
    th->fase_lock(holder);
    runtime.crash_scheduler().arm(1);
    EXPECT_THROW(th->crash_tick(), SimCrashException);
    std::thread reader([&] {
        auto t = runtime.make_thread();
        EXPECT_THROW(t->read_validated(holder, [] { return 0; }),
                     SimCrashException);
    });
    reader.join();
}

TEST_F(DriverFixture, NestedFaseForbidden)
{
    static const FaseProgram inner = make_program(
        112, {{+[](RuntimeThread&, RegionCtx&) -> uint32_t {
                   return kRegionEnd;
               },
               "inner", 0, 0, 0, 0}});
    auto r0 = +[](RuntimeThread& t, RegionCtx&) -> uint32_t {
        RegionCtx inner_ctx;
        t.run_fase(inner, inner_ctx); // FASEs are outermost only
        return kRegionEnd;
    };
    const FaseProgram p =
        make_program(113, {{r0, "outer", 0, 0, 0, 0}});
    RegionCtx ctx;
    EXPECT_DEATH(th->run_fase(p, ctx), "nested");
}

} // namespace
} // namespace ido::rt
