/**
 * @file
 * iDO recovery tests (paper Sec. III-C): resumption at every possible
 * crash point, lock reclamation, the stolen-lock window, multi-thread
 * recovery with a barrier, crash-during-recovery idempotence, the
 * lock records of a read-only prefix, written only at activation, a
 * second writer taking a lock the first released in its deactivated
 * tail, the allocation and free entries that keep every crash
 * leak-free, and one-word FASEs: the unlogged commit and each way a
 * FASE falls back from it to the log.
 *
 * Methodology: run under ShadowDomain with the crash scheduler armed at
 * every successive opportunity k = 1, 2, 3, ... until the operation
 * completes without crashing.  Each crash discards un-persisted lines
 * (randomized), bumps the lock epoch, re-registers programs, and runs
 * recovery; the resulting state must be exactly pre-op or post-op, and
 * a read-only heap audit -- no repair in between -- must find no
 * leaked block and no dangling link.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <set>
#include <string>
#include <thread>

#include "apps/memcached_mini.h"
#include "ds/fase_ids.h"
#include "ds/queue.h"
#include "ds/stack.h"
#include "ds/workload.h"
#include "ido/ido_runtime.h"
#include "nvm/heap_gc.h"
#include "nvm/shadow_domain.h"
#include "stats/metrics.h"
#include "stats/persist_stats.h"
#include "stats/recovery_timeline.h"

namespace ido {
namespace {

using nvm::CrashPolicy;

struct RecoveryWorld
{
    explicit RecoveryWorld(uint64_t seed)
        : heap({.size = 16u << 20}),
          shadow(heap.base(), heap.size(), seed)
    {
        ds::register_all_programs();
        make_runtime();
    }

    void
    make_runtime()
    {
        rt::RuntimeConfig cfg;
        cfg.check_contracts = true;
        runtime = std::make_unique<IdoRuntime>(heap, shadow, cfg);
    }

    /** Name the structure under test as the heap's app root, so the
     *  heap audit traces it. */
    void
    set_root(uint64_t off)
    {
        nvm::RootRegistry::set_ref(heap, nvm::RootSlot::kAppRoot, off,
                                   shadow);
    }

    /**
     * Read-only reachability audit of the recovered heap: recovery
     * repairs nothing, so every crash must leave no leaked block and
     * no dangling link.
     */
    void
    expect_clean_heap(const std::string& where = "")
    {
        nvm::HeapGc gc(runtime->allocator(), shadow);
        const nvm::GcStats s = gc.audit();
        EXPECT_EQ(s.leaked_blocks, 0u) << where << " " << s.to_json();
        EXPECT_EQ(s.dangling_links, 0u) << where << " " << s.to_json();
    }

    /** Every log record must be inactive after a finished recovery. */
    void
    expect_records_inactive(const std::string& where = "")
    {
        for (uint64_t off : runtime->log_records(nvm::RootSlot::kIdoLogHead)) {
            EXPECT_EQ(heap.resolve<IdoLogRec>(off)->recovery_pc,
                      kInactivePc)
                << where;
        }
    }

    /** Simulate fail-stop + restart: lose volatile state, recover. */
    void
    crash_and_recover(CrashPolicy policy)
    {
        shadow.crash(policy);
        make_runtime(); // fresh process: new lock table epoch, etc.
        runtime->recover();
        shadow.drain_all(); // recovery's cache state, made visible
        expect_clean_heap();
    }

    nvm::PersistentHeap heap;
    nvm::ShadowDomain shadow;
    std::unique_ptr<IdoRuntime> runtime;
};

/** Crash a single-op workload at opportunity k; returns true if the
 *  op crashed (false = ran to completion, sweep is done). */
template <typename Op>
bool
run_with_crash_at(RecoveryWorld& world, int64_t k, Op&& op)
{
    world.runtime->crash_scheduler().arm(k);
    bool crashed = false;
    try {
        op();
    } catch (const rt::SimCrashException&) {
        crashed = true;
    }
    world.runtime->crash_scheduler().disarm();
    return crashed;
}

TEST(IdoRecovery, StackPushAtEveryCrashPoint)
{
    for (const CrashPolicy policy :
         {CrashPolicy::kDropAll, CrashPolicy::kRandom,
          CrashPolicy::kPersistAll}) {
        for (int64_t k = 1; k < 200; ++k) {
            RecoveryWorld world(1000 + k);
            auto setup = world.runtime->make_thread();
            ds::PStack stack(ds::PStack::create(*setup));
            world.set_root(stack.root_off());
            stack.push(*setup, 111);
            world.shadow.drain_all();
            setup.reset();

            bool crashed;
            {
                auto th = world.runtime->make_thread();
                crashed = run_with_crash_at(
                    world, k, [&] { stack.push(*th, 222); });
            }
            if (!crashed) {
                // Sweep exhausted: op has < k crash opportunities.
                break;
            }
            world.crash_and_recover(policy);

            // Resumption semantics: a FASE that began logging is run
            // to completion; at worst the op never started.
            const auto snap =
                ds::PStack::snapshot(world.heap, stack.root_off());
            ASSERT_TRUE(ds::PStack::check_invariants(world.heap,
                                                     stack.root_off()));
            if (snap.size() == 2) {
                EXPECT_EQ(snap[0], 222u);
                EXPECT_EQ(snap[1], 111u);
            } else {
                ASSERT_EQ(snap.size(), 1u) << "policy/k=" << k;
                EXPECT_EQ(snap[0], 111u);
            }
        }
    }
}

TEST(IdoRecovery, StackPopAtEveryCrashPoint)
{
    for (int64_t k = 1; k < 200; ++k) {
        RecoveryWorld world(2000 + k);
        auto setup = world.runtime->make_thread();
        ds::PStack stack(ds::PStack::create(*setup));
        world.set_root(stack.root_off());
        stack.push(*setup, 5);
        stack.push(*setup, 6);
        world.shadow.drain_all();
        setup.reset();

        bool crashed;
        {
            auto th = world.runtime->make_thread();
            uint64_t out;
            crashed = run_with_crash_at(world, k,
                                        [&] { stack.pop(*th, &out); });
        }
        if (!crashed)
            break;
        world.crash_and_recover(CrashPolicy::kRandom);

        const auto snap =
            ds::PStack::snapshot(world.heap, stack.root_off());
        ASSERT_TRUE(
            ds::PStack::check_invariants(world.heap, stack.root_off()));
        if (snap.size() == 1) {
            EXPECT_EQ(snap[0], 5u); // pop completed by recovery
        } else {
            ASSERT_EQ(snap.size(), 2u);
            EXPECT_EQ(snap[0], 6u);
        }
    }
}

TEST(IdoRecovery, QueueEnqueueAtEveryCrashPoint)
{
    for (int64_t k = 1; k < 200; ++k) {
        RecoveryWorld world(3000 + k);
        auto setup = world.runtime->make_thread();
        ds::PQueue queue(ds::PQueue::create(*setup));
        world.set_root(queue.root_off());
        queue.enqueue(*setup, 1);
        world.shadow.drain_all();
        setup.reset();

        bool crashed;
        {
            auto th = world.runtime->make_thread();
            crashed = run_with_crash_at(world, k,
                                        [&] { queue.enqueue(*th, 2); });
        }
        if (!crashed)
            break;
        world.crash_and_recover(CrashPolicy::kRandom);

        const auto snap =
            ds::PQueue::snapshot(world.heap, queue.root_off());
        ASSERT_TRUE(
            ds::PQueue::check_invariants(world.heap, queue.root_off()));
        if (snap.size() == 2) {
            EXPECT_EQ(snap[0], 1u);
            EXPECT_EQ(snap[1], 2u);
        } else {
            ASSERT_EQ(snap.size(), 1u);
            EXPECT_EQ(snap[0], 1u);
        }
    }
}

TEST(IdoRecovery, RecoveryIsIdempotentUnderRepeatedCrashes)
{
    // Crash the RECOVERY itself at increasing opportunity counts; each
    // attempt must leave state recoverable until one finally finishes.
    for (int64_t op_k = 5; op_k <= 50; op_k += 9) {
        RecoveryWorld world(4000 + op_k);
        auto setup = world.runtime->make_thread();
        ds::PStack stack(ds::PStack::create(*setup));
        world.set_root(stack.root_off());
        stack.push(*setup, 1);
        world.shadow.drain_all();
        setup.reset();

        bool crashed;
        {
            auto th = world.runtime->make_thread();
            crashed = run_with_crash_at(world, op_k,
                                        [&] { stack.push(*th, 2); });
        }
        if (!crashed)
            continue;

        // Now crash recovery repeatedly before letting it finish.
        for (int64_t rk = 3; rk <= 33; rk += 10) {
            world.shadow.crash(CrashPolicy::kRandom);
            world.make_runtime();
            world.runtime->crash_scheduler().arm(rk);
            try {
                world.runtime->recover();
            } catch (const rt::SimCrashException&) {
            }
            world.runtime->crash_scheduler().disarm();
        }
        world.crash_and_recover(CrashPolicy::kRandom);

        const auto snap =
            ds::PStack::snapshot(world.heap, stack.root_off());
        ASSERT_TRUE(
            ds::PStack::check_invariants(world.heap, stack.root_off()));
        ASSERT_GE(snap.size(), 1u);
        ASSERT_LE(snap.size(), 2u);
        EXPECT_EQ(snap.back(), 1u);
    }
}

TEST(IdoRecovery, MultiThreadCrashRecoversAllFases)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        RecoveryWorld world(5000 + seed);
        ds::WorkloadConfig cfg;
        cfg.ds = ds::DsKind::kHashMap;
        cfg.threads = 4;
        cfg.key_range = 64;
        cfg.map_buckets = 8;
        cfg.ops_per_thread = 1u << 20; // effectively until crash
        cfg.remove_pct = 20;
        cfg.get_pct = 30;
        cfg.seed = seed;
        const uint64_t root = ds::workload_setup(*world.runtime, cfg);
        world.set_root(root);
        world.shadow.drain_all();

        world.runtime->crash_scheduler().arm(
            400 + static_cast<int64_t>(seed) * 97);
        const auto result =
            ds::workload_run(*world.runtime, root, cfg);
        EXPECT_TRUE(result.crashed);
        world.crash_and_recover(CrashPolicy::kRandom);

        EXPECT_TRUE(ds::workload_check_invariants(
            world.heap, ds::DsKind::kHashMap, root))
            << "seed " << seed;
        // Post-recovery, all log records must be inactive.
        world.expect_records_inactive("seed " + std::to_string(seed));
    }
}

TEST(IdoRecovery, CleanRunNeedsNoRecoveryWork)
{
    RecoveryWorld world(7);
    auto th = world.runtime->make_thread();
    ds::PStack stack(ds::PStack::create(*th));
    world.set_root(stack.root_off());
    stack.push(*th, 9);
    th.reset();
    world.crash_and_recover(CrashPolicy::kDropAll);
    // Nothing was mid-FASE; the one durable push must survive...
    const auto snap = ds::PStack::snapshot(world.heap, stack.root_off());
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0], 9u);
}

/** Holders named by a log record's durable (post-crash) lock fields. */
std::set<uint64_t>
durable_holders(const IdoLogRec& rec)
{
    std::set<uint64_t> held;
    for (size_t slot = 0; slot < kMaxHeldLocks; ++slot) {
        if ((rec.lock_bitmap & (1ull << slot)) && rec.lock_array[slot])
            held.insert(rec.lock_array[slot]);
    }
    return held;
}

uint64_t
locks_reacquired_total()
{
    return MetricsRegistry::instance().counter_value(
        "recovery.locks_reacquired");
}

TEST(IdoRecovery, PrefixLockRecordedAtActivationEveryCrashPoint)
{
    // memcached.set takes its shard lock in the read-only prefix (lock,
    // read_head, walk), so the lock lives only in the volatile mirror
    // until the build region activates the log.  Whenever a crash
    // leaves the record active in a region that runs under the lock,
    // the lock must be in the durable lock_array and recovery must
    // reacquire it.  A set-update's one word never activates the log.
    constexpr uint32_t kUnlockRegion = 6;
    apps::MemcachedMini::register_programs();
    for (const bool insert : {false, true}) {
        for (const CrashPolicy policy :
             {CrashPolicy::kDropAll, CrashPolicy::kRandom,
              CrashPolicy::kPersistAll}) {
            int active_crashes = 0;
            for (int64_t k = 1;; ++k) {
                ASSERT_LT(k, 500) << "set never completed";
                RecoveryWorld world(6000 + k);
                uint64_t root;
                {
                    auto setup = world.runtime->make_thread();
                    root = apps::MemcachedMini::create(*setup, 1, 64);
                    world.set_root(root);
                    apps::MemcachedMini(world.heap, root)
                        .set(*setup, 1, 0, 100);
                }
                world.shadow.drain_all();
                apps::MemcachedMini cache(world.heap, root);
                const uint64_t holder =
                    world.heap.resolve<apps::McRoot>(root)->shard_off[0]
                    + offsetof(apps::McShard, lock_holder);
                const uint64_t key = insert ? 2 : 1;

                bool crashed;
                uint64_t rec_off;
                {
                    auto th = world.runtime->make_thread();
                    rec_off = static_cast<IdoThread*>(th.get())->rec_off();
                    crashed = run_with_crash_at(
                        world, k, [&] { cache.set(*th, key, 0, 200); });
                }
                if (!crashed)
                    break;
                world.shadow.crash(policy);

                const auto* rec = world.heap.resolve<IdoLogRec>(rec_off);
                const uint64_t pc = rec->recovery_pc;
                const bool must_hold = pc != kInactivePc
                    && recovery_pc_region(pc) != kUnlockRegion;
                if (must_hold) {
                    ++active_crashes;
                    EXPECT_EQ(durable_holders(*rec),
                              std::set<uint64_t>{holder})
                        << "insert=" << insert << " policy "
                        << crash_policy_name(policy) << " k=" << k;
                }
                const uint64_t reacquired_before = locks_reacquired_total();
                world.make_runtime();
                world.runtime->recover();
                world.shadow.drain_all();
                if (must_hold) {
                    EXPECT_EQ(locks_reacquired_total() - reacquired_before,
                              1u)
                        << "k=" << k;
                }
                ASSERT_TRUE(
                    apps::MemcachedMini::check_invariants(world.heap, root));
                world.expect_clean_heap("k=" + std::to_string(k));

                // Atomic, and live: a leaked lock would hang these FASEs.
                auto th = world.runtime->make_thread();
                uint64_t v = 0;
                const bool present = cache.get(*th, key, 0, &v);
                const bool old_ok = insert ? !present : (present && v == 100);
                EXPECT_TRUE(old_ok || (present && v == 200)) << "k=" << k;
                cache.set(*th, key, 0, 300);
                ASSERT_TRUE(cache.get(*th, key, 0, &v));
                EXPECT_EQ(v, 300u);
            }
            if (insert) {
                EXPECT_GT(active_crashes, 0)
                    << "sweep never crashed an activated set";
            } else {
                EXPECT_EQ(active_crashes, 0)
                    << "a set-update activated the log";
            }
        }
    }
}

/** Regions of the two-lock program: A before activation, B after. */
uint32_t
two_lock_take_a(rt::RuntimeThread& t, rt::RegionCtx& ctx)
{
    t.fase_lock(ctx.r[0]);
    return 1;
}

uint32_t
two_lock_store_x(rt::RuntimeThread& t, rt::RegionCtx& ctx)
{
    t.store_u64(ctx.r[2], ctx.r[3]);
    t.fase_lock(ctx.r[1]);
    return 2;
}

uint32_t
two_lock_store_y(rt::RuntimeThread& t, rt::RegionCtx& ctx)
{
    t.store_u64(ctx.r[2] + 8, ctx.r[3]);
    return 3;
}

uint32_t
two_lock_release_b(rt::RuntimeThread& t, rt::RegionCtx& ctx)
{
    t.fase_unlock(ctx.r[1]);
    return 4;
}

uint32_t
two_lock_release_a(rt::RuntimeThread& t, rt::RegionCtx& ctx)
{
    t.fase_unlock(ctx.r[0]);
    return rt::kRegionEnd;
}

const rt::FaseProgram&
two_lock_program()
{
    static const rt::FaseProgram prog = [] {
        constexpr uint16_t R0 = 1, R1 = 2, R2 = 4, R3 = 8;
        rt::FaseProgram p;
        p.fase_id = 9200;
        p.name = "two_lock";
        p.regions = {
            {two_lock_take_a, "take_a", R0, 0, 0, 0, 0},
            {two_lock_store_x, "store_x", R1 | R2 | R3, 0, 0, 0},
            {two_lock_store_y, "store_y", R2 | R3, 0, 0, 0},
            {two_lock_release_b, "release_b", R1, 0, 0, 0, 0},
            {two_lock_release_a, "release_a", R0, 0, 0, 0, 0},
        };
        return p;
    }();
    return prog;
}

TEST(IdoRecovery, LockBeforeAndAfterActivationEveryCrashPoint)
{
    // Lock A is taken in the read-only prefix and recorded at
    // activation; lock B is taken after activation with its own fence.
    // By the durable pc's region, the locks recovery must find:
    // store_x at least A, store_y both, release_b at least A, and
    // release_a never B.
    const rt::FaseProgram& prog = two_lock_program();
    rt::FaseRegistry::instance().register_program(&prog);
    for (const CrashPolicy policy :
         {CrashPolicy::kDropAll, CrashPolicy::kRandom,
          CrashPolicy::kPersistAll}) {
        int active_crashes = 0;
        for (int64_t k = 1;; ++k) {
            ASSERT_LT(k, 500) << "FASE never completed";
            RecoveryWorld world(7000 + k);
            auto& alloc = world.runtime->allocator();
            const uint64_t lock_a = alloc.alloc(64, world.shadow);
            const uint64_t lock_b = alloc.alloc(64, world.shadow);
            const uint64_t data = alloc.alloc(64, world.shadow);
            // Untyped, so the audit keeps them as opaque roots.
            nvm::RootRegistry::set_ref(world.heap, nvm::RootSlot::kUser0,
                                       lock_a, world.shadow);
            nvm::RootRegistry::set_ref(world.heap, nvm::RootSlot::kUser1,
                                       lock_b, world.shadow);
            nvm::RootRegistry::set_ref(world.heap, nvm::RootSlot::kUser2,
                                       data, world.shadow);
            world.shadow.drain_all();
            auto run = [&](rt::RuntimeThread& th, uint64_t value) {
                rt::RegionCtx ctx;
                ctx.r[0] = lock_a;
                ctx.r[1] = lock_b;
                ctx.r[2] = data;
                ctx.r[3] = value;
                th.run_fase(prog, ctx);
            };

            bool crashed;
            uint64_t rec_off;
            {
                auto th = world.runtime->make_thread();
                rec_off = static_cast<IdoThread*>(th.get())->rec_off();
                crashed = run_with_crash_at(world, k,
                                            [&] { run(*th, 5); });
            }
            if (!crashed)
                break;
            world.shadow.crash(policy);

            const auto* rec = world.heap.resolve<IdoLogRec>(rec_off);
            const std::set<uint64_t> durable = durable_holders(*rec);
            const uint64_t pc = rec->recovery_pc;
            if (pc != kInactivePc) {
                ++active_crashes;
                const uint32_t region = recovery_pc_region(pc);
                const bool has_a = durable.count(lock_a) != 0;
                const bool has_b = durable.count(lock_b) != 0;
                EXPECT_TRUE(has_a || region > 3)
                    << "region " << region << " k=" << k;
                EXPECT_TRUE(has_b || region != 2) << "k=" << k;
                EXPECT_FALSE(has_b && region == 4) << "k=" << k;
            }
            const uint64_t reacquired_before = locks_reacquired_total();
            world.make_runtime();
            world.runtime->recover();
            world.shadow.drain_all();
            EXPECT_EQ(locks_reacquired_total() - reacquired_before,
                      pc == kInactivePc ? 0u : durable.size())
                << "k=" << k;
            world.expect_clean_heap("k=" + std::to_string(k));

            // All or nothing, and a rerun (both locks again) must not
            // deadlock on a lock recovery failed to release.
            const auto* words = world.heap.resolve<uint64_t>(data);
            EXPECT_EQ(words[0], words[1]) << "k=" << k;
            EXPECT_TRUE(words[0] == 0 || words[0] == 5) << "k=" << k;
            auto th = world.runtime->make_thread();
            run(*th, 6);
            EXPECT_EQ(words[0], 6u);
            EXPECT_EQ(words[1], 6u);
        }
        EXPECT_GT(active_crashes, 0);
    }
}

/** recover(), failing the test binary outright if it never returns. */
void
recover_or_die(RecoveryWorld& world, const std::string& where)
{
    auto done = std::async(std::launch::async, [&] {
        world.make_runtime();
        world.runtime->recover();
        world.shadow.drain_all();
    });
    if (done.wait_for(std::chrono::seconds(30))
        == std::future_status::timeout) {
        std::fprintf(stderr, "recovery deadlocked (%s)\n", where.c_str());
        std::abort();
    }
    done.get();
}

TEST(IdoRecovery, SecondWriterAfterTailUnlockEveryCrashPoint)
{
    // T1's set deactivates the log at its update boundary and releases
    // the shard lock in the unlogged tail.  T2, on another thread (a
    // fence persists only its own thread's lines), then takes the lock
    // and writes the same key, crashed at every tick and once more
    // after it returns.  T1's inactive pc was fenced before its unlock,
    // so recovery can never re-run T1's store over T2's value.
    constexpr uint64_t kKey = 1;
    apps::MemcachedMini::register_programs();
    for (const bool t2_deletes : {false, true}) {
        for (const CrashPolicy policy :
             {CrashPolicy::kDropAll, CrashPolicy::kRandom,
              CrashPolicy::kPersistAll}) {
            bool returned = false;
            int64_t k = 1;
            for (; !returned; ++k) {
                ASSERT_LT(k, 500) << "T2 never completed";
                RecoveryWorld world(9000 + k);
                uint64_t root;
                {
                    auto setup = world.runtime->make_thread();
                    root = apps::MemcachedMini::create(*setup, 1, 64);
                    world.set_root(root);
                    apps::MemcachedMini(world.heap, root)
                        .set(*setup, kKey, 0, 100);
                }
                world.shadow.drain_all();
                apps::MemcachedMini cache(world.heap, root);
                std::thread([&] {
                    auto t1 = world.runtime->make_thread();
                    cache.set(*t1, kKey, 0, 200);
                }).join();

                world.runtime->crash_scheduler().arm(k);
                std::thread([&] {
                    auto t2 = world.runtime->make_thread();
                    try {
                        if (t2_deletes)
                            cache.del(*t2, kKey, 0);
                        else
                            cache.set(*t2, kKey, 0, 300);
                        returned = true;
                    } catch (const rt::SimCrashException&) {
                    }
                }).join();
                world.runtime->crash_scheduler().disarm();
                world.shadow.crash(policy);
                const std::string where = "delete="
                    + std::to_string(t2_deletes) + " policy "
                    + crash_policy_name(policy)
                    + " k=" + std::to_string(k);
                // Only the lock's current holder may name it in an
                // active record; two would deadlock recovery.
                std::multiset<uint64_t> named;
                for (uint64_t off : world.runtime->log_records(nvm::RootSlot::kIdoLogHead)) {
                    const auto* rec = world.heap.resolve<IdoLogRec>(off);
                    if (rec->recovery_pc != kInactivePc)
                        for (uint64_t h : durable_holders(*rec))
                            named.insert(h);
                }
                bool shared = false;
                for (uint64_t h : named)
                    shared = shared || named.count(h) > 1;
                EXPECT_FALSE(shared)
                    << where << ": two active records name one lock";
                if (shared)
                    continue;
                recover_or_die(world, where);
                ASSERT_TRUE(
                    apps::MemcachedMini::check_invariants(world.heap, root))
                    << where;
                world.expect_records_inactive(where);
                world.expect_clean_heap(where);
                auto th = world.runtime->make_thread();
                uint64_t v = 0;
                const bool present = cache.get(*th, kKey, 0, &v);
                const bool t2_value = t2_deletes ? !present
                                                 : (present && v == 300);
                if (returned)
                    EXPECT_TRUE(t2_value) << where << " v=" << v;
                else
                    EXPECT_TRUE(t2_value || (present && v == 200))
                        << where << " present=" << present << " v=" << v;
                // Live: recovery left no lock behind.
                cache.set(*th, kKey, 0, 400);
                ASSERT_TRUE(cache.get(*th, kKey, 0, &v));
                EXPECT_EQ(v, 400u) << where;
            }
            EXPECT_GT(k, 10) << "T2 has suspiciously few crash points";
        }
    }
}

// --------------------------------------------------------------------------
// Leak-free FASEs: allocation and free entries
// --------------------------------------------------------------------------

constexpr CrashPolicy kAllPolicies[] = {
    CrashPolicy::kDropAll, CrashPolicy::kRandom, CrashPolicy::kPersistAll};

std::string
where_of(CrashPolicy policy, int64_t k)
{
    return std::string("policy ") + crash_policy_name(policy)
           + " k=" + std::to_string(k);
}

/**
 * Run `trial(world, k)` -- set up, then crash one operation at its k-th
 * tick -- for k = 1, 2, ... under every CrashPolicy until the operation
 * completes.  A crashed trial is recovered (crash_and_recover audits
 * the heap); either way `check(world, where)` then verifies the state
 * and every record must be inactive.  An operation with no more than
 * `min_points` ticks is suspect: the sweep would miss its protocol.
 */
template <typename Trial, typename Check>
void
sweep_crash_points(uint64_t seed_base, Trial&& trial, Check&& check,
                   int64_t min_points = 10)
{
    for (const CrashPolicy policy : kAllPolicies) {
        int64_t k = 1;
        for (;; ++k) {
            ASSERT_LT(k, 2000) << "operation never completed";
            RecoveryWorld world(seed_base + static_cast<uint64_t>(k));
            const std::string where = where_of(policy, k);
            const bool crashed = trial(world, k);
            if (crashed)
                world.crash_and_recover(policy);
            else
                world.expect_clean_heap(where);
            world.expect_records_inactive(where);
            check(world, where);
            if (!crashed)
                break;
        }
        EXPECT_GT(k, min_points) << "suspiciously few crash points";
    }
}

/**
 * Allocate `n` blocks of `size` bytes and require them all distinct: a
 * block freed twice sits on the free lists twice and is handed out
 * twice.
 */
void
expect_no_double_handout(RecoveryWorld& world, size_t size, size_t n,
                         const std::string& where)
{
    std::set<uint64_t> seen;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t off =
            world.runtime->allocator().alloc(size, world.shadow);
        ASSERT_NE(off, 0u) << where;
        EXPECT_TRUE(seen.insert(off).second)
            << where << ": block 0x" << std::hex << off
            << " handed out twice";
    }
}

/** A one-shard cache with key 1 = 100 (and key 2 = 200 if asked). */
uint64_t
make_cache(RecoveryWorld& world, rt::RuntimeThread& th, bool with_key2)
{
    const uint64_t root = apps::MemcachedMini::create(th, 1, 64);
    world.set_root(root);
    apps::MemcachedMini cache(world.heap, root);
    cache.set(th, 1, 0, 100);
    if (with_key2)
        cache.set(th, 2, 0, 200);
    world.shadow.drain_all();
    return root;
}

TEST(IdoRecovery, SetInsertAllocationEveryCrashPoint)
{
    // The build region allocates the item.  A crash between the
    // allocation and the boundary that leaves build re-runs build:
    // its allocation entry hands the same block back.  With `reuse`,
    // the item comes from the thread's transient cache (key 3 was just
    // deleted), whose LIVE mark rides the fence that advances the pc.
    apps::MemcachedMini::register_programs();
    uint64_t root = 0;
    for (const bool reuse : {false, true}) {
        sweep_crash_points(
            11000,
            [&](RecoveryWorld& world, int64_t k) {
                auto th = world.runtime->make_thread();
                root = make_cache(world, *th, false);
                apps::MemcachedMini cache(world.heap, root);
                if (reuse) {
                    cache.set(*th, 3, 0, 333);
                    cache.del(*th, 3, 0);
                    world.shadow.drain_all();
                }
                return run_with_crash_at(world, k,
                                         [&] { cache.set(*th, 2, 0, 222); });
            },
            [&](RecoveryWorld& world, const std::string& where) {
                ASSERT_TRUE(apps::MemcachedMini::check_invariants(world.heap,
                                                                  root))
                    << where;
                auto th = world.runtime->make_thread();
                apps::MemcachedMini cache(world.heap, root);
                uint64_t v = 0;
                EXPECT_TRUE(cache.get(*th, 1, 0, &v) && v == 100) << where;
                EXPECT_TRUE(!cache.get(*th, 2, 0, &v) || v == 222) << where;
                EXPECT_FALSE(cache.get(*th, 3, 0, &v)) << where;
            });
    }
}

TEST(IdoRecovery, DeleteHitFreeEveryCrashPoint)
{
    // The unlink region records the item's free; the deactivating
    // boundary marks it FREEING.  Whether the crash lands before the
    // entry, between the marks, or after the inactive pc, the item is
    // freed exactly once.
    apps::MemcachedMini::register_programs();
    uint64_t root = 0;
    sweep_crash_points(
        12000,
        [&](RecoveryWorld& world, int64_t k) {
            auto th = world.runtime->make_thread();
            root = make_cache(world, *th, true);
            apps::MemcachedMini cache(world.heap, root);
            return run_with_crash_at(world, k,
                                     [&] { cache.del(*th, 2, 0); });
        },
        [&](RecoveryWorld& world, const std::string& where) {
            ASSERT_TRUE(apps::MemcachedMini::check_invariants(world.heap,
                                                              root))
                << where;
            auto th = world.runtime->make_thread();
            apps::MemcachedMini cache(world.heap, root);
            uint64_t v = 0;
            EXPECT_TRUE(cache.get(*th, 1, 0, &v) && v == 100) << where;
            EXPECT_TRUE(!cache.get(*th, 2, 0, &v) || v == 200) << where;
            expect_no_double_handout(world, sizeof(apps::McItem), 300,
                                     where);
        });
}

// --------------------------------------------------------------------------
// One census per attach
// --------------------------------------------------------------------------

uint64_t
blocks_walked()
{
    return MetricsRegistry::instance().counter_value("nvheap.blocks_walked");
}

TEST(IdoRecovery, RecoveryReadsEveryHeaderOnce)
{
    // The attach's census feeds the counter seeds and every reclaim of
    // the recovery: an attach plus recover() reads each block header
    // exactly once, and so does a crash attach, whose constructor
    // reclaims too.
    apps::MemcachedMini::register_programs();
    for (const bool crash_attach : {false, true}) {
        const std::string where =
            crash_attach ? "crash attach" : "in-process attach";
        RecoveryWorld world(26000);
        world.heap.mark_running(world.shadow);
        {
            auto th = world.runtime->make_thread();
            const uint64_t root = make_cache(world, *th, false);
            apps::MemcachedMini cache(world.heap, root);
            for (uint64_t k = 10; k < 400; ++k)
                cache.set(*th, k, 0, k);
            for (uint64_t k = 10; k < 400; k += 3)
                cache.del(*th, k, 0);
            world.shadow.drain_all();
            // Tick 18 lies inside the set-insert's active span, behind
            // its activation fence.
            ASSERT_TRUE(run_with_crash_at(
                world, 18, [&] { cache.set(*th, 2, 0, 222); }));
        }
        world.shadow.crash(CrashPolicy::kRandom);
        if (crash_attach) {
            world.heap.simulate_fresh_open();
            ASSERT_TRUE(world.heap.recovered_from_crash());
        }
        const uint64_t walked0 = blocks_walked();
        world.make_runtime();
        world.runtime->recover();
        const nvm::NvHeap::CensusStats census =
            world.runtime->allocator().census_stats();
        EXPECT_GT(census.blocks, 300u) << where;
        EXPECT_EQ(census.threads, 1u) << where << ": below the split cut";
        EXPECT_TRUE(census.reused) << where;
        EXPECT_EQ(blocks_walked() - walked0, census.blocks)
            << where << ": headers read "
            << double(blocks_walked() - walked0) / census.blocks
            << " times";
        const std::string tl = RecoveryTimeline::instance().to_json();
        EXPECT_NE(tl.find("\"census_blocks\":"
                          + std::to_string(census.blocks)),
                  std::string::npos)
            << tl;
        EXPECT_NE(tl.find("\"fases_resumed\":1"), std::string::npos) << tl;
        // The attach's census counts into the recovery's wall time.
        const size_t wall = tl.find("\"wall_ns\":");
        ASSERT_NE(wall, std::string::npos) << tl;
        EXPECT_GE(std::stoull(tl.substr(wall + 10)), census.ns) << tl;
        world.shadow.drain_all();
        world.expect_clean_heap(where);

        // A leak planted now is found by the audit's own walk.
        nvm::NvHeap& alloc = world.runtime->allocator();
        const uint64_t leak = alloc.alloc(sizeof(apps::McItem), world.shadow,
                                          nvm::TypeId::kMcItem);
        ASSERT_NE(leak, 0u);
        world.shadow.drain_all();
        const nvm::GcStats s = nvm::HeapGc(alloc, world.shadow).audit();
        EXPECT_EQ(s.leaked_blocks, 1u) << where << " " << s.to_json();
    }
}

TEST(IdoRecovery, BackToBackSetsNeverReuseAStaleEntry)
{
    // One thread inserts key 2, then key 3.  The first set leaves a
    // durable allocation entry for (region build, index 0, slot 0);
    // the second set's entry for the same call differs only in its
    // instance.  A crash in the second set before its own entry is
    // durable must not hand key 2's item back to it.
    apps::MemcachedMini::register_programs();
    uint64_t root = 0;
    sweep_crash_points(
        13000,
        [&](RecoveryWorld& world, int64_t k) {
            auto th = world.runtime->make_thread();
            root = make_cache(world, *th, false);
            apps::MemcachedMini cache(world.heap, root);
            cache.set(*th, 2, 0, 222);
            world.shadow.drain_all();
            return run_with_crash_at(world, k,
                                     [&] { cache.set(*th, 3, 0, 333); });
        },
        [&](RecoveryWorld& world, const std::string& where) {
            ASSERT_TRUE(apps::MemcachedMini::check_invariants(world.heap,
                                                              root))
                << where;
            auto th = world.runtime->make_thread();
            apps::MemcachedMini cache(world.heap, root);
            uint64_t v = 0;
            EXPECT_TRUE(cache.get(*th, 1, 0, &v) && v == 100) << where;
            EXPECT_TRUE(cache.get(*th, 2, 0, &v) && v == 222)
                << where << " v=" << v;
            EXPECT_TRUE(!cache.get(*th, 3, 0, &v) || v == 333) << where;
        });
}

/** Test block for the pair program: two links and a value. */
struct PairNode
{
    uint64_t next[2];
    uint64_t value;
};

const bool g_pair_type = [] {
    nvm::TypeDescriptor d;
    d.name = "pair_node";
    d.payload_size = sizeof(PairNode);
    d.link_offsets = {offsetof(PairNode, next),
                      offsetof(PairNode, next) + 8};
    nvm::TypeRegistry::instance().register_type(nvm::TypeId::kTestBlock,
                                                std::move(d));
    return true;
}();

// pair_replace(r0 = root, r3 = value): replace root's two children with
// two fresh nodes holding the value, allocated in one region, and free
// the old children in the next.
uint32_t
pair_read(rt::RuntimeThread& t, rt::RegionCtx& ctx)
{
    ctx.r[1] = t.load_u64(ctx.r[0] + offsetof(PairNode, next));
    ctx.r[2] = t.load_u64(ctx.r[0] + offsetof(PairNode, next) + 8);
    return 1;
}

uint32_t
pair_build(rt::RuntimeThread& t, rt::RegionCtx& ctx)
{
    ctx.r[4] = t.nv_alloc_as(nvm::TypeId::kTestBlock, sizeof(PairNode));
    ctx.r[5] = t.nv_alloc_as(nvm::TypeId::kTestBlock, sizeof(PairNode));
    for (const uint64_t n : {ctx.r[4], ctx.r[5]}) {
        t.store_u64(n + offsetof(PairNode, next), 0);
        t.store_u64(n + offsetof(PairNode, next) + 8, 0);
        t.store_u64(n + offsetof(PairNode, value), ctx.r[3]);
    }
    return 2;
}

uint32_t
pair_link(rt::RuntimeThread& t, rt::RegionCtx& ctx)
{
    t.store_u64(ctx.r[0] + offsetof(PairNode, next), ctx.r[4]);
    t.store_u64(ctx.r[0] + offsetof(PairNode, next) + 8, ctx.r[5]);
    t.nv_free(ctx.r[1]);
    t.nv_free(ctx.r[2]);
    return rt::kRegionEnd;
}

const rt::FaseProgram&
pair_program()
{
    static const rt::FaseProgram prog = [] {
        constexpr uint16_t R0 = 1, R1 = 2, R2 = 4, R3 = 8, R4 = 16,
                           R5 = 32;
        rt::FaseProgram p;
        p.fase_id = 9201;
        p.name = "pair_replace";
        p.regions = {
            {pair_read, "read", R0, R1 | R2, 0, 0, 0},
            {pair_build, "build", R3, R4 | R5, 0, 0},
            {pair_link, "link", R0 | R1 | R2 | R4 | R5, 0, 0, 0},
        };
        return p;
    }();
    return prog;
}

void
pair_replace(rt::RuntimeThread& th, uint64_t root, uint64_t value)
{
    rt::RegionCtx ctx;
    ctx.r[0] = root;
    ctx.r[3] = value;
    th.run_fase(pair_program(), ctx);
}

TEST(IdoRecovery, TwoAllocationsInOneRegionEveryCrashPoint)
{
    // Two allocations share a region (entry indexes 0 and 1) and two
    // frees follow in the next: all four entries of a log record.
    rt::FaseRegistry::instance().register_program(&pair_program());
    uint64_t root = 0;
    sweep_crash_points(
        14000,
        [&](RecoveryWorld& world, int64_t k) {
            auto th = world.runtime->make_thread();
            root = th->nv_alloc_as(nvm::TypeId::kTestBlock,
                                   sizeof(PairNode));
            const PairNode zero{};
            world.shadow.store(world.heap.resolve<void>(root), &zero,
                               sizeof(zero));
            world.shadow.flush(world.heap.resolve<void>(root),
                               sizeof(zero));
            world.shadow.fence();
            world.set_root(root);
            // The second replace frees the first's nodes into the
            // transient cache, where the crashed one allocates.
            pair_replace(*th, root, 1);
            pair_replace(*th, root, 1);
            world.shadow.drain_all();
            return run_with_crash_at(world, k,
                                     [&] { pair_replace(*th, root, 2); });
        },
        [&](RecoveryWorld& world, const std::string& where) {
            const auto* r = world.heap.resolve<PairNode>(root);
            ASSERT_NE(r->next[0], 0u) << where;
            ASSERT_NE(r->next[1], 0u) << where;
            const uint64_t v0 =
                world.heap.resolve<PairNode>(r->next[0])->value;
            const uint64_t v1 =
                world.heap.resolve<PairNode>(r->next[1])->value;
            EXPECT_EQ(v0, v1) << where;
            EXPECT_TRUE(v0 == 1 || v0 == 2) << where;
            EXPECT_NE(r->next[0], r->next[1]) << where;
            expect_no_double_handout(world, sizeof(PairNode), 300, where);
        });
}

TEST(IdoRecovery, RecordedFreesCompleteOnceUnderRecoveryCrashes)
{
    // Crash a delete-hit at every tick, then crash recovery itself at
    // every one of its ticks before a last recovery runs to the end.
    // Each recovery pass may redo a free the previous one began, but a
    // block is never freed twice nor left LIVE and unlinked.
    apps::MemcachedMini::register_programs();
    const uint64_t finished_before =
        MetricsRegistry::instance().counter_value("recovery.frees_finished");
    for (const CrashPolicy policy : kAllPolicies) {
        int recovery_crashes = 0;
        bool op_done = false;
        for (int64_t op_k = 1; !op_done; ++op_k) {
            ASSERT_LT(op_k, 2000) << "delete never completed";
            bool recovery_done = false;
            for (int64_t rk = 1; !recovery_done; ++rk) {
                ASSERT_LT(rk, 2000) << "recovery never completed";
                RecoveryWorld world(15000 + static_cast<uint64_t>(op_k));
                const std::string where = where_of(policy, op_k)
                    + " recovery k=" + std::to_string(rk);
                uint64_t root;
                {
                    auto th = world.runtime->make_thread();
                    root = make_cache(world, *th, true);
                    apps::MemcachedMini cache(world.heap, root);
                    op_done = !run_with_crash_at(
                        world, op_k, [&] { cache.del(*th, 2, 0); });
                }
                if (op_done)
                    break;
                world.shadow.crash(policy);
                world.make_runtime();
                world.runtime->crash_scheduler().arm(rk);
                try {
                    world.runtime->recover();
                } catch (const rt::SimCrashException&) {
                }
                // A resumed FASE's crash is caught on its worker thread.
                recovery_done = !world.runtime->crash_scheduler().crashed();
                recovery_crashes += recovery_done ? 0 : 1;
                world.runtime->crash_scheduler().disarm();
                if (!recovery_done)
                    world.crash_and_recover(policy);
                else
                    world.shadow.drain_all();
                world.expect_clean_heap(where);
                world.expect_records_inactive(where);
                ASSERT_TRUE(
                    apps::MemcachedMini::check_invariants(world.heap, root))
                    << where;
                auto th = world.runtime->make_thread();
                apps::MemcachedMini cache(world.heap, root);
                uint64_t v = 0;
                EXPECT_TRUE(cache.get(*th, 1, 0, &v) && v == 100) << where;
                EXPECT_TRUE(!cache.get(*th, 2, 0, &v) || v == 200)
                    << where;
                expect_no_double_handout(world, sizeof(apps::McItem), 300,
                                         where);
            }
        }
        EXPECT_GT(recovery_crashes, 10) << where_of(policy, 0);
    }
    // Some crashes left an inactive record whose free recovery had to
    // finish itself.
    EXPECT_GT(
        MetricsRegistry::instance().counter_value("recovery.frees_finished"),
        finished_before);
}

// --------------------------------------------------------------------------
// One-word FASEs: the unlogged commit and every fallback to the log
// --------------------------------------------------------------------------

/** The calling thread's one-word FASE counters, unfolded. */
std::pair<uint64_t, uint64_t>
single_store_counts()
{
    const PersistCounters& c = tls_persist_counters();
    return {c.single_store_commits, c.single_store_fallbacks};
}

TEST(IdoRecovery, SingleStoreSetEveryCrashPoint)
{
    // A set-update's one store is an aligned word and its unlock tail
    // stores nothing, so its boundary commits the word with one fence
    // and the log never activates.  Crashed at every tick and once
    // after it returns, the key reads the old value or the new one,
    // the durable record stays inactive with the bitmap the previous
    // set left, and recovery leaves the shard lock free.
    apps::MemcachedMini::register_programs();
    uint64_t root = 0;
    uint64_t rec_off = 0;
    uint64_t bitmap_before = 0;
    bool returned = false;
    sweep_crash_points(
        16000,
        [&](RecoveryWorld& world, int64_t k) {
            auto th = world.runtime->make_thread();
            rec_off = static_cast<IdoThread*>(th.get())->rec_off();
            root = make_cache(world, *th, false);
            bitmap_before =
                world.heap.resolve<IdoLogRec>(rec_off)->lock_bitmap;
            apps::MemcachedMini cache(world.heap, root);
            const auto [commits, fallbacks] = single_store_counts();
            const bool crashed = run_with_crash_at(
                world, k, [&] { cache.set(*th, 1, 0, 222); });
            returned = !crashed;
            if (returned) {
                EXPECT_EQ(single_store_counts().first, commits + 1);
                EXPECT_EQ(single_store_counts().second, fallbacks);
            }
            return crashed;
        },
        [&](RecoveryWorld& world, const std::string& where) {
            const auto* rec = world.heap.resolve<IdoLogRec>(rec_off);
            EXPECT_EQ(rec->lock_bitmap, bitmap_before) << where;
            ASSERT_TRUE(apps::MemcachedMini::check_invariants(world.heap,
                                                              root))
                << where;
            auto th = world.runtime->make_thread();
            apps::MemcachedMini cache(world.heap, root);
            uint64_t v = 0;
            ASSERT_TRUE(cache.get(*th, 1, 0, &v)) << where;
            if (returned)
                EXPECT_EQ(v, 222u) << where;
            else
                EXPECT_TRUE(v == 100 || v == 222) << where << " v=" << v;
            cache.set(*th, 1, 0, 333);
            ASSERT_TRUE(cache.get(*th, 1, 0, &v)) << where;
            EXPECT_EQ(v, 333u) << where;
        });
}

/** What the storing region of the words program does. */
enum class WordsMode : uint64_t
{
    kOneWord,      ///< one aligned word: committed without the log
    kTwoStores,    ///< a second store
    kLoadBack,     ///< store, load the same word back, store what it read
    kPartialLoad,  ///< store, then a 4-byte load inside the held word
    kWide,         ///< one 16-byte store
    kMisaligned,   ///< one 8-byte store at a 4-byte offset
    kStoreLock,    ///< one word, then a lock acquire
    kLoop,         ///< one word per lap of a two-region loop
};

constexpr uint64_t kWordsValue = 5;

// words(r0 = lock A, r1 = lock B, r2 = block, r3 = value, r4 = mode):
// take A, run the storing region, release B (if taken) and A.  In
// kLoop mode the storing region and `advance` form a loop whose counter
// is r5 on entry to the storing region and r6 on its way out, so no
// region outputs one of its own live-ins.
uint32_t
words_lock(rt::RuntimeThread& t, rt::RegionCtx& ctx)
{
    t.fase_lock(ctx.r[0]);
    return 2;
}

uint32_t
words_advance(rt::RuntimeThread&, rt::RegionCtx& ctx)
{
    ctx.r[5] = ctx.r[6];
    return ctx.r[5] < 2 ? 2 : 3;
}

uint32_t
words_store(rt::RuntimeThread& t, rt::RegionCtx& ctx)
{
    const uint64_t w = ctx.r[2];
    const uint64_t v = ctx.r[3];
    switch (static_cast<WordsMode>(ctx.r[4])) {
      case WordsMode::kOneWord:
        t.store_u64(w, v);
        break;
      case WordsMode::kTwoStores:
        t.store_u64(w, v);
        t.store_u64(w + 8, v);
        break;
      case WordsMode::kLoadBack:
        t.store_u64(w, v);
        t.store_u64(w + 8, t.load_u64(w));
        break;
      case WordsMode::kPartialLoad: {
        t.store_u64(w, v);
        uint32_t lo = 0;
        t.load_bytes(w, &lo, sizeof lo);
        t.store_u64(w + 8, lo);
        break;
      }
      case WordsMode::kWide: {
        const uint64_t pair[2] = {v, v};
        t.store_bytes(w, pair, sizeof pair);
        break;
      }
      case WordsMode::kMisaligned:
        t.store_bytes(w + 4, &v, sizeof v);
        break;
      case WordsMode::kStoreLock:
        t.store_u64(w, v);
        t.fase_lock(ctx.r[1]);
        break;
      case WordsMode::kLoop:
        // Lap i stores word i alone: a lap resumed with a counter its
        // crashed boundary had already advanced would skip a word.
        t.store_u64(w + 8 * ctx.r[5], v);
        ctx.r[6] = ctx.r[5] + 1;
        return 1;
    }
    return 3;
}

uint32_t
words_unlock_b(rt::RuntimeThread& t, rt::RegionCtx& ctx)
{
    t.fase_unlock(ctx.r[1]);
    return 4;
}

uint32_t
words_unlock_a(rt::RuntimeThread& t, rt::RegionCtx& ctx)
{
    t.fase_unlock(ctx.r[0]);
    return rt::kRegionEnd;
}

const rt::FaseProgram&
words_program()
{
    static const rt::FaseProgram prog = [] {
        constexpr uint16_t R0 = 1, R1 = 2, R2 = 4, R3 = 8, R4 = 16,
                           R5 = 32, R6 = 64;
        rt::FaseProgram p;
        p.fase_id = 9202;
        p.name = "words";
        // `advance` sits below `store`, so a boundary into it still has
        // a storing region ahead by index and stays logged.
        p.regions = {
            {words_lock, "lock", R0, 0, 0, 0, 0},
            {words_advance, "advance", R6, R5, 0, 0, 0},
            {words_store, "store", R1 | R2 | R3 | R4 | R5, R6, 0, 0},
            {words_unlock_b, "unlock_b", R1, 0, 0, 0, 0},
            {words_unlock_a, "unlock_a", R0, 0, 0, 0, 0},
        };
        return p;
    }();
    return prog;
}

/** Heap blocks of one words sweep: two lock holders and the data. */
struct WordsBlocks
{
    uint64_t lock_a = 0;
    uint64_t lock_b = 0;
    uint64_t data = 0;
};

WordsBlocks
make_words(RecoveryWorld& world)
{
    auto& alloc = world.runtime->allocator();
    WordsBlocks b;
    b.lock_a = alloc.alloc(64, world.shadow);
    b.lock_b = alloc.alloc(64, world.shadow);
    b.data = alloc.alloc(64, world.shadow);
    // Untyped, so the audit keeps them as opaque roots.
    nvm::RootRegistry::set_ref(world.heap, nvm::RootSlot::kUser0, b.lock_a,
                               world.shadow);
    nvm::RootRegistry::set_ref(world.heap, nvm::RootSlot::kUser1, b.lock_b,
                               world.shadow);
    nvm::RootRegistry::set_ref(world.heap, nvm::RootSlot::kUser2, b.data,
                               world.shadow);
    world.shadow.drain_all();
    return b;
}

void
run_words(rt::RuntimeThread& th, const WordsBlocks& b, WordsMode mode,
          uint64_t value)
{
    rt::RegionCtx ctx;
    ctx.r[0] = b.lock_a;
    ctx.r[1] = b.lock_b;
    ctx.r[2] = b.data;
    ctx.r[3] = value;
    ctx.r[4] = static_cast<uint64_t>(mode);
    th.run_fase(words_program(), ctx);
}

/**
 * Sweep the words program in `mode` over every crash point and policy.
 * The FASE's durable footprint must be all old (zero) or all new, and
 * a run that returns must have taken the one-word commit (kOneWord) or
 * exactly one fallback to the log (every other mode).  The one-word
 * run has 10 ticks: 5 to lock and store, its fence, 4 to unlock.
 */
void
sweep_words(WordsMode mode, uint64_t seed_base)
{
    rt::FaseRegistry::instance().register_program(&words_program());
    WordsBlocks b;
    bool returned = false;
    const uint64_t v = kWordsValue;
    sweep_crash_points(
        seed_base,
        [&](RecoveryWorld& world, int64_t k) {
            b = make_words(world);
            auto th = world.runtime->make_thread();
            const auto [commits, fallbacks] = single_store_counts();
            const bool crashed = run_with_crash_at(
                world, k, [&] { run_words(*th, b, mode, v); });
            returned = !crashed;
            if (returned) {
                const bool one_word = mode == WordsMode::kOneWord;
                EXPECT_EQ(single_store_counts().first,
                          commits + (one_word ? 1 : 0));
                EXPECT_EQ(single_store_counts().second,
                          fallbacks + (one_word ? 0 : 1));
            }
            return crashed;
        },
        [&](RecoveryWorld& world, const std::string& where) {
            const auto* w = world.heap.resolve<uint64_t>(b.data);
            uint64_t got[2] = {w[0], w[1]};
            uint64_t want[2] = {v, v};
            switch (mode) {
              case WordsMode::kOneWord:
              case WordsMode::kStoreLock:
                want[1] = 0;
                break;
              case WordsMode::kMisaligned:
                std::memcpy(&got[0], reinterpret_cast<const char*>(w) + 4,
                            sizeof got[0]);
                got[1] = w[0] & 0xffffffffu;
                want[1] = 0;
                break;
              default:
                break;
            }
            const bool is_new = got[0] == want[0] && got[1] == want[1];
            const bool is_old = got[0] == 0 && got[1] == 0;
            if (returned)
                EXPECT_TRUE(is_new) << where;
            else
                EXPECT_TRUE(is_new || is_old)
                    << where << " torn: " << got[0] << "," << got[1];
            // Live: recovery left neither lock behind.
            auto th = world.runtime->make_thread();
            run_words(*th, b, WordsMode::kTwoStores, 7);
            EXPECT_EQ(w[0], 7u) << where;
            EXPECT_EQ(w[1], 7u) << where;
        },
        /*min_points=*/9);
}

TEST(IdoRecovery, SingleStoreWordEveryCrashPoint)
{
    sweep_words(WordsMode::kOneWord, 17000);
}

TEST(IdoRecovery, SingleStoreFallbackTwoStoresEveryCrashPoint)
{
    sweep_words(WordsMode::kTwoStores, 18000);
}

TEST(IdoRecovery, SingleStoreFallbackLoadBackEveryCrashPoint)
{
    // The load of the held word sees the held value (w1 == v), and the
    // next store falls back; a 4-byte load inside the word falls back
    // at the load and reads the replayed store from the heap.
    sweep_words(WordsMode::kLoadBack, 19000);
    sweep_words(WordsMode::kPartialLoad, 20000);
}

TEST(IdoRecovery, SingleStoreFallbackWideOrMisalignedEveryCrashPoint)
{
    sweep_words(WordsMode::kWide, 21000);
    sweep_words(WordsMode::kMisaligned, 22000);
}

TEST(IdoRecovery, SingleStoreFallbackLockEveryCrashPoint)
{
    sweep_words(WordsMode::kStoreLock, 23000);
}

TEST(IdoRecovery, SingleStoreFallbackLoopEveryCrashPoint)
{
    // The first lap's boundary leads back toward the storing region, so
    // its successor tail is not store-free: it activates the log.  A
    // resumed lap must store the word its crashed run was storing.
    sweep_words(WordsMode::kLoop, 24000);
}

TEST(IdoRecovery, SingleStoreFallbackFreeEveryCrashPoint)
{
    // A stack pop stores the top word, then frees the node: the free
    // falls back to the log, which records it, and no crash leaks or
    // double-frees the node.
    uint64_t root = 0;
    bool returned = false;
    sweep_crash_points(
        25000,
        [&](RecoveryWorld& world, int64_t k) {
            auto th = world.runtime->make_thread();
            ds::PStack stack(ds::PStack::create(*th));
            root = stack.root_off();
            world.set_root(root);
            stack.push(*th, 5);
            stack.push(*th, 6);
            world.shadow.drain_all();
            const uint64_t fallbacks = single_store_counts().second;
            uint64_t out = 0;
            const bool crashed = run_with_crash_at(
                world, k, [&] { stack.pop(*th, &out); });
            returned = !crashed;
            if (returned) {
                EXPECT_EQ(out, 6u);
                EXPECT_EQ(single_store_counts().second, fallbacks + 1);
            }
            return crashed;
        },
        [&](RecoveryWorld& world, const std::string& where) {
            ASSERT_TRUE(ds::PStack::check_invariants(world.heap, root))
                << where;
            const auto snap = ds::PStack::snapshot(world.heap, root);
            if (returned) {
                ASSERT_EQ(snap.size(), 1u) << where;
            }
            if (snap.size() == 1) {
                EXPECT_EQ(snap[0], 5u) << where;
            } else {
                ASSERT_EQ(snap.size(), 2u) << where;
                EXPECT_EQ(snap[0], 6u) << where;
            }
            expect_no_double_handout(world, sizeof(ds::PStackNode), 300,
                                     where);
        });
}

} // namespace
} // namespace ido
