/**
 * @file
 * Randomized crash-consistency properties (DESIGN.md Sec. 6), across
 * runtimes and data structures:
 *
 *  - Atomicity + durability oracle (single-threaded, deterministic):
 *    run a random op sequence, crash at a random point with random
 *    line loss, recover, and require the surviving state to equal the
 *    reference model after exactly j ops, where j is either the number
 *    of fully completed ops or that plus the one in-flight op
 *    (resumption completes it; rollback discards it; both are legal
 *    linearizations).
 *
 *  - Multi-threaded invariant preservation: crash a concurrent
 *    workload, recover, check structural invariants and that recovery
 *    terminates with no held locks.
 */
#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "baselines/nvml_runtime.h"
#include "baselines/runtime_factory.h"
#include "common/rng.h"
#include "ds/hashmap.h"
#include "ds/ordered_list.h"
#include "ds/queue.h"
#include "ds/stack.h"
#include "ds/workload.h"
#include "nvm/shadow_domain.h"

namespace ido {
namespace {

using baselines::RuntimeKind;
using nvm::CrashPolicy;

struct CrashWorld
{
    CrashWorld(RuntimeKind kind, uint64_t seed)
        : kind_(kind), heap({.size = 32u << 20}),
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
        runtime = baselines::make_runtime(kind_, heap, shadow, cfg);
    }

    void
    crash_and_recover(uint64_t seed)
    {
        const CrashPolicy policy = static_cast<CrashPolicy>(seed % 3);
        shadow.crash(policy);
        make_runtime();
        runtime->recover();
        shadow.drain_all();
    }

    RuntimeKind kind_;
    nvm::PersistentHeap heap;
    nvm::ShadowDomain shadow;
    std::unique_ptr<rt::Runtime> runtime;
};

/** Op script entry for the deterministic oracle. */
struct ScriptOp
{
    bool is_insert;
    uint64_t value; // push/enqueue value, or list key
};

std::vector<ScriptOp>
make_script(uint64_t seed, size_t n, uint64_t key_range)
{
    Rng rng(seed * 77 + 5);
    std::vector<ScriptOp> script;
    for (size_t i = 0; i < n; ++i) {
        script.push_back(ScriptOp{
            rng.percent(60), 1 + rng.next_below(key_range)});
    }
    return script;
}

class CrashConsistency
    : public ::testing::TestWithParam<RuntimeKind>
{
};

TEST_P(CrashConsistency, StackMatchesReferencePrefix)
{
    const RuntimeKind kind = GetParam();
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        CrashWorld world(kind, seed);
        auto th = world.runtime->make_thread();
        ds::PStack stack(ds::PStack::create(*th));
        world.shadow.drain_all();

        const auto script = make_script(seed, 40, 1u << 30);
        Rng crash_rng(seed * 13);
        world.runtime->crash_scheduler().arm(
            1 + crash_rng.next_below(500));
        size_t completed = 0;
        bool crashed = false;
        try {
            for (const ScriptOp& op : script) {
                uint64_t out;
                if (op.is_insert)
                    stack.push(*th, op.value);
                else
                    stack.pop(*th, &out);
                ++completed;
            }
        } catch (const rt::SimCrashException&) {
            crashed = true;
        }
        world.runtime->crash_scheduler().disarm();
        th.reset();
        if (!crashed) {
            // Too few opportunities: still verify the final state.
            completed = script.size();
        }
        world.crash_and_recover(seed);

        const auto snap =
            ds::PStack::snapshot(world.heap, stack.root_off());
        ASSERT_TRUE(ds::PStack::check_invariants(world.heap,
                                                 stack.root_off()));

        // Build reference states after `completed` and `completed+1`.
        auto reference = [&](size_t j) {
            std::vector<uint64_t> model; // bottom..top
            for (size_t i = 0; i < j && i < script.size(); ++i) {
                if (script[i].is_insert)
                    model.push_back(script[i].value);
                else if (!model.empty())
                    model.pop_back();
            }
            std::vector<uint64_t> top_down(model.rbegin(),
                                           model.rend());
            return top_down;
        };
        const auto ref_a = reference(completed);
        const auto ref_b = reference(completed + 1);
        EXPECT_TRUE(snap == ref_a || snap == ref_b)
            << baselines::runtime_kind_name(kind) << " seed " << seed
            << " completed " << completed;
    }
}

TEST_P(CrashConsistency, QueueMatchesReferencePrefix)
{
    const RuntimeKind kind = GetParam();
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        CrashWorld world(kind, 100 + seed);
        auto th = world.runtime->make_thread();
        ds::PQueue queue(ds::PQueue::create(*th));
        world.shadow.drain_all();

        const auto script = make_script(seed, 40, 1u << 30);
        Rng crash_rng(seed * 17);
        world.runtime->crash_scheduler().arm(
            1 + crash_rng.next_below(500));
        size_t completed = 0;
        bool crashed = false;
        try {
            for (const ScriptOp& op : script) {
                uint64_t out;
                if (op.is_insert)
                    queue.enqueue(*th, op.value);
                else
                    queue.dequeue(*th, &out);
                ++completed;
            }
        } catch (const rt::SimCrashException&) {
            crashed = true;
        }
        world.runtime->crash_scheduler().disarm();
        th.reset();
        if (!crashed)
            completed = script.size();
        world.crash_and_recover(seed);

        const auto snap =
            ds::PQueue::snapshot(world.heap, queue.root_off());
        ASSERT_TRUE(ds::PQueue::check_invariants(world.heap,
                                                 queue.root_off()));

        auto reference = [&](size_t j) {
            std::deque<uint64_t> model;
            for (size_t i = 0; i < j && i < script.size(); ++i) {
                if (script[i].is_insert)
                    model.push_back(script[i].value);
                else if (!model.empty())
                    model.pop_front();
            }
            return std::vector<uint64_t>(model.begin(), model.end());
        };
        const auto ref_a = reference(completed);
        const auto ref_b = reference(completed + 1);
        EXPECT_TRUE(snap == ref_a || snap == ref_b)
            << baselines::runtime_kind_name(kind) << " seed " << seed;
    }
}

TEST_P(CrashConsistency, ListMatchesReferencePrefix)
{
    const RuntimeKind kind = GetParam();
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        CrashWorld world(kind, 200 + seed);
        auto th = world.runtime->make_thread();
        ds::POrderedList list(ds::POrderedList::create(*th));
        world.shadow.drain_all();

        Rng rng(seed * 31);
        struct ListOp
        {
            int kind; // 0 insert, 1 remove
            uint64_t key;
            uint64_t value;
        };
        std::vector<ListOp> script;
        for (int i = 0; i < 30; ++i) {
            script.push_back(ListOp{rng.percent(70) ? 0 : 1,
                                    1 + rng.next_below(16),
                                    rng.next() | 1});
        }

        Rng crash_rng(seed * 37);
        world.runtime->crash_scheduler().arm(
            1 + crash_rng.next_below(800));
        size_t completed = 0;
        bool crashed = false;
        try {
            for (const ListOp& op : script) {
                if (op.kind == 0)
                    list.insert(*th, op.key, op.value);
                else
                    list.remove(*th, op.key);
                ++completed;
            }
        } catch (const rt::SimCrashException&) {
            crashed = true;
        }
        world.runtime->crash_scheduler().disarm();
        th.reset();
        if (!crashed)
            completed = script.size();
        world.crash_and_recover(seed);

        ASSERT_TRUE(ds::POrderedList::check_invariants(
            world.heap, list.head_off()));
        const auto snap =
            ds::POrderedList::snapshot(world.heap, list.head_off());

        auto reference = [&](size_t j) {
            std::map<uint64_t, uint64_t> model;
            for (size_t i = 0; i < j && i < script.size(); ++i) {
                if (script[i].kind == 0)
                    model[script[i].key] = script[i].value;
                else
                    model.erase(script[i].key);
            }
            return std::vector<std::pair<uint64_t, uint64_t>>(
                model.begin(), model.end());
        };
        const auto ref_a = reference(completed);
        const auto ref_b = reference(completed + 1);
        EXPECT_TRUE(snap == ref_a || snap == ref_b)
            << baselines::runtime_kind_name(kind) << " seed " << seed
            << " completed " << completed;
    }
}

TEST_P(CrashConsistency, ConcurrentWorkloadInvariantsSurvive)
{
    const RuntimeKind kind = GetParam();
    const ds::DsKind structures[] = {
        ds::DsKind::kStack, ds::DsKind::kQueue, ds::DsKind::kHashMap};
    for (const ds::DsKind s : structures) {
        for (uint64_t seed = 1; seed <= 4; ++seed) {
            CrashWorld world(kind, 300 + seed);
            ds::WorkloadConfig cfg;
            cfg.ds = s;
            cfg.threads = 4;
            cfg.key_range = 64;
            cfg.map_buckets = 8;
            cfg.ops_per_thread = 1u << 20;
            cfg.remove_pct = 20;
            cfg.get_pct = 30;
            cfg.seed = seed;
            const uint64_t root =
                ds::workload_setup(*world.runtime, cfg);
            world.shadow.drain_all();

            world.runtime->crash_scheduler().arm(
                300 + static_cast<int64_t>(seed) * 131);
            ds::workload_run(*world.runtime, root, cfg);
            world.crash_and_recover(seed);

            EXPECT_TRUE(
                ds::workload_check_invariants(world.heap, s, root))
                << baselines::runtime_kind_name(kind) << " "
                << ds::ds_kind_name(s) << " seed " << seed;
        }
    }
}

// Deterministic regression test for the NVML two-phase-locking fix
// (the ConcurrentWorkloadInvariantsSurvive/nvml flake): releasing a
// transaction's locks before its commit (the lap bump that retires the
// undo log) published uncommitted, unflushed stores to other threads;
// a crash before commit would then undo state that committed
// transactions already built on (queue tail-unreachable invariant
// violations, allocator double-frees).  The checkable single-thread
// property is the lock discipline itself: at EVERY crash point, a live
// undo log implies the transaction's queue locks are still held.
// Sweeping the fuse visits every crash opportunity of the op sequence,
// so the test is exhaustive and deterministic.
TEST(NvmlLockDiscipline, UndoLiveImpliesLocksStillHeld)
{
    uint64_t protected_checks = 0;
    for (int64_t fuse = 1;; ++fuse) {
        ASSERT_LT(fuse, 100000) << "crash-free run never reached";
        nvm::PersistentHeap heap({.size = 32u << 20});
        nvm::RealDomain dom;
        rt::RuntimeConfig cfg;
        cfg.check_contracts = true;
        auto runtime = baselines::make_runtime(RuntimeKind::kNvml,
                                               heap, dom, cfg);
        ds::register_all_programs();
        auto th = runtime->make_thread();
        ds::PQueue queue(ds::PQueue::create(*th));
        queue.enqueue(*th, 1);
        queue.enqueue(*th, 2);

        runtime->crash_scheduler().arm(fuse);
        bool crashed = false;
        try {
            uint64_t out;
            for (int i = 0; i < 6; ++i) {
                queue.enqueue(*th, 10 + static_cast<uint64_t>(i));
                queue.dequeue(*th, &out);
            }
        } catch (const rt::SimCrashException&) {
            crashed = true;
        }
        runtime->crash_scheduler().disarm();
        if (!crashed)
            break; // the fuse outlived the run: every point visited

        // A live undo log by itself is fine (node-build stores happen
        // before any lock is taken).  The discipline violation is a
        // live undo entry for LOCK-PROTECTED state -- the root's head
        // or tail pointer, written only inside the respective critical
        // section -- while that lock is already released: exactly the
        // window the old early-release code opened.
        auto* nvml =
            static_cast<baselines::NvmlRuntime*>(runtime.get());
        auto* root = heap.resolve<ds::PQueueRoot>(queue.root_off());
        auto lock_held = [&](uint64_t* slot) {
            auto& l = runtime->locks().lock_for(slot);
            if (l.try_lock()) {
                l.unlock();
                return false;
            }
            return true;
        };
        for (uint64_t off : nvml->log_records(nvm::RootSlot::kNvmlState)) {
            auto* log = heap.resolve<baselines::NvmlThreadLog>(off);
            const auto* buf = heap.resolve<uint8_t>(log->buf_off);
            const size_t n_slots =
                log->buf_bytes / sizeof(baselines::NvmlEntry);
            for (size_t i = 0; i < n_slots; ++i) {
                const auto* e =
                    reinterpret_cast<const baselines::NvmlEntry*>(
                        buf + i * sizeof(baselines::NvmlEntry));
                if (e->type != 1
                    || e->lap != static_cast<uint32_t>(log->lap))
                    break; // end of the live (uncommitted) suffix
                if (e->addr_off
                    == queue.root_off() + offsetof(ds::PQueueRoot,
                                                   head)) {
                    ++protected_checks;
                    EXPECT_TRUE(lock_held(&root->head_lock_holder))
                        << "fuse " << fuse
                        << ": uncommitted head write, head lock free";
                } else if (e->addr_off
                           == queue.root_off()
                               + offsetof(ds::PQueueRoot, tail)) {
                    ++protected_checks;
                    EXPECT_TRUE(lock_held(&root->tail_lock_holder))
                        << "fuse " << fuse
                        << ": uncommitted tail write, tail lock free";
                }
            }
        }
    }
    // The sweep visits every crash opportunity, so some fuses must
    // land between a protected-field store and its commit -- if none
    // did, the assertions above never ran and the test proves nothing.
    EXPECT_GT(protected_checks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Recoverable, CrashConsistency,
    ::testing::Values(RuntimeKind::kIdo, RuntimeKind::kAtlas,
                      RuntimeKind::kMnemosyne, RuntimeKind::kJustdo,
                      RuntimeKind::kNvml, RuntimeKind::kNvthreads),
    [](const ::testing::TestParamInfo<RuntimeKind>& info) {
        return baselines::runtime_kind_name(info.param);
    });

} // namespace
} // namespace ido
