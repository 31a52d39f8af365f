/**
 * @file
 * Group-commit batcher tests (net/group_commit).
 *
 * 1. A deterministic crash-point sweep: a mixed set/get/del batch runs
 *    under the shadow domain with the crash fuse armed at every
 *    successive tick, under all three crash policies.  The batch has
 *    not returned when the crash fires, so *no* request is
 *    acknowledged: after iDO recovery each touched key must hold
 *    exactly its old or its new value (replay or vanish, atomically),
 *    untouched keys must be byte-identical, and the cache structure
 *    must check out.  The post-recovery write probes for leaked locks
 *    (a stale lock record must not deadlock later FASEs).
 *
 * 2. A deterministic fence count: the same workload at batch limit
 *    K=1 and K=16 must issue exactly the expected number of persist
 *    fences, the same at both -- batching does not change what a FASE
 *    persists.  The server bench re-verifies it end to end.
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/memcached_mini.h"
#include "common/panic.h"
#include "fuzz/rr.h"
#include "ido/ido_runtime.h"
#include "net/group_commit.h"
#include "net/memc_protocol.h"
#include "nvm/heap_gc.h"
#include "nvm/persist_domain.h"
#include "nvm/shadow_domain.h"
#include "runtime/crash_sim.h"
#include "stats/persist_stats.h"

namespace ido {
namespace {

using apps::MemcachedMini;
using net::GroupCommit;
using net::MemcOp;
using net::MemcRequest;
using net::ShardJob;
using net::ShardReply;

std::string
key_name(int i)
{
    return "key" + std::to_string(i);
}

/** Build the scripted batch: updates, an insert, deletes, reads. */
std::vector<ShardJob>
scripted_batch()
{
    auto set = [](int i, uint64_t v) {
        ShardJob j;
        j.req.op = MemcOp::kSet;
        j.req.key = key_name(i);
        j.req.value = v;
        return j;
    };
    auto get = [](int i) {
        ShardJob j;
        j.req.op = MemcOp::kGet;
        j.req.key = key_name(i);
        return j;
    };
    auto del = [](int i) {
        ShardJob j;
        j.req.op = MemcOp::kDelete;
        j.req.key = key_name(i);
        return j;
    };
    return {set(0, 200), set(6, 206), del(1), get(2),
            set(3, 203), del(7),      get(0), set(2, 202)};
}

/** Execute one job against the cache (the shard-worker exec body). */
std::string
exec_job(MemcachedMini& cache, rt::RuntimeThread& th, const ShardJob& job)
{
    auto [lo, hi] = net::memc_key_words(job.req.key);
    switch (job.req.op) {
    case MemcOp::kSet:
        cache.set(th, lo, hi, job.req.value);
        return net::memc_reply_stored();
    case MemcOp::kGet: {
        uint64_t v = 0;
        if (cache.get(th, lo, hi, &v))
            return net::memc_reply_value(job.req.key, 0, v);
        return net::memc_reply_miss();
    }
    case MemcOp::kDelete:
        return net::memc_reply_deleted(cache.del(th, lo, hi));
    default:
        return net::memc_reply_error();
    }
}

TEST(GroupCommitCrashSweep, BatchAtomicAtEveryCrashPoint)
{
    MemcachedMini::register_programs();
    // Old values the prefill establishes, and the value each scripted
    // request would leave behind.  A crashed, unacknowledged request
    // must resolve to exactly one of the two.
    const std::map<int, uint64_t> before = {{0, 100}, {1, 101}, {2, 102},
                                            {3, 103}, {4, 104}, {5, 105}};
    const std::map<int, std::optional<uint64_t>> after = {
        {0, 200},          {1, std::nullopt}, {2, 202},
        {3, 203},          {4, 104},          {5, 105},
        {6, 206},          {7, std::nullopt}};

    for (const nvm::CrashPolicy policy :
         {nvm::CrashPolicy::kDropAll, nvm::CrashPolicy::kPersistAll,
          nvm::CrashPolicy::kRandom}) {
        int completed_at = -1;
        for (int64_t fuse = 1; fuse < 100000; ++fuse) {
            nvm::PersistentHeap heap({.size = 32u << 20});
            nvm::ShadowDomain shadow(heap.base(), heap.size(),
                                     static_cast<uint64_t>(fuse) * 17 + 3);
            rt::RuntimeConfig cfg;
            cfg.check_contracts = true;
            auto runtime = std::make_unique<IdoRuntime>(heap, shadow, cfg);

            uint64_t root;
            {
                auto setup = runtime->make_thread();
                root = MemcachedMini::create(*setup, 1, 64);
                nvm::RootRegistry::set_ref(heap, nvm::RootSlot::kAppRoot,
                                           root, shadow);
                MemcachedMini cache(heap, root);
                for (const auto& [i, v] : before) {
                    auto [lo, hi] = net::memc_key_words(key_name(i));
                    cache.set(*setup, lo, hi, v);
                }
            }
            shadow.drain_all();

            bool crashed = false;
            {
                auto th = runtime->make_thread();
                MemcachedMini cache(heap, root);
                GroupCommit committer(/*shard_index=*/0);
                std::vector<ShardReply> replies;
                runtime->crash_scheduler().arm(fuse);
                try {
                    committer.run_batch(
                        scripted_batch(),
                        [&](const ShardJob& j) {
                            return exec_job(cache, *th, j);
                        },
                        &replies);
                } catch (const rt::SimCrashException&) {
                    crashed = true;
                }
                runtime->crash_scheduler().disarm();
            }
            if (!crashed) {
                completed_at = static_cast<int>(fuse);
                break;
            }
            shadow.crash(policy);

            runtime = std::make_unique<IdoRuntime>(heap, shadow, cfg);
            MemcachedMini::register_programs();
            runtime->recover();
            shadow.drain_all();
            ASSERT_TRUE(MemcachedMini::check_invariants(heap, root))
                << "policy " << static_cast<int>(policy) << " fuse "
                << fuse;
            // Recovery repairs nothing: the batch's inserts and deletes
            // must leave no leaked block behind, whatever FASE the
            // crash interrupted.
            {
                nvm::HeapGc gc(runtime->allocator(), shadow);
                const nvm::GcStats gs = gc.audit();
                EXPECT_EQ(gs.leaked_blocks, 0u)
                    << "policy " << static_cast<int>(policy) << " fuse "
                    << fuse << " " << gs.to_json();
                EXPECT_EQ(gs.dangling_links, 0u)
                    << "policy " << static_cast<int>(policy) << " fuse "
                    << fuse << " " << gs.to_json();
            }

            auto th = runtime->make_thread();
            MemcachedMini cache(heap, root);
            for (const auto& [i, new_val] : after) {
                auto [lo, hi] = net::memc_key_words(key_name(i));
                uint64_t v = 0;
                const bool present = cache.get(*th, lo, hi, &v);
                auto b = before.find(i);
                const bool old_ok =
                    (b == before.end()) ? !present
                                        : (present && v == b->second);
                const bool new_ok =
                    !new_val.has_value() ? !present
                                         : (present && v == *new_val);
                EXPECT_TRUE(old_ok || new_ok)
                    << "key " << i << " neither old nor new after crash"
                    << " (present=" << present << " v=" << v
                    << ", policy " << static_cast<int>(policy)
                    << ", fuse " << fuse << ")";
            }
            // Liveness probe: a lock leaked by a stale ownership record
            // would deadlock this FASE.
            auto [plo, phi] = net::memc_key_words("probe");
            cache.set(*th, plo, phi, 777);
            uint64_t pv = 0;
            EXPECT_TRUE(cache.get(*th, plo, phi, &pv));
            EXPECT_EQ(pv, 777u);
        }
        EXPECT_GT(completed_at, 30)
            << "batch has suspiciously few crash points (policy "
            << static_cast<int>(policy) << ")";
    }
}

/**
 * The acceptance arithmetic on a read-heavy mix (2 sets per 16
 * requests, near memcached's canonical ~10/90 write/read split).
 * GETs never activate the log: their lock records stay volatile, so
 * they cost 0 fences.  A set-update costs 1 fence: its one store is
 * an aligned word, so the update boundary writes the item's line back
 * and fences once without activating the log; its unlock tail runs
 * unlogged.  Nothing is left to publish at a batch's end, so K does
 * not change the count.
 * Deterministic (real domain, fixed keys).
 */
TEST(GroupCommitFences, ExactCountsAtK1AndK16)
{
    MemcachedMini::register_programs();
    const int kBatches = 8;
    const int kPerBatch = 16;

    auto fences_for = [&](uint32_t batch_limit) -> uint64_t {
        nvm::PersistentHeap heap({.size = 32u << 20});
        nvm::RealDomain dom;
        rt::RuntimeConfig cfg;
        auto runtime = std::make_unique<IdoRuntime>(heap, dom, cfg);
        auto th = runtime->make_thread();
        const uint64_t root = MemcachedMini::create(*th, 1, 64);
        MemcachedMini cache(heap, root);
        for (int i = 0; i < 8; ++i) {
            auto [lo, hi] = net::memc_key_words(key_name(i));
            cache.set(*th, lo, hi, 1);
        }
        GroupCommit committer(/*shard_index=*/0);
        const uint64_t fences_before = tls_persist_counters().fences;
        for (int b = 0; b < kBatches; ++b) {
            std::vector<ShardJob> jobs;
            for (int i = 0; i < kPerBatch; ++i) {
                ShardJob j;
                if (i % 8 == 0) {
                    j.req.op = MemcOp::kSet;
                    j.req.key = key_name(i % 8);
                    j.req.value = static_cast<uint64_t>(b * 100 + i);
                } else {
                    j.req.op = MemcOp::kGet;
                    j.req.key = key_name(i % 8);
                }
                jobs.push_back(std::move(j));
            }
            // K=1 degenerates to one-request batches, exactly like an
            // unbatched server.
            std::vector<ShardReply> replies;
            if (batch_limit == 1) {
                for (ShardJob& j : jobs)
                    committer.run_batch(
                        {j},
                        [&](const ShardJob& jj) {
                            return exec_job(cache, *th, jj);
                        },
                        &replies);
            } else {
                committer.run_batch(
                    jobs,
                    [&](const ShardJob& jj) {
                        return exec_job(cache, *th, jj);
                    },
                    &replies);
            }
        }
        return tls_persist_counters().fences - fences_before;
    };

    const uint64_t fences_k1 = fences_for(1);
    const uint64_t fences_k16 = fences_for(16);
    // 8 batches x 2 sets x 1 fence; the 112 GETs add none.
    EXPECT_EQ(fences_k1, 16u);
    EXPECT_EQ(fences_k16, 16u);
}

/**
 * ido-fuzz integration (kNetBatch): two shard workers batching
 * concurrently against one heap are a real interleaving -- the order
 * their batches close in decides the cross-shard durability order.
 * run_batch takes a recorded turn on the global kNetBatch object, so
 * a recorded two-worker schedule (chaos-perturbed) must replay with
 * every thread consuming exactly its recorded log, batch order
 * included.
 */
TEST(GroupCommitRecordReplay, CrossShardBatchOrderReplays)
{
    MemcachedMini::register_programs();

    // Replay only reproduces a schedule against byte-identical starting
    // state, so each rr session gets its own freshly-created heap (the
    // heap's owner-tag counter is per-instance: reusing the recorded
    // heap would hand the replay workers different tags, hence
    // different home-shard mutexes).  Construction and teardown happen
    // OUTSIDE the rr session; worker threads are created inside it.
    struct Env {
        nvm::PersistentHeap heap{{.size = 32u << 20}};
        nvm::RealDomain dom;
        rt::RuntimeConfig cfg;
        IdoRuntime runtime{heap, dom, cfg};
        uint64_t root = 0;
        std::vector<std::vector<std::string>> shard_keys{2};

        Env()
        {
            auto setup = runtime.make_thread();
            root = MemcachedMini::create(*setup, /*nshards=*/2, 64);
            // Pre-split the key pool by owning shard (worker-privacy
            // contract: worker i only ever touches shard i's keys).
            // shard_index is a pure hash, so both sessions agree.
            MemcachedMini cache(heap, root);
            for (int i = 0;
                 shard_keys[0].size() < 8 || shard_keys[1].size() < 8; ++i) {
                IDO_ASSERT(i < 10000, "key split never converged");
                const std::string k = key_name(i);
                auto [lo, hi] = net::memc_key_words(k);
                auto& bucket = shard_keys[cache.shard_index(lo, hi)];
                if (bucket.size() < 8)
                    bucket.push_back(k);
            }
        }
    };

    const auto worker = [](Env& env, uint32_t tid) {
        fuzz::rr::ThreadScope scope(tid);
        auto th = env.runtime.make_thread();
        MemcachedMini cache(env.heap, env.root);
        GroupCommit committer(/*shard_index=*/tid);
        for (int b = 0; b < 6; ++b) {
            std::vector<ShardJob> jobs;
            for (int i = 0; i < 4; ++i) {
                ShardJob j;
                j.req.op = MemcOp::kSet;
                j.req.key = env.shard_keys[tid][static_cast<size_t>(i) % 8];
                j.req.value = static_cast<uint64_t>(tid * 1000 + b * 10 + i);
                jobs.push_back(std::move(j));
            }
            std::vector<ShardReply> replies;
            committer.run_batch(
                jobs,
                [&](const ShardJob& jj) { return exec_job(cache, *th, jj); },
                &replies);
        }
    };
    const auto run_both = [&](Env& env) {
        std::thread t0([&] { worker(env, 0); });
        std::thread t1([&] { worker(env, 1); });
        t0.join();
        t1.join();
    };

    auto rec_env = std::make_unique<Env>();
    fuzz::rr::start_record(/*seed=*/20260808, /*chaos_pct=*/30);
    run_both(*rec_env);
    const auto logs = fuzz::rr::stop_record();
    ASSERT_FALSE(fuzz::rr::failed()) << fuzz::rr::failure_reason();
    rec_env.reset();

    // The instrument is live: each worker's log carries its six
    // kNetBatch turns (plus whatever heap/lock sync ops it took).
    ASSERT_GE(logs.size(), 2u);
    const uint64_t nb_key = fuzz::obj_key(fuzz::ObjKind::kNetBatch);
    for (uint32_t tid = 0; tid < 2; ++tid) {
        int batches = 0;
        for (const fuzz::MemOp& op : logs[tid])
            if (op.key == nb_key)
                ++batches;
        EXPECT_EQ(batches, 6) << "tid " << tid;
    }

    // Replay the schedule against an identical fresh environment: same
    // writes, same batch order -- every thread must consume exactly
    // the log it recorded.
    auto rep_env = std::make_unique<Env>();
    fuzz::rr::start_replay(logs, /*recording_crashed=*/false);
    run_both(*rep_env);
    const auto consumed = fuzz::rr::stop_replay();
    ASSERT_FALSE(fuzz::rr::failed()) << fuzz::rr::failure_reason();
    ASSERT_EQ(consumed.size(), logs.size());
    for (size_t t = 0; t < logs.size(); ++t)
        EXPECT_EQ(consumed[t], logs[t]) << "tid " << t;
}

} // namespace
} // namespace ido
