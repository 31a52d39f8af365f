/**
 * @file
 * Batch tests for the server's execution path (net/server.h memc_exec).
 *
 * 1. A deterministic crash-point sweep: a mixed set/get/del batch runs
 *    through memc_exec, the function ido-serve runs each request's FASE
 *    with, under the shadow domain with the crash fuse armed at every
 *    successive tick, under all three crash policies.  The batch has
 *    not returned when the crash fires, so *no* request is
 *    acknowledged: after iDO recovery each touched key must hold
 *    exactly its old or its new value (replay or vanish, atomically),
 *    untouched keys must be byte-identical, and the cache structure
 *    must check out.  The post-recovery write probes for leaked locks
 *    (a stale lock record must not deadlock later FASEs).
 *
 * 2. A deterministic fence count: batches of the read-heavy mix must
 *    issue exactly the expected number of persist fences.  The server
 *    bench re-verifies it end to end.
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/memcached_mini.h"
#include "ido/ido_runtime.h"
#include "net/memc_protocol.h"
#include "net/server.h"
#include "nvm/heap_gc.h"
#include "nvm/persist_domain.h"
#include "nvm/shadow_domain.h"
#include "runtime/crash_sim.h"
#include "stats/persist_stats.h"

namespace ido {
namespace {

using apps::MemcachedMini;
using net::MemcOp;
using net::MemcRequest;

std::string
key_name(int i)
{
    return "key" + std::to_string(i);
}

MemcRequest
request(MemcOp op, int i, uint64_t value = 0)
{
    MemcRequest rq;
    rq.op = op;
    rq.key = key_name(i);
    rq.value = value;
    return rq;
}

/** Build the scripted batch: updates, an insert, deletes, reads. */
std::vector<MemcRequest>
scripted_batch()
{
    return {request(MemcOp::kSet, 0, 200), request(MemcOp::kSet, 6, 206),
            request(MemcOp::kDelete, 1),   request(MemcOp::kGet, 2),
            request(MemcOp::kSet, 3, 203), request(MemcOp::kDelete, 7),
            request(MemcOp::kGet, 0),      request(MemcOp::kSet, 2, 202)};
}

TEST(ServeBatchCrashSweep, BatchAtomicAtEveryCrashPoint)
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
                runtime->crash_scheduler().arm(fuse);
                try {
                    for (const MemcRequest& rq : scripted_batch())
                        net::memc_exec(cache, *th, rq);
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
                << "policy " << nvm::crash_policy_name(policy) << " fuse "
                << fuse;
            // Recovery repairs nothing: the batch's inserts and deletes
            // must leave no leaked block behind, whatever FASE the
            // crash interrupted.
            {
                nvm::HeapGc gc(runtime->allocator(), shadow);
                const nvm::GcStats gs = gc.audit();
                EXPECT_EQ(gs.leaked_blocks, 0u)
                    << "policy " << nvm::crash_policy_name(policy) << " fuse "
                    << fuse << " " << gs.to_json();
                EXPECT_EQ(gs.dangling_links, 0u)
                    << "policy " << nvm::crash_policy_name(policy) << " fuse "
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
                    << ", policy " << nvm::crash_policy_name(policy)
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
            << nvm::crash_policy_name(policy) << ")";
    }
}

/**
 * The acceptance arithmetic on a read-heavy mix (2 sets per 16
 * requests, near memcached's canonical ~10/90 write/read split).
 * GETs never activate the log: their lock records stay volatile, so
 * they cost 0 fences.  A set-update costs 1 fence: its one store is
 * an aligned word, so the update boundary writes the item's line back
 * and fences once without activating the log; its unlock tail runs
 * unlogged.  Nothing is left to publish when a batch closes.
 * Deterministic (real domain, fixed keys).
 */
TEST(ServeBatchFences, ExactCountPerBatch)
{
    MemcachedMini::register_programs();
    const int kBatches = 8;
    const int kPerBatch = 16;

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
    const uint64_t fences_before = tls_persist_counters().fences;
    for (int b = 0; b < kBatches; ++b) {
        for (int i = 0; i < kPerBatch; ++i) {
            const MemcRequest rq =
                i % 8 == 0
                    ? request(MemcOp::kSet, i % 8,
                              static_cast<uint64_t>(b * 100 + i))
                    : request(MemcOp::kGet, i % 8);
            net::memc_exec(cache, *th, rq);
        }
    }
    // 8 batches x 2 sets x 1 fence; the 112 GETs add none.
    EXPECT_EQ(tls_persist_counters().fences - fences_before, 16u);
}

} // namespace
} // namespace ido
