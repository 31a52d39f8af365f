/**
 * @file
 * Tests for the two application workloads: memcached_mini (lock-based,
 * multi-threaded) and redis_mini (single-threaded, programmer-
 * delineated FASEs) -- semantics under every runtime, concurrent
 * correctness, and crash recovery at the application level.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "apps/memcached_client.h"
#include "apps/memcached_mini.h"
#include "apps/redis_client.h"
#include "apps/redis_mini.h"
#include "baselines/runtime_factory.h"
#include "ido/ido_runtime.h"
#include "nvm/nv_heap.h"
#include "nvm/shadow_domain.h"

namespace ido::apps {
namespace {

using baselines::RuntimeKind;

class AppsAllRuntimes : public ::testing::TestWithParam<RuntimeKind>
{
  protected:
    AppsAllRuntimes()
        : heap({.size = 64u << 20}), dom()
    {
        rt::RuntimeConfig cfg;
        cfg.check_contracts = true;
        runtime = baselines::make_runtime(GetParam(), heap, dom, cfg);
        th = runtime->make_thread();
        MemcachedMini::register_programs();
        RedisMini::register_programs();
    }

    nvm::PersistentHeap heap;
    nvm::RealDomain dom;
    std::unique_ptr<rt::Runtime> runtime;
    std::unique_ptr<rt::RuntimeThread> th;
};

TEST_P(AppsAllRuntimes, MemcachedSetGetDelete)
{
    MemcachedMini cache(heap, MemcachedMini::create(*th, 4, 64));
    uint64_t v = 0;
    EXPECT_FALSE(cache.get(*th, 1, 2, &v));
    cache.set(*th, 1, 2, 100);
    cache.set(*th, 3, 4, 200);
    cache.set(*th, 1, 2, 101); // update
    EXPECT_TRUE(cache.get(*th, 1, 2, &v));
    EXPECT_EQ(v, 101u);
    EXPECT_TRUE(cache.get(*th, 3, 4, &v));
    EXPECT_EQ(v, 200u);
    EXPECT_EQ(MemcachedMini::size(heap, cache.root_off()), 2u);
    EXPECT_TRUE(cache.del(*th, 1, 2));
    EXPECT_FALSE(cache.del(*th, 1, 2));
    EXPECT_FALSE(cache.get(*th, 1, 2, &v));
    EXPECT_EQ(MemcachedMini::size(heap, cache.root_off()), 1u);
    EXPECT_TRUE(
        MemcachedMini::check_invariants(heap, cache.root_off()));
}

TEST_P(AppsAllRuntimes, MemcachedManyKeysCollisions)
{
    // Tiny table: long chains, all code paths.
    MemcachedMini cache(heap, MemcachedMini::create(*th, 2, 4));
    for (uint64_t i = 0; i < 300; ++i) {
        const auto [lo, hi] = memcached_key(i);
        cache.set(*th, lo, hi, i);
    }
    EXPECT_EQ(MemcachedMini::size(heap, cache.root_off()), 300u);
    uint64_t v = 0;
    for (uint64_t i = 0; i < 300; ++i) {
        const auto [lo, hi] = memcached_key(i);
        ASSERT_TRUE(cache.get(*th, lo, hi, &v)) << i;
        EXPECT_EQ(v, i);
    }
    for (uint64_t i = 0; i < 300; i += 3) {
        const auto [lo, hi] = memcached_key(i);
        EXPECT_TRUE(cache.del(*th, lo, hi));
    }
    EXPECT_EQ(MemcachedMini::size(heap, cache.root_off()), 200u);
    EXPECT_TRUE(
        MemcachedMini::check_invariants(heap, cache.root_off()));
}

TEST_P(AppsAllRuntimes, MemcachedConcurrentClients)
{
    MemcachedMini cache(heap, MemcachedMini::create(*th, 4, 256));
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&, t] {
            auto worker = runtime->make_thread();
            MemcachedMini c(heap, cache.root_off());
            Rng rng(500 + t);
            uint64_t v;
            for (int i = 0; i < 400; ++i) {
                const uint64_t idx = rng.next_below(64);
                const auto [lo, hi] = memcached_key(idx);
                if (rng.percent(50)) {
                    c.set(*worker, lo, hi, idx * 7);
                } else if (c.get(*worker, lo, hi, &v)) {
                    EXPECT_EQ(v, idx * 7);
                }
            }
        });
    }
    for (auto& w : workers)
        w.join();
    EXPECT_TRUE(
        MemcachedMini::check_invariants(heap, cache.root_off()));
}

TEST_P(AppsAllRuntimes, RedisSetGetDelete)
{
    RedisMini store(heap, RedisMini::create(*th, 64));
    uint64_t v = 0;
    EXPECT_FALSE(store.get(*th, 5, &v));
    store.set(*th, 5, 50);
    store.set(*th, 6, 60);
    store.set(*th, 5, 51);
    EXPECT_TRUE(store.get(*th, 5, &v));
    EXPECT_EQ(v, 51u);
    EXPECT_EQ(RedisMini::size(heap, store.root_off()), 2u);
    EXPECT_TRUE(store.del(*th, 5));
    EXPECT_FALSE(store.del(*th, 5));
    EXPECT_EQ(RedisMini::size(heap, store.root_off()), 1u);
    EXPECT_TRUE(RedisMini::check_invariants(heap, store.root_off()));
}

TEST_P(AppsAllRuntimes, RedisChurnMatchesModel)
{
    RedisMini store(heap, RedisMini::create(*th, 16));
    std::map<uint64_t, uint64_t> model;
    Rng rng(77);
    for (int i = 0; i < 2000; ++i) {
        const uint64_t key = 1 + rng.next_below(100);
        const int dice = static_cast<int>(rng.next_below(10));
        if (dice < 6) {
            const uint64_t val = rng.next() | 1;
            store.set(*th, key, val);
            model[key] = val;
        } else if (dice < 8) {
            EXPECT_EQ(store.del(*th, key), model.erase(key) > 0);
        } else {
            uint64_t v = 0;
            const bool found = store.get(*th, key, &v);
            auto it = model.find(key);
            ASSERT_EQ(found, it != model.end());
            if (found) {
                EXPECT_EQ(v, it->second);
            }
        }
    }
    EXPECT_EQ(RedisMini::size(heap, store.root_off()), model.size());
    EXPECT_TRUE(RedisMini::check_invariants(heap, store.root_off()));
}

INSTANTIATE_TEST_SUITE_P(
    AllRuntimes, AppsAllRuntimes,
    ::testing::ValuesIn(baselines::all_runtime_kinds()),
    [](const ::testing::TestParamInfo<RuntimeKind>& info) {
        return baselines::runtime_kind_name(info.param);
    });

TEST(AppCrash, MemcachedWorkloadRecoversUnderIdo)
{
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        nvm::PersistentHeap heap({.size = 64u << 20});
        nvm::ShadowDomain shadow(heap.base(), heap.size(), seed);
        rt::RuntimeConfig cfg;
        cfg.check_contracts = true;
        auto runtime = std::make_unique<IdoRuntime>(heap, shadow, cfg);

        MemcachedWorkloadConfig wl;
        wl.threads = 4;
        wl.key_space = 128;
        wl.nbuckets = 64;
        wl.ops_per_thread = 1u << 20;
        wl.seed = seed;
        wl.prefill = false;
        const uint64_t root = memcached_setup(*runtime, wl);
        shadow.drain_all();

        runtime->crash_scheduler().arm(
            500 + static_cast<int64_t>(seed) * 113);
        memcached_run(*runtime, root, wl);
        shadow.crash(nvm::CrashPolicy::kRandom);

        runtime = std::make_unique<IdoRuntime>(heap, shadow, cfg);
        MemcachedMini::register_programs();
        runtime->recover();
        shadow.drain_all();
        EXPECT_TRUE(MemcachedMini::check_invariants(heap, root))
            << "seed " << seed;
    }
}

TEST(AppCrash, RedisSetAtomicAtEveryCrashPoint)
{
    for (int64_t k = 1; k < 120; ++k) {
        nvm::PersistentHeap heap({.size = 32u << 20});
        nvm::ShadowDomain shadow(heap.base(), heap.size(), 40 + k);
        rt::RuntimeConfig cfg;
        cfg.check_contracts = true;
        auto runtime = std::make_unique<IdoRuntime>(heap, shadow, cfg);
        RedisMini::register_programs();

        uint64_t root;
        {
            auto setup = runtime->make_thread();
            root = RedisMini::create(*setup, 16);
            RedisMini(heap, root).set(*setup, 42, 1);
        }
        shadow.drain_all();

        bool crashed = false;
        {
            auto th = runtime->make_thread();
            runtime->crash_scheduler().arm(k);
            try {
                RedisMini(heap, root).set(*th, 43, 2);
            } catch (const rt::SimCrashException&) {
                crashed = true;
            }
            runtime->crash_scheduler().disarm();
        }
        if (!crashed)
            break;
        shadow.crash(nvm::CrashPolicy::kRandom);
        runtime = std::make_unique<IdoRuntime>(heap, shadow, cfg);
        runtime->recover();
        shadow.drain_all();

        ASSERT_TRUE(RedisMini::check_invariants(heap, root))
            << "k=" << k;
        auto th2 = runtime->make_thread();
        RedisMini store(heap, root);
        uint64_t v = 0;
        EXPECT_TRUE(store.get(*th2, 42, &v));
        EXPECT_EQ(v, 1u);
        const uint64_t n = RedisMini::size(heap, root);
        EXPECT_TRUE(n == 1 || n == 2);
        if (n == 2) {
            EXPECT_TRUE(store.get(*th2, 43, &v));
            EXPECT_EQ(v, 2u);
        }
    }
}

TEST(AppLayout, MemcachedItemsPackOneBlockEach)
{
    // A 48-byte item takes the compact class-48 path: 16-byte header +
    // item = one 64-byte block, carved back to back from the inserting
    // thread's chunk, whose first header starts 16 bytes into a line.
    // So each item's header and its hot words (next, key, value) share
    // one cache line.
    nvm::PersistentHeap heap({.size = 64u << 20});
    nvm::RealDomain dom;
    auto runtime =
        baselines::make_runtime(RuntimeKind::kIdo, heap, dom, {});
    MemcachedMini::register_programs();
    auto setup = runtime->make_thread();
    MemcachedMini cache(heap, MemcachedMini::create(*setup, 1, 64));
    // Made on this thread, so its log record comes from this thread's
    // chunk; the inserts run on a thread whose chunk holds items only.
    auto th = runtime->make_thread();
    constexpr uint64_t kItems = 300;
    std::thread([&] {
        for (uint64_t i = 0; i < kItems; ++i) {
            const auto [lo, hi] = memcached_key(i);
            cache.set(*th, lo, hi, i);
        }
    }).join();

    // The LRU list from its tail is insertion order.
    const auto* root = heap.resolve<McRoot>(cache.root_off());
    std::vector<uint64_t> items;
    for (uint64_t it = heap.resolve<McShard>(root->shard_off[0])->lru_tail;
         it != 0; it = heap.resolve<McItem>(it)->lru_prev)
        items.push_back(it);
    ASSERT_EQ(items.size(), kItems);
    // Only a chunk's end breaks the 64-byte stride.
    uint64_t breaks = 0;
    for (size_t i = 1; i < items.size(); ++i)
        breaks += items[i] != items[i - 1] + 64;
    EXPECT_LE(breaks, kItems / (nvm::NvHeap::kChunkBytes / 64));
    const auto line = [&](uint64_t off) {
        return reinterpret_cast<uintptr_t>(heap.resolve<uint8_t>(off))
               / kCacheLineBytes;
    };
    for (uint64_t it : items) {
        EXPECT_EQ(line(it - 16), line(it + offsetof(McItem, value) + 7))
            << "item at heap offset " << it;
    }
}

TEST(AppDrivers, MemcachedDriverRunsCountMode)
{
    nvm::PersistentHeap heap({.size = 64u << 20});
    nvm::RealDomain dom;
    rt::RuntimeConfig cfg;
    auto runtime = baselines::make_runtime(RuntimeKind::kIdo, heap,
                                           dom, cfg);
    MemcachedWorkloadConfig wl;
    wl.threads = 2;
    wl.key_space = 256;
    wl.ops_per_thread = 500;
    const uint64_t root = memcached_setup(*runtime, wl);
    const auto result = memcached_run(*runtime, root, wl);
    EXPECT_EQ(result.total_ops, 1000u);
    EXPECT_GT(result.hits, 0u);
    EXPECT_TRUE(MemcachedMini::check_invariants(heap, root));
}

TEST(AppDrivers, RedisDriverRunsCountMode)
{
    nvm::PersistentHeap heap({.size = 64u << 20});
    nvm::RealDomain dom;
    rt::RuntimeConfig cfg;
    auto runtime = baselines::make_runtime(RuntimeKind::kIdo, heap,
                                           dom, cfg);
    RedisWorkloadConfig wl;
    wl.key_range = 1000;
    wl.ops_total = 2000;
    const uint64_t root = redis_setup(*runtime, wl);
    const auto result = redis_run(*runtime, root, wl);
    EXPECT_EQ(result.total_ops, 2000u);
    EXPECT_GT(result.hits, 100u);
    EXPECT_TRUE(RedisMini::check_invariants(heap, root));
}

} // namespace
} // namespace ido::apps
