/**
 * @file
 * Tests for the two application workloads: memcached_mini (lock-based,
 * multi-threaded) and redis_mini (single-threaded, programmer-
 * delineated FASEs) -- semantics under every runtime, concurrent
 * correctness, and crash recovery at the application level.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "apps/memcached_client.h"
#include "apps/memcached_mini.h"
#include "apps/redis_client.h"
#include "apps/redis_mini.h"
#include "baselines/mnemosyne_runtime.h"
#include "baselines/runtime_factory.h"
#include "ido/ido_runtime.h"
#include "nvm/nv_heap.h"
#include "nvm/shadow_domain.h"
#include "stats/persist_stats.h"

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

TEST_P(AppsAllRuntimes, ValidatedGetsSeeOnlyWrittenValues)
{
    // Two writers churn set/delete of 256 keys over one shard of 64
    // buckets (chains of a few items, freed and reused under the
    // walks) while two readers GET without the lock.  A value names
    // its key, its writer and that writer's op count, so a read is
    // checked against what was ever written for that key: a torn or
    // stale walk that passed validation would show another key's value
    // or a count not yet reached.
    MemcachedMini cache(heap, MemcachedMini::create(*th, 1, 64));
    constexpr uint64_t kKeys = 256;
    constexpr uint64_t kWriterOps = 3000;
    const auto value_of = [](uint64_t key, uint64_t writer, uint64_t n) {
        return key << 32 | writer << 24 | n;
    };
    std::atomic<uint64_t> written[2] = {0, 0}; // ops begun, per writer
    std::atomic<int> writers_left{2};
    std::atomic<uint64_t> hits{0};
    std::vector<std::thread> threads;
    for (uint64_t w = 0; w < 2; ++w) {
        threads.emplace_back([&, w] {
            auto t = runtime->make_thread();
            Rng rng(900 + w);
            for (uint64_t n = 1; n <= kWriterOps; ++n) {
                const uint64_t key = rng.next_below(kKeys);
                const auto [lo, hi] = memcached_key(key);
                written[w].store(n, std::memory_order_release);
                if (rng.percent(60))
                    cache.set(*t, lo, hi, value_of(key, w, n));
                else
                    cache.del(*t, lo, hi);
            }
            writers_left.fetch_sub(1);
        });
    }
    for (uint64_t r = 0; r < 2; ++r) {
        threads.emplace_back([&, r] {
            auto t = runtime->make_thread();
            Rng rng(950 + r);
            uint64_t reads = 0;
            while (writers_left.load() > 0 || reads < 1000) {
                const uint64_t key = rng.next_below(kKeys);
                const auto [lo, hi] = memcached_key(key);
                uint64_t v = 0;
                ++reads;
                if (!cache.get(*t, lo, hi, &v))
                    continue;
                hits.fetch_add(1, std::memory_order_relaxed);
                const uint64_t writer = v >> 24 & 0xff;
                ASSERT_EQ(v >> 32, key);
                ASSERT_LT(writer, 2u);
                ASSERT_GE(v & 0xffffff, 1u);
                ASSERT_LE(v & 0xffffff,
                          written[writer].load(std::memory_order_acquire));
            }
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_GT(hits.load(), 0u);
    EXPECT_TRUE(MemcachedMini::check_invariants(heap, cache.root_off()));
}

TEST_P(AppsAllRuntimes, GetBehindDeadWriterThrowsInsteadOfHanging)
{
    // Crash a set-update at every opportunity.  Whenever the dead
    // writer left the shard's guard held (its lock word, or Mnemosyne's
    // global version, odd), a GET of the key must throw
    // SimCrashException, so it neither hangs nor returns the value the
    // dead writer stored.  Otherwise it returns the old or the new
    // value, as a locked GET would.
    int held = 0;
    for (int64_t k = 1;; ++k) {
        ASSERT_LT(k, 200) << "the set never completed";
        nvm::PersistentHeap h({.size = 16u << 20});
        nvm::RealDomain d;
        auto r = baselines::make_runtime(GetParam(), h, d, {});
        auto writer = r->make_thread();
        auto reader = r->make_thread();
        MemcachedMini cache(h, MemcachedMini::create(*writer, 1, 64));
        cache.set(*writer, 7, 7, 10);
        r->crash_scheduler().arm(k);
        bool crashed = false;
        try {
            cache.set(*writer, 7, 7, 20);
        } catch (const rt::SimCrashException&) {
            crashed = true;
        }
        if (!crashed)
            break;
        const uint64_t shard =
            h.resolve<McRoot>(cache.root_off())->shard_off[0];
        const std::atomic<uint64_t>& guard =
            GetParam() == RuntimeKind::kMnemosyne
                ? static_cast<baselines::MnemosyneRuntime&>(*r)
                      .global_version()
                : r->locks()
                      .lock_for(h.resolve<uint64_t>(
                          shard + offsetof(McShard, lock_holder)))
                      .sequence();
        uint64_t v = 0;
        if (guard.load() & 1) {
            ++held;
            EXPECT_THROW(cache.get(*reader, 7, 7, &v),
                         rt::SimCrashException)
                << "k=" << k;
        } else {
            ASSERT_TRUE(cache.get(*reader, 7, 7, &v)) << "k=" << k;
            EXPECT_TRUE(v == 10 || v == 20) << "k=" << k << " v=" << v;
        }
    }
    EXPECT_GT(held, 0);
}

/** RealDomain whose load() of one watched word first runs `hook`,
 *  which may overwrite what the load returned. */
class HookedLoadDomain final : public nvm::PersistDomain
{
  public:
    void store(void* dst, const void* src, size_t n) override
    {
        real_.store(dst, src, n);
    }
    void load(const void* src, void* dst, size_t n) override
    {
        real_.load(src, dst, n);
        if (src == watched && hook)
            hook(dst);
    }
    void flush(const void* addr, size_t n) override { real_.flush(addr, n); }
    void fence() override { real_.fence(); }

    const void* watched = nullptr;
    std::function<void(void*)> hook;

  private:
    nvm::RealDomain real_;
};

TEST(AppGet, OffsetNearTopOfAddressSpaceIsTornNotFollowed)
{
    // A racing writer can leave any word in a reused block, so a walk
    // must reject an offset so large that offset + sizeof(McItem) wraps
    // past zero.  The first read of the bucket head sees such an
    // offset while a writer moves the shard's sequence: the pass is
    // torn, fails validation and is run again, and never dereferences
    // the offset.
    nvm::PersistentHeap heap({.size = 16u << 20});
    HookedLoadDomain dom;
    auto runtime = baselines::make_runtime(RuntimeKind::kIdo, heap, dom, {});
    MemcachedMini::register_programs();
    auto th = runtime->make_thread();
    MemcachedMini cache(heap, MemcachedMini::create(*th, 1, 1));
    cache.set(*th, 3, 4, 42);
    const uint64_t shard =
        heap.resolve<McRoot>(cache.root_off())->shard_off[0];
    rt::TransientLock& lock = runtime->locks().lock_for(
        heap.resolve<uint64_t>(shard + offsetof(McShard, lock_holder)));
    int planted = 0;
    dom.watched = heap.resolve<uint64_t>(shard + sizeof(McShard));
    dom.hook = [&](void* dst) {
        if (planted++ != 0)
            return;
        const uint64_t wild = ~uint64_t{7}; // 8-aligned, 2^64 - 8
        std::memcpy(dst, &wild, sizeof(wild));
        lock.lock();
        lock.unlock();
    };
    const uint64_t retries0 = tls_persist_counters().read_retries;
    uint64_t v = 0;
    ASSERT_TRUE(cache.get(*th, 3, 4, &v));
    EXPECT_EQ(v, 42u);
    EXPECT_EQ(planted, 2);
    EXPECT_EQ(tls_persist_counters().read_retries, retries0 + 1);
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

/**
 * Insert 300 items into a fresh cache from a second thread and check
 * that they pack one 64-byte block each.  A 48-byte item takes the
 * compact class-48 path: 16-byte header + item = one 64-byte block,
 * carved back to back from the inserting thread's chunk, whose first
 * header starts 16 bytes into a line.  So each item's header and its
 * hot words (next, key, value) share one cache line.  With
 * `worker_made_thread` the inserting thread makes its own runtime
 * thread, as the repo benchmark's workers do; its log record must not
 * land in the chunk ahead of the items.
 */
void
check_items_pack_one_block_each(bool worker_made_thread)
{
    nvm::PersistentHeap heap({.size = 64u << 20});
    nvm::RealDomain dom;
    auto runtime =
        baselines::make_runtime(RuntimeKind::kIdo, heap, dom, {});
    MemcachedMini::register_programs();
    auto setup = runtime->make_thread();
    MemcachedMini cache(heap, MemcachedMini::create(*setup, 1, 64));
    std::unique_ptr<rt::RuntimeThread> th;
    if (!worker_made_thread)
        th = runtime->make_thread();
    constexpr uint64_t kItems = 300;
    std::thread([&] {
        if (worker_made_thread)
            th = runtime->make_thread();
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

TEST(AppLayout, MemcachedItemsPackOneBlockEach)
{
    check_items_pack_one_block_each(/*worker_made_thread=*/false);
}

TEST(AppLayout, MemcachedItemsPackOneBlockEachWorkerMadeThread)
{
    check_items_pack_one_block_each(/*worker_made_thread=*/true);
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
