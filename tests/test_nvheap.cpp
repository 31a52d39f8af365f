/**
 * @file
 * NvHeap v2 tests: facade semantics (per-thread caches, sharded free
 * lists, alloc_linked), free_block forensics, a deterministic
 * crash-at-every-fuse-point sweep over alloc/free under all three
 * ShadowDomain crash policies, and a multi-thread alloc/free stress
 * run.  The sweep is the acceptance gate for the two-phase free
 * protocol: after any crash the heap must check consistent, nothing
 * may be handed out twice, and leak reclamation must converge.  A
 * census split across threads must find what the serial walk finds.
 * A restart hands the dead run's chunk tails and free blocks out
 * before the arena grows, and a reset file heap keeps no old block.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/rng.h"
#include "ido/ido_runtime.h"
#include "nvm/heap_gc.h"
#include "nvm/nv_heap.h"
#include "nvm/persist_domain.h"
#include "nvm/shadow_domain.h"
#include "stats/metrics.h"

namespace ido::nvm {
namespace {

struct NvHeapFixture : public ::testing::Test
{
    NvHeapFixture()
        : heap({.size = 4u << 20}), dom(), h(heap, dom)
    {
    }

    PersistentHeap heap;
    RealDomain dom;
    NvHeap h;
};

TEST_F(NvHeapFixture, BasicAllocNonZeroAligned)
{
    const uint64_t a = h.alloc(24, dom);
    const uint64_t b = h.alloc(24, dom);
    ASSERT_NE(a, 0u);
    ASSERT_NE(b, 0u);
    EXPECT_NE(a, b);
    EXPECT_EQ(a % 16, 0u);
    EXPECT_EQ(b % 16, 0u);
}

TEST_F(NvHeapFixture, FreeThenReuseHitsThreadCache)
{
    const uint64_t a = h.alloc(32, dom);
    h.free_block(a, dom);
    // The block parks in this thread's transient cache (phase 1) and
    // the next same-class alloc must take it straight back.
    const uint64_t b = h.alloc(32, dom);
    EXPECT_EQ(a, b);
}

TEST_F(NvHeapFixture, AlignedAllocIsLineAligned)
{
    for (size_t sz : {24u, 100u, 2000u}) {
        const uint64_t off = h.alloc_aligned(sz, dom);
        ASSERT_NE(off, 0u);
        EXPECT_EQ(off % 64, 0u) << "size " << sz;
        std::memset(heap.resolve<void>(off), 0x5a, sz);
    }
    EXPECT_TRUE(h.check_consistency());
}

TEST_F(NvHeapFixture, AlignedBlocksSurviveFreeAndReuse)
{
    const uint64_t a = h.alloc_aligned(128, dom);
    h.free_block(a, dom);
    const uint64_t b = h.alloc(8, dom);
    ASSERT_NE(b, 0u);
    EXPECT_TRUE(h.check_consistency());
}

TEST_F(NvHeapFixture, LiveCountTracksAllocFree)
{
    const uint64_t base = h.live_blocks();
    const uint64_t a = h.alloc(40, dom);
    const uint64_t b = h.alloc(40, dom);
    EXPECT_EQ(h.live_blocks(), base + 2);
    h.free_block(a, dom);
    EXPECT_EQ(h.live_blocks(), base + 1);
    h.free_block(b, dom);
    EXPECT_EQ(h.live_blocks(), base);
}

TEST_F(NvHeapFixture, OversizeRoundTrip)
{
    const uint64_t a = h.alloc(100000, dom);
    ASSERT_NE(a, 0u);
    auto* p = heap.resolve<uint8_t>(a);
    p[0] = 1;
    p[99999] = 2;
    EXPECT_EQ(p[0], 1);
    EXPECT_EQ(p[99999], 2);
    h.free_block(a, dom);
    EXPECT_TRUE(h.check_consistency());
}

TEST_F(NvHeapFixture, SpillAndShardRefillRoundTrip)
{
    // Overflow one class cache so half of it spills to the sharded
    // global lists, then drain it all back out.
    std::vector<uint64_t> offs;
    for (size_t i = 0; i < NvHeap::kCacheCap + 8; ++i)
        offs.push_back(h.alloc(48, dom));
    for (uint64_t off : offs)
        h.free_block(off, dom);
    EXPECT_TRUE(h.check_consistency());
    std::set<uint64_t> seen;
    for (size_t i = 0; i < offs.size(); ++i) {
        const uint64_t off = h.alloc(48, dom);
        ASSERT_NE(off, 0u);
        EXPECT_TRUE(seen.insert(off).second)
            << "offset 0x" << std::hex << off << " handed out twice";
    }
    EXPECT_TRUE(h.check_consistency());
}

TEST_F(NvHeapFixture, ExhaustionReturnsZero)
{
    uint64_t last = 1;
    int count = 0;
    while ((last = h.alloc(1u << 16, dom)) != 0 && count < 10000)
        ++count;
    EXPECT_EQ(last, 0u);
    EXPECT_GT(count, 10);
    EXPECT_TRUE(h.check_consistency());
}

TEST_F(NvHeapFixture, ConsistencyAfterChurn)
{
    Rng rng(3);
    std::vector<uint64_t> live;
    for (int i = 0; i < 2000; ++i) {
        if (live.empty() || rng.percent(60)) {
            const uint64_t off = h.alloc(8 + rng.next_below(200), dom);
            if (off != 0)
                live.push_back(off);
        } else {
            const size_t idx = rng.next_below(live.size());
            h.free_block(live[idx], dom);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    EXPECT_TRUE(h.check_consistency());
}

TEST_F(NvHeapFixture, AllocLinkedBuildsList)
{
    struct Rec
    {
        uint64_t next;
        uint64_t tag;
    };
    std::vector<uint64_t> offs;
    for (uint64_t i = 1; i <= 5; ++i) {
        const uint64_t off = h.alloc_linked(
            RootSlot::kUser0, TypeId::kTestBlock, sizeof(Rec), dom,
            [&](void* rec, uint64_t prev_head) {
                Rec init{prev_head, i};
                dom.store(rec, &init, sizeof(init));
            });
        ASSERT_NE(off, 0u);
        offs.push_back(off);
    }
    // Head is the last record; walk recovers insertion order reversed.
    uint64_t off = heap.root(RootSlot::kUser0);
    for (uint64_t i = 5; i >= 1; --i) {
        ASSERT_NE(off, 0u);
        const auto* r = heap.resolve<Rec>(off);
        EXPECT_EQ(r->tag, i);
        EXPECT_EQ(off, offs[i - 1]);
        off = r->next;
    }
    EXPECT_EQ(off, 0u);
}

TEST_F(NvHeapFixture, ReattachFindsExistingState)
{
    const uint64_t a = h.alloc(64, dom);
    ASSERT_NE(a, 0u);
    const uint64_t before = h.epoch();
    NvHeap again(heap, dom);
    // epoch() reads the shared persistent word, so both handles now
    // see the attach bump.
    EXPECT_EQ(again.epoch(), before + 1);
    const uint64_t b = again.alloc(64, dom);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
    EXPECT_TRUE(again.check_consistency());
}

TEST(NvHeapGauges, ReattachCountsInheritedBlocks)
{
    // A restarted process attaches to blocks its own counters never
    // saw: the live and free-pool gauges start from the attach's census.
    PersistentHeap heap({.size = 4u << 20});
    RealDomain dom;
    constexpr uint64_t kLive = 300;
    constexpr uint64_t kFreed = 40;
    {
        NvHeap first(heap, dom);
        std::vector<uint64_t> blocks;
        for (uint64_t i = 0; i < kLive + kFreed; ++i)
            blocks.push_back(first.alloc(48 + (i % 3) * 100, dom));
        blocks.push_back(first.alloc(8192, dom)); // oversize
        for (uint64_t i = 0; i < kFreed; ++i)
            first.free_block(blocks[i], dom);
    }
    // Counters are process-wide; a new process starts them at zero.
    MetricsRegistry::instance().reset();
    NvHeap again(heap, dom);
    const auto gauge = [](const char* name) {
        return MetricsRegistry::instance().snapshot().gauges.at(name);
    };
    EXPECT_EQ(gauge("nvheap.live_blocks_est"), kLive + 1);
    EXPECT_EQ(gauge("nvheap.free_pool_blocks_est"), kFreed);
    // A carve adds a live block; its free and reuse (a cache hit) move
    // it to the pool and back.
    again.free_block(again.alloc(48, dom), dom);
    EXPECT_EQ(gauge("nvheap.live_blocks_est"), kLive + 1);
    EXPECT_EQ(gauge("nvheap.free_pool_blocks_est"), kFreed + 1);
    again.alloc(48, dom);
    EXPECT_EQ(gauge("nvheap.live_blocks_est"), kLive + 2);
    EXPECT_EQ(gauge("nvheap.free_pool_blocks_est"), kFreed);
}

TEST(NvHeapGauges, ClassFreeCountsBlocksFreeNow)
{
    // nvheap.class.<n>.free is the class's blocks free now (frees minus
    // reuses), not its cumulative frees.
    PersistentHeap heap({.size = 4u << 20});
    RealDomain dom;
    NvHeap h(heap, dom);
    const auto gauge = [](const char* name) {
        return MetricsRegistry::instance().snapshot().gauges.at(name);
    };
    h.free_block(h.alloc(48, dom), dom);
    EXPECT_EQ(gauge("nvheap.class.48.free"), 1u);
    EXPECT_EQ(gauge("nvheap.class.48.live"), 0u);
    h.alloc(48, dom); // a cache hit takes the freed block back
    EXPECT_EQ(gauge("nvheap.class.48.free"), 0u);
    EXPECT_EQ(gauge("nvheap.class.48.live"), 1u);
}

using NvHeapDeath = NvHeapFixture;

TEST_F(NvHeapDeath, DoubleFreePanicsWithForensics)
{
    const uint64_t a = h.alloc(32, dom);
    h.free_block(a, dom);
    EXPECT_DEATH(h.free_block(a, dom), "double free");
}

TEST_F(NvHeapDeath, WildOffsetPanics)
{
    const uint64_t a = h.alloc(32, dom);
    (void)a;
    EXPECT_DEATH(h.free_block(a + 8, dom), "free of invalid offset");
}

TEST_F(NvHeapDeath, InteriorGarbagePanics)
{
    const uint64_t a = h.alloc(256, dom);
    // A 16-aligned offset into the payload: past the bounds check, the
    // header validation must reject it with the forensic dump.
    EXPECT_DEATH(h.free_block(a + 64, dom),
                 "wild or corrupted pointer");
}

// --------------------------------------------------------------------------
// Deterministic crash sweep
// --------------------------------------------------------------------------

struct HookCrash
{
};

/**
 * The scripted workload for the sweep.  Deliberately touches every
 * protocol arm: chunk carves, refills (2-KiB blocks drain a 16-KiB
 * chunk in seven allocs), cache hits, spills (overflowing one class
 * cache), shard pops, oversize carves, alloc_linked publishes, and
 * aligned blocks.  `tracked` collects payload extents of every block
 * the script holds live (never freed).  Hot-path marks are
 * fence-coalesced, so a tracked block is only durably kBlockLive once
 * its owner fences -- keep() fences exactly like a real caller
 * durably publishing the offset, which is what licenses the
 * no-overlap assertion after recovery.
 */
void
run_script(NvHeap& h, PersistDomain& dom,
           std::vector<std::pair<uint64_t, uint64_t>>* tracked)
{
    std::vector<uint64_t> scratch;
    auto keep = [&](uint64_t off, uint64_t sz) {
        ASSERT_NE(off, 0u);
        dom.fence();
        if (tracked)
            tracked->emplace_back(off, sz);
    };
    // Chunk carving + one refill.
    for (int i = 0; i < 9; ++i)
        keep(h.alloc(2048, dom), 2048);
    // Small blocks: carve, free (phase 1), re-alloc (cache hit).
    for (int i = 0; i < 8; ++i)
        scratch.push_back(h.alloc(32, dom));
    for (uint64_t off : scratch)
        h.free_block(off, dom);
    scratch.clear();
    for (int i = 0; i < 4; ++i)
        keep(h.alloc(32, dom), 32);
    // Overflow one class cache to force a spill to the shard lists.
    for (size_t i = 0; i < NvHeap::kCacheCap + 4; ++i)
        scratch.push_back(h.alloc(64, dom));
    for (uint64_t off : scratch)
        h.free_block(off, dom);
    scratch.clear();
    // Oversize, aligned, and linked allocations.
    keep(h.alloc(6000, dom), 6000);
    // Oversize free: the bump-only arm (never relinked, settles to a
    // FREE tombstone) must survive mid-free crashes like every other.
    {
        const uint64_t big = h.alloc(5000, dom);
        ASSERT_NE(big, 0u);
        h.free_block(big, dom);
    }
    keep(h.alloc_aligned(200, dom), 200);
    const uint64_t rec = h.alloc_linked(
        RootSlot::kUser1, TypeId::kTestBlock, 32, dom,
        [&](void* p, uint64_t prev_head) {
            uint64_t words[4] = {prev_head, 0xbeef, 0, 0};
            dom.store(p, words, sizeof(words));
        });
    keep(rec, 32);
}

/**
 * Crash at fuse point N for every N until the script completes, under
 * each crash policy.  After every crash: reattach, reclaim leaks, and
 * verify (a) the surviving metadata checks consistent, (b) reclamation
 * converges (a second pass finds nothing), and (c) nothing the crashed
 * run held live is ever handed out again or overlapped by a new block.
 */
TEST(NvHeapCrashSweep, EveryFusePointEveryPolicy)
{
    for (const CrashPolicy policy :
         {CrashPolicy::kDropAll, CrashPolicy::kPersistAll,
          CrashPolicy::kRandom}) {
        int completed_at = -1;
        for (int fuse = 1; fuse < 100000; ++fuse) {
            PersistentHeap heap({.size = 4u << 20});
            ShadowDomain shadow(heap.base(), heap.size(),
                                static_cast<uint64_t>(fuse) * 31 + 7);
            std::vector<std::pair<uint64_t, uint64_t>> held;
            bool crashed = false;
            {
                NvHeap h(heap, shadow);
                heap.mark_running(shadow);
                int steps = 0;
                h.set_crash_hook([&] {
                    if (++steps == fuse)
                        throw HookCrash{};
                });
                try {
                    run_script(h, shadow, &held);
                } catch (const HookCrash&) {
                    crashed = true;
                }
                if (::testing::Test::HasFatalFailure())
                    return;
                h.set_crash_hook(nullptr);
                // The crashed instance is abandoned here; its
                // destructor must not touch the heap.
            }
            if (!crashed) {
                completed_at = fuse;
                break;
            }
            shadow.crash(policy);
            heap.simulate_fresh_open();
            ASSERT_TRUE(heap.recovered_from_crash());

            RealDomain dom;
            NvHeap rec(heap, dom); // ctor runs recover_leaks
            ASSERT_TRUE(rec.check_consistency())
                << "policy " << static_cast<int>(policy) << " fuse "
                << fuse;
            EXPECT_EQ(rec.recover_leaks(dom), 0u)
                << "reclamation did not converge (fuse " << fuse
                << ")";
            EXPECT_TRUE(rec.take_census().strays.empty())
                << "a fresh walk still finds strays (fuse " << fuse << ")";
            // No double allocation: blocks the crashed run held live
            // were durably kBlockLive when alloc returned, so no new
            // allocation may overlap them.
            std::sort(held.begin(), held.end());
            std::set<uint64_t> fresh;
            for (int i = 0; i < 120; ++i) {
                const uint64_t off = rec.alloc(48, dom);
                ASSERT_NE(off, 0u);
                ASSERT_TRUE(fresh.insert(off).second)
                    << "offset handed out twice after recovery";
                for (const auto& [ho, hs] : held) {
                    ASSERT_FALSE(off < ho + hs && ho < off + 48)
                        << "post-crash alloc 0x" << std::hex << off
                        << " overlaps surviving block 0x" << ho
                        << " (policy " << std::dec
                        << static_cast<int>(policy) << ", fuse "
                        << fuse << ")";
                }
            }
            ASSERT_TRUE(rec.check_consistency());
        }
        // The loop must terminate by completing the script, and the
        // script must actually contain fuse points.
        EXPECT_GT(completed_at, 20)
            << "script has suspiciously few protocol steps";
    }
}

/**
 * Double-dirty attach: the leak-reclamation pass itself dies mid-relink
 * and the *next* attach must converge on whatever it left behind --
 * half-relinked FREE blocks, unpublished heads, and untouched stale
 * FREEING strays -- under every crash policy.
 */
TEST(NvHeapCrashSweep, DoubleDirtyAttachConverges)
{
    constexpr int kStrays = 20;
    for (const CrashPolicy policy :
         {CrashPolicy::kDropAll, CrashPolicy::kPersistAll,
          CrashPolicy::kRandom}) {
        int completed_at = -1;
        for (int fuse = 1; fuse < 1000; ++fuse) {
            PersistentHeap heap({.size = 4u << 20});
            // Run 1: park kStrays frees in the transient cache and die
            // without spilling.  The FREEING marks are durable; the
            // cache is not, so the blocks become epoch-stale strays.
            {
                RealDomain dom;
                NvHeap h1(heap, dom);
                std::vector<uint64_t> offs;
                for (int i = 0; i < kStrays; ++i) {
                    offs.push_back(h1.alloc(64, dom));
                    ASSERT_NE(offs.back(), 0u);
                }
                for (uint64_t off : offs)
                    h1.free_block(off, dom);
            }
            // Run 2: re-attach (the epoch bump makes the strays
            // reclaimable) and crash partway through the reclamation.
            bool crashed = false;
            {
                ShadowDomain shadow(heap.base(), heap.size(),
                                    static_cast<uint64_t>(fuse) * 53
                                        + 3);
                NvHeap h2(heap, shadow);
                int steps = 0;
                h2.set_crash_hook([&] {
                    if (++steps == fuse)
                        throw HookCrash{};
                });
                try {
                    h2.recover_leaks(shadow);
                } catch (const HookCrash&) {
                    crashed = true;
                }
                h2.set_crash_hook(nullptr);
                if (crashed)
                    shadow.crash(policy);
            }
            if (!crashed) {
                completed_at = fuse;
                break;
            }
            heap.simulate_fresh_open();
            // Run 3: a third epoch; reclamation must now converge.
            RealDomain dom;
            NvHeap h3(heap, dom);
            h3.recover_leaks(dom);
            EXPECT_EQ(h3.recover_leaks(dom), 0u)
                << "reclamation did not converge (policy "
                << static_cast<int>(policy) << " fuse " << fuse << ")";
            EXPECT_TRUE(h3.take_census().strays.empty())
                << "a fresh walk still finds strays (policy "
                << static_cast<int>(policy) << " fuse " << fuse << ")";
            EXPECT_TRUE(h3.check_consistency())
                << "policy " << static_cast<int>(policy) << " fuse "
                << fuse;
            EXPECT_EQ(h3.live_blocks(), 0u)
                << "a freed block came back LIVE (policy "
                << static_cast<int>(policy) << " fuse " << fuse << ")";
            if (::testing::Test::HasFailure())
                return;
        }
        // One hook fires per relinked stray, so the interrupted pass
        // must have swept every block before completing.
        EXPECT_GT(completed_at, 2)
            << "reclamation exposed no fuse points";
    }
}

// --------------------------------------------------------------------------
// Concurrency
// --------------------------------------------------------------------------

TEST(NvHeapStress, EightThreadAllocFreeChurn)
{
    PersistentHeap heap({.size = 64u << 20});
    RealDomain dom;
    NvHeap h(heap, dom);
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 4000;
    std::atomic<bool> failed{false};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            Rng rng(static_cast<uint64_t>(t) * 1009 + 17);
            std::vector<uint64_t> live;
            for (int i = 0; i < kOpsPerThread; ++i) {
                if (live.empty() || rng.percent(55)) {
                    const size_t sz = 8 + rng.next_below(300);
                    const uint64_t off = h.alloc(sz, dom);
                    if (off == 0) {
                        failed.store(true);
                        return;
                    }
                    // Stamp the payload; torn or shared blocks would
                    // trip the consistency walk or the stamps below.
                    auto* p = heap.resolve<uint64_t>(off);
                    *p = (uint64_t{static_cast<uint64_t>(t)} << 32)
                         | static_cast<uint32_t>(i);
                    live.push_back(off);
                } else {
                    const size_t idx = rng.next_below(live.size());
                    h.free_block(live[idx], dom);
                    live[idx] = live.back();
                    live.pop_back();
                }
            }
            for (uint64_t off : live)
                h.free_block(off, dom);
        });
    }
    for (auto& t : ts)
        t.join();
    EXPECT_FALSE(failed.load());
    EXPECT_TRUE(h.check_consistency());
    EXPECT_EQ(h.live_blocks(), 0u);
}

TEST(NvHeapStress, CrossThreadFreeIsSafe)
{
    // Producer allocates, consumer frees: blocks migrate between the
    // two threads' caches through the sharded lists.
    PersistentHeap heap({.size = 16u << 20});
    RealDomain dom;
    NvHeap h(heap, dom);
    constexpr int kRounds = 2000;
    std::vector<uint64_t> handoff(kRounds, 0);
    std::atomic<int> ready{0};
    std::thread producer([&] {
        for (int i = 0; i < kRounds; ++i) {
            handoff[i] = h.alloc(96, dom);
            ASSERT_NE(handoff[i], 0u);
            ready.store(i + 1, std::memory_order_release);
        }
    });
    std::thread consumer([&] {
        for (int i = 0; i < kRounds; ++i) {
            while (ready.load(std::memory_order_acquire) <= i)
                std::this_thread::yield();
            h.free_block(handoff[i], dom);
        }
    });
    producer.join();
    consumer.join();
    EXPECT_TRUE(h.check_consistency());
    EXPECT_EQ(h.live_blocks(), 0u);
}

// --------------------------------------------------------------------------
// Properties inherited from the retired v1 allocator suite
// --------------------------------------------------------------------------

TEST_F(NvHeapFixture, FreeListPerClass)
{
    // Freed blocks return to their own size class, not a shared pool:
    // re-allocating each size must reuse the matching block.
    const uint64_t small = h.alloc(16, dom);
    const uint64_t big = h.alloc(512, dom);
    ASSERT_NE(small, 0u);
    ASSERT_NE(big, 0u);
    h.free_block(small, dom);
    h.free_block(big, dom);
    EXPECT_EQ(h.alloc(512, dom), big);
    EXPECT_EQ(h.alloc(16, dom), small);
}

TEST_F(NvHeapFixture, NoOverlappingPayloads)
{
    Rng rng(5);
    std::vector<std::pair<uint64_t, size_t>> blocks;
    for (int i = 0; i < 500; ++i) {
        const size_t sz = 8 + rng.next_below(100);
        const uint64_t off = h.alloc(sz, dom);
        ASSERT_NE(off, 0u);
        blocks.emplace_back(off, sz);
    }
    std::sort(blocks.begin(), blocks.end());
    for (size_t i = 1; i < blocks.size(); ++i) {
        EXPECT_GE(blocks[i].first,
                  blocks[i - 1].first + blocks[i - 1].second)
            << "blocks " << i - 1 << " and " << i << " overlap";
    }
}

/**
 * Crash-safety property from the v1 suite, now over NvHeap: random
 * alloc/free traffic through the shadow domain, crash at an arbitrary
 * point with random line loss, and the surviving metadata is never
 * corrupt (leaks allowed and reclaimed, overlap/corruption not).
 * Complements the scripted EveryFusePointEveryPolicy sweep with
 * unscripted interleavings.
 */
TEST(NvHeapCrashRandom, MetadataSurvivesRandomCrashes)
{
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        PersistentHeap heap({.size = 4u << 20});
        ShadowDomain shadow(heap.base(), heap.size(), seed);
        Rng rng(seed);
        {
            NvHeap alloc(heap, shadow);
            heap.mark_running(shadow);
            std::vector<uint64_t> live;
            const int crash_after = 20 + rng.next_below(200);
            for (int i = 0; i < crash_after; ++i) {
                if (live.empty() || rng.percent(70)) {
                    const uint64_t off =
                        alloc.alloc(8 + rng.next_below(100), shadow);
                    if (off)
                        live.push_back(off);
                } else {
                    const size_t idx = rng.next_below(live.size());
                    alloc.free_block(live[idx], shadow);
                    live[idx] = live.back();
                    live.pop_back();
                }
            }
            // The crashed instance is abandoned without cleanup.
        }
        shadow.crash(CrashPolicy::kRandom);
        heap.simulate_fresh_open();
        ASSERT_TRUE(heap.recovered_from_crash());

        RealDomain dom;
        NvHeap recovered(heap, dom); // ctor reclaims leaks
        EXPECT_TRUE(recovered.check_consistency()) << "seed " << seed;
        EXPECT_EQ(recovered.recover_leaks(dom), 0u) << "seed " << seed;
        EXPECT_TRUE(recovered.take_census().strays.empty())
            << "seed " << seed;
        for (int i = 0; i < 50; ++i)
            EXPECT_NE(recovered.alloc(48, dom), 0u);
        EXPECT_TRUE(recovered.check_consistency()) << "seed " << seed;
    }
}

// --------------------------------------------------------------------------
// Census: one walk, serial or split
// --------------------------------------------------------------------------

/** Rewrite a block header's state and epoch, keeping owner and type. */
void
plant_state(PersistentHeap& heap, uint64_t payload, uint64_t state,
            uint64_t epoch)
{
    auto* meta = heap.resolve<uint64_t>(payload - 8);
    *meta = (*meta & 0x000000ffffff0000ull) | state | (epoch << 40);
}

TEST(NvHeapCensus, SplitFindsWhatTheSerialWalkFinds)
{
    PersistentHeap heap({.size = 24u << 20});
    RealDomain dom;
    // The iDO runtime registers the log record type whose entries pin.
    IdoRuntime rt(heap, dom, rt::RuntimeConfig{});
    NvHeap& h = rt.allocator();
    auto th = rt.make_thread();
    const std::vector<uint64_t> recs =
        rt.log_records(RootSlot::kIdoLogHead);
    ASSERT_EQ(recs.size(), 1u);

    // Three 4 KiB blocks fill a chunk up to an unused tail; an oversize
    // block lands between chunks every 50 of them.
    std::vector<uint64_t> big;
    std::vector<uint64_t> oversize;
    for (size_t i = 0; i < 3 * (NvHeap::kSplitExtents + 100); ++i) {
        big.push_back(h.alloc(4096, dom));
        ASSERT_NE(big.back(), 0u);
        if (i % 150 == 0) {
            oversize.push_back(h.alloc(9000, dom));
            ASSERT_NE(oversize.back(), 0u);
        }
    }
    // Another thread's chunk holds one small block ahead of its tail.
    std::thread([&] { ASSERT_NE(h.alloc(64, dom), 0u); }).join();

    // Strays: a stale FREEING block and an unlisted FREE one.  A third
    // stray and a LIVE block are named by the record's current
    // instance; an entry of an older instance pins nothing.
    const uint64_t ep = h.epoch();
    plant_state(heap, big[10], NvHeap::kBlockFreeing, ep - 1);
    plant_state(heap, big[20], NvHeap::kBlockFree, ep);
    plant_state(heap, big[30], NvHeap::kBlockFreeing, ep - 1);
    auto* rec = heap.resolve<IdoLogRec>(recs[0]);
    constexpr uint32_t kInst = 5;
    rec->entries[0] = {make_entry_tag(kInst, LogEntryKind::kAlloc, 1, 0, 0),
                       make_entry_block(big[30])};
    rec->entries[1] = {make_entry_tag(kInst, LogEntryKind::kFree, 1, 1, 0),
                       make_entry_block(big[40])};
    rec->entries[2] = {
        make_entry_tag(kInst - 1, LogEntryKind::kFree, 1, 0, 0),
        make_entry_block(big[50])};
    rec->recovery_pc = pack_recovery_pc(1, 1, kInst, 2);
    // A block parked in a live cache is FREEING in the current epoch:
    // not a stray.
    h.free_block(big[60], dom);

    const NvHeap::Census serial = h.take_census(1);
    const NvHeap::Census split = h.take_census(NvHeap::kMaxCensusThreads);
    EXPECT_GT(serial.stats.extents, NvHeap::kSplitExtents);
    EXPECT_EQ(serial.stats.threads, 1u);
    EXPECT_EQ(split.stats.threads, NvHeap::kMaxCensusThreads);
    EXPECT_EQ(serial.strays, (std::vector<uint64_t>{big[10], big[20]}));
    EXPECT_EQ(serial.pins, (std::vector<uint64_t>{big[30], big[40]}));
    // The thread's log record is an oversize-shaped block too.
    EXPECT_EQ(serial.oversize_live, oversize.size() + recs.size());
    // Three 4 KiB blocks leave every chunk a tail.
    EXPECT_EQ(serial.tails.size(),
              serial.stats.extents - oversize.size() - recs.size());
    EXPECT_EQ(serial.cls_blocks[NvHeap::kNumClasses - 1], big.size());
    EXPECT_EQ(serial.cls_unlive[NvHeap::kNumClasses - 1], 4u);

    EXPECT_EQ(split.strays, serial.strays);
    EXPECT_EQ(split.pins, serial.pins);
    EXPECT_EQ(split.tails, serial.tails);
    for (size_t c = 0; c < NvHeap::kNumClasses; ++c) {
        EXPECT_EQ(split.cls_blocks[c], serial.cls_blocks[c]) << c;
        EXPECT_EQ(split.cls_unlive[c], serial.cls_unlive[c]) << c;
    }
    EXPECT_EQ(split.oversize_live, serial.oversize_live);
    EXPECT_EQ(split.oversize_live_bytes, serial.oversize_live_bytes);
    EXPECT_EQ(split.stats.blocks, serial.stats.blocks);
    EXPECT_EQ(split.stats.extents, serial.stats.extents);

    // Above the cut an unforced census splits; the reclaim relinks
    // exactly the unpinned strays.
    EXPECT_EQ(h.take_census().stats.threads,
              std::clamp(std::thread::hardware_concurrency(), 1u,
                         NvHeap::kMaxCensusThreads));
    rec->recovery_pc = kInactivePc;
    EXPECT_EQ(h.recover_leaks(dom), 3u);
    EXPECT_TRUE(h.check_consistency());

    // A walk stops at the first inconsistent header, split or not.
    heap.resolve<uint64_t>(big[big.size() / 2] - 16)[0] = 0;
    EXPECT_FALSE(h.check_consistency());
    const NvHeap::Census cut_serial = h.take_census(1);
    const NvHeap::Census cut_split =
        h.take_census(NvHeap::kMaxCensusThreads);
    EXPECT_LT(cut_serial.stats.blocks, serial.stats.blocks);
    EXPECT_EQ(cut_split.stats.blocks, cut_serial.stats.blocks);
    EXPECT_EQ(cut_split.strays, cut_serial.strays);
}

// --------------------------------------------------------------------------
// Restart: the next attach reuses what the dead run left
// --------------------------------------------------------------------------

TEST(NvHeapRestart, AttachHandsBackChunkTails)
{
    PersistentHeap heap({.size = 4u << 20});
    RealDomain dom;
    uint64_t first = 0;
    {
        // One block, then the run dies: the rest of its chunk is a tail.
        NvHeap dead(heap, dom);
        first = dead.alloc(48, dom);
        ASSERT_NE(first, 0u);
    }
    NvHeap h(heap, dom);
    const NvHeap::Census c = h.take_census();
    ASSERT_EQ(c.tails.size(), 1u);
    EXPECT_EQ(c.tails[0].first, first + 48);
    const uint64_t remaining = h.arena_remaining();
    EXPECT_EQ(h.alloc(48, dom), first + 48 + 16);
    EXPECT_EQ(h.arena_remaining(), remaining);
    EXPECT_TRUE(h.check_consistency());
}

TEST(NvHeapRestart, TailHoldingAPinIsNotHandedOut)
{
    PersistentHeap heap({.size = 4u << 20});
    RealDomain dom;
    IdoRuntime rt(heap, dom, rt::RuntimeConfig{});
    NvHeap& h = rt.allocator();
    auto th = rt.make_thread();
    const uint64_t first = h.alloc(48, dom);
    ASSERT_NE(first, 0u);
    // An interrupted FASE claimed the chunk's next block, and the crash
    // lost the block's header: the walk sees the tail start there.
    const uint64_t claimed = first + 48 + 16;
    auto* rec = heap.resolve<IdoLogRec>(
        rt.log_records(RootSlot::kIdoLogHead).at(0));
    constexpr uint32_t kInst = 5;
    rec->entries[0] = {make_entry_tag(kInst, LogEntryKind::kAlloc, 1, 0, 0),
                       make_entry_block(claimed)};
    rec->recovery_pc = pack_recovery_pc(1, 1, kInst, 2);
    const auto holds_claim = [&](const std::pair<uint64_t, uint64_t>& t) {
        return t.first < claimed && claimed < t.second;
    };
    NvHeap::Census c = h.take_census();
    EXPECT_EQ(c.pins, std::vector<uint64_t>{claimed});
    EXPECT_TRUE(std::none_of(c.tails.begin(), c.tails.end(), holds_claim));
    // Once the FASE is resumed and retired, the tail is free again.
    rec->recovery_pc = kInactivePc;
    c = h.take_census();
    EXPECT_TRUE(std::any_of(c.tails.begin(), c.tails.end(), holds_claim));
}

TEST(NvHeapRestart, StealsStraysBeforeGrowingTheArena)
{
    PersistentHeap heap({.size = 4u << 20});
    RealDomain dom;
    std::set<uint64_t> dead_blocks;
    {
        NvHeap dead(heap, dom);
        heap.mark_running(dom);
        std::vector<uint64_t> blocks;
        for (size_t i = 0; i < NvHeap::kCacheCap; ++i)
            blocks.push_back(dead.alloc(48, dom));
        // Half spill to the home shard; the rest die parked.
        for (const uint64_t b : blocks)
            dead.free_block(b, dom);
        dom.fence();
        dead_blocks.insert(blocks.begin(), blocks.end());
    }
    heap.simulate_fresh_open();
    ASSERT_TRUE(heap.recovered_from_crash());
    NvHeap h(heap, dom); // relinks the parked blocks over every shard
    ASSERT_EQ(h.reclaim_stats().blocks, NvHeap::kCacheCap / 2);
    const uint64_t remaining = h.arena_remaining();
    for (size_t i = 0; i < NvHeap::kCacheCap; ++i) {
        const uint64_t off = h.alloc(48, dom);
        EXPECT_EQ(dead_blocks.erase(off), 1u)
            << "alloc " << i << " carved 0x" << std::hex << off
            << " while the dead run's blocks were free";
    }
    EXPECT_EQ(h.arena_remaining(), remaining);
    EXPECT_TRUE(h.check_consistency());
}

TEST(NvHeapRestart, ResetFileHeapKeepsNoOldBlock)
{
    const std::string path = ::testing::TempDir() + "nvheap_reset_"
                             + std::to_string(::getpid()) + ".heap";
    constexpr size_t kBytes = 4u << 20;
    RealDomain dom;
    {
        // Fill a dozen chunks with live and freed blocks.
        PersistentHeap heap({.path = path, .size = kBytes});
        NvHeap h(heap, dom);
        std::vector<uint64_t> blocks;
        for (int i = 0; i < 3000; ++i)
            blocks.push_back(h.alloc(48, dom, TypeId::kMcItem));
        for (size_t i = 0; i < blocks.size(); i += 2)
            h.free_block(blocks[i], dom);
    }
    {
        PersistentHeap heap({.path = path, .size = kBytes, .reset = true});
        NvHeap h(heap, dom);
        // Part of one chunk, carved over where the old blocks were.
        constexpr uint64_t kCarved = 10;
        for (uint64_t i = 0; i < kCarved; ++i)
            ASSERT_NE(h.alloc(48, dom, TypeId::kMcItem), 0u);
        const NvHeap::Census c = h.take_census();
        EXPECT_EQ(c.stats.blocks, kCarved);
        const GcStats s = HeapGc(h, dom).audit();
        EXPECT_EQ(s.blocks, kCarved) << s.to_json();
        EXPECT_EQ(s.live_blocks, kCarved);
        EXPECT_EQ(s.free_blocks, 0u);
        EXPECT_EQ(s.chunks, 1u);
    }
    ::unlink(path.c_str());
}

TEST_F(NvHeapDeath, CompactedImageIsRefused)
{
    // An older build's compaction left its relocation journal in the
    // HeapState word after {magic, bump, end, epoch, chunk list}.
    uint64_t* state =
        heap.resolve<uint64_t>(heap.root(RootSlot::kAllocator));
    state[5] = heap.arena_begin() + 4096;
    EXPECT_DEATH({ NvHeap again(heap, dom); },
                 "compacted by an older build");
}

} // namespace
} // namespace ido::nvm
