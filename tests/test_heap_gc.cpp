/**
 * @file
 * HeapGc tests: reachability audit over a typed corpus, leak detection
 * and repair through the recover_leaks relink path, dangling-link and
 * opaque-veto reporting, compaction correctness (data intact through a
 * full relocate-and-retire round, retired chunks actually reused), and
 * the crash acceptance gate -- a deterministic crash-at-every-fuse-point
 * sweep over compact() under all three ShadowDomain policies, with the
 * move journal resolved by the next GC and the corpus byte-compared
 * afterwards.  Also: compaction across several journal rounds, and
 * exact GcStats counts on a memcached heap big enough for the mark to
 * split its bucket arrays across threads.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "apps/memcached_mini.h"
#include "ido/ido_runtime.h"
#include "nvm/heap_gc.h"
#include "nvm/nv_heap.h"
#include "nvm/persist_domain.h"
#include "nvm/root_registry.h"
#include "nvm/shadow_domain.h"

namespace ido::nvm {
namespace {

struct HookCrash
{
};

/** The traced corpus node: one link field + identity payload. */
struct Node
{
    uint64_t next;
    uint64_t tag;
    uint64_t stamp;
    uint64_t pad;
};

uint64_t
stamp_for(uint64_t tag)
{
    return tag * 0x9e3779b97f4a7c15ull + 1;
}

void
register_node_type()
{
    TypeDescriptor d;
    d.name = "gc.test_node";
    d.payload_size = sizeof(Node);
    d.link_offsets = {offsetof(Node, next)};
    TypeRegistry::instance().register_type(TypeId::kTestBlock, d);
}

/**
 * Push one node onto the kUser0 chain: initialize, write back, then
 * publish.  The node comes from the thread's chunk (alloc_linked would
 * carve it from the arena, which compaction never touches).
 */
uint64_t
push_node(NvHeap& h, PersistDomain& dom, uint64_t tag)
{
    const uint64_t off =
        h.alloc_aligned(sizeof(Node), dom, TypeId::kTestBlock);
    if (off == 0)
        return 0;
    PersistentHeap& heap = h.heap();
    Node* p = heap.resolve<Node>(off);
    const Node n{RootRegistry::get_ref(heap, RootSlot::kUser0), tag,
                 stamp_for(tag), 0};
    dom.store(p, &n, sizeof(n));
    dom.flush(p, sizeof(n));
    dom.fence();
    RootRegistry::set_ref(heap, RootSlot::kUser0, off, dom);
    return off;
}

/**
 * Durably unlink and free every chain node whose tag fails keep();
 * the canonical sparsifier that leaves the heap honest (no link ever
 * points at a freed block) so audits stay clean.
 */
template <typename KeepFn>
void
sparsify_chain(NvHeap& h, PersistentHeap& heap, PersistDomain& dom,
               KeepFn&& keep)
{
    // Drop from the head first (the root slot is the "prev link").
    uint64_t head = RootRegistry::get_ref(heap, RootSlot::kUser0);
    while (head != 0) {
        const Node* n = heap.resolve<Node>(head);
        if (keep(n->tag))
            break;
        const uint64_t next = n->next;
        RootRegistry::set_ref(heap, RootSlot::kUser0, next, dom);
        h.free_block(head, dom);
        head = next;
    }
    // Then interior nodes, rewriting the survivor's next field.
    uint64_t prev = head;
    while (prev != 0) {
        Node* pn = heap.resolve<Node>(prev);
        const uint64_t cur = pn->next;
        if (cur == 0)
            break;
        const Node* cn = heap.resolve<Node>(cur);
        if (keep(cn->tag)) {
            prev = cur;
            continue;
        }
        const uint64_t next = cn->next;
        dom.store_val(&pn->next, next);
        dom.flush(&pn->next, sizeof(uint64_t));
        dom.fence();
        h.free_block(cur, dom);
    }
}

/** Collect (tag, stamp) pairs walking the chain from kUser0. */
std::vector<std::pair<uint64_t, uint64_t>>
walk_chain(PersistentHeap& heap)
{
    std::vector<std::pair<uint64_t, uint64_t>> out;
    uint64_t off = RootRegistry::get_ref(heap, RootSlot::kUser0);
    size_t hops = 0;
    while (off != 0) {
        const Node* n = heap.resolve<Node>(off);
        out.emplace_back(n->tag, n->stamp);
        off = n->next;
        if (++hops > 100000)
            break; // cycle: let the caller's comparison fail loudly
    }
    return out;
}

struct HeapGcFixture : public ::testing::Test
{
    HeapGcFixture() : heap({.size = 8u << 20}), dom(), h(heap, dom)
    {
        register_node_type();
    }

    PersistentHeap heap;
    RealDomain dom;
    NvHeap h;
};

TEST_F(HeapGcFixture, AuditCleanOnTypedCorpus)
{
    for (uint64_t t = 0; t < 50; ++t)
        ASSERT_NE(push_node(h, dom, t), 0u);
    HeapGc gc(h, dom);
    const GcStats s = gc.audit();
    EXPECT_EQ(s.leaked_blocks, 0u) << s.to_json();
    EXPECT_EQ(s.dangling_links, 0u);
    EXPECT_EQ(s.opaque_live, 0u);
    EXPECT_EQ(s.pinned_blocks, 0u);
    EXPECT_GE(s.live_blocks, 50u);
    EXPECT_TRUE(h.check_consistency());
}

TEST_F(HeapGcFixture, RepairReclaimsUnreachableBlocks)
{
    for (uint64_t t = 0; t < 10; ++t)
        ASSERT_NE(push_node(h, dom, t), 0u);
    // Typed but never rooted: the definition of a leak.
    for (int i = 0; i < 6; ++i) {
        const uint64_t off =
            h.alloc(sizeof(Node), dom, TypeId::kTestBlock);
        ASSERT_NE(off, 0u);
        Node n{0, 0, 0, 0};
        dom.store(heap.resolve<void>(off), &n, sizeof(n));
    }
    HeapGc gc(h, dom);
    GcStats s = gc.audit();
    EXPECT_EQ(s.leaked_blocks, 6u) << s.to_json();

    s = gc.repair();
    EXPECT_FALSE(s.repair_refused);
    EXPECT_EQ(s.reclaimed_blocks, 6u);
    s = gc.audit();
    EXPECT_EQ(s.leaked_blocks, 0u) << s.to_json();
    EXPECT_TRUE(h.check_consistency());
    // The chain survived the reclaim untouched.
    EXPECT_EQ(walk_chain(heap).size(), 10u);
}

TEST_F(HeapGcFixture, DanglingLinkIsReported)
{
    for (uint64_t t = 0; t < 3; ++t)
        ASSERT_NE(push_node(h, dom, t), 0u);
    const uint64_t head = RootRegistry::get_ref(heap, RootSlot::kUser0);
    Node* n = heap.resolve<Node>(head);
    const uint64_t saved = n->next;
    // Point the head's link at unused arena: no block lives there.
    dom.store_val(&n->next, heap.size() - 256);
    dom.flush(&n->next, sizeof(uint64_t));
    dom.fence();

    HeapGc gc(h, dom);
    GcStats s = gc.audit();
    EXPECT_GE(s.dangling_links, 1u) << s.to_json();
    // The severed tail is now unreachable and must be called a leak.
    EXPECT_EQ(s.leaked_blocks, 2u);

    dom.store_val(&n->next, saved);
    dom.flush(&n->next, sizeof(uint64_t));
    dom.fence();
    s = gc.audit();
    EXPECT_EQ(s.dangling_links, 0u);
    EXPECT_EQ(s.leaked_blocks, 0u);
}

TEST_F(HeapGcFixture, ReachableOpaqueBlockVetoesRepair)
{
    for (uint64_t t = 0; t < 5; ++t)
        ASSERT_NE(push_node(h, dom, t), 0u);
    // A rooted untyped block: reachable, but its interior is a black
    // box that could reference anything -- including the leak below.
    const uint64_t opaque = h.alloc(64, dom);
    ASSERT_NE(opaque, 0u);
    std::memset(heap.resolve<void>(opaque), 0, 64);
    RootRegistry::set_ref(heap, RootSlot::kUser1, opaque, dom);
    const uint64_t leak = h.alloc(sizeof(Node), dom, TypeId::kTestBlock);
    ASSERT_NE(leak, 0u);
    Node z{0, 0, 0, 0};
    dom.store(heap.resolve<void>(leak), &z, sizeof(z));

    HeapGc gc(h, dom);
    GcStats s = gc.repair();
    EXPECT_TRUE(s.repair_refused) << s.to_json();
    EXPECT_EQ(s.reclaimed_blocks, 0u);

    // Unroot the opaque block; it joins the leak set and both reclaim.
    RootRegistry::set_ref(heap, RootSlot::kUser1, 0, dom);
    s = gc.repair();
    EXPECT_FALSE(s.repair_refused);
    EXPECT_EQ(s.reclaimed_blocks, 2u);
    EXPECT_EQ(gc.audit().leaked_blocks, 0u);
    EXPECT_TRUE(h.check_consistency());
}

TEST_F(HeapGcFixture, CompactionPreservesDataAndReusesChunks)
{
    constexpr uint64_t kNodes = 400;
    for (uint64_t t = 0; t < kNodes; ++t)
        ASSERT_NE(push_node(h, dom, t), 0u);
    sparsify_chain(h, heap, dom,
                   [](uint64_t tag) { return tag % 4 == 0; });

    HeapGc gc(h, dom);
    const GcStats s = gc.compact();
    EXPECT_FALSE(s.relocation_refused) << s.to_json();
    EXPECT_GT(s.chunks_retired, 0u);
    EXPECT_GT(s.relocated_blocks, 0u);

    // Content check: the chain reads back exactly the kept sequence
    // (push order reversed), stamps intact -- every copy was complete
    // and every link and the root were rewritten.
    const auto got = walk_chain(heap);
    ASSERT_EQ(got.size(), kNodes / 4);
    uint64_t expect_tag = kNodes - 4; // highest tag with tag % 4 == 0
    for (const auto& [tag, stamp] : got) {
        EXPECT_EQ(tag, expect_tag);
        EXPECT_EQ(stamp, stamp_for(tag));
        expect_tag -= 4;
    }
    EXPECT_TRUE(h.check_consistency());
    const GcStats after = gc.audit();
    EXPECT_EQ(after.leaked_blocks, 0u) << after.to_json();
    EXPECT_EQ(after.dangling_links, 0u);

    // Retired chunks must feed future carves before the bump moves: a
    // never-used size class needs a fresh chunk, and that chunk must
    // come off the reuse list.
    const uint64_t remaining = h.arena_remaining();
    for (int i = 0; i < 100; ++i)
        ASSERT_NE(h.alloc(16, dom), 0u);
    EXPECT_EQ(h.arena_remaining(), remaining)
        << "refill carved the bump arena instead of reusing a "
           "retired chunk";
}

/**
 * More relocations than one journal round holds, and a second round
 * whose destinations come from chunks the first round retired.  Each
 * journal round rewrites references from a fresh heap index; the
 * relocation loop must keep walking its own pre-move index.
 */
TEST_F(HeapGcFixture, CompactionAcrossJournalRoundsReusesRetiredChunks)
{
    constexpr uint64_t kNodes = 10000;
    HeapGc gc(h, dom);
    for (uint64_t round = 0; round < 2; ++round) {
        for (uint64_t t = round * kNodes; t < (round + 1) * kNodes; ++t)
            ASSERT_NE(push_node(h, dom, t), 0u);
        sparsify_chain(h, heap, dom,
                       [](uint64_t tag) { return tag % 4 == 0; });
        const GcStats s = gc.compact();
        EXPECT_GT(s.relocated_blocks, HeapGc::kJournalEntries)
            << s.to_json();
        const auto got = walk_chain(heap);
        ASSERT_EQ(got.size(), (round + 1) * kNodes / 4) << "round " << round;
        uint64_t expect_tag = (round + 1) * kNodes - 4;
        for (const auto& [tag, stamp] : got) {
            ASSERT_EQ(tag, expect_tag) << "round " << round;
            ASSERT_EQ(stamp, stamp_for(tag)) << "round " << round;
            expect_tag -= 4;
        }
        const GcStats a = gc.audit();
        EXPECT_EQ(a.leaked_blocks, 0u) << "round " << round << ": "
                                       << a.to_json();
        EXPECT_EQ(a.dangling_links, 0u) << "round " << round;
        EXPECT_TRUE(h.check_consistency()) << "round " << round;
    }
}

/**
 * The compaction acceptance gate.  Crash at fuse point N for every N
 * until compact() completes, under each crash policy.  After every
 * crash: reattach, let the next GC resolve the move journal and finish
 * (or discard) the interrupted relocation, reclaim whatever the crash
 * stranded, and require a clean audit plus the exact surviving chain.
 */
TEST(HeapGcCrashSweep, CompactionSurvivesEveryFusePoint)
{
    register_node_type();
    constexpr uint64_t kNodes = 180;
    std::vector<std::pair<uint64_t, uint64_t>> expect;
    for (uint64_t t = kNodes; t-- > 0;)
        if (t % 3 == 0)
            expect.emplace_back(t, stamp_for(t));

    for (const CrashPolicy policy :
         {CrashPolicy::kDropAll, CrashPolicy::kPersistAll,
          CrashPolicy::kRandom}) {
        int completed_at = -1;
        uint64_t total_resolved = 0;
        for (int fuse = 1; fuse < 100000; ++fuse) {
            PersistentHeap heap({.size = 8u << 20});
            ShadowDomain shadow(heap.base(), heap.size(),
                                static_cast<uint64_t>(fuse) * 131 + 9);
            bool crashed = false;
            GcStats done;
            {
                NvHeap h(heap, shadow);
                heap.mark_running(shadow);
                for (uint64_t t = 0; t < kNodes; ++t)
                    ASSERT_NE(push_node(h, shadow, t), 0u);
                sparsify_chain(h, heap, shadow,
                               [](uint64_t tag) { return tag % 3 == 0; });
                int steps = 0;
                h.set_crash_hook([&] {
                    if (++steps == fuse)
                        throw HookCrash{};
                });
                HeapGc gc(h, shadow);
                try {
                    done = gc.compact();
                } catch (const HookCrash&) {
                    crashed = true;
                }
                h.set_crash_hook(nullptr);
                // Abandoned here; the dtor must not touch the heap.
            }
            if (!crashed) {
                EXPECT_GT(done.chunks_retired, 0u)
                    << "sweep workload never exercises retirement";
                completed_at = fuse;
                break;
            }
            shadow.crash(policy);
            heap.simulate_fresh_open();
            ASSERT_TRUE(heap.recovered_from_crash());

            RealDomain dom;
            NvHeap rec(heap, dom); // ctor reclaims ordinary strays
            HeapGc gc2(rec, dom);
            // The next GC's prologue resolves the interrupted move
            // journal; its repair collects duplicates a crash between
            // copy and journal-append stranded.
            const GcStats post = gc2.compact();
            total_resolved += post.journal_resolved;
            const GcStats rep = gc2.repair();
            EXPECT_FALSE(rep.repair_refused)
                << "policy " << crash_policy_name(policy) << " fuse "
                << fuse << ": " << rep.to_json();
            const GcStats fin = gc2.audit();
            EXPECT_EQ(fin.leaked_blocks, 0u)
                << "policy " << crash_policy_name(policy) << " fuse "
                << fuse << ": " << fin.to_json();
            EXPECT_EQ(fin.dangling_links, 0u)
                << "policy " << crash_policy_name(policy) << " fuse "
                << fuse << ": " << fin.to_json();
            ASSERT_TRUE(rec.check_consistency())
                << "policy " << crash_policy_name(policy) << " fuse "
                << fuse;

            const auto got = walk_chain(heap);
            ASSERT_EQ(got.size(), expect.size())
                << "policy " << crash_policy_name(policy) << " fuse "
                << fuse;
            for (size_t i = 0; i < expect.size(); ++i) {
                ASSERT_EQ(got[i], expect[i])
                    << "policy " << crash_policy_name(policy) << " fuse "
                    << fuse << " position " << i;
            }
            if (::testing::Test::HasFailure())
                return; // one broken fuse point is enough signal
        }
        EXPECT_GT(completed_at, 50)
            << "compaction has suspiciously few fuse points";
        // The sweep must actually exercise journal resolution (crashes
        // landing between the count bump and the truncate).
        EXPECT_GT(total_resolved, 0u)
            << "policy " << crash_policy_name(policy);
    }
}

/**
 * Exact counts through the parallel mark: a memcached heap whose two
 * shards carry 2^17 bucket heads each (over kSplitLinkFields), with
 * every finding kind injected at known multiplicities.  The same
 * dangling value in many link fields must count once per field (the
 * resolved-granule bitmap never caches a miss), and the capped
 * findings list must not depend on how the mark threads raced.
 */
TEST(HeapGcExactCounts, ParallelMarkCountsEveryFinding)
{
    constexpr uint64_t kBuckets = 1u << 17;
    static_assert(kBuckets > HeapGc::kSplitLinkFields);
    constexpr uint64_t kLeaks = 7;
    constexpr uint64_t kDangling = 40; // > kMaxFindings: the cap binds
    PersistentHeap heap({.size = 64u << 20});
    RealDomain dom;
    rt::RuntimeConfig cfg;
    IdoRuntime runtime(heap, dom, cfg);
    NvHeap& h = runtime.allocator();
    auto th = runtime.make_thread();
    const uint64_t root = apps::MemcachedMini::create(*th, 2, kBuckets);
    RootRegistry::set_ref(heap, RootSlot::kAppRoot, root, dom);
    apps::MemcachedMini cache(heap, root);
    for (uint64_t k = 0; k < 3000; ++k)
        cache.set(*th, k, k ^ 0x5a5a, k + 1);

    HeapGc gc(h, dom);
    const GcStats base = gc.audit();
    ASSERT_EQ(base.leaked_blocks, 0u) << base.to_json();
    ASSERT_EQ(base.dangling_links, 0u) << base.to_json();
    ASSERT_EQ(base.opaque_live, 0u) << base.to_json();
    EXPECT_EQ(base.mark_threads,
              std::clamp(std::thread::hardware_concurrency(), 1u,
                         HeapGc::kMaxMarkThreads));

    // Empty bucket heads of both shards, spread across the split.
    const auto* r = heap.resolve<apps::McRoot>(root);
    std::vector<uint64_t*> empty_heads;
    for (uint64_t sh = 0; sh < 2; ++sh) {
        auto* heads = heap.resolve<uint64_t>(r->shard_off[sh]
                                             + sizeof(apps::McShard));
        for (uint64_t b = 0; b < kBuckets; b += kBuckets / 64)
            for (uint64_t c = b; c < kBuckets; ++c)
                if (heads[c] == 0) {
                    empty_heads.push_back(&heads[c]);
                    break;
                }
    }
    ASSERT_GE(empty_heads.size(), kDangling + 3);
    auto link = [&](uint64_t* slot, uint64_t v) {
        dom.store_val(slot, v);
        dom.flush(slot, sizeof(uint64_t));
        dom.fence();
    };
    auto alloc_item = [&] {
        const uint64_t off = h.alloc(sizeof(apps::McItem), dom,
                                     TypeId::kMcItem);
        EXPECT_NE(off, 0u);
        apps::McItem z{};
        dom.store(heap.resolve<void>(off), &z, sizeof(z));
        return off;
    };
    // The census charges header (16 B: size word, meta word) +
    // class-rounded payload.
    auto block_bytes = [&](uint64_t off) {
        return *heap.resolve<uint64_t>(off - 16) + 16;
    };

    uint64_t leaked_bytes = 0;
    for (uint64_t i = 0; i < kLeaks; ++i)
        leaked_bytes += block_bytes(alloc_item());
    // One value, unused arena, stored in kDangling link fields.
    const uint64_t nowhere = heap.size() - 4096;
    for (uint64_t i = 0; i < kDangling; ++i)
        link(empty_heads[i], nowhere);
    // The only link to a live item points into its middle.
    const uint64_t inner = alloc_item();
    link(empty_heads[kDangling + 1], inner + offsetof(apps::McItem, value));
    // A rooted untyped block.
    const uint64_t opaque = h.alloc(64, dom);
    ASSERT_NE(opaque, 0u);
    RootRegistry::set_ref(heap, RootSlot::kUser1, opaque, dom);
    // A link to a freed block (freed after the last alloc, which would
    // otherwise hand it straight back from the thread cache).
    const uint64_t freed = alloc_item();
    h.free_block(freed, dom);
    link(empty_heads[kDangling], freed);

    const GcStats first = gc.audit();
    EXPECT_EQ(first.leaked_blocks, kLeaks) << first.to_json();
    EXPECT_EQ(first.leaked_bytes, leaked_bytes);
    EXPECT_EQ(first.dangling_links, kDangling + 1);
    EXPECT_EQ(first.opaque_live, 1u);
    EXPECT_EQ(first.pinned_blocks, 0u);
    EXPECT_EQ(first.live_blocks, base.live_blocks + kLeaks + 2);
    ASSERT_EQ(first.findings.size(), HeapGc::kMaxFindings + 1);
    EXPECT_EQ(first.findings.back(), "... (further findings elided)");
    for (int run = 0; run < 10; ++run) {
        const GcStats again = gc.audit();
        EXPECT_EQ(again.leaked_blocks, first.leaked_blocks);
        EXPECT_EQ(again.leaked_bytes, first.leaked_bytes);
        EXPECT_EQ(again.dangling_links, first.dangling_links);
        EXPECT_EQ(again.opaque_live, first.opaque_live);
        EXPECT_EQ(again.live_blocks, first.live_blocks);
        EXPECT_EQ(again.blocks, first.blocks);
        EXPECT_EQ(again.findings, first.findings) << "audit " << run;
    }

    GcStats rep = gc.repair();
    EXPECT_TRUE(rep.repair_refused) << rep.to_json();
    EXPECT_EQ(rep.reclaimed_blocks, 0u);

    // Lift the veto without adding a leak: unroot and free the opaque
    // block.  Exactly the injected leaks are reclaimed.
    RootRegistry::set_ref(heap, RootSlot::kUser1, 0, dom);
    h.free_block(opaque, dom);
    rep = gc.repair();
    EXPECT_FALSE(rep.repair_refused) << rep.to_json();
    EXPECT_EQ(rep.reclaimed_blocks, kLeaks);
    EXPECT_EQ(rep.reclaimed_bytes, leaked_bytes);
    const GcStats after = gc.audit();
    EXPECT_EQ(after.leaked_blocks, 0u) << after.to_json();
    EXPECT_EQ(after.dangling_links, kDangling + 1);
    EXPECT_EQ(after.opaque_live, 0u);
    EXPECT_EQ(after.live_blocks, base.live_blocks + 1);
    EXPECT_TRUE(h.check_consistency());
}

} // namespace
} // namespace ido::nvm
