/**
 * @file
 * HeapGc tests: the reachability audit over a typed corpus,
 * dangling-link reporting, and exact GcStats counts on a memcached
 * heap big enough for the mark to split its bucket arrays across
 * threads.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "apps/memcached_mini.h"
#include "ido/ido_runtime.h"
#include "nvm/heap_gc.h"
#include "nvm/nv_heap.h"
#include "nvm/persist_domain.h"
#include "nvm/root_registry.h"

namespace ido::nvm {
namespace {

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
 * publish.
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
    EXPECT_GE(s.live_blocks, 50u);
    EXPECT_TRUE(h.check_consistency());
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

    // Unroot and free the opaque block: it leaves the census, and the
    // injected leaks are still exactly what the audit reports.
    RootRegistry::set_ref(heap, RootSlot::kUser1, 0, dom);
    h.free_block(opaque, dom);
    const GcStats after = gc.audit();
    EXPECT_EQ(after.leaked_blocks, kLeaks) << after.to_json();
    EXPECT_EQ(after.leaked_bytes, leaked_bytes);
    EXPECT_EQ(after.dangling_links, kDangling + 1);
    EXPECT_EQ(after.opaque_live, 0u);
    EXPECT_EQ(after.live_blocks, base.live_blocks + kLeaks + 1);
    EXPECT_TRUE(h.check_consistency());
}

} // namespace
} // namespace ido::nvm
