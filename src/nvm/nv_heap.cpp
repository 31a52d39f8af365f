#include "nvm/nv_heap.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "common/cacheline.h"
#include "common/panic.h"
#include "nvm/persist_domain.h"
#include "stats/metrics.h"
#include "stats/stat_plane.h"
#include "trace/trace.h"

namespace ido::nvm {

namespace {

constexpr size_t kClassSizes[NvHeap::kNumClasses] = {
    16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024, 2048, 4096,
};

std::atomic<uint64_t> g_next_heap_id{1};

const char*
state_name(uint64_t st)
{
    switch (st) {
      case NvHeap::kBlockLive:
        return "LIVE";
      case NvHeap::kBlockFreeing:
        return "FREEING";
      case NvHeap::kBlockFree:
        return "FREE";
    }
    return "INVALID";
}

bool
recognized_state(uint64_t st)
{
    return st == NvHeap::kBlockLive || st == NvHeap::kBlockFreeing
           || st == NvHeap::kBlockFree;
}

} // namespace

namespace {

/** class_for_size as a 16-byte-granule lookup table (built once). */
struct ClassTable
{
    uint8_t by_granule[4096 / 16 + 1];

    ClassTable()
    {
        for (size_t g = 0; g <= 4096 / 16; ++g) {
            const size_t size = g * 16;
            uint8_t c = NvHeap::kNumClasses;
            for (size_t k = 0; k < NvHeap::kNumClasses; ++k) {
                if (size <= kClassSizes[k]) {
                    c = static_cast<uint8_t>(k);
                    break;
                }
            }
            by_granule[g] = c;
        }
    }
};

const ClassTable g_class_table;

} // namespace

size_t
NvHeap::class_for_size(size_t size)
{
    if (size > 4096)
        return kNumClasses; // oversize: exact-size global carve
    return g_class_table.by_granule[(size + 15) >> 4];
}

size_t
NvHeap::class_payload(size_t cls)
{
    IDO_ASSERT(cls < kNumClasses);
    return kClassSizes[cls];
}

NvHeap::NvHeap(PersistentHeap& heap, PersistDomain& dom)
    : heap_(heap), id_(g_next_heap_id.fetch_add(1, std::memory_order_relaxed))
{
    auto& reg = MetricsRegistry::instance();
    m_alloc_ = reg.counter("nvheap.alloc");
    m_free_ = reg.counter("nvheap.free");
    m_cache_hit_ = reg.counter("nvheap.cache_hit");
    m_refill_ = reg.counter("nvheap.refill");
    m_spill_ = reg.counter("nvheap.spill");
    m_shard_pop_ = reg.counter("nvheap.shard_pop");
    m_leak_reclaim_ = reg.counter("nvheap.leak_reclaim");
    m_oversize_ = reg.counter("nvheap.oversize");
    m_tail_reuse_ = reg.counter("nvheap.tail_reuse");
    m_blocks_walked_ = reg.counter("nvheap.blocks_walked");

    state_off_ = heap_.root(RootSlot::kAllocator);
    if (state_off_ == 0) {
        // Fresh heap: carve the metadata out of the arena start.
        const uint64_t off = heap_.arena_begin();
        auto* st = heap_.resolve<HeapState>(off);
        HeapState init{};
        init.magic = kStateMagic;
        init.bump = (off + sizeof(HeapState) + 63) & ~uint64_t{63};
        init.end = heap_.size();
        init.epoch = 1;
        dom.store(st, &init, sizeof(init));
        dom.flush(st, sizeof(init));
        dom.fence();
        heap_.set_root(RootSlot::kAllocator, off, dom);
        state_off_ = off;
        data_begin_ = (state_off_ + sizeof(HeapState) + 63) & ~uint64_t{63};
    } else {
        data_begin_ = (state_off_ + sizeof(HeapState) + 63) & ~uint64_t{63};
        HeapState* st = heap_.resolve<HeapState>(state_off_);
        IDO_ASSERT(dom.load_val(&st->magic) == kStateMagic,
                   "NvHeap: allocator root was written by an "
                   "incompatible (v1) allocator");
        // Only an older build's offline compaction wrote a relocation
        // journal, and only a relocation leaves MOVED blocks, which no
        // walk here recognizes.  Such an image is refused; one whose
        // compaction merely retired empty chunks is fine: those chunks
        // walk as empty, and the census hands their bodies out as tails.
        IDO_ASSERT(dom.load_val(&st->old_journal) == 0,
                   "NvHeap: heap image was compacted by an older build "
                   "(relocation journal present); this allocator cannot "
                   "read its relocated blocks");
        // New attach epoch: everything the previous epoch held in
        // transient caches becomes recognizably stale.
        dom.store_val(&st->epoch, dom.load_val(&st->epoch) + 1);
        dom.flush(&st->epoch, sizeof(uint64_t));
        dom.fence();
        // The attach's one read of every block header.  It seeds the
        // per-class occupancy counters, so the live/free gauges and the
        // fragmentation ratio are correct for inherited blocks, not
        // just this run's churn, and recover_leaks() takes its strays.
        // No thread of this attach owns a chunk yet, so every unused
        // chunk tail is an earlier run's, free to hand out again.
        census_ = take_census();
        tails_ = std::move(census_->tails);
        const Census& c = *census_;
        for (size_t k = 0; k < kNumClasses; ++k) {
            cls_alloc_[k].store(c.cls_blocks[k], std::memory_order_relaxed);
            cls_free_[k].store(c.cls_unlive[k], std::memory_order_relaxed);
        }
        oversize_blocks_.store(c.oversize_live, std::memory_order_relaxed);
        oversize_bytes_.store(c.oversize_live_bytes,
                              std::memory_order_relaxed);
        census_marks_ = marks();
        census_stats_ = c.stats;
        if (heap_.recovered_from_crash())
            recover_leaks(dom);
    }

    // ido-stat occupancy gauges.  The bump/end reads take the refill
    // mutex so a scrape-thread evaluation never races a refill's plain
    // stores.  Estimates derive from this heap's census-seeded
    // per-class counters, so inherited blocks count after a restart:
    // live = allocs - frees (plus live oversize blocks); pooled =
    // frees - reuses (cache hits + shard pops).  If a later NvHeap
    // re-registers these names its registration wins, and whichever
    // instance dies first removes the name -- a gauge never outlives
    // the state it reads.
    reg.register_gauge("nvheap.arena_remaining_bytes", [this] {
        std::lock_guard<std::mutex> g(refill_mutex_);
        return arena_remaining();
    });
    reg.register_gauge("nvheap.arena_used_bytes", [this] {
        std::lock_guard<std::mutex> g(refill_mutex_);
        const HeapState* st = state();
        return st->bump - data_begin_;
    });
    reg.register_gauge("nvheap.live_blocks_est", [this] {
        uint64_t a = oversize_blocks_.load(std::memory_order_relaxed);
        uint64_t f = oversize_freed_blocks_.load(std::memory_order_relaxed);
        for (size_t c = 0; c < kNumClasses; ++c) {
            a += cls_alloc_[c].load(std::memory_order_relaxed);
            f += cls_free_[c].load(std::memory_order_relaxed);
        }
        return a > f ? a - f : 0;
    });
    reg.register_gauge("nvheap.free_pool_blocks_est", [this] {
        uint64_t f = 0;
        for (size_t c = 0; c < kNumClasses; ++c)
            f += pooled_blocks(c);
        return f;
    });
    // Per-size-class live/free split, from the same cheap counters the
    // alloc/free paths already touch (no heap walk on scrape).  "free"
    // counts blocks of the class sitting in a transient cache or on a
    // persistent free list, i.e. reusable without growing the arena.
    for (size_t c = 0; c < kNumClasses; ++c) {
        const std::string base =
            "nvheap.class." + std::to_string(kClassSizes[c]);
        reg.register_gauge(base + ".live", [this, c] {
            const uint64_t a = cls_alloc_[c].load(std::memory_order_relaxed);
            const uint64_t f = cls_free_[c].load(std::memory_order_relaxed);
            return a > f ? a - f : 0;
        });
        reg.register_gauge(base + ".free",
                           [this, c] { return pooled_blocks(c); });
    }
    // Fragmentation ratio in parts-per-million: the share of the
    // consumed arena (data_begin..bump) not covered by live payloads
    // and their headers.  1e6 means an arena of pure dead space; 0
    // means perfectly packed.  Reported in ppm because gauges are
    // integral; ido_top renders it as a percentage.
    reg.register_gauge("heap.fragmentation", [this] {
        uint64_t used;
        {
            std::lock_guard<std::mutex> g(refill_mutex_);
            used = state()->bump - data_begin_;
        }
        if (used == 0)
            return uint64_t{0};
        const uint64_t live = live_bytes_estimate();
        if (live >= used)
            return uint64_t{0};
        return (used - live) * 1000000 / used;
    });
}

NvHeap::~NvHeap()
{
    auto& reg = MetricsRegistry::instance();
    reg.unregister_gauge("nvheap.arena_remaining_bytes");
    reg.unregister_gauge("nvheap.arena_used_bytes");
    reg.unregister_gauge("nvheap.live_blocks_est");
    reg.unregister_gauge("nvheap.free_pool_blocks_est");
    for (size_t c = 0; c < kNumClasses; ++c) {
        const std::string base =
            "nvheap.class." + std::to_string(kClassSizes[c]);
        reg.unregister_gauge(base + ".live");
        reg.unregister_gauge(base + ".free");
    }
    reg.unregister_gauge("heap.fragmentation");
}

uint64_t
NvHeap::pooled_blocks(size_t cls) const
{
    const uint64_t f = cls_free_[cls].load(std::memory_order_relaxed);
    const uint64_t r = cls_reuse_[cls].load(std::memory_order_relaxed);
    return f > r ? f - r : 0;
}

uint64_t
NvHeap::live_bytes_estimate() const
{
    uint64_t live = 0;
    for (size_t c = 0; c < kNumClasses; ++c) {
        const uint64_t a = cls_alloc_[c].load(std::memory_order_relaxed);
        const uint64_t f = cls_free_[c].load(std::memory_order_relaxed);
        if (a > f)
            live += (a - f) * (kClassSizes[c] + sizeof(BlockHeader));
    }
    const uint64_t ob = oversize_bytes_.load(std::memory_order_relaxed);
    const uint64_t ofb =
        oversize_freed_bytes_.load(std::memory_order_relaxed);
    if (ob > ofb)
        live += ob - ofb;
    return live;
}

NvHeap::HeapState*
NvHeap::state() const
{
    return heap_.resolve<HeapState>(state_off_);
}

uint64_t
NvHeap::epoch() const
{
    return state()->epoch;
}

void
NvHeap::set_crash_hook(std::function<void()> hook_fn)
{
    crash_hook_ = std::move(hook_fn);
}

NvHeap::ThreadCache&
NvHeap::tcache()
{
    // Keyed by process-unique heap id, so a thread working against two
    // heaps (or a re-created heap over the same buffer) never mixes
    // caches.  Ids are never reused; entries for dead heaps are inert.
    // The last-used pair is memoized so the steady state (one heap per
    // thread) costs a single compare instead of a hash lookup.
    thread_local uint64_t tls_last_id = 0;
    thread_local ThreadCache* tls_last_tc = nullptr;
    if (tls_last_id == id_)
        return *tls_last_tc;
    thread_local std::unordered_map<uint64_t, ThreadCache*> tls_map;
    auto it = tls_map.find(id_);
    if (it != tls_map.end()) {
        tls_last_id = id_;
        tls_last_tc = it->second;
        return *it->second;
    }
    auto tc = std::make_unique<ThreadCache>();
    ThreadCache* raw = tc.get();
    {
        // Ordered under record/replay: owner tags are handed out here,
        // and replayed block headers must carry the recorded tags.
        fuzz::rr::OrderedGuard g(tc_mutex_,
                                 fuzz::obj_key(fuzz::ObjKind::kHeapTc));
        tc->owner_tag = next_owner_tag_++;
        tcs_.push_back(std::move(tc));
    }
    tls_map.emplace(id_, raw);
    tls_last_id = id_;
    tls_last_tc = raw;
    return *raw;
}

size_t
NvHeap::home_shard(const ThreadCache& tc) const
{
    return tc.owner_tag % kNumShards;
}

void
NvHeap::set_meta(uint64_t payload_off, uint64_t meta, PersistDomain& dom,
                 bool fence)
{
    auto* hdr = heap_.resolve<BlockHeader>(payload_off - sizeof(BlockHeader));
    dom.store_val(&hdr->meta, meta);
    dom.flush(&hdr->meta, sizeof(uint64_t));
    if (fence)
        dom.fence();
}

uint64_t
NvHeap::carve_from_chunk(ThreadCache& tc, size_t payload, uint16_t owner,
                         PersistDomain& dom, TypeId type, bool aligned,
                         Claim* claim)
{
    const uint64_t need = sizeof(BlockHeader) + payload;
    if (tc.chunk_cursor == 0 || tc.chunk_cursor + need > tc.chunk_end)
        return 0;
    const uint64_t block_off = tc.chunk_cursor;
    BlockHeader hdr{payload,
                    pack_meta(kBlockLive, owner, epoch(), type, aligned)};
    auto* hp = heap_.resolve<BlockHeader>(block_off);
    hook();
    if (claim != nullptr) {
        // The carve's one fence moves ahead of the header: it orders
        // the claim's name (and this thread's previous header) before
        // the LIVE header, which rides the caller's next fence.
        claim->name(block_off + sizeof(BlockHeader));
        dom.fence();
        dom.store(hp, &hdr, sizeof(hdr));
        dom.flush(hp, sizeof(hdr));
    } else {
        dom.store(hp, &hdr, sizeof(hdr));
        dom.flush(hp, sizeof(hdr));
        dom.fence();
    }
    // The cursor is transient: a crash here leaks a LIVE-marked block
    // (exactly like v1's pre-bump-advance window), never corrupts.
    tc.chunk_cursor = block_off + need;
    return block_off + sizeof(BlockHeader);
}

bool
NvHeap::refill_chunk(ThreadCache& tc, PersistDomain& dom)
{
    fuzz::rr::OrderedGuard g(refill_mutex_,
                             fuzz::obj_key(fuzz::ObjKind::kHeapRefill));
    // Chunk tails an earlier run never carved (a killed thread's chunk
    // always has one) go out before the global bump grows, which keeps
    // the heap's high-water mark flat across restarts.  Nothing durable
    // changes: the tail is the walk's stopping point already, and a
    // carve there is an ordinary chunk carve.
    if (!tails_.empty()) {
        const auto [begin, end] = tails_.back();
        tails_.pop_back();
        tc.chunk_cursor = begin;
        tc.chunk_end = end;
        m_tail_reuse_->fetch_add(1, std::memory_order_relaxed);
        trace::emit(trace::EventKind::kArenaRefill, begin, end - begin);
        return true;
    }
    HeapState* st = state();
    const uint64_t bump = dom.load_val(&st->bump);
    if (bump + kChunkBytes > dom.load_val(&st->end))
        return false;
    // Stamp the chunk header durably, then advance the global bump.
    // Crash in between wastes the chunk (walkers stop at the bump), a
    // leak-not-corruption outcome.
    auto* ch = heap_.resolve<BlockHeader>(bump);
    BlockHeader hdr{kChunkMagic, kChunkBytes};
    hook();
    dom.store(ch, &hdr, sizeof(hdr));
    dom.flush(ch, sizeof(hdr));
    dom.fence();
    hook();
    dom.store_val(&st->bump, bump + kChunkBytes);
    dom.flush(&st->bump, sizeof(uint64_t));
    dom.fence();
    tc.chunk_cursor = bump + sizeof(BlockHeader);
    tc.chunk_end = bump + kChunkBytes;
    m_refill_->fetch_add(1, std::memory_order_relaxed);
    trace::emit(trace::EventKind::kArenaRefill, bump, kChunkBytes);
    return true;
}

uint64_t
NvHeap::carve_global(size_t payload, uint16_t owner, PersistDomain& dom,
                     TypeId type, bool aligned, bool claimed)
{
    fuzz::rr::OrderedGuard g(refill_mutex_,
                             fuzz::obj_key(fuzz::ObjKind::kHeapRefill));
    HeapState* st = state();
    // Oversize payloads fill whole lines (payload_for), so the bump
    // stays line-aligned; a class block carved here (the arena tail,
    // once no chunk fits) may leave it off a line, but no chunk follows.
    const uint64_t need = sizeof(BlockHeader) + payload;
    const uint64_t bump = dom.load_val(&st->bump);
    if (bump + need > dom.load_val(&st->end))
        return 0;
    auto* hp = heap_.resolve<BlockHeader>(bump);
    BlockHeader hdr{payload,
                    claimed ? pack_meta(kBlockFreeing, owner, epoch())
                            : pack_meta(kBlockLive, owner, epoch(), type,
                                        aligned)};
    hook();
    dom.store(hp, &hdr, sizeof(hdr));
    dom.flush(hp, sizeof(hdr));
    dom.fence();
    hook();
    dom.store_val(&st->bump, bump + need);
    dom.flush(&st->bump, sizeof(uint64_t));
    dom.fence();
    return bump + sizeof(BlockHeader);
}

uint64_t
NvHeap::shard_pop(size_t shard, size_t cls, PersistDomain& dom)
{
    HeapState* st = state();
    // Racy peek; re-checked under the shard lock.  Under record/replay
    // the peek is skipped: its outcome depends on unordered timing, and
    // control flow must only branch on ordered state.
    if (!fuzz::rr::active() && st->shards[shard].heads[cls] == 0)
        return 0;
    fuzz::rr::OrderedGuard g(shard_mutexes_[shard],
                             fuzz::obj_key(fuzz::ObjKind::kHeapShard, shard));
    uint64_t* head = &st->shards[shard].heads[cls];
    const uint64_t off = dom.load_val(head);
    if (off == 0)
        return 0;
    // Unlink durably *before* handing the block out: a crash after the
    // pop leaves an unlisted FREE block (reclaimable), a crash before
    // it leaves the list intact.  Never both live and listed.
    const uint64_t next = dom.load_val(heap_.resolve<uint64_t>(off));
    hook();
    dom.store_val(head, next);
    dom.flush(head, sizeof(uint64_t));
    dom.fence();
    m_shard_pop_->fetch_add(1, std::memory_order_relaxed);
    cls_reuse_[cls].fetch_add(1, std::memory_order_relaxed);
    return off;
}

void
NvHeap::spill_cache(ThreadCache& tc, size_t cls, PersistDomain& dom)
{
    auto& cache = tc.free_blocks[cls];
    const size_t spill = cache.size() / 2;
    if (spill == 0)
        return;
    const size_t shard = home_shard(tc);
    HeapState* st = state();
    // The guard's write-back rides the batch fence, ahead of the head
    // publish that lets other threads take these blocks.
    flush_reuse_guard(tc, dom);
    fuzz::rr::OrderedGuard g(shard_mutexes_[shard],
                             fuzz::obj_key(fuzz::ObjKind::kHeapShard, shard));
    uint64_t* head = &st->shards[shard].heads[cls];
    const uint64_t old_head = dom.load_val(head);

    // Phase 2 of the free protocol, batched: chain the spilled blocks
    // together and mark them FREE (one fence for the whole batch),
    // then publish the new head (second fence).  Until the publish,
    // none of them is reachable from the list, so a crash anywhere in
    // the batch leaves only reclaimable FREE/FREEING strays.
    const uint64_t ep = epoch();
    for (size_t i = 0; i < spill; ++i) {
        const uint64_t off = cache[cache.size() - 1 - i];
        const uint64_t next =
            (i + 1 < spill) ? cache[cache.size() - 2 - i] : old_head;
        uint64_t* link = heap_.resolve<uint64_t>(off);
        dom.store_val(link, next);
        dom.flush(link, sizeof(uint64_t));
        auto* hdr =
            heap_.resolve<BlockHeader>(off - sizeof(BlockHeader));
        dom.store_val(&hdr->meta, pack_meta(kBlockFree, tc.owner_tag, ep));
        dom.flush(&hdr->meta, sizeof(uint64_t));
    }
    hook();
    dom.fence();
    hook();
    const uint64_t new_head = cache.back();
    dom.store_val(head, new_head);
    dom.flush(head, sizeof(uint64_t));
    dom.fence();
    cache.resize(cache.size() - spill);
    m_spill_->fetch_add(spill, std::memory_order_relaxed);
    trace::emit(trace::EventKind::kCacheSpill, cls, spill);
}

uint64_t
NvHeap::alloc(size_t size, PersistDomain& dom, TypeId type)
{
    return alloc_impl(size, dom, type, /*aligned=*/false);
}

uint64_t
NvHeap::alloc_claimed(size_t size, PersistDomain& dom, TypeId type,
                      bool aligned, Claim& claim, bool* live_deferred)
{
    *live_deferred = false;
    return alloc_impl(aligned ? size + 8 + 64 : size, dom, type, aligned,
                      &claim, live_deferred);
}

size_t
NvHeap::payload_for(size_t size)
{
    if (size == 0)
        size = 1;
    const size_t cls = class_for_size(size);
    return cls < kNumClasses ? class_payload(cls) : line_payload(size);
}

size_t
NvHeap::line_payload(size_t size)
{
    return ((size + sizeof(BlockHeader) + 63) & ~size_t{63})
           - sizeof(BlockHeader);
}

uint64_t
NvHeap::carve_oversize(size_t payload, ThreadCache& tc, PersistDomain& dom,
                       TypeId type, bool aligned, Claim* claim,
                       bool* live_deferred)
{
    // A claimed oversize block is carved FREEING (a crash before the
    // claim leaves free space, not a leak) and marked LIVE by the
    // caller once the claim is durable.
    const uint64_t off = carve_global(payload, tc.owner_tag, dom, type,
                                      aligned, claim != nullptr);
    if (off != 0) {
        if (claim != nullptr) {
            claim->name(off);
            *live_deferred = true;
        }
        m_alloc_->fetch_add(1, std::memory_order_relaxed);
        m_oversize_->fetch_add(1, std::memory_order_relaxed);
        oversize_blocks_.fetch_add(1, std::memory_order_relaxed);
        oversize_bytes_.fetch_add(payload + sizeof(BlockHeader),
                                  std::memory_order_relaxed);
        trace::emit(trace::EventKind::kAlloc, off, payload);
    }
    return off;
}

uint64_t
NvHeap::alloc_arena_aligned(size_t size, PersistDomain& dom, TypeId type)
{
    // The payload is 48 mod 64 and over 48, so it is no class size:
    // the block is never recycled, like any oversize block.
    const size_t payload = line_payload(size + 8 + 64);
    const uint64_t raw = carve_oversize(payload, tcache(), dom, type,
                                        /*aligned=*/true, nullptr, nullptr);
    return raw == 0 ? 0 : publish_aligned(raw, dom);
}

void
NvHeap::flush_reuse_guard(ThreadCache& tc, PersistDomain& dom)
{
    if (tc.reuse_guard == nullptr)
        return;
    dom.flush(tc.reuse_guard, kCacheLineBytes);
    tc.reuse_guard = nullptr;
}

void
NvHeap::set_reuse_guard(const void* line, PersistDomain& dom)
{
    ThreadCache& tc = tcache();
    if (tc.reuse_guard != line)
        flush_reuse_guard(tc, dom);
    tc.reuse_guard = line;
}

void
NvHeap::note_written_back(const void* line)
{
    ThreadCache& tc = tcache();
    if (tc.reuse_guard == line)
        tc.reuse_guard = nullptr;
}

uint64_t
NvHeap::alloc_impl(size_t size, PersistDomain& dom, TypeId type,
                   bool aligned, Claim* claim, bool* live_deferred)
{
    if (size == 0)
        size = 1;
    ThreadCache& tc = tcache();
    const size_t cls = class_for_size(size);

    if (cls >= kNumClasses)
        return carve_oversize(payload_for(size), tc, dom, type, aligned,
                              claim, live_deferred);

    const size_t payload = class_payload(cls);
    uint64_t off = 0;
    const uint64_t live = pack_meta(kBlockLive, tc.owner_tag, epoch(), type,
                                    aligned);

    // 1. Transient cache: blocks this thread freed (state FREEING).
    //    One line write-back flips them LIVE; no shared state and no
    //    fence -- the mark is coalesced into whichever fence next runs
    //    on this thread.  A caller that durably publishes the offset
    //    fences first, which persists the LIVE mark ahead of the
    //    publish; a caller that never fences loses the block to a
    //    crash either way (it surfaces as a reclaimable stray).  A
    //    claimed block stays FREEING: its LIVE mark waits for the
    //    caller's fence, which also orders the claim before it.
    auto& cache = tc.free_blocks[cls];
    if (!cache.empty()) {
        off = cache.back();
        cache.pop_back();
        hook();
        if (claim != nullptr) {
            claim->name(off); // may write the guard line back itself
            *live_deferred = true;
        }
        if (tc.reuse_guard != nullptr) {
            flush_reuse_guard(tc, dom);
            if (claim == nullptr)
                dom.fence();
        }
        if (claim == nullptr)
            set_meta(off, live, dom, /*fence=*/false);
        m_cache_hit_->fetch_add(1, std::memory_order_relaxed);
        cls_reuse_[cls].fetch_add(1, std::memory_order_relaxed);
    }
    // Shard pops unlink behind one fence and publish LIVE behind a
    // second; a claim is named between them, so the second fence also
    // orders it before the LIVE mark (which then rides the caller's
    // next fence instead).
    const auto take_popped = [&] {
        hook();
        if (claim != nullptr) {
            claim->name(off);
            dom.fence();
            set_meta(off, live, dom, /*fence=*/false);
        } else {
            set_meta(off, live, dom);
        }
    };
    // 2. Home-shard free list (cheap racy peek before locking).
    if (off == 0) {
        off = shard_pop(home_shard(tc), cls, dom);
        if (off != 0)
            take_popped();
    }
    // 3. Private bump chunk.
    if (off == 0)
        off = carve_from_chunk(tc, payload, tc.owner_tag, dom, type,
                               aligned, claim);
    // 4. Steal from any shard before a refill grows the arena: a crash
    //    attach relinks a dead run's strays over every shard, not just
    //    the home shard of whichever thread allocates next.
    if (off == 0) {
        for (size_t s = 0; s < kNumShards && off == 0; ++s)
            off = shard_pop(s, cls, dom);
        if (off != 0)
            take_popped();
    }
    // 5. A fresh chunk (a handed-back tail may be too short for this
    //    class: its room is lost, as a chunk's last bytes are), then
    //    the arena tail, before giving up.
    while (off == 0 && refill_chunk(tc, dom))
        off = carve_from_chunk(tc, payload, tc.owner_tag, dom, type,
                               aligned, claim);
    if (off == 0) {
        off = carve_global(payload, tc.owner_tag, dom, type, aligned,
                           claim != nullptr);
        if (off != 0 && claim != nullptr) {
            claim->name(off);
            *live_deferred = true;
        }
    }
    if (off != 0) {
        m_alloc_->fetch_add(1, std::memory_order_relaxed);
        cls_alloc_[cls].fetch_add(1, std::memory_order_relaxed);
        trace::emit(trace::EventKind::kAlloc, off, payload);
    }
    return off;
}

uint64_t
NvHeap::publish_aligned(uint64_t raw, PersistDomain& dom)
{
    const uint64_t aligned = aligned_payload(raw);
    IDO_ASSERT(aligned >= raw + 8);
    // Tag nibble 0x1 distinguishes the back-pointer from a plain
    // block's header meta word (whose low nibble is 0xe or 0x2).
    // Written back, fence coalesced: the back-pointer only matters to
    // a post-crash free of this block, which requires the caller to
    // have durably published the offset -- and that publish fence
    // persists the back-pointer first.
    auto* backptr = heap_.resolve<uint64_t>(aligned - 8);
    dom.store_val(backptr, raw | 0x1);
    dom.flush(backptr, sizeof(uint64_t));
    return aligned;
}

uint64_t
NvHeap::alloc_aligned(size_t size, PersistDomain& dom, TypeId type)
{
    // Room for the 8-byte tagged back-pointer plus worst-case slack.
    const uint64_t raw = alloc_impl(size + 8 + 64, dom, type,
                                    /*aligned=*/true);
    return raw == 0 ? 0 : publish_aligned(raw, dom);
}

void
NvHeap::mark_live(uint64_t raw, TypeId type, bool aligned,
                  PersistDomain& dom)
{
    hook();
    set_meta(raw, pack_meta(kBlockLive, tcache().owner_tag, epoch(), type,
                            aligned),
             dom, /*fence=*/false);
}

void
NvHeap::adopt_claimed(uint64_t raw, size_t size, bool aligned,
                      PersistDomain& dom)
{
    auto* hdr = heap_.resolve<BlockHeader>(raw - sizeof(BlockHeader));
    dom.store_val(&hdr->size,
                  uint64_t{payload_for(aligned ? size + 8 + 64 : size)});
    dom.flush(&hdr->size, sizeof(uint64_t));
}

uint64_t
NvHeap::raw_payload(uint64_t payload_off, PersistDomain& dom) const
{
    // For a plain block the word below the payload is its header's
    // meta word; an aligned block's is its tagged back-pointer.
    const uint64_t below =
        dom.load_val(heap_.resolve<uint64_t>(payload_off - 8));
    return (below & 0xf) == 0x1 ? below & ~uint64_t{0xf} : payload_off;
}

bool
NvHeap::is_live(uint64_t raw, PersistDomain& dom) const
{
    const auto* hdr = heap_.resolve<BlockHeader>(raw - sizeof(BlockHeader));
    return meta_state(dom.load_val(&hdr->meta)) == kBlockLive;
}

void
NvHeap::validate_for_free(uint64_t payload_off, const BlockHeader* hdr,
                          uint64_t meta, bool resumed) const
{
    const uint64_t st = meta_state(meta);
    const bool redo = resumed && st == kBlockFreeing
        && meta_epoch(meta) < epoch_tag(epoch());
    if (st != kBlockLive && !redo) {
        panic("nvheap: free of non-LIVE block: payload=0x%llx "
              "header={size=0x%llx meta=0x%llx} state=%s "
              "owner=%u epoch=%llu cur_epoch=%llu -- %s",
              (unsigned long long)payload_off,
              (unsigned long long)hdr->size, (unsigned long long)meta,
              state_name(st), (unsigned)meta_owner(meta),
              (unsigned long long)meta_epoch(meta),
              (unsigned long long)epoch(),
              st == kBlockFreeing || st == kBlockFree
                  ? "double free"
                  : "wild or corrupted pointer");
    }
    if (hdr->size == 0 || hdr->size > heap_.size()
        || payload_off + hdr->size > heap_.size()) {
        panic("nvheap: free of block with corrupt size: payload=0x%llx "
              "header={size=0x%llx meta=0x%llx} owner=%u",
              (unsigned long long)payload_off,
              (unsigned long long)hdr->size, (unsigned long long)meta,
              (unsigned)meta_owner(meta));
    }
}

void
NvHeap::free_block(uint64_t payload_off, PersistDomain& dom)
{
    finish_free(begin_free(payload_off, dom), dom);
}

uint64_t
NvHeap::begin_free(uint64_t payload_off, PersistDomain& dom, bool resumed)
{
    // Validate the offset itself before dereferencing anything.
    if (payload_off < data_begin_ + sizeof(BlockHeader)
        || payload_off >= heap_.size() || (payload_off & 0xf) != 0) {
        panic("nvheap: free of invalid offset 0x%llx "
              "(arena data [0x%llx, 0x%llx), 16-byte aligned)",
              (unsigned long long)payload_off,
              (unsigned long long)data_begin_,
              (unsigned long long)heap_.size());
    }
    // For a plain block the word at payload-8 *is* the header's meta
    // word (header = {size @ -16, meta @ -8}), so one load serves both
    // the aligned-block probe and the state validation.
    const uint64_t below =
        dom.load_val(heap_.resolve<uint64_t>(payload_off - 8));
    if ((below & 0xf) == 0x1) {
        // Aligned block: redirect to the underlying raw payload.
        return begin_free(below & ~uint64_t{0xf}, dom, resumed);
    }
    ThreadCache& tc = tcache();
    auto* hdr =
        heap_.resolve<BlockHeader>(payload_off - sizeof(BlockHeader));
    const uint64_t meta = below;
    validate_for_free(payload_off, hdr, meta, resumed);
    trace::emit(trace::EventKind::kFree, payload_off);

    // Phase 1: mark the block FREEING, tagged with this thread and
    // epoch.  From here on it can never be handed out again until
    // either this thread recycles it (cache hit), a spill completes
    // phase 2, or recover_leaks() relinks it after a crash.  The mark
    // is written back but not fenced: it rides the next fence this
    // thread issues (a spill, a carve, or the caller's next durable
    // publish).  If a crash beats every later fence, the block reads
    // back LIVE with a stale epoch -- a bounded leak, never a
    // double-handout, since nothing links a block while it is parked
    // in a transient cache.
    hook();
    set_meta(payload_off, pack_meta(kBlockFreeing, tc.owner_tag, epoch()),
             dom, /*fence=*/false);
    m_free_->fetch_add(1, std::memory_order_relaxed);
    return payload_off;
}

void
NvHeap::finish_free(uint64_t raw, PersistDomain& dom)
{
    ThreadCache& tc = tcache();
    const uint64_t size =
        dom.load_val(&heap_.resolve<BlockHeader>(raw - sizeof(BlockHeader))
                          ->size);
    const size_t cls = class_for_size(size);
    if (cls < kNumClasses && class_payload(cls) == size) {
        cls_free_[cls].fetch_add(1, std::memory_order_relaxed);
        auto& cache = tc.free_blocks[cls];
        cache.push_back(raw);
        if (cache.size() >= kCacheCap)
            spill_cache(tc, cls, dom);
    } else {
        // Oversize blocks are not recycled (bump-only, as in v1);
        // finalize to FREE so walkers see a settled state.
        oversize_freed_blocks_.fetch_add(1, std::memory_order_relaxed);
        oversize_freed_bytes_.fetch_add(size + sizeof(BlockHeader),
                                        std::memory_order_relaxed);
        hook();
        set_meta(raw, pack_meta(kBlockFree, tc.owner_tag, epoch()), dom);
    }
}

uint64_t
NvHeap::arena_remaining() const
{
    const HeapState* st = state();
    return st->end - st->bump;
}

// --------------------------------------------------------------------------
// Walks: consistency checking, census, leak reclamation
// --------------------------------------------------------------------------

namespace {

constexpr uint64_t kHdr = 16;
/** How far ahead of a chunk walk its lines are prefetched. */
constexpr uint64_t kPrefetchBytes = 2048;

/** One extent of the global arena: a chunk or an oversize block. */
struct Extent
{
    uint64_t begin; ///< its header: the chunk's, or the block's own
    uint64_t end;   ///< one past its last byte
    bool is_chunk;
};

/**
 * The arena's extents in address order, found by hopping chunk and
 * oversize headers up to the bump pointer.  Stops at the first
 * inconsistent extent header and returns false.
 */
bool
list_extents(const PersistentHeap& heap, uint64_t data_begin, uint64_t bump,
             std::vector<Extent>* out)
{
    uint64_t off = data_begin;
    while (off + kHdr <= bump) {
        const auto* words = heap.resolve<uint64_t>(off);
        if (words[0] == NvHeap::kChunkMagic) {
            if (words[1] != NvHeap::kChunkBytes || off + words[1] > bump)
                return false;
            out->push_back({off, off + words[1], true});
        } else {
            // Oversize (or arena-tail) block carved straight from the
            // global arena.
            if (!recognized_state(words[1] & 0xffff) || words[0] == 0
                || off + kHdr + words[0] > heap.size())
                return false;
            out->push_back({off, off + kHdr + words[0], false});
        }
        off = out->back().end;
    }
    return true;
}

/**
 * fn(payload_off, size, meta) for every block of one extent: the one
 * block walker, shared by every serial walk and each thread of a split
 * census.  A chunk's blocks form a packed prefix; the walk stops at the
 * first header slot never durably written (state unrecognizable),
 * which by the carve protocol is always the unused tail.  *tail is
 * set to where a chunk's unused tail begins.  Returns false
 * at an inconsistent header.
 */
template <typename Fn>
bool
walk_extent(const PersistentHeap& heap, const Extent& e, Fn&& fn,
            uint64_t* tail = nullptr)
{
    if (!e.is_chunk) {
        const auto* w = heap.resolve<uint64_t>(e.begin);
        fn(e.begin + kHdr, w[0], w[1]);
        return true;
    }
    // Each header's position hangs on the one before it, so the walk
    // is a chain of dependent loads; prefetching the chunk a fixed
    // distance ahead overlaps their misses (it halves a cold walk).
    uint64_t b = e.begin + kHdr;
    uint64_t ahead = b;
    while (b + kHdr <= e.end) {
        for (; ahead < std::min(b + kPrefetchBytes, e.end);
             ahead += kCacheLineBytes)
            __builtin_prefetch(heap.resolve<char>(ahead));
        const auto* bw = heap.resolve<uint64_t>(b);
        if (!recognized_state(bw[1] & 0xffff))
            break; // unused chunk tail
        if (bw[0] == 0 || b + kHdr + bw[0] > e.end)
            return false;
        fn(b + kHdr, bw[0], bw[1]);
        b += kHdr + bw[0];
    }
    if (tail != nullptr)
        *tail = b;
    return true;
}

} // namespace

template <typename Fn>
bool
NvHeap::walk_blocks(Fn&& fn) const
{
    std::vector<Extent> extents;
    bool ok = list_extents(heap_, data_begin_, state()->bump, &extents);
    uint64_t walked = 0;
    const auto count = [&](uint64_t payload, uint64_t size, uint64_t meta) {
        ++walked;
        fn(payload, size, meta);
    };
    for (const Extent& e : extents) {
        if (!walk_extent(heap_, e, count)) {
            ok = false;
            break;
        }
    }
    m_blocks_walked_->fetch_add(walked, std::memory_order_relaxed);
    return ok;
}

uint64_t
NvHeap::live_blocks() const
{
    uint64_t live = 0;
    walk_blocks([&](uint64_t, uint64_t, uint64_t meta) {
        if (meta_state(meta) == kBlockLive)
            ++live;
    });
    return live;
}

bool
NvHeap::check_consistency() const
{
    const HeapState* st = state();
    if (st->magic != kStateMagic)
        return false;
    if (!walk_blocks([](uint64_t, uint64_t, uint64_t) {}))
        return false;
    // Every free-list entry must be in state FREE with a matching
    // class size, and the lists must be acyclic.
    for (size_t s = 0; s < kNumShards; ++s) {
        for (size_t c = 0; c < kNumClasses; ++c) {
            uint64_t p = st->shards[s].heads[c];
            size_t hops = 0;
            while (p != 0) {
                const auto* hdr =
                    heap_.resolve<BlockHeader>(p - sizeof(BlockHeader));
                if (meta_state(hdr->meta) != kBlockFree)
                    return false;
                if (hdr->size != kClassSizes[c])
                    return false;
                p = *heap_.resolve<uint64_t>(p);
                if (++hops > heap_.size() / 16)
                    return false; // cycle
            }
        }
    }
    return true;
}

NvHeap::Census
NvHeap::take_census(unsigned threads) const
{
    const uint64_t t0 = stat_now_ns();
    const HeapState* st = state();
    const uint64_t bump = st->bump;
    const uint64_t cur_tag = epoch_tag(st->epoch);

    // Index every block reachable from a free list, one bit per
    // 16-byte payload granule below the bump pointer.
    std::vector<uint64_t> listed(((bump - data_begin_) / 16 + 63) / 64);
    const auto granule = [&](uint64_t payload) {
        return (payload - data_begin_) / 16;
    };
    for (size_t s = 0; s < kNumShards; ++s) {
        for (size_t c = 0; c < kNumClasses; ++c) {
            uint64_t p = st->shards[s].heads[c];
            size_t hops = 0;
            while (p != 0) {
                IDO_ASSERT(p > data_begin_ && p < bump,
                           "nvheap: free-list entry outside the arena");
                listed[granule(p) / 64] |= uint64_t{1} << (granule(p) % 64);
                p = *heap_.resolve<uint64_t>(p);
                IDO_ASSERT(++hops <= heap_.size() / 16,
                           "nvheap: free-list cycle during reclaim");
            }
        }
    }
    const auto is_listed = [&](uint64_t payload) {
        return (listed[granule(payload) / 64] >> (granule(payload) % 64))
               & 1;
    };

    // Blocks a LIVE block's type declares reserved (an interrupted
    // FASE's allocations and frees) are never relinked, whatever
    // state the crash left them in.
    const TypeDescriptor* claimers[128] = {};
    for (size_t t = 0; t < static_cast<size_t>(TypeId::kMaxTypes); ++t) {
        const TypeDescriptor* d =
            TypeRegistry::instance().describe(static_cast<TypeId>(t));
        if (d != nullptr && d->reserved_blocks)
            claimers[t] = d;
    }

    // A bad extent header ends the list, as it ends a serial walk.
    std::vector<Extent> extents;
    list_extents(heap_, data_begin_, bump, &extents);

    // Each slice walks a contiguous run of extents into its own census.
    struct Slice
    {
        Census c;
        bool ok = true; ///< no inconsistent header in its extents
    };
    const auto walk_slice = [&](Slice& sl, size_t lo, size_t hi) {
        Census& c = sl.c;
        const auto visit = [&](uint64_t payload, uint64_t size,
                               uint64_t meta) {
            ++c.stats.blocks;
            const uint64_t s = meta_state(meta);
            const size_t cls = class_for_size(size);
            const bool exact = cls < kNumClasses && kClassSizes[cls] == size;
            if (s == kBlockLive) {
                if (exact) {
                    ++c.cls_blocks[cls];
                } else {
                    ++c.oversize_live;
                    c.oversize_live_bytes += size + sizeof(BlockHeader);
                }
                const TypeDescriptor* d =
                    claimers[static_cast<size_t>(meta_type(meta))];
                if (d != nullptr)
                    d->reserved_blocks(heap_,
                                       meta_aligned(meta)
                                           ? aligned_payload(payload)
                                           : payload,
                                       &c.pins);
                return;
            }
            if (!exact)
                return; // oversize: never relinked (bump-only)
            ++c.cls_blocks[cls];
            ++c.cls_unlive[cls];
            // Strays: FREEING with a stale epoch means the freeing run
            // died between the phases; FREE but unlisted means it died
            // between a spill batch and its head publish (or between a
            // shard pop's unlink and the LIVE flip).  Current-epoch
            // FREEING blocks are parked in live transient caches: leave
            // them alone.
            if (s == kBlockFreeing && meta_epoch(meta) < cur_tag)
                c.strays.push_back(payload);
            else if (s == kBlockFree && !is_listed(payload))
                c.strays.push_back(payload);
        };
        for (size_t i = lo; i < hi; ++i) {
            uint64_t tail = 0;
            if (!walk_extent(heap_, extents[i], visit, &tail)) {
                sl.ok = false;
                return;
            }
            // Room for at least the smallest block.
            if (extents[i].is_chunk
                && extents[i].end - tail >= kHdr + kClassSizes[0])
                c.tails.emplace_back(tail, extents[i].end);
        }
    };
    unsigned n = threads;
    if (n == 0)
        n = extents.size() < kSplitExtents
                ? 1
                : std::clamp(std::thread::hardware_concurrency(), 1u,
                             kMaxCensusThreads);
    n = static_cast<unsigned>(
        std::clamp<size_t>(extents.size(), 1, n));
    std::vector<Slice> slices(n);
    {
        std::vector<std::jthread> walkers; // joined on scope exit
        for (unsigned k = 1; k < n; ++k)
            walkers.emplace_back(walk_slice, std::ref(slices[k]),
                                 extents.size() * k / n,
                                 extents.size() * (k + 1) / n);
        walk_slice(slices[0], 0, extents.size() / n);
    }

    // Merge in address order.  A serial walk stops at the first
    // inconsistent header, so nothing past the first slice that met
    // one counts.
    Census out;
    for (Slice& sl : slices) {
        Census& c = sl.c;
        out.strays.insert(out.strays.end(), c.strays.begin(),
                          c.strays.end());
        out.pins.insert(out.pins.end(), c.pins.begin(), c.pins.end());
        out.tails.insert(out.tails.end(), c.tails.begin(), c.tails.end());
        for (size_t k = 0; k < kNumClasses; ++k) {
            out.cls_blocks[k] += c.cls_blocks[k];
            out.cls_unlive[k] += c.cls_unlive[k];
        }
        out.oversize_live += c.oversize_live;
        out.oversize_live_bytes += c.oversize_live_bytes;
        out.stats.blocks += c.stats.blocks;
        if (!sl.ok)
            break;
    }
    std::sort(out.pins.begin(), out.pins.end());
    out.pins.erase(std::unique(out.pins.begin(), out.pins.end()),
                   out.pins.end());
    std::erase_if(out.strays, [&](uint64_t p) {
        return std::binary_search(out.pins.begin(), out.pins.end(), p);
    });
    // A pin inside a tail is a block an interrupted FASE claimed whose
    // header the crash lost; its resumed region takes it back, so the
    // tail holding it stays unused this run.
    std::erase_if(out.tails, [&](const std::pair<uint64_t, uint64_t>& t) {
        const auto it = std::lower_bound(out.pins.begin(), out.pins.end(),
                                         t.first);
        return it != out.pins.end() && *it < t.second;
    });
    out.stats.extents = extents.size();
    out.stats.threads = n;
    out.stats.ns = stat_now_ns() - t0;
    m_blocks_walked_->fetch_add(out.stats.blocks, std::memory_order_relaxed);
    return out;
}

NvHeap::Marks
NvHeap::marks() const
{
    const HeapState* st = state();
    uint64_t ops = oversize_blocks_.load(std::memory_order_relaxed)
                   + oversize_freed_blocks_.load(std::memory_order_relaxed);
    for (size_t c = 0; c < kNumClasses; ++c)
        ops += cls_alloc_[c].load(std::memory_order_relaxed)
               + cls_free_[c].load(std::memory_order_relaxed);
    return {st->epoch, st->bump, ops};
}

uint64_t
NvHeap::recover_leaks(PersistDomain& dom)
{
    // Serialize against every mutator path; reclamation is a recovery
    // operation but must be safe even if called mid-run.
    std::lock_guard<std::mutex> rg(refill_mutex_);
    std::unique_lock<std::mutex> sg[kNumShards];
    for (size_t s = 0; s < kNumShards; ++s)
        sg[s] = std::unique_lock<std::mutex>(shard_mutexes_[s]);

    // A census is current while no block has changed state since it
    // was taken: every such change moves the epoch, the bump pointer
    // or a class counter.
    const bool reuse = census_.has_value() && census_marks_ == marks();
    Census c = reuse ? std::move(*census_) : take_census();
    census_.reset(); // a reclaim cut short leaves no census to trust
    census_stats_ = c.stats;
    census_stats_.reused = reuse;

    HeapState* st = state();
    const uint64_t cur_epoch = dom.load_val(&st->epoch);
    // Relink, one durable two-step per block (link+meta fence, then
    // head publish fence) -- crashing mid-reclaim just leaves the
    // block a stray for the next reclaim.
    uint64_t reclaimed = 0;
    uint64_t reclaimed_bytes = 0;
    for (const uint64_t payload : c.strays) {
        const auto* hdr =
            heap_.resolve<BlockHeader>(payload - sizeof(BlockHeader));
        const size_t cls = class_for_size(hdr->size);
        const size_t shard = reclaimed % kNumShards;
        reclaimed_bytes += hdr->size + sizeof(BlockHeader);
        uint64_t* head = &st->shards[shard].heads[cls];
        trace::emit(trace::EventKind::kLeakReclaim, payload,
                    meta_state(hdr->meta));
        uint64_t* link = heap_.resolve<uint64_t>(payload);
        dom.store_val(link, dom.load_val(head));
        dom.flush(link, sizeof(uint64_t));
        set_meta(payload, pack_meta(kBlockFree, 0, cur_epoch), dom);
        hook();
        dom.store_val(head, payload);
        dom.flush(head, sizeof(uint64_t));
        dom.fence();
        ++reclaimed;
    }
    // Relinking moves no mark: the census stays current, now with
    // nothing left to reclaim.
    c.strays.clear();
    census_ = std::move(c);
    census_marks_ = marks();
    if (reclaimed != 0)
        m_leak_reclaim_->fetch_add(reclaimed, std::memory_order_relaxed);
    reclaim_stats_.blocks += reclaimed;
    reclaim_stats_.bytes += reclaimed_bytes;
    return reclaimed;
}

void
NvHeap::for_each_block(
    const std::function<void(uint64_t, uint64_t, uint64_t)>& fn) const
{
    walk_blocks(fn);
}

TypeId
NvHeap::block_type(uint64_t payload_off) const
{
    // The offset handed out by alloc_aligned points at the *published*
    // (line-aligned) payload; the back-pointer word right before it
    // leads to the raw payload whose header carries the meta word.
    uint64_t raw = payload_off;
    if (payload_off >= sizeof(uint64_t)) {
        const uint64_t tag =
            *heap_.resolve<uint64_t>(payload_off - sizeof(uint64_t));
        if ((tag & 0xf) == 0x1) {
            const uint64_t cand = tag & ~uint64_t{0xf};
            if (cand < payload_off && payload_off - cand <= 8 + 64) {
                const auto* hdr =
                    heap_.resolve<BlockHeader>(cand - sizeof(BlockHeader));
                if (meta_aligned(hdr->meta))
                    raw = cand;
            }
        }
    }
    const auto* hdr = heap_.resolve<BlockHeader>(raw - sizeof(BlockHeader));
    return meta_type(hdr->meta);
}

} // namespace ido::nvm
