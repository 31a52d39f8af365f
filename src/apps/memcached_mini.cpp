#include "apps/memcached_mini.h"

#include <cstring>

#include "common/panic.h"
#include "ds/fase_ids.h"

namespace ido::apps {

using rt::RegionCtx;
using rt::RuntimeThread;

// Register conventions (both programs):
//   r0  = shard offset            (argument)
//   r1  = key_lo, r2 = key_hi     (arguments)
//   r4  = value                   (set argument)
//   r10 = bucket slot offset      (argument, computed outside)
//   r3  = current item            r8  = current item's next
//   r5, r6 = key scratch          r9  = result code
//   r7  = new item                r11 = chain head stash / prev item
//   r12 = old LRU head / lru_prev r13 = lru_next or count
//   r14 = count                   r15 = count +- 1
namespace {

// GC layout facts.  The root links its shard table; a shard is
// variable-shape (nbuckets chain heads follow the header) so its links
// -- lru_head, lru_tail, and every bucket head -- are enumerated
// dynamically; items link next/lru_next/lru_prev.
const bool g_mc_types = [] {
    nvm::TypeDescriptor root;
    root.name = "mc_root";
    root.payload_size = sizeof(McRoot);
    root.enumerate_link_fields = [](const nvm::PersistentHeap& heap,
                                    uint64_t payload_off,
                                    std::vector<uint64_t>* out) {
        const auto* r = heap.resolve<McRoot>(payload_off);
        for (uint64_t s = 0; s < r->nshards && s < 7; ++s)
            out->push_back(payload_off + offsetof(McRoot, shard_off)
                           + s * 8);
    };
    nvm::TypeRegistry::instance().register_type(nvm::TypeId::kMcRoot,
                                                std::move(root));

    nvm::TypeDescriptor shard;
    shard.name = "mc_shard";
    shard.payload_size = 0; // header + nbuckets chain heads
    shard.enumerate_link_fields = [](const nvm::PersistentHeap& heap,
                                     uint64_t payload_off,
                                     std::vector<uint64_t>* out) {
        const auto* sh = heap.resolve<McShard>(payload_off);
        out->push_back(payload_off + offsetof(McShard, lru_head));
        out->push_back(payload_off + offsetof(McShard, lru_tail));
        for (uint64_t b = 0; b < sh->nbuckets; ++b)
            out->push_back(payload_off + sizeof(McShard) + b * 8);
    };
    nvm::TypeRegistry::instance().register_type(nvm::TypeId::kMcShard,
                                                std::move(shard));

    nvm::TypeDescriptor item;
    item.name = "mc_item";
    item.payload_size = sizeof(McItem);
    item.link_offsets = {offsetof(McItem, next),
                         offsetof(McItem, lru_next),
                         offsetof(McItem, lru_prev)};
    nvm::TypeRegistry::instance().register_type(nvm::TypeId::kMcItem,
                                                std::move(item));
    return true;
}();

constexpr uint64_t kHolder = offsetof(McShard, lock_holder);
constexpr uint64_t kLruHead = offsetof(McShard, lru_head);
constexpr uint64_t kLruTail = offsetof(McShard, lru_tail);
constexpr uint64_t kCount = offsetof(McShard, count);

constexpr uint64_t kItNext = offsetof(McItem, next);
constexpr uint64_t kItKeyLo = offsetof(McItem, key_lo);
constexpr uint64_t kItKeyHi = offsetof(McItem, key_hi);
constexpr uint64_t kItValue = offsetof(McItem, value);
constexpr uint64_t kItLruNext = offsetof(McItem, lru_next);
constexpr uint64_t kItLruPrev = offsetof(McItem, lru_prev);

// --- set ----------------------------------------------------------------

uint32_t
set_lock(RuntimeThread& th, RegionCtx& ctx)
{
    th.fase_lock(ctx.r[0] + kHolder);
    return 1;
}

uint32_t
set_read_head(RuntimeThread& th, RegionCtx& ctx)
{
    ctx.r[3] = th.load_u64(ctx.r[10]);
    ctx.r[11] = ctx.r[3];
    return 2;
}

uint32_t
set_walk(RuntimeThread& th, RegionCtx& ctx)
{
    // One region per chain hop; overwriting live-in r3 is safe under
    // log-restore (see fase_executor.cpp).
    if (ctx.r[3] == 0)
        return 4; // miss: insert
    ctx.r[5] = th.load_u64(ctx.r[3] + kItKeyLo);
    ctx.r[6] = th.load_u64(ctx.r[3] + kItKeyHi);
    if (ctx.r[5] == ctx.r[1] && ctx.r[6] == ctx.r[2])
        return 3; // hit: update in place
    ctx.r[3] = th.load_u64(ctx.r[3] + kItNext);
    return 2;
}

uint32_t
set_update(RuntimeThread& th, RegionCtx& ctx)
{
    th.store_u64(ctx.r[3] + kItValue, ctx.r[4]);
    ctx.r[9] = 2;
    return 6;
}

uint32_t
set_build(RuntimeThread& th, RegionCtx& ctx)
{
    ctx.r[7] = th.nv_alloc_as(nvm::TypeId::kMcItem, sizeof(McItem));
    th.store_u64(ctx.r[7] + kItKeyLo, ctx.r[1]);
    th.store_u64(ctx.r[7] + kItKeyHi, ctx.r[2]);
    th.store_u64(ctx.r[7] + kItValue, ctx.r[4]);
    th.store_u64(ctx.r[7] + kItNext, ctx.r[11]);
    th.store_u64(ctx.r[7] + kItLruPrev, 0);
    ctx.r[12] = th.load_u64(ctx.r[0] + kLruHead);
    th.store_u64(ctx.r[7] + kItLruNext, ctx.r[12]);
    ctx.r[14] = th.load_u64(ctx.r[0] + kCount);
    ctx.r[15] = ctx.r[14] + 1;
    return 5;
}

uint32_t
set_link(RuntimeThread& th, RegionCtx& ctx)
{
    th.store_u64(ctx.r[10], ctx.r[7]);
    th.store_u64(ctx.r[0] + kLruHead, ctx.r[7]);
    if (ctx.r[12] != 0)
        th.store_u64(ctx.r[12] + kItLruPrev, ctx.r[7]);
    else
        th.store_u64(ctx.r[0] + kLruTail, ctx.r[7]);
    th.store_u64(ctx.r[0] + kCount, ctx.r[15]);
    ctx.r[9] = 1;
    return 6;
}

uint32_t
set_unlock(RuntimeThread& th, RegionCtx& ctx)
{
    th.fase_unlock(ctx.r[0] + kHolder);
    return rt::kRegionEnd;
}

// --- delete -------------------------------------------------------------

uint32_t
del_lock(RuntimeThread& th, RegionCtx& ctx)
{
    th.fase_lock(ctx.r[0] + kHolder);
    return 1;
}

uint32_t
del_read_head(RuntimeThread& th, RegionCtx& ctx)
{
    ctx.r[3] = th.load_u64(ctx.r[10]);
    ctx.r[11] = 0; // prev item (0 = bucket head)
    return 2;
}

uint32_t
del_walk(RuntimeThread& th, RegionCtx& ctx)
{
    if (ctx.r[3] == 0) {
        ctx.r[9] = 0;
        return 5;
    }
    ctx.r[5] = th.load_u64(ctx.r[3] + kItKeyLo);
    ctx.r[6] = th.load_u64(ctx.r[3] + kItKeyHi);
    if (ctx.r[5] == ctx.r[1] && ctx.r[6] == ctx.r[2])
        return 3;
    ctx.r[11] = ctx.r[3];
    ctx.r[3] = th.load_u64(ctx.r[11] + kItNext);
    return 2;
}

uint32_t
del_gather(RuntimeThread& th, RegionCtx& ctx)
{
    ctx.r[8] = th.load_u64(ctx.r[3] + kItNext);
    ctx.r[12] = th.load_u64(ctx.r[3] + kItLruPrev);
    ctx.r[13] = th.load_u64(ctx.r[3] + kItLruNext);
    ctx.r[14] = th.load_u64(ctx.r[0] + kCount);
    ctx.r[15] = ctx.r[14] - 1;
    return 4;
}

uint32_t
del_unlink(RuntimeThread& th, RegionCtx& ctx)
{
    if (ctx.r[11] == 0)
        th.store_u64(ctx.r[10], ctx.r[8]);
    else
        th.store_u64(ctx.r[11] + kItNext, ctx.r[8]);
    if (ctx.r[12] != 0)
        th.store_u64(ctx.r[12] + kItLruNext, ctx.r[13]);
    else
        th.store_u64(ctx.r[0] + kLruHead, ctx.r[13]);
    if (ctx.r[13] != 0)
        th.store_u64(ctx.r[13] + kItLruPrev, ctx.r[12]);
    else
        th.store_u64(ctx.r[0] + kLruTail, ctx.r[12]);
    th.store_u64(ctx.r[0] + kCount, ctx.r[15]);
    th.nv_free(ctx.r[3]);
    ctx.r[9] = 1;
    return 5;
}

uint32_t
del_unlock(RuntimeThread& th, RegionCtx& ctx)
{
    th.fase_unlock(ctx.r[0] + kHolder);
    return rt::kRegionEnd;
}

constexpr uint16_t R(int i)
{
    return static_cast<uint16_t>(1u << i);
}

uint64_t
mix64(uint64_t a, uint64_t b)
{
    uint64_t h = a * 0x9e3779b97f4a7c15ull + b;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 32;
    return h;
}

} // namespace

const rt::FaseProgram&
MemcachedMini::set_program()
{
    static const rt::FaseProgram prog = [] {
        rt::FaseProgram p;
        p.fase_id = ds::kFaseMemcachedSet;
        p.name = "memcached.set";
        p.regions = {
            {set_lock, "lock", R(0), 0, 0, 0, 0},
            {set_read_head, "read_head", R(10), R(3) | R(11), 0, 0, 0},
            {set_walk, "walk", R(1) | R(2) | R(3), R(3), 0, 0, 0},
            {set_update, "update", R(3) | R(4), R(9), 0, 0},
            {set_build, "build",
             R(0) | R(1) | R(2) | R(4) | R(11),
             R(7) | R(12) | R(14) | R(15), 0, 0},
            {set_link, "link", R(0) | R(7) | R(10) | R(12) | R(15),
             R(9), 0, 0},
            {set_unlock, "unlock", R(0), 0, 0, 0, 0},
        };
        return p;
    }();
    return prog;
}

const rt::FaseProgram&
MemcachedMini::del_program()
{
    static const rt::FaseProgram prog = [] {
        rt::FaseProgram p;
        p.fase_id = ds::kFaseMemcachedDelete;
        p.name = "memcached.delete";
        p.regions = {
            {del_lock, "lock", R(0), 0, 0, 0, 0},
            {del_read_head, "read_head", R(10), R(3) | R(11), 0, 0, 0},
            {del_walk, "walk", R(1) | R(2) | R(3),
             R(3) | R(9) | R(11), 0, 0, 0},
            {del_gather, "gather", R(0) | R(3),
             R(8) | R(12) | R(13) | R(15), 0, 0, 0},
            {del_unlink, "unlink",
             R(0) | R(3) | R(8) | R(10) | R(11) | R(12) | R(13)
                 | R(15),
             R(9), 0, 0},
            {del_unlock, "unlock", R(0), 0, 0, 0, 0},
        };
        return p;
    }();
    return prog;
}

void
MemcachedMini::register_programs()
{
    auto& reg = rt::FaseRegistry::instance();
    reg.register_program(&set_program());
    reg.register_program(&del_program());
}

uint64_t
MemcachedMini::create(rt::RuntimeThread& th, uint64_t nshards,
                      uint64_t nbuckets)
{
    IDO_ASSERT(nshards >= 1 && nshards <= 7);
    IDO_ASSERT((nbuckets & (nbuckets - 1)) == 0);
    const uint64_t root_off =
        th.nv_alloc_as(nvm::TypeId::kMcRoot, sizeof(McRoot));
    McRoot root{};
    root.nshards = nshards;
    for (uint64_t s = 0; s < nshards; ++s) {
        const size_t bytes = sizeof(McShard) + nbuckets * 8;
        const uint64_t shard_off =
            th.nv_alloc_as(nvm::TypeId::kMcShard, bytes);
        auto* shard = th.heap().resolve<uint8_t>(shard_off);
        std::memset(shard, 0, bytes);
        auto* hdr = reinterpret_cast<McShard*>(shard);
        hdr->nbuckets = nbuckets;
        th.dom().flush(shard, bytes);
        root.shard_off[s] = shard_off;
    }
    auto* rp = th.heap().resolve<McRoot>(root_off);
    th.dom().store(rp, &root, sizeof(root));
    th.dom().flush(rp, sizeof(root));
    th.dom().fence();
    return root_off;
}

MemcachedMini::MemcachedMini(nvm::PersistentHeap& heap, uint64_t root_off)
    : root_off_(root_off), heap_bytes_(heap.size()),
      walk_limit_(heap.size() / sizeof(McItem) + 1)
{
    const auto* root = heap.resolve<McRoot>(root_off);
    nshards_ = root->nshards;
    for (uint64_t s = 0; s < nshards_; ++s)
        shard_off_[s] = root->shard_off[s];
    nbuckets_ = heap.resolve<McShard>(shard_off_[0])->nbuckets;
}

uint64_t
MemcachedMini::shard_index(uint64_t key_lo, uint64_t key_hi) const
{
    return mix64(key_lo, key_hi) % nshards_;
}

std::pair<uint64_t, uint64_t>
MemcachedMini::locate(uint64_t key_lo, uint64_t key_hi) const
{
    const uint64_t h = mix64(key_lo, key_hi);
    const uint64_t shard = shard_off_[shard_index(key_lo, key_hi)];
    const uint64_t bucket =
        shard + sizeof(McShard) + ((h >> 8) & (nbuckets_ - 1)) * 8;
    return {shard, bucket};
}

void
MemcachedMini::set(rt::RuntimeThread& th, uint64_t key_lo,
                   uint64_t key_hi, uint64_t value)
{
    const auto [shard, bucket] = locate(key_lo, key_hi);
    RegionCtx ctx;
    ctx.r[0] = shard;
    ctx.r[1] = key_lo;
    ctx.r[2] = key_hi;
    ctx.r[4] = value;
    ctx.r[10] = bucket;
    th.run_fase(set_program(), ctx);
}

bool
MemcachedMini::get(rt::RuntimeThread& th, uint64_t key_lo,
                   uint64_t key_hi, uint64_t* value) const
{
    // A validated read, not a FASE: the shard lock's sequence checks
    // the walk afterwards.  A racing writer may have unlinked, freed
    // and reused any item on the way (a free block's word 0 is a free
    // list link), so the walk trusts no offset: each must lie in the
    // heap, and a walk longer than the heap has items is torn too.
    // Torn walks read kTorn and only matter if they validate.
    enum class Probe : uint8_t { kMiss, kHit, kTorn };
    const auto [shard, bucket] = locate(key_lo, key_hi);
    nvm::PersistentHeap& heap = th.heap();
    nvm::PersistDomain& dom = th.dom();
    uint64_t found = 0;
    const Probe p = th.read_validated(shard + kHolder, [&] {
        uint64_t item = dom.load_val(heap.resolve<uint64_t>(bucket));
        for (uint64_t hops = 0; item != 0; ++hops) {
            if (hops > walk_limit_ || (item & 7) != 0
                || item > heap_bytes_ - sizeof(McItem))
                return Probe::kTorn;
            const auto* it = heap.resolve<McItem>(item);
            if (dom.load_val(&it->key_lo) == key_lo
                && dom.load_val(&it->key_hi) == key_hi) {
                found = dom.load_val(&it->value);
                return Probe::kHit;
            }
            item = dom.load_val(&it->next);
        }
        return Probe::kMiss;
    });
    if (p == Probe::kTorn)
        panic("memcached: bucket 0x%llx holds a broken chain",
              static_cast<unsigned long long>(bucket));
    if (p == Probe::kMiss)
        return false;
    *value = found;
    return true;
}

bool
MemcachedMini::del(rt::RuntimeThread& th, uint64_t key_lo,
                   uint64_t key_hi)
{
    const auto [shard, bucket] = locate(key_lo, key_hi);
    RegionCtx ctx;
    ctx.r[0] = shard;
    ctx.r[1] = key_lo;
    ctx.r[2] = key_hi;
    ctx.r[10] = bucket;
    th.run_fase(del_program(), ctx);
    return ctx.r[9] == 1;
}

uint64_t
MemcachedMini::size(nvm::PersistentHeap& heap, uint64_t root_off)
{
    const auto* root = heap.resolve<McRoot>(root_off);
    uint64_t total = 0;
    for (uint64_t s = 0; s < root->nshards; ++s)
        total += heap.resolve<McShard>(root->shard_off[s])->count;
    return total;
}

bool
MemcachedMini::check_invariants(nvm::PersistentHeap& heap,
                                uint64_t root_off)
{
    const auto* root = heap.resolve<McRoot>(root_off);
    for (uint64_t s = 0; s < root->nshards; ++s) {
        const auto* shard =
            heap.resolve<McShard>(root->shard_off[s]);
        const size_t limit = heap.size() / sizeof(McItem) + 1;
        // Hash chains: bounded, in-heap.
        uint64_t chain_items = 0;
        for (uint64_t b = 0; b < shard->nbuckets; ++b) {
            uint64_t item = *heap.resolve<uint64_t>(
                root->shard_off[s] + sizeof(McShard) + b * 8);
            size_t n = 0;
            while (item != 0) {
                if (item > heap.size() - sizeof(McItem))
                    return false;
                item = heap.resolve<McItem>(item)->next;
                if (++n > limit)
                    return false;
            }
            chain_items += n;
        }
        if (chain_items != shard->count)
            return false;
        // LRU list: forward walk matches count and back-links.
        uint64_t cur = shard->lru_head;
        uint64_t prev = 0;
        size_t n = 0;
        while (cur != 0) {
            const auto* item = heap.resolve<McItem>(cur);
            if (item->lru_prev != prev)
                return false;
            prev = cur;
            cur = item->lru_next;
            if (++n > limit)
                return false;
        }
        if (n != shard->count || prev != shard->lru_tail)
            return false;
    }
    return true;
}

} // namespace ido::apps
