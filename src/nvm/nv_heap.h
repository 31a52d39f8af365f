/**
 * @file
 * NvHeap v2: the process-wide persistent-memory allocation facade.
 *
 * Replaced the retired single-mutex NvAllocator v1 on every
 * allocation path in the tree: runtime nv_alloc/nv_free, the per-runtime persistent log-record
 * lists, and -- transitively through RuntimeThread -- all ds/ node
 * allocation.  Design goals, in order:
 *
 *  1. No cross-thread blocking on the store->flush->fence hot path
 *     (after *Delay-Free Concurrency on Faulty Persistent Memory*).
 *     Each thread owns a private bump *chunk* carved from the global
 *     arena under a short-lived refill lock, plus transient per-class
 *     free caches; the common alloc and free cost one cache-line
 *     write-back, touch no shared lock, and issue *no fence* -- the
 *     durable mark coalesces into the next fence the thread runs
 *     (spill, refill, or the caller's own durable publish), the
 *     paper's persist-coalescing argument applied to the allocator.
 *
 *  2. A crash can leak, never corrupt, and leaks are reclaimed
 *     *online*.  Every block header carries, colocated in its own
 *     16 bytes (after *Fine-Grain Checkpointing with In-Cache-Line
 *     Logging*), a packed {state, owner tag, epoch} word.  Freeing is
 *     two-phase: the block is first durably marked kBlockFreeing
 *     (phase 1) and parked in the freeing thread's transient cache;
 *     only when the cache spills to a sharded persistent free list is
 *     it durably marked kBlockFree and linked (phase 2).  A crash
 *     between the phases strands the block in a state recover_leaks()
 *     recognizes by its stale epoch and relinks -- it can never be
 *     reachable from a free list and live at once, so the double-free
 *     the v1 allocator could hit under a torn free is structurally
 *     impossible.
 *
 *  3. One place for policy and observability: MetricsRegistry counters
 *     (nvheap.*) and ido-trace events for refills, spills, cache hits
 *     and leak reclaims are emitted here and nowhere else.
 *
 * Persistent layout (heap root kAllocator):
 *
 *   HeapState      global bump/end/epoch + kNumShards sharded
 *                  per-class free-list heads (one 128-B shard each)
 *   arena          a sequence of 16-KiB chunks (first word
 *                  kChunkMagic) and oversize blocks, each chunk a
 *                  packed run of [BlockHeader|payload] blocks
 *
 * Threads and epochs: the attach epoch is bumped durably each time a
 * NvHeap attaches to existing state.  Transient caches hold blocks in
 * state kBlockFreeing tagged with the epoch that freed them; blocks
 * whose tag predates the current epoch can only belong to crashed (or
 * destroyed) runs, which is what makes recover_leaks() safe to run
 * while the new run is already allocating.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/panic.h"
#include "fuzz/rr.h"

#include "nvm/persist_domain.h"
#include "nvm/persistent_heap.h"
#include "nvm/root_registry.h"

namespace ido::nvm {

class PersistDomain;
class HeapGc;

class NvHeap
{
  public:
    static constexpr size_t kNumClasses = 13;
    static constexpr size_t kNumShards = 8;
    /** Per-thread bump chunk carved from the global arena. */
    static constexpr uint64_t kChunkBytes = 16384;
    /** Transient per-class cache capacity; half spills when full. */
    static constexpr size_t kCacheCap = 64;

    // Block states (low 16 bits of the header meta word).  The low
    // nibble must never be 0x1: that nibble distinguishes a plain
    // header from an aligned block's tagged back-pointer.
    static constexpr uint64_t kBlockLive = 0xa1ce;
    static constexpr uint64_t kBlockFreeing = 0xf4e2; ///< phase 1
    static constexpr uint64_t kBlockFree = 0xf4ee;    ///< phase 2

    /** First word of a chunk; cannot collide with a block size. */
    static constexpr uint64_t kChunkMagic = 0xc7a2c7a2c7a2c7a2ull;

    /**
     * Attach to (or initialize) the NvHeap state of a heap.  Attaching
     * to existing state durably bumps the epoch and takes the census
     * (one read of every block header) that seeds the per-class
     * counters and collects the unused chunk tails refill_chunk()
     * hands out before it grows the arena; if the heap reports
     * recovered_from_crash(), the census's strays are reclaimed
     * immediately.  An attach declares every earlier attach to the
     * same heap dead: its chunks and parked blocks are taken back.
     */
    NvHeap(PersistentHeap& heap, PersistDomain& dom);
    ~NvHeap();

    NvHeap(const NvHeap&) = delete;
    NvHeap& operator=(const NvHeap&) = delete;

    /**
     * Allocate size bytes; returns the heap offset of the payload, or
     * 0 if the arena is exhausted.  Payloads are 16-byte aligned.
     * `type` is stamped into the block header's meta word so the GC
     * can trace the block from its TypeDescriptor alone; kUntyped
     * blocks are conservatively kept but never traced through.
     */
    uint64_t alloc(size_t size, PersistDomain& dom,
                   TypeId type = TypeId::kUntyped);

    /**
     * Allocate with the payload aligned to a cache line (durable
     * tagged back-pointer below the payload, as in v1), for log
     * records and line-padded nodes.  The header carries an aligned
     * bit so walkers recompute the published payload offset
     * deterministically.
     */
    uint64_t alloc_aligned(size_t size, PersistDomain& dom,
                           TypeId type = TypeId::kUntyped);

    /**
     * Return a block obtained from alloc() or alloc_aligned().
     * Validates the offset and header before touching any list and
     * panics with a forensic dump (offset, header words, owner tag,
     * epoch) on a double free or wild pointer.
     */
    void free_block(uint64_t payload_off, PersistDomain& dom);

    /**
     * A durable name for a block being allocated, supplied by a runtime
     * whose allocations must survive re-execution (iDO's allocation
     * entries, ido_log.h).  alloc_claimed() calls name() once the block
     * is off every free list, and the block cannot become durably LIVE
     * before a fence has followed that call.
     */
    class Claim
    {
      public:
        /** Store and write back a name for the raw payload; no fence. */
        virtual void name(uint64_t raw_payload) = 0;

      protected:
        ~Claim() = default;
    };

    /**
     * alloc()/alloc_aligned() for a claimed block.  Returns the *raw*
     * payload offset, 0 if exhausted; publish an aligned one with
     * publish_aligned().  The shard-pop and chunk-carve paths order the
     * LIVE mark behind a fence they already issue.  The transient-cache
     * and oversize paths have no such fence: they leave the block
     * FREEING, set *live_deferred, and the caller mark_live()s it after
     * its own next fence.
     */
    uint64_t alloc_claimed(size_t size, PersistDomain& dom, TypeId type,
                           bool aligned, Claim& claim, bool* live_deferred);

    /** Write an aligned block's back-pointer (written back, fence
     *  coalesced) and return its published payload offset. */
    uint64_t publish_aligned(uint64_t raw, PersistDomain& dom);

    /** Mark a claimed block LIVE: written back, no fence. */
    void mark_live(uint64_t raw, TypeId type, bool aligned,
                   PersistDomain& dom);

    /**
     * Take back a block a crashed run claimed for the same call.  Its
     * header may be FREEING, FREE-unlisted, LIVE, or -- if the crash
     * beat a carve's header store -- never written, so the size word
     * is rewritten (written back, no fence); the caller mark_live()s
     * the block after its next fence.
     */
    void adopt_claimed(uint64_t raw, size_t size, bool aligned,
                       PersistDomain& dom);

    /** The raw payload behind a published payload offset (follows an
     *  aligned block's back-pointer). */
    uint64_t raw_payload(uint64_t payload_off, PersistDomain& dom) const;

    /** Whether the block at a raw payload offset is LIVE. */
    bool is_live(uint64_t raw, PersistDomain& dom) const;

    /**
     * Phase 1 of free_block() alone: validate and mark the block
     * FREEING (written back, no fence), returning its raw payload.
     * `resumed` also accepts a block a crashed epoch already marked
     * FREEING: a resumed FASE redoing a free its crash interrupted.
     */
    uint64_t begin_free(uint64_t payload_off, PersistDomain& dom,
                        bool resumed = false);

    /** The rest of free_block(): park a begin_free()d block in the
     *  calling thread's cache, spilling half of it when full. */
    void finish_free(uint64_t raw, PersistDomain& dom);

    /**
     * Name a line that must be written back before any block parked in
     * the calling thread's cache is handed out or spilled: iDO clears
     * its free entries with a plain store and lets the next reuse of a
     * freed block carry the write-back.  A spill writes the line back
     * ahead of its first fence; a cache hit writes it back, and fences
     * too unless a Claim defers the LIVE mark past the caller's fence.
     * A different pending line is written back when replaced.
     */
    void set_reuse_guard(const void* line, PersistDomain& dom);

    /** The caller wrote `line` back itself: a pending reuse guard on
     *  it needs no write-back of its own. */
    void note_written_back(const void* line);

    /** Typed convenience: allocate sizeof(T), return offset. */
    template <typename T>
    uint64_t
    alloc_for(PersistDomain& dom)
    {
        return alloc(sizeof(T), dom);
    }

    /**
     * Allocate a line-aligned record and durably link it at the head
     * of the persistent list rooted at `slot` -- the primitive behind
     * every runtime's per-thread log-record list (replaces the ad-hoc
     * link_mutex_ pattern).  `init(rec, prev_head)` must fully
     * initialize the record through `dom`, storing prev_head into its
     * next field; the record is flushed, fenced, and only then
     * published as the new root, so a crash at any point leaves the
     * list either without the record or with it fully initialized.
     * Serialized per slot, not globally.  Returns 0 when exhausted.
     * The slot must be declared kBlockRef in the RootRegistry and the
     * record is stamped with `type`, so every list this primitive
     * builds is traceable by the GC from metadata alone.  The record
     * is an oversize block from the global arena, never recycled, so a
     * worker that makes its runtime thread keeps its chunk for its
     * data, each block at the line phase the chunk started with
     * (DESIGN.md §9).
     */
    template <typename InitFn>
    uint64_t
    alloc_linked(RootSlot slot, TypeId type, size_t size,
                 PersistDomain& dom, InitFn&& init)
    {
        IDO_ASSERT(RootRegistry::describe(slot).kind == RootKind::kBlockRef,
                   "alloc_linked into a non-reference root slot");
        const uint64_t off = alloc_arena_aligned(size, dom, type);
        if (off == 0)
            return 0;
        fuzz::rr::OrderedGuard g(
            link_mutexes_[static_cast<size_t>(slot)],
            fuzz::obj_key(fuzz::ObjKind::kHeapLink,
                          static_cast<uint64_t>(slot)));
        const uint64_t prev = heap_.root(slot);
        void* rec = heap_.resolve<void>(off);
        init(rec, prev);
        dom.flush(rec, size);
        dom.fence();
        hook();
        heap_.set_root(slot, off, dom);
        return off;
    }

    PersistentHeap& heap() { return heap_; }

    /** Bytes remaining in the *global* bump arena (diagnostics; does
     *  not count tails of already-carved per-thread chunks). */
    uint64_t arena_remaining() const;

    /** Number of live (allocated, unfreed) blocks, by header walk. */
    uint64_t live_blocks() const;

    /**
     * Walk every chunk and block header and verify the allocator
     * invariants: headers well formed, free-list entries in state
     * kBlockFree, no overlap, no cycles.  Quiescent callers only.
     */
    bool check_consistency() const;

    /**
     * Online leak reclamation: relink every block stranded mid-free by
     * a crashed epoch (state kBlockFreeing with a stale epoch tag, or
     * kBlockFree but unreachable from any free list) into the sharded
     * free lists.  Safe to call while the current epoch is allocating:
     * blocks parked in live transient caches carry the current epoch
     * and are left alone, as are the blocks a LIVE block's type
     * declares reserved (TypeDescriptor::reserved_blocks: the
     * allocations and frees of an interrupted iDO FASE).  Returns the
     * number of blocks reclaimed.
     *
     * The strays come from the attach's census while it is current (no
     * block changed state since it was taken), else from a fresh one.
     * Relinking leaves the census current with no strays left, so the
     * constructor's crash-attach reclaim and a runtime's recover() read
     * the heap's headers once between them.
     */
    uint64_t recover_leaks(PersistDomain& dom);

    /** From this many extents (chunks plus oversize blocks) on, a
     *  census splits its walk across threads; below it, thread starts
     *  would cost more than they save. */
    static constexpr size_t kSplitExtents = 256;
    /** Walker threads of a split census, at most. */
    static constexpr unsigned kMaxCensusThreads = 4;

    /** What a census cost. */
    struct CensusStats
    {
        uint64_t ns = 0;      ///< wall time of the walk
        uint64_t blocks = 0;  ///< block headers read
        uint64_t extents = 0; ///< chunks plus oversize blocks
        unsigned threads = 0; ///< walker threads (1: serial)
        /** Set by recover_leaks(): it took the census from an earlier
         *  walk instead of walking itself. */
        bool reused = false;
    };

    /**
     * One read of every block header: the per-class counter seeds, the
     * strays recover_leaks() relinks, the blocks active log records
     * pin, and the chunk tails no block was carved in.  Read-only;
     * quiescent callers only.
     */
    struct Census
    {
        std::vector<uint64_t> strays; ///< relinkable payloads, ascending,
                                      ///< pinned ones removed
        std::vector<uint64_t> pins;   ///< reserved raw payloads, ascending
        /** Unused chunk tails [first, second), ascending, none holding
         *  a pin.  Only an attach's census may hand them out: later,
         *  the chunks this attach's threads carve from have tails too. */
        std::vector<std::pair<uint64_t, uint64_t>> tails;
        uint64_t cls_blocks[kNumClasses] = {}; ///< exact-class blocks
        uint64_t cls_unlive[kNumClasses] = {}; ///< ... not LIVE
        uint64_t oversize_live = 0;
        uint64_t oversize_live_bytes = 0; ///< payload plus header
        CensusStats stats;
    };

    /**
     * Take a census on `threads` walker threads; 0 picks one below
     * kSplitExtents extents and min(kMaxCensusThreads,
     * hardware_concurrency) above.  Every thread count finds the same
     * census.
     */
    Census take_census(unsigned threads = 0) const;

    /** The walk behind the latest recover_leaks() (or the attach's
     *  census before any). */
    CensusStats census_stats() const { return census_stats_; }

    /** Cumulative recover_leaks() results since this attach. */
    struct ReclaimStats
    {
        uint64_t blocks = 0;
        uint64_t bytes = 0;
    };
    ReclaimStats reclaim_stats() const { return reclaim_stats_; }

    /** Current attach epoch (diagnostics / tests). */
    uint64_t epoch() const;

    /**
     * Invoke fn(raw_payload_off, size, meta) for every block in the
     * arena (chunks' packed prefixes plus oversize extents).
     * Quiescent callers only.  The published payload of an aligned
     * block (meta_aligned) is (raw + 8 + 63) & ~63.
     */
    void for_each_block(
        const std::function<void(uint64_t, uint64_t, uint64_t)>& fn) const;

    /**
     * TypeId recorded for the block owning `payload_off` (follows the
     * aligned back-pointer, so published offsets work).  kUntyped for
     * blocks allocated before the typed layer or without a type.
     */
    TypeId block_type(uint64_t payload_off) const;

    /**
     * Test hook fired at every durable protocol step (fence-adjacent
     * points in alloc, free, spill, refill, link).  Crash-sweep tests
     * install a counting hook that throws to simulate a crash at an
     * exact protocol state.  Not thread-safe against concurrent
     * allocator use; install before the workload starts.
     */
    void set_crash_hook(std::function<void()> hook_fn);

  private:
    friend class HeapGc; ///< reachability audit (heap_gc.h)

    /** fn(payload, size, meta) for every block, serially, stopping at
     *  the first inconsistent header; false if there was one. */
    template <typename Fn>
    bool walk_blocks(Fn&& fn) const;

    /** 16-byte header preceding every payload. */
    struct BlockHeader
    {
        uint64_t size; ///< payload size (rounded to its class)
        uint64_t meta; ///< pack(state, owner, epoch)
    };

    /** One shard of per-class free-list heads (two cache lines). */
    struct ShardList
    {
        uint64_t heads[kNumClasses];
        uint64_t pad[3];
    };
    static_assert(sizeof(ShardList) == 128);

    /** Persistent allocator metadata, stored at root kAllocator. */
    struct HeapState
    {
        uint64_t magic;      ///< kStateMagic (v1 images have an offset here)
        uint64_t bump;       ///< next unused global arena offset
        uint64_t end;        ///< arena end offset
        uint64_t epoch;      ///< attach epoch (bumped durably per attach)
        /** Retired-chunk list head of older images; ignored (their
         *  retired chunks walk as empty, so their tails are reused). */
        uint64_t pad_chunk_free;
        /** Relocation journal of older images' offline compaction;
         *  attach refuses an image where it is non-zero. */
        uint64_t old_journal;
        uint64_t pad0[2];
        ShardList shards[kNumShards];
    };
    static_assert(sizeof(HeapState) == 64 + kNumShards * sizeof(ShardList));

    static constexpr uint64_t kStateMagic = 0x52e4ea9b1d02ull;

    /** Transient per-thread allocation state (volatile by design:
     *  losing one in a crash leaks recoverable blocks, nothing more). */
    struct ThreadCache
    {
        uint64_t chunk_cursor = 0; ///< next carve offset (0 = none)
        uint64_t chunk_end = 0;
        uint16_t owner_tag = 0;
        std::vector<uint64_t> free_blocks[kNumClasses];
        /** set_reuse_guard() line not yet written back (null: none). */
        const void* reuse_guard = nullptr;
    };

    // Meta word layout: state(16) | owner(16) | type(7) | aligned(1) |
    // epoch(24).  The type tag and aligned bit live in the block's own
    // header line (InCLL-style co-location) so the GC can classify and
    // relocate blocks without touching any mutator-visible line; the
    // epoch keeps 24 bits, still far beyond any realistic attach count.
    static constexpr uint64_t kMetaAlignedBit = uint64_t{1} << 39;

    static uint64_t
    pack_meta(uint64_t state, uint16_t owner, uint64_t epoch,
              TypeId type = TypeId::kUntyped, bool aligned = false)
    {
        return (state & 0xffff) | (uint64_t{owner} << 16)
               | ((uint64_t{static_cast<uint8_t>(type)} & 0x7f) << 32)
               | (aligned ? kMetaAlignedBit : 0)
               | ((epoch & 0xffffff) << 40);
    }
    static uint64_t meta_state(uint64_t meta) { return meta & 0xffff; }
    static uint16_t
    meta_owner(uint64_t meta)
    {
        return static_cast<uint16_t>(meta >> 16);
    }
    static TypeId
    meta_type(uint64_t meta)
    {
        return static_cast<TypeId>((meta >> 32) & 0x7f);
    }
    static bool meta_aligned(uint64_t meta)
    {
        return (meta & kMetaAlignedBit) != 0;
    }
    static uint64_t meta_epoch(uint64_t meta) { return meta >> 40; }

    /** Epoch truncated to the header field's width, for staleness
     *  comparisons against meta_epoch(). */
    static uint64_t epoch_tag(uint64_t epoch) { return epoch & 0xffffff; }

    static size_t class_for_size(size_t size);
    static size_t class_payload(size_t cls);

    HeapState* state() const;
    ThreadCache& tcache();
    size_t home_shard(const ThreadCache& tc) const;

    void
    hook()
    {
        if (crash_hook_)
            crash_hook_();
    }

    /** Write a block's meta word and issue its line write-back.  With
     *  fence=false the sfence is *coalesced*: the write-back is ordered
     *  before any later fence on this thread (both domain models
     *  guarantee this), so it becomes durable no later than the next
     *  protocol fence or the caller's own durable publish of the
     *  offset -- the paper's persist-coalescing discipline applied to
     *  the allocator's hot path. */
    void set_meta(uint64_t payload_off, uint64_t meta, PersistDomain& dom,
                  bool fence = true);

    /** Shared allocation path behind alloc()/alloc_aligned() and
     *  alloc_claimed() (claim non-null). */
    uint64_t alloc_impl(size_t size, PersistDomain& dom, TypeId type,
                        bool aligned, Claim* claim = nullptr,
                        bool* live_deferred = nullptr);

    /** Carve one block from the thread's chunk; 0 if it doesn't fit. */
    uint64_t carve_from_chunk(ThreadCache& tc, size_t payload,
                              uint16_t owner, PersistDomain& dom,
                              TypeId type, bool aligned, Claim* claim);

    /** Write back tc's reuse guard, if any, and forget it. */
    void flush_reuse_guard(ThreadCache& tc, PersistDomain& dom);

    /** Published payload of an aligned block's raw payload. */
    static uint64_t
    aligned_payload(uint64_t raw)
    {
        return (raw + 8 + 63) & ~uint64_t{63};
    }

    /** Refill the thread's chunk: the attach census's orphaned chunk
     *  tails first, then the global arena bump. */
    bool refill_chunk(ThreadCache& tc, PersistDomain& dom);

    /** Pop from one shard's class list; 0 if empty. */
    uint64_t shard_pop(size_t shard, size_t cls, PersistDomain& dom);

    /** Spill half of one transient class cache to the home shard. */
    void spill_cache(ThreadCache& tc, size_t cls, PersistDomain& dom);

    /** Carve an exact-size block from the global arena (oversize and
     *  arena-tail allocations).  A claimed block is carved FREEING. */
    uint64_t carve_global(size_t payload, uint16_t owner,
                          PersistDomain& dom, TypeId type, bool aligned,
                          bool claimed = false);

    /** Validate a block header before freeing; panics on violation.
     *  `resumed` accepts a stale-epoch FREEING block (begin_free). */
    void validate_for_free(uint64_t payload_off, const BlockHeader* hdr,
                           uint64_t meta, bool resumed = false) const;

    /** Class payload (or oversize round-up) the allocator gives a
     *  request of `size` bytes. */
    static size_t payload_for(size_t size);

    /** Oversize payload for `size` bytes: with its header the block
     *  fills whole lines, so the bump pointer, and every chunk carved
     *  after the block, stays line-aligned. */
    static size_t line_payload(size_t size);

    /** An oversize block of `payload` bytes from the global arena,
     *  counted as one (alloc_impl's path for sizes past every class). */
    uint64_t carve_oversize(size_t payload, ThreadCache& tc,
                            PersistDomain& dom, TypeId type, bool aligned,
                            Claim* claim, bool* live_deferred);

    /** alloc_aligned from the global arena, as an oversize block
     *  (alloc_linked's record). */
    uint64_t alloc_arena_aligned(size_t size, PersistDomain& dom,
                                 TypeId type);

    PersistentHeap& heap_;
    uint64_t state_off_ = 0;
    uint64_t data_begin_ = 0; ///< first byte after HeapState
    const uint64_t id_;       ///< process-unique instance id (TLS key)

    std::mutex refill_mutex_; ///< global bump pointer
    std::mutex shard_mutexes_[kNumShards];
    std::mutex link_mutexes_[static_cast<size_t>(RootSlot::kCount)];

    std::mutex tc_mutex_; ///< guards tcs_ registration only
    std::deque<std::unique_ptr<ThreadCache>> tcs_;
    uint16_t next_owner_tag_ = 1; ///< under tc_mutex_

    std::function<void()> crash_hook_;

    // MetricsRegistry counter cells (stable for process lifetime).
    std::atomic<uint64_t>* m_alloc_;
    std::atomic<uint64_t>* m_free_;
    std::atomic<uint64_t>* m_cache_hit_;
    std::atomic<uint64_t>* m_refill_;
    std::atomic<uint64_t>* m_spill_;
    std::atomic<uint64_t>* m_shard_pop_;
    std::atomic<uint64_t>* m_leak_reclaim_;
    std::atomic<uint64_t>* m_oversize_;
    std::atomic<uint64_t>* m_tail_reuse_;
    std::atomic<uint64_t>* m_blocks_walked_;

    // Per-size-class occupancy accounting (transient estimates kept at
    // alloc/free time; gauges derive live/free splits and the
    // fragmentation ratio from them without walking the heap).
    std::atomic<uint64_t> cls_alloc_[kNumClasses];
    std::atomic<uint64_t> cls_free_[kNumClasses];
    /** Frees taken back by an allocation: cache hits + shard pops. */
    std::atomic<uint64_t> cls_reuse_[kNumClasses];
    std::atomic<uint64_t> oversize_blocks_{0};
    std::atomic<uint64_t> oversize_freed_blocks_{0};
    std::atomic<uint64_t> oversize_bytes_{0};
    std::atomic<uint64_t> oversize_freed_bytes_{0};

    ReclaimStats reclaim_stats_; ///< under refill_mutex_ (recover_leaks)
    /** The attach census's chunk tails not yet handed out, popped from
     *  the back; under refill_mutex_. */
    std::vector<std::pair<uint64_t, uint64_t>> tails_;

    /** What a census's validity is judged by: allocator state that any
     *  change to a block's state moves. */
    struct Marks
    {
        uint64_t epoch, bump;
        uint64_t ops; ///< sum of the per-instance class counters
        bool operator==(const Marks&) const = default;
    };
    Marks marks() const;

    // Under refill_mutex_ once constructed.
    std::optional<Census> census_;
    Marks census_marks_{};
    CensusStats census_stats_;

    /** Estimated live payload+header bytes (from the class counters). */
    uint64_t live_bytes_estimate() const;

    /** Blocks of class `cls` free now (frees - reuses). */
    uint64_t pooled_blocks(size_t cls) const;
};

} // namespace ido::nvm
