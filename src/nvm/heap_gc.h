/**
 * @file
 * HeapGc: root-reachability mark/sweep and crash-consistent slab
 * compaction for NvHeap v2.
 *
 * The typed root layer (root_registry.h) made reachability decidable
 * from metadata alone: every durable root declares what it holds,
 * every block header carries a 7-bit TypeId, and every described type
 * publishes its link-field map.  HeapGc is the consumer of that
 * metadata -- three entry points layered on one mark phase:
 *
 *  - audit():   read-only census.  Marks from RootRegistry::block_roots,
 *               traces through TypeDescriptors, and reports every LIVE
 *               block no root can reach (a leak), every link field
 *               whose target is not a block (dangling), every opaque
 *               (untyped / undescribed) survivor, and every block
 *               currently pinning the heap against relocation.
 *  - repair():  audit + reclamation.  Unreachable LIVE blocks are
 *               durably demoted to the FREEING state with a stale epoch
 *               tag and handed to NvHeap::recover_leaks(), which owns
 *               the (already crash-proven) relink protocol -- the GC
 *               never grows a second free-list writer.  A crash at any
 *               point leaves strays the next attach reclaims.  Refuses
 *               to reclaim anything while an opaque block is reachable
 *               (its unseen interior could be the only path to a
 *               "leak").
 *  - compact(): journal-based relocation plus chunk retirement.  Live
 *               blocks are copied out of sparse chunks, every move
 *               recorded in a persistent journal *before* the source
 *               header flips to kBlockMoved, then all stored links and
 *               roots are rewritten and the emptied chunks are zeroed
 *               and pushed on the retired-chunk list refill_chunk()
 *               reuses.  Every step is fenced and hook()ed, so the
 *               fuse-point crash sweep can kill it anywhere: an
 *               interrupted compaction is finished (or harmlessly
 *               discarded) by the journal-resolution prologue of the
 *               next GC.  Relocation is refused while any pinning
 *               block (interrupted-FASE log record) or any opaque LIVE
 *               block exists, since their interiors may hold offsets
 *               the GC cannot retarget.  Fully-empty chunks are still
 *               retired, except while a log record pins: its FASE may
 *               have reserved a block in a chunk that walks as empty.
 *
 * Concurrency contract: quiescent callers only (no mutator threads
 * between construction and the call's return).  Transient caches are
 * flushed and chunk cursors abandoned up front, so no thread-local
 * state can reference a chunk the GC retires.
 */
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nvm/nv_heap.h"

namespace ido::nvm {

/** One GC run's census and actions, for tools/tests/recovery. */
struct GcStats
{
    // Census (every run).
    uint64_t blocks = 0;        ///< all walked blocks
    uint64_t bytes = 0;         ///< header+payload bytes walked
    uint64_t live_blocks = 0;
    uint64_t live_bytes = 0;
    uint64_t free_blocks = 0;   ///< FREE or FREEING
    uint64_t moved_blocks = 0;  ///< relocation carcasses awaiting retire
    uint64_t chunks = 0;        ///< chunks currently carved from the arena

    // Reachability findings.
    uint64_t leaked_blocks = 0; ///< LIVE but unreachable from any root
    uint64_t leaked_bytes = 0;
    uint64_t dangling_links = 0; ///< link fields targeting no block
    uint64_t opaque_live = 0;    ///< LIVE untyped/undescribed blocks
    uint64_t pinned_blocks = 0;  ///< blocks vetoing relocation

    // Actions (repair / compact only).
    uint64_t reclaimed_blocks = 0;
    uint64_t reclaimed_bytes = 0;
    uint64_t relocated_blocks = 0;
    uint64_t relocated_bytes = 0;
    uint64_t chunks_retired = 0;
    uint64_t journal_resolved = 0; ///< prior interrupted moves completed
    bool repair_refused = false;   ///< opaque reachable block blocked reclaim
    bool relocation_refused = false; ///< pin/opaque blocked relocation

    // Phase wall times.  The same stamps feed heap.gc.last_*_us and the
    // recovery timeline's gc_*_ms fields.
    uint64_t index_ns = 0;   ///< block/chunk index walk
    uint64_t mark_ns = 0;    ///< reachability mark from the roots
    uint64_t census_ns = 0;  ///< per-block classification
    uint64_t reclaim_ns = 0; ///< repair's reclaim; compact's other work
    uint64_t mark_threads = 0; ///< threads the mark ran on (1 = serial)

    /** Human-readable issue lines (capped; see kMaxFindings). */
    std::vector<std::string> findings;

    /** Render as one JSON object (tools/ido_heap --json, CI artifact). */
    std::string to_json() const;
};

class HeapGc
{
  public:
    static constexpr size_t kMaxFindings = 32;
    /** Relocations recorded per journal round (journal block size). */
    static constexpr size_t kJournalEntries = 512;
    /** A chunk is a relocation victim when its live payloads cover at
     *  most this fraction (in percent) of the chunk. */
    static constexpr uint64_t kVictimLivePct = 50;
    /** A block with more link fields than this (a hash shard's bucket
     *  heads) has its fields split across up to kMaxMarkThreads
     *  threads; heaps without one mark serially. */
    static constexpr size_t kSplitLinkFields = 65536;
    static constexpr unsigned kMaxMarkThreads = 4;

    HeapGc(NvHeap& heap, PersistDomain& dom);

    /** Read-only reachability census; never writes the heap. */
    GcStats audit();

    /** Census + reclaim unreachable LIVE blocks through the existing
     *  recover_leaks protocol.  No-op (repair_refused) while any
     *  opaque block is reachable. */
    GcStats repair();

    /** Resolve any interrupted prior compaction, relocate live blocks
     *  out of sparse chunks under the persistent move journal, rewrite
     *  all links/roots, and retire emptied chunks onto the reuse
     *  list.  Also reports the census it marked from. */
    GcStats compact();

    /** Publish a run's results as heap.gc.* metrics (counters set to
     *  the latest census, cumulative action totals added). */
    static void publish(const GcStats& s);

  private:
    /** Everything the mark phase learns about one block. */
    struct BlockInfo
    {
        uint64_t raw;  ///< raw payload offset (header at raw-16)
        uint64_t size; ///< class-rounded payload size
        uint64_t meta;
        bool marked = false;
        bool opaque = false; ///< LIVE with no usable descriptor
        bool pinned = false;
    };

    /** One carved chunk and the index range of its blocks. */
    struct ChunkInfo
    {
        uint64_t off;       ///< chunk header offset
        size_t first_block; ///< index into blocks_ (first_block==last_block
        size_t last_block;  ///<  means the chunk holds no blocks)
    };

    /** One thread's mark state (heap_gc.cpp). */
    struct Marker;

    uint64_t published_off(const BlockInfo& b) const;
    size_t find_block(uint64_t off) const; ///< npos if off hits no block
    /** Descriptor of a block, from the per-run snapshot; nullptr for
     *  untyped or undescribed (opaque) blocks. */
    const TypeDescriptor* descriptor(uint64_t meta) const;

    /** Append every link-field heap offset of a described LIVE block. */
    void collect_link_fields(const BlockInfo& b,
                             std::vector<uint64_t>* out) const;

    void build_index();
    void mark(GcStats* s);
    void census(GcStats* s);
    /** build_index + mark + census, each timed into s. */
    void survey(GcStats* s);
    /** Mark the block a link value v resolves to, or count v dangling. */
    void mark_target(Marker& m, uint64_t v, uint64_t holder,
                     uint64_t field, const char* what, const char* who);
    /** Mark through the link fields of one holder block. */
    void scan_fields(Marker& m, uint64_t holder, const uint64_t* fields,
                     size_t n);
    /** Trace every block on m's work stack; big blocks are deferred. */
    void drain(Marker& m);

    /** Complete an interrupted prior compaction: flip journaled
     *  sources to MOVED, rewrite links, truncate the journal. */
    void resolve_journal(GcStats* s);

    /** Rewrite every stored link and root that targets a journaled
     *  source extent to its copy.  Idempotent. */
    void rewrite_references();

    /** Durably ensure the journal block exists; 0 if arena exhausted. */
    uint64_t ensure_journal();

    /** Unlink every free-list entry that lives inside one of the
     *  victim chunks (sorted chunk offsets); the entries become
     *  recoverable strays until their chunk is zeroed. */
    void purge_free_lists(const std::vector<uint64_t>& victims);

    /** Zero a victim chunk and push it on the retired-chunk list. */
    void retire_chunk(uint64_t chunk_off);

    bool relocate_one(const BlockInfo& b, uint64_t* journal_count);

    NvHeap& heap_;
    PersistDomain& dom_;
    uint64_t journal_off_ = 0; ///< cached HeapState.compact_journal

    std::vector<BlockInfo> blocks_; ///< sorted by raw offset
    std::vector<ChunkInfo> chunks_;
    /** TypeRegistry snapshot taken by build_index (one lock per run,
     *  not one per block), indexed by the header's 7-bit type field. */
    const TypeDescriptor* types_[128] = {};
    /** Mark-run bitmap, one bit per 8 heap bytes below the bump
     *  pointer: set once a link value in that granule resolved to a
     *  LIVE (hence marked) block. */
    std::span<uint64_t> resolved_;
};

} // namespace ido::nvm
