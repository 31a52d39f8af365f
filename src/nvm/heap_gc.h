/**
 * @file
 * HeapGc: the root-reachability audit of NvHeap v2.
 *
 * The typed root layer (root_registry.h) made reachability decidable
 * from metadata alone: every durable root declares what it holds,
 * every block header carries a 7-bit TypeId, and every described type
 * publishes its link-field map.  audit() consumes that metadata: it
 * marks from RootRegistry::block_roots, traces through the
 * TypeDescriptors, and reports every LIVE block no root can reach (a
 * leak), every link field whose target is not a block (dangling), and
 * every opaque (untyped / undescribed) survivor.  It never writes the
 * heap.  It is the leak oracle of the tests, the fuzzer, the repo
 * benchmark and `ido_heap audit`; nothing reclaims through it, since
 * iDO recovery leaks nothing and NvHeap::recover_leaks relinks what a
 * crash strands mid-free.
 *
 * Concurrency contract: quiescent callers only (no mutator threads
 * between construction and the call's return).
 */
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nvm/nv_heap.h"

namespace ido::nvm {

/** One audit's census and findings, for tools and tests. */
struct GcStats
{
    // Census.
    uint64_t blocks = 0;        ///< all walked blocks
    uint64_t bytes = 0;         ///< header+payload bytes walked
    uint64_t live_blocks = 0;
    uint64_t live_bytes = 0;
    uint64_t free_blocks = 0;   ///< FREE or FREEING
    uint64_t chunks = 0;        ///< chunks currently carved from the arena

    // Reachability findings.
    uint64_t leaked_blocks = 0; ///< LIVE but unreachable from any root
    uint64_t leaked_bytes = 0;
    uint64_t dangling_links = 0; ///< link fields targeting no block
    uint64_t opaque_live = 0;    ///< LIVE untyped/undescribed blocks

    // Phase wall times; the same stamps feed heap.gc.last_*_us.
    uint64_t index_ns = 0;   ///< block/chunk index walk
    uint64_t mark_ns = 0;    ///< reachability mark from the roots
    uint64_t census_ns = 0;  ///< per-block classification
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
    /** A block with more link fields than this (a hash shard's bucket
     *  heads) has its fields split across up to kMaxMarkThreads
     *  threads; heaps without one mark serially. */
    static constexpr size_t kSplitLinkFields = 65536;
    static constexpr unsigned kMaxMarkThreads = 4;

    /** The domain is not read: the audit reads the heap image as is. */
    HeapGc(NvHeap& heap, PersistDomain& dom);

    /** Read-only reachability census; never writes the heap. */
    GcStats audit();

    /** Publish an audit's results as heap.gc.* metrics. */
    static void publish(const GcStats& s);

  private:
    /** Everything the mark phase learns about one block. */
    struct BlockInfo
    {
        uint64_t raw;  ///< raw payload offset (header at raw-16)
        uint64_t size; ///< class-rounded payload size
        uint64_t meta;
        bool marked = false;
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
    /** Mark the block a link value v resolves to, or count v dangling. */
    void mark_target(Marker& m, uint64_t v, uint64_t holder,
                     uint64_t field, const char* what, const char* who);
    /** Mark through the link fields of one holder block. */
    void scan_fields(Marker& m, uint64_t holder, const uint64_t* fields,
                     size_t n);
    /** Trace every block on m's work stack; big blocks are deferred. */
    void drain(Marker& m);

    NvHeap& heap_;

    std::vector<BlockInfo> blocks_; ///< sorted by raw offset
    uint64_t chunks_ = 0;           ///< chunks the index walked
    /** TypeRegistry snapshot taken by build_index (one lock per run,
     *  not one per block), indexed by the header's 7-bit type field. */
    const TypeDescriptor* types_[128] = {};
    /** Mark-run bitmap, one bit per 8 heap bytes below the bump
     *  pointer: set once a link value in that granule resolved to a
     *  LIVE (hence marked) block. */
    std::span<uint64_t> resolved_;
};

} // namespace ido::nvm
