/**
 * @file
 * The currency of ido-verify: cache-line persist plans and their
 * machine-checkable redundancy proofs.
 *
 * The iDO boundary protocol persists every heap line a region stored
 * (tracked at run time as pending write-back ranges) before fence 1,
 * then publishes recovery_pc behind fence 2.  At cache-line
 * granularity many of those write-backs are redundant: two stores of
 * one region that provably land on the same line need only one
 * pending range, and InCLL-style placement (Cohen et al.) can *make*
 * them land on one line by aligning the allocation they target.  A
 * PersistPlan records exactly which per-store write-backs the
 * compiler elides and why, plus which region boundaries enter a
 * store-free tail (where ido_runtime.h deactivates the log), so an
 * independent verifier (persist_verify.h) can replay the persist-state
 * dataflow and confirm no crash frontier ever observes an elided
 * store's line dirty after its covering fence.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/cacheline.h"
#include "compiler/alias_analysis.h"
#include "compiler/cfg.h"
#include "compiler/ir.h"
#include "compiler/region_partition.h"

namespace ido::compiler::persistency {

/** Abstract store footprint: base object + known byte interval. */
struct LineFootprint
{
    Provenance prov;  ///< base object (arg / alloc site / absolute)
    int64_t lo = 0;   ///< first byte, relative to the object start
    int64_t hi = 0;   ///< one past the last byte
    bool known = false;

    /** Footprint of a store instruction (known iff base+disp resolve). */
    static LineFootprint of_store(const AliasAnalysis& aa,
                                  const Instr& ins);
};

enum class ProofKind : uint8_t
{
    /** Distinct words of one provable cache line (InCLL co-location). */
    kSameLineCoLocation,
    /** The exact same word is stored again in the same region. */
    kAlreadyPersisted,
    /** Boundary enters a store-free tail: no storing region is
     *  reachable, so the log may deactivate there. */
    kDeferredTailFence,
};

const char* proof_kind_name(ProofKind k);

/** One elided per-store write-back and its justification. */
struct ElisionProof
{
    ProofKind kind = ProofKind::kSameLineCoLocation;
    InstrRef store;   ///< the store whose pending range is dropped
    InstrRef witness; ///< kept store whose range covers the same line
};

/**
 * A persist plan for one FASE: what the compiler may skip, and the
 * placement directives that make the proofs hold.  The empty plan is
 * trivially sound (nothing elided, nothing deferred).
 */
struct PersistPlan
{
    /**
     * kAlloc sites the interpreter must serve cache-line-aligned so
     * the same-line proofs against them hold (only sites whose object
     * fits in one line are eligible).
     */
    std::vector<InstrRef> aligned_alloc_sites;

    /** Stores whose boundary write-back is provably redundant. */
    std::vector<ElisionProof> elisions;

    /**
     * Region indices r such that the boundary *entering* r enters a
     * store-free tail: no region reachable from r (r included) stores,
     * so the runtime may set recovery_pc inactive there and run the
     * rest unlogged.  The static mirror of the runtime's deactivation
     * test, which scans indices j >= r and panics if a storing region
     * still runs.
     */
    std::vector<uint32_t> deferrable_boundaries;

    bool store_elided(InstrRef pos) const;
    bool alloc_aligned(InstrRef pos) const;
};

/**
 * Guaranteed alignment (bytes) of the object a provenance names, given
 * the plan's placement directives: 64 for line-sized or plan-aligned
 * allocations, 16 for other allocations (the NvHeap::alloc contract),
 * 0 (no guarantee) for arguments and everything else.
 */
uint32_t base_alignment(const Function& fn, const Provenance& prov,
                        const PersistPlan& plan);

/**
 * Are two footprints on the same base provably within one cache line
 * under an alignment guarantee?  Line boundaries inside an
 * `align`-aligned object fall only at offsets that are multiples of
 * min(align, 64), so the union of the two intervals must fit inside
 * one such window.  With no alignment guarantee (align < 2) only the
 * exact same interval qualifies: identical bytes dirty identical
 * lines wherever they land.
 */
bool provably_same_line(const LineFootprint& a, const LineFootprint& b,
                        uint32_t align);

/** InstrRef of each kAlloc site, indexed by AliasAnalysis site id. */
std::vector<InstrRef> alloc_site_positions(const Function& fn);

/**
 * Regions reachable from region `from`, itself included, over the
 * region CFG: a cut inside a block leads to the next region, and a
 * block's last region leads to each successor block's entry region.
 * Back edges count, so a loop latch reaches its (lower-numbered)
 * header.
 */
std::vector<bool> reachable_regions(const Function& fn, const Cfg& cfg,
                                    const RegionPartition& part,
                                    uint32_t from);

} // namespace ido::compiler::persistency
