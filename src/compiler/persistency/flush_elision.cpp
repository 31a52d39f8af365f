#include "compiler/persistency/flush_elision.h"

#include <cstddef>

namespace ido::compiler::persistency {

namespace {

/** A store inside one cut-free segment, with its abstract footprint. */
struct StoreRec
{
    InstrRef pos;
    LineFootprint fp;
};

/**
 * Split every block into maximal runs of instructions with no region
 * start strictly inside, and collect the known-footprint stores of
 * each run.  A region start at instruction i begins a new segment at
 * i: stores on opposite sides of a cut reach different boundary
 * flushes and must never cover for each other.
 */
std::vector<std::vector<StoreRec>>
collect_segments(const Function& fn, const AliasAnalysis& aa,
                 const RegionPartition& part)
{
    std::vector<std::vector<StoreRec>> segments;
    for (uint32_t b = 0; b < fn.num_blocks(); ++b) {
        const BasicBlock& bb = fn.block(b);
        std::vector<StoreRec> cur;
        for (uint32_t i = 0; i < bb.instrs.size(); ++i) {
            uint32_t region = 0;
            if (i > 0 && part.is_region_start(InstrRef{b, i}, &region)) {
                if (cur.size() > 1)
                    segments.push_back(std::move(cur));
                cur.clear();
            }
            const Instr& ins = bb.instrs[i];
            if (!ins.is_store())
                continue;
            const LineFootprint fp = LineFootprint::of_store(aa, ins);
            if (fp.known)
                cur.push_back(StoreRec{InstrRef{b, i}, fp});
        }
        if (cur.size() > 1)
            segments.push_back(std::move(cur));
    }
    return segments;
}

/**
 * Greedy same-line grouping: each store joins the first group whose
 * witness (the group's program-order-first store) provably shares a
 * cache line with it.  Every member is pairwise same-line with the
 * witness, which is exactly the relation the verifier re-checks.
 * Returns the number of elisions (members beyond each witness).
 * When `out` is non-null, also emits the proofs.
 */
size_t
group_segment(const Function& fn, const std::vector<StoreRec>& seg,
              const PersistPlan& plan, std::vector<ElisionProof>* out)
{
    size_t elided = 0;
    std::vector<const StoreRec*> witnesses;
    for (const StoreRec& s : seg) {
        const uint32_t g = base_alignment(fn, s.fp.prov, plan);
        const StoreRec* home = nullptr;
        for (const StoreRec* w : witnesses) {
            if (provably_same_line(w->fp, s.fp, g)) {
                home = w;
                break;
            }
        }
        if (home == nullptr) {
            witnesses.push_back(&s);
            continue;
        }
        ++elided;
        if (out != nullptr) {
            ElisionProof e;
            e.kind = (home->fp.lo == s.fp.lo && home->fp.hi == s.fp.hi)
                         ? ProofKind::kAlreadyPersisted
                         : ProofKind::kSameLineCoLocation;
            e.store = s.pos;
            e.witness = home->pos;
            out->push_back(e);
        }
    }
    return elided;
}

/**
 * InCLL-style placement: a sub-line allocation only guarantees 16-byte
 * placement, so stores 8 and 24 bytes in may or may not share a line.
 * Serving the site cache-line-aligned removes the ambiguity.  Promote
 * exactly the sites where that alignment lets strictly more stores
 * group than their natural placement does.
 */
void
promote_alloc_sites(const Function& fn,
                    const std::vector<std::vector<StoreRec>>& segments,
                    PersistPlan& plan)
{
    const std::vector<InstrRef> sites = alloc_site_positions(fn);
    for (uint32_t id = 0; id < sites.size(); ++id) {
        const InstrRef site = sites[id];
        const Instr& ins = fn.block(site.block).instrs[site.index];
        if (ins.imm >= kCacheLineBytes)
            continue; // already line-aligned by the allocator contract
        PersistPlan aligned = plan;
        aligned.aligned_alloc_sites.push_back(site);
        size_t natural = 0;
        size_t promoted = 0;
        for (const std::vector<StoreRec>& seg : segments) {
            std::vector<StoreRec> mine;
            for (const StoreRec& s : seg) {
                if (s.fp.prov.base == Provenance::Base::kAlloc
                    && s.fp.prov.id == id)
                    mine.push_back(s);
            }
            if (mine.size() < 2)
                continue;
            natural += group_segment(fn, mine, plan, nullptr);
            promoted += group_segment(fn, mine, aligned, nullptr);
        }
        if (promoted > natural)
            plan.aligned_alloc_sites.push_back(site);
    }
}

} // namespace

PersistPlan
compute_persist_plan(const Function& fn, const Cfg& cfg,
                     const AliasAnalysis& aa,
                     const RegionPartition& part,
                     const std::vector<RegionInfo>& info)
{
    PersistPlan plan;

    const std::vector<std::vector<StoreRec>> segments =
        collect_segments(fn, aa, part);
    promote_alloc_sites(fn, segments, plan);
    for (const std::vector<StoreRec>& seg : segments)
        group_segment(fn, seg, plan, &plan.elisions);

    // Boundaries entering a store-free tail: no storing region is
    // reachable, back edges included.
    for (uint32_t r = 1; r < info.size(); ++r) {
        const std::vector<bool> reach = reachable_regions(fn, cfg, part, r);
        bool store_free = true;
        for (uint32_t j = 0; j < info.size(); ++j) {
            if (reach[j] && info[j].num_stores > 0)
                store_free = false;
        }
        if (store_free)
            plan.deferrable_boundaries.push_back(r);
    }
    return plan;
}

} // namespace ido::compiler::persistency
