#include "compiler/persistency/persist_plan.h"

#include <algorithm>

namespace ido::compiler::persistency {

const char*
proof_kind_name(ProofKind k)
{
    switch (k) {
      case ProofKind::kSameLineCoLocation:
        return "same-line-co-location";
      case ProofKind::kAlreadyPersisted:
        return "already-persisted";
      case ProofKind::kDeferredTailFence:
        return "deferred-tail-fence";
    }
    return "?";
}

LineFootprint
LineFootprint::of_store(const AliasAnalysis& aa, const Instr& ins)
{
    LineFootprint fp;
    if (!ins.is_store())
        return fp;
    const MemRef ref = aa.mem_ref(ins);
    fp.prov = ref.prov;
    if (ref.prov.base != Provenance::Base::kUnknown
        && ref.prov.offset_known) {
        fp.lo = ref.prov.offset + ref.disp;
        fp.hi = fp.lo + ref.size;
        fp.known = true;
    }
    return fp;
}

bool
PersistPlan::store_elided(InstrRef pos) const
{
    for (const ElisionProof& e : elisions) {
        if (e.store == pos)
            return true;
    }
    return false;
}

bool
PersistPlan::alloc_aligned(InstrRef pos) const
{
    for (const InstrRef& s : aligned_alloc_sites) {
        if (s == pos)
            return true;
    }
    return false;
}

uint32_t
base_alignment(const Function& fn, const Provenance& prov,
               const PersistPlan& plan)
{
    if (prov.base != Provenance::Base::kAlloc)
        return 0;
    const std::vector<InstrRef> sites = alloc_site_positions(fn);
    if (prov.id >= sites.size())
        return 0;
    const InstrRef site = sites[prov.id];
    const Instr& ins = fn.block(site.block).instrs[site.index];
    if (ins.imm >= kCacheLineBytes || plan.alloc_aligned(site))
        return static_cast<uint32_t>(kCacheLineBytes);
    return 16; // NvHeap::alloc payload alignment
}

bool
provably_same_line(const LineFootprint& a, const LineFootprint& b,
                   uint32_t align)
{
    if (!a.known || !b.known || !a.prov.same_base(b.prov))
        return false;
    if (a.lo == b.lo && a.hi == b.hi)
        return true; // identical bytes dirty identical lines
    const int64_t g = std::min<int64_t>(align, kCacheLineBytes);
    if (g < 2)
        return false;
    const int64_t lo = std::min(a.lo, b.lo);
    const int64_t hi = std::max(a.hi, b.hi);
    if (lo < 0)
        return false;
    return lo / g == (hi - 1) / g;
}

std::vector<InstrRef>
alloc_site_positions(const Function& fn)
{
    // Same block-major order as AliasAnalysis assigns site ids.
    std::vector<InstrRef> sites;
    for (uint32_t b = 0; b < fn.num_blocks(); ++b) {
        const BasicBlock& bb = fn.block(b);
        for (uint32_t i = 0; i < bb.instrs.size(); ++i) {
            if (bb.instrs[i].op == Opcode::kAlloc)
                sites.push_back(InstrRef{b, i});
        }
    }
    return sites;
}

std::vector<bool>
reachable_regions(const Function& fn, const Cfg& cfg,
                  const RegionPartition& part, uint32_t from)
{
    const uint32_t n = part.num_regions();
    std::vector<std::vector<uint32_t>> succs(n);
    for (uint32_t b = 0; b < fn.num_blocks(); ++b) {
        uint32_t cur = part.block_entry_region(b);
        for (uint32_t i = 1; i < fn.block(b).instrs.size(); ++i) {
            const uint32_t r = part.region_of(InstrRef{b, i});
            if (r != cur)
                succs[cur].push_back(r);
            cur = r;
        }
        for (const uint32_t s : cfg.successors(b))
            succs[cur].push_back(part.block_entry_region(s));
    }
    std::vector<bool> seen(n, false);
    std::vector<uint32_t> work{from};
    seen[from] = true;
    while (!work.empty()) {
        const uint32_t r = work.back();
        work.pop_back();
        for (const uint32_t s : succs[r]) {
            if (!seen[s]) {
                seen[s] = true;
                work.push_back(s);
            }
        }
    }
    return seen;
}

} // namespace ido::compiler::persistency
