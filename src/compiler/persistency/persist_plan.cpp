#include "compiler/persistency/persist_plan.h"

namespace ido::compiler::persistency {

PersistPlan
compute_persist_plan(const Function& fn, const Cfg& cfg,
                     const RegionPartition& part,
                     const std::vector<RegionInfo>& info)
{
    PersistPlan plan;
    // Back edges included: a loop latch reaching a storing header is
    // not a store-free tail.
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
