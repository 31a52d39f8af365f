#include "compiler/persistency/persist_verify.h"

namespace ido::compiler::persistency {

namespace {

using lint::Diagnostic;
using lint::Severity;
using lint::TraceStep;

void
check_deferrals(const Function& fn, const Cfg& cfg,
                const RegionPartition& part,
                const std::vector<RegionInfo>& info,
                const PersistPlan& plan, std::vector<Diagnostic>& out)
{
    const uint32_t n = static_cast<uint32_t>(info.size());
    for (const uint32_t r : plan.deferrable_boundaries) {
        if (r == 0 || r >= n) {
            out.push_back(lint::make_diag(
                "unsound-deferral", Severity::kError, fn.name(),
                InstrRef{0, 0},
                "deferral claim names region %u (valid: 1..%u)", r,
                n - 1));
            continue;
        }
        const std::vector<bool> reach = reachable_regions(fn, cfg, part, r);
        for (uint32_t j = 0; j < n; ++j) {
            if (!reach[j] || info[j].num_stores == 0)
                continue;
            // Anchor at the first store of the offending region.
            InstrRef bad = info[j].start;
            bool found = false;
            for (uint32_t b = 0; !found && b < fn.num_blocks(); ++b) {
                for (uint32_t i = 0;
                     i < fn.block(b).instrs.size(); ++i) {
                    const InstrRef pos{b, i};
                    if (fn.block(b).instrs[i].is_store()
                        && part.region_of(pos) == j) {
                        bad = pos;
                        found = true;
                        break;
                    }
                }
            }
            Diagnostic d = lint::make_diag(
                "unsound-deferral", Severity::kError, fn.name(), bad,
                "log deactivated entering region %u, but region %u "
                "is reachable from it and stores: the store would run "
                "unlogged, torn from the FASE's earlier stores",
                r, j);
            d.trace.push_back(TraceStep{
                part.starts()[r],
                "boundary the plan claims enters a store-free tail"});
            d.trace.push_back(TraceStep{
                bad, "NVM store in a claimed store-free tail"});
            out.push_back(std::move(d));
            break; // one counterexample per bad claim
        }
    }
}

} // namespace

std::vector<Diagnostic>
verify_persist_plan(const Function& fn, const Cfg& cfg,
                    const RegionPartition& part,
                    const std::vector<RegionInfo>& info,
                    const PersistPlan& plan)
{
    std::vector<Diagnostic> out;
    check_deferrals(fn, cfg, part, info, plan, out);
    return out;
}

} // namespace ido::compiler::persistency
