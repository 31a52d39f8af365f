#include "compiler/persistency/persist_verify.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <optional>

namespace ido::compiler::persistency {

namespace {

using lint::Diagnostic;
using lint::Severity;
using lint::TraceStep;

bool
valid_pos(const Function& fn, InstrRef pos)
{
    return pos.block < fn.num_blocks()
           && pos.index < fn.block(pos.block).instrs.size();
}

const Instr&
at(const Function& fn, InstrRef pos)
{
    return fn.block(pos.block).instrs[pos.index];
}

/** Positions control may reach after executing the one at `pos`. */
std::vector<InstrRef>
successors(const Function& fn, InstrRef pos)
{
    const Instr& ins = at(fn, pos);
    switch (ins.op) {
      case Opcode::kRet:
        return {};
      case Opcode::kBr:
        return {InstrRef{static_cast<uint32_t>(ins.imm), 0}};
      case Opcode::kCondBr:
        return {InstrRef{static_cast<uint32_t>(ins.imm), 0},
                InstrRef{ins.target2, 0}};
      default:
        return {InstrRef{pos.block, pos.index + 1}};
    }
}

/**
 * Does executing `pos` push a pending write-back that covers the
 * elided footprint's cache line?  Only non-elided stores push; the
 * co-location proof is the same relation the optimizer claimed.
 */
bool
covers(const Function& fn, const AliasAnalysis& aa,
       const PersistPlan& plan, const LineFootprint& target,
       uint32_t align, InstrRef pos)
{
    const Instr& ins = at(fn, pos);
    if (!ins.is_store() || plan.store_elided(pos))
        return false;
    const LineFootprint fp = LineFootprint::of_store(aa, ins);
    return fp.known && provably_same_line(target, fp, align);
}

std::string
pos_str(InstrRef pos)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "bb%u:%u", pos.block, pos.index);
    return buf;
}

/** Reconstruct the BFS parent chain from `from` back to the root. */
std::vector<InstrRef>
chain_of(const std::map<InstrRef, InstrRef>& parent, InstrRef from,
         InstrRef root)
{
    std::vector<InstrRef> path{from};
    while (!(from == root)) {
        from = parent.at(from);
        path.push_back(from);
    }
    std::reverse(path.begin(), path.end());
    return path;
}

/**
 * BFS over positions that never executes a covering store.  Two modes:
 *  - prefix: find a cover-free path from the region entry to the
 *    elided store (stays inside the region);
 *  - suffix: find a cover-free path from just after the elided store
 *    to an instance end (a region start, or past kRet).
 * Returns the path, or nullopt if every such path executes a cover.
 */
std::optional<std::vector<InstrRef>>
find_uncovered_path(const Function& fn, const AliasAnalysis& aa,
                    const RegionPartition& part, const PersistPlan& plan,
                    const LineFootprint& target, uint32_t align,
                    InstrRef root, InstrRef store, bool prefix)
{
    std::deque<InstrRef> queue{root};
    std::map<InstrRef, InstrRef> parent;
    uint32_t region = 0;
    while (!queue.empty()) {
        const InstrRef pos = queue.front();
        queue.pop_front();
        if (prefix && pos == store)
            return chain_of(parent, pos, root);
        if (!prefix
            && (part.is_region_start(pos, &region)
                || at(fn, pos).op == Opcode::kRet))
            return chain_of(parent, pos, root);
        if (covers(fn, aa, plan, target, align, pos))
            continue; // this path is safe; stop extending it
        for (const InstrRef& succ : successors(fn, pos)) {
            // In prefix mode a region start means the instance ended
            // without reaching the store: not a counterexample path.
            if (prefix && part.is_region_start(succ, &region))
                continue;
            if (parent.count(succ))
                continue;
            parent.emplace(succ, pos);
            queue.push_back(succ);
        }
    }
    return std::nullopt;
}

void
describe_path(const Function& fn, const std::vector<InstrRef>& path,
              const char* first_note, const char* last_note,
              std::vector<TraceStep>& out)
{
    for (size_t i = 0; i < path.size(); ++i) {
        TraceStep step;
        step.loc = path[i];
        if (i == 0 && first_note != nullptr)
            step.note = first_note;
        else if (i + 1 == path.size() && last_note != nullptr)
            step.note = last_note;
        else
            step.note = opcode_name(at(fn, path[i]).op);
        out.push_back(std::move(step));
    }
}

void
check_aligned_sites(const Function& fn, const PersistPlan& plan,
                    std::vector<Diagnostic>& out)
{
    for (const InstrRef& site : plan.aligned_alloc_sites) {
        if (valid_pos(fn, site) && at(fn, site).op == Opcode::kAlloc)
            continue;
        out.push_back(lint::make_diag(
            "fence-without-flush", Severity::kError, fn.name(), site,
            "plan line-aligns %s, which is not an allocation site",
            pos_str(site).c_str()));
    }
}

void
check_elision(const Function& fn, const AliasAnalysis& aa,
              const RegionPartition& part, const PersistPlan& plan,
              const ElisionProof& e, std::vector<Diagnostic>& out)
{
    // --- structural soundness of the proof itself --------------------
    if (!valid_pos(fn, e.store) || !at(fn, e.store).is_store()) {
        out.push_back(lint::make_diag(
            "fence-without-flush", Severity::kError, fn.name(), e.store,
            "%s elision names a position that is not a store",
            proof_kind_name(e.kind)));
        return;
    }
    if (!valid_pos(fn, e.witness) || !at(fn, e.witness).is_store()
        || e.witness == e.store || plan.store_elided(e.witness)) {
        out.push_back(lint::make_diag(
            "fence-without-flush", Severity::kError, fn.name(), e.store,
            "%s elision of %s has no flushing witness (%s is elided, "
            "absent, or not a store)",
            proof_kind_name(e.kind), pos_str(e.store).c_str(),
            pos_str(e.witness).c_str()));
        return;
    }
    const LineFootprint target =
        LineFootprint::of_store(aa, at(fn, e.store));
    const LineFootprint wfp =
        LineFootprint::of_store(aa, at(fn, e.witness));
    const uint32_t align = base_alignment(fn, target.prov, plan);
    if (!target.known || !wfp.known
        || !provably_same_line(target, wfp, align)) {
        out.push_back(lint::make_diag(
            "fence-without-flush", Severity::kError, fn.name(), e.store,
            "%s elision of %s: witness %s does not provably share its "
            "cache line (alignment guarantee %u)",
            proof_kind_name(e.kind), pos_str(e.store).c_str(),
            pos_str(e.witness).c_str(), align));
        return;
    }

    // --- path coverage: every instance executing the store must also
    //     execute a covering non-elided store ------------------------
    const uint32_t region = part.region_of(e.store);
    const InstrRef entry = part.starts()[region];
    const auto prefix = find_uncovered_path(
        fn, aa, part, plan, target, align, entry, e.store, true);
    if (!prefix.has_value())
        return; // every path into the store is already covered
    // A store is never a terminator, so it has one successor.
    const InstrRef after{e.store.block, e.store.index + 1};
    uint32_t r2 = 0;
    std::optional<std::vector<InstrRef>> suffix;
    if (part.is_region_start(after, &r2)) {
        suffix = std::vector<InstrRef>{}; // boundary right after store
    } else {
        suffix = find_uncovered_path(fn, aa, part, plan, target, align,
                                     after, e.store, false);
    }
    if (!suffix.has_value())
        return; // every path out of the store is covered

    Diagnostic d = lint::make_diag(
        "missing-persist", Severity::kError, fn.name(), e.store,
        "store %s elided (%s via witness %s) but some instance reaches "
        "its boundary without a covering write-back: the line is dirty "
        "at the crash frontier",
        pos_str(e.store).c_str(), proof_kind_name(e.kind),
        pos_str(e.witness).c_str());
    describe_path(fn, *prefix, "region entry (recovery_pc points here)",
                  "store executes; pending write-back elided",
                  d.trace);
    if (suffix->empty()) {
        d.trace.back().note =
            "store executes; instance ends with no covering "
            "write-back pending -- crash at the boundary loses it";
    } else {
        describe_path(fn, *suffix, nullptr,
                      "region boundary: flush set omits the line; a "
                      "crash after fence 1 loses the store",
                      d.trace);
    }
    out.push_back(std::move(d));
}

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
                    const AliasAnalysis& aa,
                    const RegionPartition& part,
                    const std::vector<RegionInfo>& info,
                    const PersistPlan& plan)
{
    std::vector<Diagnostic> out;
    check_aligned_sites(fn, plan, out);
    for (const ElisionProof& e : plan.elisions)
        check_elision(fn, aa, part, plan, e, out);
    check_deferrals(fn, cfg, part, info, plan, out);
    return out;
}

} // namespace ido::compiler::persistency
