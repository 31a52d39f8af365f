/**
 * @file
 * The persist-ordering verifier (ido-verify's checker half).
 *
 * Replays the cache-line persist-state dataflow (dirty -> flushed ->
 * fenced, at region-boundary granularity) against a PersistPlan and
 * reports every way the plan could lose a store across a crash:
 *
 *   fence-without-flush  a structural hole in a redundancy proof: the
 *                        claimed witness does not provably cover the
 *                        elided store's cache line, so the boundary
 *                        fence orders a flush that never happens;
 *   missing-persist      some execution path reaches a region boundary
 *                        with the elided store's line dirty and no
 *                        covering write-back pending -- reported with
 *                        the concrete crash-frontier path;
 *   unsound-deferral     a boundary the plan claims enters a store-free
 *                        tail although a storing region is reachable
 *                        from it (back edges included), so that store
 *                        would run with the log deactivated.
 *
 * All findings are errors: each is a proof of a crash-consistency bug,
 * not a may-happen warning.  The empty plan always verifies clean; a
 * plan from compute_persist_plan is expected to as well (translation
 * validation -- the optimizer is not trusted, its output is re-proved).
 */
#pragma once

#include <vector>

#include "compiler/cfg.h"
#include "compiler/lint/diagnostic.h"
#include "compiler/persistency/persist_plan.h"
#include "compiler/region_info.h"
#include "compiler/region_partition.h"

namespace ido::compiler::persistency {

std::vector<lint::Diagnostic>
verify_persist_plan(const Function& fn, const Cfg& cfg,
                    const AliasAnalysis& aa,
                    const RegionPartition& part,
                    const std::vector<RegionInfo>& info,
                    const PersistPlan& plan);

} // namespace ido::compiler::persistency
