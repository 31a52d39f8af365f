/**
 * @file
 * The persist-ordering verifier (ido-verify's checker half).
 *
 * Re-proves every deferral claim of a PersistPlan over the region CFG
 * and reports each one that would let a store run unlogged:
 *
 *   unsound-deferral  a boundary the plan claims enters a store-free
 *                     tail although a storing region is reachable
 *                     from it (back edges included), or the claim
 *                     names no valid boundary at all.
 *
 * All findings are errors: each is a proof of a crash-consistency bug,
 * not a may-happen warning.  The empty plan always verifies clean; a
 * plan from compute_persist_plan is expected to as well (translation
 * validation -- the planner is not trusted, its output is re-proved).
 *
 * The boundary's line dedup (each distinct line written back once
 * before fence 1) is not a claim and needs no proof here: it only
 * skips a line the same boundary has already written back.
 */
#pragma once

#include <vector>

#include "compiler/lint/diagnostic.h"
#include "compiler/persistency/persist_plan.h"

namespace ido::compiler::persistency {

std::vector<lint::Diagnostic>
verify_persist_plan(const Function& fn, const Cfg& cfg,
                    const RegionPartition& part,
                    const std::vector<RegionInfo>& info,
                    const PersistPlan& plan);

} // namespace ido::compiler::persistency
