/**
 * @file
 * The proof-driven flush-elision pass (ido-verify's optimizer half).
 *
 * Walks every cut-free straight-line segment of each region and groups
 * the stores whose footprints provably share one cache line; all but
 * one member of each group may skip the runtime's per-store pending
 * write-back, because the surviving witness's range already covers the
 * line when the boundary protocol flushes it.  Where InCLL-style
 * co-location only holds under stronger placement, the pass directs
 * the interpreter to line-align the allocation site (objects up to one
 * line), turning a maybe-same-line into a provable one.  Also derives
 * the region boundaries that enter a store-free tail (no storing
 * region reachable), where the runtime may deactivate the log.
 *
 * The pass only *claims*; persist_verify.h independently checks every
 * claim against the persist-state dataflow, and CompiledFase refuses
 * to build a program whose plan fails verification.
 */
#pragma once

#include "compiler/cfg.h"
#include "compiler/persistency/persist_plan.h"
#include "compiler/region_info.h"
#include "compiler/region_partition.h"

namespace ido::compiler::persistency {

PersistPlan compute_persist_plan(const Function& fn, const Cfg& cfg,
                                 const AliasAnalysis& aa,
                                 const RegionPartition& part,
                                 const std::vector<RegionInfo>& info);

} // namespace ido::compiler::persistency
