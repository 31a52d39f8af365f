/**
 * @file
 * The currency of ido-verify: a FASE's persist plan, the claims the
 * compiler makes about where the runtime may deactivate the log.
 *
 * The iDO boundary protocol persists every heap line a region stored
 * (tracked at run time, each distinct line written back once) before
 * fence 1, then publishes recovery_pc behind fence 2.  Past a FASE's
 * last store the runtime sets recovery_pc inactive and runs the rest
 * unlogged (ido_runtime.h).  A PersistPlan records the region
 * boundaries where the compiler claims that is safe -- the boundary
 * enters a store-free tail -- so an independent verifier
 * (persist_verify.h) can re-prove each claim over the region CFG.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "compiler/cfg.h"
#include "compiler/ir.h"
#include "compiler/region_info.h"
#include "compiler/region_partition.h"

namespace ido::compiler::persistency {

/** A persist plan for one FASE.  The empty plan is trivially sound. */
struct PersistPlan
{
    /**
     * Region indices r such that the boundary *entering* r enters a
     * store-free tail: no region reachable from r (r included) stores,
     * so the runtime may set recovery_pc inactive there and run the
     * rest unlogged.  The static mirror of the runtime's deactivation
     * test, which scans indices j >= r and panics if a storing region
     * still runs.
     */
    std::vector<uint32_t> deferrable_boundaries;
};

/** Claim every boundary from which no storing region is reachable. */
PersistPlan compute_persist_plan(const Function& fn, const Cfg& cfg,
                                 const RegionPartition& part,
                                 const std::vector<RegionInfo>& info);

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
