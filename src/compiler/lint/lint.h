/**
 * @file
 * ido-lint: a static crash-consistency and lock-discipline analyzer
 * over the FASE IR.
 *
 * The compiler pipeline proves one invariant (region idempotence,
 * idempotence_verifier); the lint layer proves the rest of what a FASE
 * must satisfy to be crash-consistent and race-free at runtime.  Every
 * check is a LintPass over the existing analysis substrate (Cfg,
 * Liveness, AliasAnalysis, RegionPartition, RegionInfo) and reports
 * Diagnostics; a registry runs them all over one function or over a
 * corpus of FASEs (the cross-FASE race check needs the whole set).
 *
 * Built-in checks:
 *   lock-discipline   unlock-without-acquire, double-acquire, leaks
 *   unprotected-store store to pre-existing NVM with no lock held
 *   nv-lifetime       use-after-free / double-free of NV allocations
 *   cross-fase-race   may-aliasing accesses guarded by disjoint locks
 *   region-pressure   regions whose live sets overflow the log ABI
 *   dead-boundary     cuts that neither separate an antidependence
 *                     pair nor follow a mandatory placement rule
 *   persist-ordering  region-CFG reachability: validates each claimed
 *                     log deactivation at a store-free tail
 *                     (unsound-deferral)
 */
#pragma once

#include <memory>
#include <vector>

#include "compiler/alias_analysis.h"
#include "compiler/cfg.h"
#include "compiler/dataflow.h"
#include "compiler/lint/diagnostic.h"
#include "compiler/region_info.h"
#include "compiler/region_partition.h"

namespace ido::compiler::lint {

/** Borrowed views of one function's analysis pipeline. */
struct LintContext
{
    const Function& fn;
    const Cfg& cfg;
    const AliasAnalysis& aa;
    const Liveness& live;
    const RegionPartition& part;
    const std::vector<RegionInfo>& info;
};

class LintPass
{
  public:
    enum class Scope : uint8_t
    {
        kFunction, ///< runs on each FASE independently
        kCorpus,   ///< runs once over the whole FASE set
    };

    virtual ~LintPass() = default;

    virtual const char* id() const = 0;
    virtual const char* summary() const = 0;
    virtual Scope scope() const { return Scope::kFunction; }

    virtual void
    run_function(const LintContext& ctx,
                 std::vector<Diagnostic>& out) const
    {
        (void)ctx;
        (void)out;
    }

    virtual void
    run_corpus(const std::vector<const LintContext*>& ctxs,
               std::vector<Diagnostic>& out) const
    {
        (void)ctxs;
        (void)out;
    }
};

class LintRegistry
{
  public:
    /** The registry holding all seven built-in checks. */
    static const LintRegistry& builtin();

    void add(std::unique_ptr<LintPass> pass);

    const std::vector<std::unique_ptr<LintPass>>& passes() const
    {
        return passes_;
    }

    /** Run all function-scope passes over one FASE. */
    std::vector<Diagnostic> lint_function(const LintContext& ctx) const;

    /**
     * Run function-scope passes on each FASE plus corpus-scope passes
     * over the whole set.
     */
    std::vector<Diagnostic>
    lint_corpus(const std::vector<const LintContext*>& ctxs) const;

  private:
    std::vector<std::unique_ptr<LintPass>> passes_;
};

/**
 * Owns the full analysis pipeline for one function so callers (tests,
 * the CLI driver) can lint IR without going through CompiledFase.
 * Optional forced cuts are injected into the partitioner (used to
 * exercise the dead-boundary check and for region-size experiments).
 */
struct LintUnit
{
    explicit LintUnit(Function f, std::vector<InstrRef> forced_cuts = {});

    LintContext ctx() const { return {fn, cfg, aa, live, part, info}; }

    Function fn;
    Cfg cfg;
    AliasAnalysis aa;
    Liveness live;
    RegionPartition part;
    std::vector<RegionInfo> info;
};

// Built-in check factories (registered by LintRegistry::builtin()).
std::unique_ptr<LintPass> make_lock_discipline_check();
std::unique_ptr<LintPass> make_unprotected_store_check();
std::unique_ptr<LintPass> make_nv_lifetime_check();
std::unique_ptr<LintPass> make_cross_fase_race_check();
std::unique_ptr<LintPass> make_region_pressure_check();
std::unique_ptr<LintPass> make_dead_boundary_check();
std::unique_ptr<LintPass> make_persist_ordering_check();

} // namespace ido::compiler::lint
