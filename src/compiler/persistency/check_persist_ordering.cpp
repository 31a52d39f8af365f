/**
 * @file
 * The persist-ordering lint check: translation validation of the
 * planner's deferral claims.
 *
 * Runs compute_persist_plan over the FASE and then re-proves every
 * boundary it claims enters a store-free tail with
 * verify_persist_plan.  A sound pipeline produces no diagnostics at
 * all; any finding is an "unsound-deferral" error naming the store
 * that would run unlogged.  Hand-crafted unsound plans are exercised
 * directly through verify_persist_plan in tests; this pass is the
 * always-on gate over what the compiler actually ships.
 */
#include "compiler/lint/lint.h"
#include "compiler/persistency/persist_verify.h"

namespace ido::compiler::lint {

namespace {

class PersistOrderingCheck final : public LintPass
{
  public:
    const char*
    id() const override
    {
        return "persist-ordering";
    }

    const char*
    summary() const override
    {
        return "region-CFG reachability validates the log-deactivation "
               "(deferral) claims";
    }

    void
    run_function(const LintContext& ctx,
                 std::vector<Diagnostic>& out) const override
    {
        const persistency::PersistPlan plan =
            persistency::compute_persist_plan(ctx.fn, ctx.cfg, ctx.part,
                                              ctx.info);
        std::vector<Diagnostic> diags = persistency::verify_persist_plan(
            ctx.fn, ctx.cfg, ctx.part, ctx.info, plan);
        for (Diagnostic& d : diags)
            out.push_back(std::move(d));
    }
};

} // namespace

std::unique_ptr<LintPass>
make_persist_ordering_check()
{
    return std::make_unique<PersistOrderingCheck>();
}

} // namespace ido::compiler::lint
