#include "compiler/fase_compiler.h"

#include "common/panic.h"
#include "compiler/interpreter.h"
#include "compiler/persistency/persist_verify.h"

namespace ido::compiler {

CompiledFase::CompiledFase(uint32_t fase_id, Function fn,
                           LintMode lint_mode)
    : fn_(std::move(fn))
{
    fn_.validate();
    IDO_ASSERT(fn_.num_regs() <= rt::kNumIntRegs,
               "function '%s' uses %u registers; RegionCtx holds %zu",
               fn_.name().c_str(), fn_.num_regs(), rt::kNumIntRegs);

    cfg_ = std::make_unique<Cfg>(fn_);
    aa_ = std::make_unique<AliasAnalysis>(fn_);
    liveness_ = std::make_unique<Liveness>(fn_, *cfg_);

    RegionPartitioner partitioner(fn_, *cfg_, *aa_);
    partition_ = partitioner.run();

    verification_ = verify_idempotence(fn_, *cfg_, *aa_, partition_);
    if (!verification_.ok) {
        for (const std::string& v : verification_.violations)
            warn("verifier: %s", v.c_str());
        panic("idempotence verification failed for '%s' "
              "(%zu violations)",
              fn_.name().c_str(), verification_.violations.size());
    }

    info_ = compute_region_info(fn_, *cfg_, *liveness_, partition_);

    // ido-verify stage: the deferral claims are computed and then
    // independently re-proved (translation validation).  Any finding
    // is a proved crash-consistency bug in the planner, so this
    // panics regardless of lint mode.
    const persistency::PersistPlan plan =
        persistency::compute_persist_plan(fn_, *cfg_, partition_, info_);
    const std::vector<lint::Diagnostic> verify_diags =
        persistency::verify_persist_plan(fn_, *cfg_, partition_, info_,
                                         plan);
    if (!verify_diags.empty()) {
        for (const lint::Diagnostic& d : verify_diags)
            warn("ido-verify: %s", d.render().c_str());
        panic("persist-ordering verification failed for '%s' "
              "(%zu findings)",
              fn_.name().c_str(), verify_diags.size());
    }

    if (lint_mode != LintMode::kOff) {
        const lint::LintContext ctx{fn_,        *cfg_,      *aa_,
                                    *liveness_, partition_, info_};
        diagnostics_ = lint::LintRegistry::builtin().lint_function(ctx);
        for (const lint::Diagnostic& d : diagnostics_)
            warn("lint: %s", d.render().c_str());
        const uint32_t errors = lint::count_at_least(
            diagnostics_, lint::Severity::kError);
        if (lint_mode == LintMode::kStrict && errors > 0) {
            panic("lint rejected '%s' in strict mode "
                  "(%u error diagnostics)",
                  fn_.name().c_str(), errors);
        }
    }

    program_.fase_id = fase_id;
    program_.name = fn_.name().c_str();
    program_.impl = this;
    program_.regions.reserve(info_.size());
    for (const RegionInfo& ri : info_) {
        rt::RegionMeta meta{};
        meta.fn = &interpreter_trampoline;
        meta.name = fn_.name().c_str();
        meta.live_in_int = static_cast<uint16_t>(ri.live_in);
        meta.out_int = static_cast<uint16_t>(ri.outputs);
        meta.may_store = ri.num_stores > 0 ? 1 : 0;
        program_.regions.push_back(meta);
    }
}

} // namespace ido::compiler
