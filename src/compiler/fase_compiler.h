/**
 * @file
 * End-to-end compilation of an IR FASE body into an executable
 * rt::FaseProgram (the full pipeline of paper Fig. 4):
 *
 *   IR function
 *     -> CFG + liveness + alias analysis
 *     -> idempotent region formation (antidep cuts, hitting set)
 *     -> independent idempotence verification
 *     -> per-region input/output sets (Eq. 1)
 *     -> FaseProgram whose regions execute through the Interpreter.
 *
 * The resulting program runs under *any* runtime in this repo,
 * exactly like the hand-lowered data-structure programs -- which is
 * how the tests cross-check the compiler against the hand lowerings.
 */
#pragma once

#include <memory>

#include "compiler/alias_analysis.h"
#include "compiler/cfg.h"
#include "compiler/dataflow.h"
#include "compiler/idempotence_verifier.h"
#include "compiler/lint/lint.h"
#include "compiler/region_info.h"
#include "compiler/region_partition.h"
#include "runtime/fase_program.h"

namespace ido::compiler {

/** How CompiledFase treats lint diagnostics. */
enum class LintMode
{
    kOff,    ///< skip the diagnostics stage entirely
    kWarn,   ///< collect and print diagnostics; never reject (default)
    kStrict, ///< -Werror flavour: panic on any error-severity finding
};

class CompiledFase
{
  public:
    /**
     * Run the pipeline.  Panics if the function fails structural
     * validation, uses more registers than RegionCtx has slots, or
     * the verifier rejects the partition.  Under LintMode::kStrict it
     * additionally panics if any lint check reports an error-severity
     * diagnostic (lock leak, unprotected store, use-after-free, ...).
     *
     * The ido-verify stage always runs: the PersistPlan's deferral
     * claims are computed and independently re-proved
     * (persist_verify.h), and the build panics if any claim fails --
     * an unsound plan is a compiler bug, never a warning.
     */
    CompiledFase(uint32_t fase_id, Function fn,
                 LintMode lint_mode = LintMode::kWarn);

    CompiledFase(const CompiledFase&) = delete;
    CompiledFase& operator=(const CompiledFase&) = delete;

    /** Executable program; regions run via the Interpreter. */
    const rt::FaseProgram& program() const { return program_; }

    const Function& function() const { return fn_; }
    const Cfg& cfg() const { return *cfg_; }
    const RegionPartition& partition() const { return partition_; }
    const std::vector<RegionInfo>& region_info() const { return info_; }
    const VerifyResult& verification() const { return verification_; }

    /** Diagnostics from the lint stage (empty under LintMode::kOff). */
    const std::vector<lint::Diagnostic>& diagnostics() const
    {
        return diagnostics_;
    }

  private:
    Function fn_;
    std::unique_ptr<Cfg> cfg_;
    std::unique_ptr<AliasAnalysis> aa_;
    std::unique_ptr<Liveness> liveness_;
    RegionPartition partition_;
    std::vector<RegionInfo> info_;
    VerifyResult verification_;
    std::vector<lint::Diagnostic> diagnostics_;
    rt::FaseProgram program_;
};

} // namespace ido::compiler
