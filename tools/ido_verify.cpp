/**
 * @file
 * ido_verify: the persist-ordering verifier of deferral claims over
 * the IR FASE corpus.
 *
 * For every FASE, runs the full ido-verify pipeline: compute the
 * PersistPlan (compiler/persistency/persist_plan.h) -- the region
 * boundaries where the log may deactivate because a store-free tail
 * begins -- then independently re-prove each claim over the region
 * CFG (persist_verify.h).  The report lists each deferrable boundary
 * and every diagnostic the verifier raises (all diagnostics are
 * proved crash-consistency bugs, reported with a counterexample
 * trace).
 *
 * Usage: ido_verify [--quiet] [--json] [name...]
 *   --quiet   print only diagnostics and the final summary
 *   --json    machine-readable report (implies --quiet):
 *             {"fases":[{"name":...,"regions":N,"deferrable":[N...],
 *               "diagnostics":[...]}],"errors":N}
 *   name...   verify only the named FASEs (default: whole corpus)
 *
 * Exit status: 0 when every plan verifies, 1 on any finding, 2 usage.
 */
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "compiler/ir_library.h"
#include "compiler/lint/lint.h"
#include "compiler/persistency/persist_verify.h"

namespace {

using namespace ido::compiler;
using persistency::PersistPlan;

struct CorpusEntry
{
    const char* name;
    IrFase (*make)();
};

constexpr CorpusEntry kCorpus[] = {
    {"ir.stack.push", ir_stack_push},
    {"ir.stack.pop", ir_stack_pop},
    {"ir.counter.incr", ir_counter_increment},
    {"ir.array.addloop", ir_array_add_loop},
};

int
usage(const char* argv0)
{
    std::fprintf(stderr, "usage: %s [--quiet] [--json] [name...]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    bool quiet = false;
    bool json = false;
    std::vector<std::string> selected;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
            quiet = true;
        } else if (argv[i][0] == '-') {
            return usage(argv[0]);
        } else {
            selected.emplace_back(argv[i]);
        }
    }

    std::vector<std::unique_ptr<lint::LintUnit>> units;
    for (const CorpusEntry& e : kCorpus) {
        if (!selected.empty()) {
            bool wanted = false;
            for (const std::string& s : selected)
                wanted = wanted || s == e.name;
            if (!wanted)
                continue;
        }
        units.push_back(std::make_unique<lint::LintUnit>(e.make().fn));
    }
    if (units.empty()) {
        std::fprintf(stderr, "ido_verify: no FASE matched\n");
        return 2;
    }

    if (!quiet)
        std::printf("ido-verify: %zu FASEs\n", units.size());
    if (json)
        std::printf("{\"fases\":[");

    uint32_t total_errors = 0;
    size_t total_deferrals = 0;
    for (size_t ui = 0; ui < units.size(); ++ui) {
        const lint::LintUnit& u = *units[ui];
        const PersistPlan plan =
            persistency::compute_persist_plan(u.fn, u.cfg, u.part, u.info);
        const std::vector<lint::Diagnostic> diags =
            persistency::verify_persist_plan(u.fn, u.cfg, u.part, u.info,
                                             plan);
        total_errors +=
            lint::count_at_least(diags, lint::Severity::kError);
        total_deferrals += plan.deferrable_boundaries.size();

        if (json) {
            std::printf("%s{\"name\":\"%s\",\"regions\":%u,"
                        "\"deferrable\":[",
                        ui ? "," : "", u.fn.name().c_str(),
                        u.part.num_regions());
            for (size_t i = 0; i < plan.deferrable_boundaries.size();
                 ++i) {
                std::printf("%s%u", i ? "," : "",
                            plan.deferrable_boundaries[i]);
            }
            std::printf("],\"diagnostics\":[");
            for (size_t i = 0; i < diags.size(); ++i) {
                std::printf("%s%s", i ? "," : "",
                            diags[i].render_json().c_str());
            }
            std::printf("]}");
            continue;
        }

        if (!quiet) {
            std::printf("  %-18s %2u regions  %zu deferrable "
                        "boundarie(s)\n",
                        u.fn.name().c_str(), u.part.num_regions(),
                        plan.deferrable_boundaries.size());
            for (const uint32_t r : plan.deferrable_boundaries) {
                std::printf("    defer: log deactivates entering region "
                            "%u (store-free tail)\n",
                            r);
            }
        }
        for (const lint::Diagnostic& d : diags)
            std::printf("%s\n", d.render().c_str());
    }

    if (json) {
        std::printf("],\"errors\":%u}\n", total_errors);
    } else if (!quiet || total_errors > 0) {
        std::printf("ido-verify: %zu deferral(s) proved, %u error(s)\n",
                    total_deferrals, total_errors);
    }
    return total_errors > 0 ? 1 : 0;
}
