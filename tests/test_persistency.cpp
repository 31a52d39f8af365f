/**
 * @file
 * Tests for the ido-verify pipeline: the deferral planner, the
 * independent persist-ordering verifier (seeded unsound deferral
 * claims must be flagged with counterexample traces), and the
 * idempotence verifier on a partition that looks right but is not.
 */
#include <gtest/gtest.h>

#include "compiler/builder.h"
#include "compiler/idempotence_verifier.h"
#include "compiler/ir_library.h"
#include "compiler/lint/lint.h"
#include "compiler/persistency/persist_verify.h"

namespace ido::compiler::persistency {
namespace {

PersistPlan
plan_of(const lint::LintUnit& u)
{
    return compute_persist_plan(u.fn, u.cfg, u.part, u.info);
}

std::vector<lint::Diagnostic>
verify(const lint::LintUnit& u, const PersistPlan& plan)
{
    return verify_persist_plan(u.fn, u.cfg, u.part, u.info, plan);
}

uint32_t
count_check(const std::vector<lint::Diagnostic>& diags, const char* id)
{
    uint32_t n = 0;
    for (const lint::Diagnostic& d : diags) {
        if (d.check == id)
            ++n;
    }
    return n;
}

// --- planner on the shipped corpus -----------------------------------

TEST(PersistPlan, CorpusPlansVerifyClean)
{
    IrFase (*corpus[])() = {ir_stack_push, ir_stack_pop,
                            ir_counter_increment, ir_array_add_loop};
    for (auto make : corpus) {
        lint::LintUnit u(make().fn);
        const PersistPlan plan = plan_of(u);
        const auto diags = verify(u, plan);
        EXPECT_TRUE(diags.empty()) << u.fn.name() << ": "
                                   << diags.front().render();
        // Each corpus FASE ends in a store-free tail (unlock; ret), and
        // every deferral claim must name one.
        EXPECT_FALSE(plan.deferrable_boundaries.empty()) << u.fn.name();
        for (const uint32_t r : plan.deferrable_boundaries) {
            ASSERT_LT(r, u.part.num_regions());
            for (uint32_t j = r; j < u.part.num_regions(); ++j)
                EXPECT_EQ(u.info[j].num_stores, 0u) << u.fn.name();
        }
    }
}

// --- seeded unsound deferral claims must be flagged ------------------

TEST(PersistVerify, FalseDeferralClaimsAreRejected)
{
    // Counter FASE: regions [entry][load+incr][store...][unlock;ret].
    FnBuilder b("fix.counter");
    const uint32_t entry = b.block("entry");
    b.switch_to(entry);
    const uint32_t root = b.arg();
    b.lock(root, 0);                    // bb0:0
    const uint32_t one = b.cconst(1);   // bb0:1
    const uint32_t t = b.load(root, 64); // bb0:2
    const uint32_t t2 = b.add(t, one);  // bb0:3
    b.store(root, 64, t2);              // bb0:4
    b.unlock(root, 0);                  // bb0:5
    b.ret();                            // bb0:6
    lint::LintUnit u(b.take());

    const uint32_t store_region = u.part.region_of(InstrRef{0, 4});
    ASSERT_GT(u.info[store_region].num_stores, 0u);

    // The honest plan defers exactly the store-free tail.
    const PersistPlan honest = plan_of(u);
    EXPECT_TRUE(verify(u, honest).empty());
    for (const uint32_t r : honest.deferrable_boundaries)
        EXPECT_GT(r, store_region);

    // Claiming the store's own region is deferrable would publish a
    // stale recovery_pc past a region that writes NVM.
    PersistPlan seeded;
    seeded.deferrable_boundaries.push_back(store_region);
    const auto diags = verify(u, seeded);
    ASSERT_EQ(count_check(diags, "unsound-deferral"), 1u);
    EXPECT_EQ(diags.front().severity, lint::Severity::kError);
    EXPECT_FALSE(diags.front().trace.empty());

    // Region 0's entry boundary is the FASE entry itself: never
    // deferrable.
    PersistPlan zero;
    zero.deferrable_boundaries.push_back(0);
    EXPECT_EQ(count_check(verify(u, zero), "unsound-deferral"), 1u);
}

TEST(PersistVerify, DeferralPastALoopBackEdgeIsRejected)
{
    // A loop whose body stores and then ends in fase_lock: the region
    // after the acquire is read-only and numbered above the store, but
    // its back edge re-enters the storing region.  The index scan
    // (every region j >= r store-free) calls it a store-free tail;
    // reachability over the region CFG does not.
    FnBuilder b("fix.lock_latch");
    const uint32_t entry = b.block("entry");
    const uint32_t body = b.block("body");
    const uint32_t exit = b.block("exit");
    b.switch_to(entry);
    const uint32_t root = b.arg();
    b.br(body);
    b.switch_to(body);
    const uint32_t one = b.cconst(1);        // body:0
    b.store(root, 64, one);                  // body:1
    b.lock(root, 0);                         // body:2
    const uint32_t more = b.cmp_lt(one, root); // body:3
    b.cond_br(more, body, exit);             // body:4
    b.switch_to(exit);
    b.unlock(root, 0);
    b.ret();
    lint::LintUnit u(b.take());

    const uint32_t store_region = u.part.region_of(InstrRef{body, 1});
    const uint32_t latch = u.part.region_of(InstrRef{body, 3});
    ASSERT_GT(latch, store_region);
    bool index_scan_store_free = true;
    for (uint32_t j = latch; j < u.part.num_regions(); ++j)
        index_scan_store_free =
            index_scan_store_free && u.info[j].num_stores == 0;
    ASSERT_TRUE(index_scan_store_free);
    EXPECT_TRUE(reachable_regions(u.fn, u.cfg, u.part, latch)[store_region]);

    // The planner no longer claims the latch ...
    const PersistPlan honest = plan_of(u);
    EXPECT_TRUE(verify(u, honest).empty());
    for (const uint32_t r : honest.deferrable_boundaries)
        EXPECT_NE(r, latch);
    // ... and a plan that does is rejected.
    PersistPlan seeded;
    seeded.deferrable_boundaries.push_back(latch);
    const auto diags = verify(u, seeded);
    ASSERT_EQ(count_check(diags, "unsound-deferral"), 1u);
    EXPECT_EQ(diags.front().severity, lint::Severity::kError);
}

TEST(PersistVerify, StructurallyBrokenProofsAreRejected)
{
    lint::LintUnit u(ir_stack_push().fn);
    const uint32_t n = u.part.num_regions();

    // A claim past the last region names no boundary at all.
    PersistPlan past_end;
    past_end.deferrable_boundaries.push_back(n);
    EXPECT_EQ(count_check(verify(u, past_end), "unsound-deferral"), 1u);

    // One finding per bad claim, even when the good ones are kept.
    PersistPlan mixed = plan_of(u);
    mixed.deferrable_boundaries.push_back(0);
    mixed.deferrable_boundaries.push_back(n + 7);
    EXPECT_EQ(count_check(verify(u, mixed), "unsound-deferral"), 2u);
}

// --- idempotence verifier on an adversarial partition ----------------

namespace {
Function
twin_fn(const char* name, uint64_t load_off)
{
    // Same shape either way; only the load's displacement differs.
    FnBuilder b(name);
    const uint32_t entry = b.block("entry");
    b.switch_to(entry);
    const uint32_t root = b.arg();
    b.lock(root, 0);                        // bb0:0
    const uint32_t one = b.cconst(1);       // bb0:1
    const uint32_t t = b.load(root, load_off); // bb0:2
    const uint32_t t2 = b.add(t, one);      // bb0:3
    b.store(root, 64, t2);                  // bb0:4
    b.unlock(root, 0);                      // bb0:5
    b.ret();                                // bb0:6
    return b.take();
}
} // namespace

TEST(IdempotenceVerifier, ShapeTwinPartitionDoesNotTransfer)
{
    // fn_a loads a line it never overwrites: no antidependence, so its
    // partition has no cut between bb0:2 and bb0:4.  fn_b has the same
    // instruction shape but loads the line it stores -- applying
    // fn_a's partition to it must be rejected, even though every
    // InstrRef in the partition is valid for fn_b.
    lint::LintUnit ua(twin_fn("fix.twin.noantidep", 128));
    lint::LintUnit ub(twin_fn("fix.twin.antidep", 64));

    const VerifyResult wrong =
        verify_idempotence(ub.fn, ub.cfg, ub.aa, ua.part);
    EXPECT_FALSE(wrong.ok);
    EXPECT_FALSE(wrong.violations.empty());

    const VerifyResult right =
        verify_idempotence(ub.fn, ub.cfg, ub.aa, ub.part);
    EXPECT_TRUE(right.ok);
}

// --- lint integration ------------------------------------------------

TEST(PersistOrderingLint, RegisteredAndSilentOnCleanPipelines)
{
    bool registered = false;
    for (const auto& pass : lint::LintRegistry::builtin().passes())
        registered = registered
                     || std::string(pass->id()) == "persist-ordering";
    EXPECT_TRUE(registered);

    lint::LintUnit u(ir_stack_push().fn);
    const auto diags =
        lint::LintRegistry::builtin().lint_function(u.ctx());
    EXPECT_EQ(count_check(diags, "persist-ordering"), 0u);
}

} // namespace
} // namespace ido::compiler::persistency
