/**
 * @file
 * Tests for the ido-verify pipeline: the flush-elision planner, the
 * independent persist-ordering verifier (adversarial fixtures seeded
 * with real persist-ordering bugs must be flagged with counterexample
 * traces), the idempotence verifier on a partition that looks right
 * but is not, and the runtime half -- covered stores, line-aligned
 * allocation, the ShadowDomain elision audit, and the end-to-end
 * flush reduction with elision on.
 */
#include <gtest/gtest.h>

#include "compiler/builder.h"
#include "compiler/fase_compiler.h"
#include "compiler/idempotence_verifier.h"
#include "compiler/ir_library.h"
#include "compiler/lint/lint.h"
#include "compiler/persistency/flush_elision.h"
#include "compiler/persistency/persist_verify.h"
#include "ds/stack.h"
#include "ds/workload.h"
#include "ido/ido_runtime.h"
#include "nvm/shadow_domain.h"
#include "stats/persist_stats.h"

namespace ido::compiler::persistency {
namespace {

PersistPlan
plan_of(const lint::LintUnit& u)
{
    return compute_persist_plan(u.fn, u.cfg, u.aa, u.part, u.info);
}

std::vector<lint::Diagnostic>
verify(const lint::LintUnit& u, const PersistPlan& plan)
{
    return verify_persist_plan(u.fn, u.cfg, u.aa, u.part, u.info, plan);
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

Provenance
arg_prov(uint32_t id)
{
    Provenance p;
    p.base = Provenance::Base::kArg;
    p.id = id;
    p.offset_known = true;
    p.offset = 0;
    return p;
}

LineFootprint
fp(const Provenance& prov, int64_t lo, int64_t hi)
{
    LineFootprint f;
    f.prov = prov;
    f.lo = lo;
    f.hi = hi;
    f.known = true;
    return f;
}

// --- provably_same_line unit coverage --------------------------------

TEST(ProvablySameLine, IdenticalIntervalNeedsNoAlignment)
{
    const Provenance a0 = arg_prov(0);
    EXPECT_TRUE(provably_same_line(fp(a0, 8, 16), fp(a0, 8, 16), 0));
    // Distinct intervals with no alignment guarantee: line placement
    // is unknown, so no proof.
    EXPECT_FALSE(provably_same_line(fp(a0, 8, 16), fp(a0, 16, 24), 0));
    EXPECT_FALSE(provably_same_line(fp(a0, 8, 16), fp(a0, 16, 24), 1));
}

TEST(ProvablySameLine, AlignmentWindows)
{
    const Provenance a0 = arg_prov(0);
    // [8,16) and [24,32): union [8,32) crosses a 16-byte window
    // boundary but fits inside one 64-byte window.
    EXPECT_FALSE(provably_same_line(fp(a0, 8, 16), fp(a0, 24, 32), 16));
    EXPECT_TRUE(provably_same_line(fp(a0, 8, 16), fp(a0, 24, 32), 64));
    // Straddling a 64-byte boundary is never provable.
    EXPECT_FALSE(provably_same_line(fp(a0, 56, 64), fp(a0, 64, 72), 64));
    // Negative offsets (address arithmetic below the base) disqualify.
    EXPECT_FALSE(provably_same_line(fp(a0, -8, 0), fp(a0, 0, 8), 64));
}

TEST(ProvablySameLine, RequiresSameKnownBase)
{
    const Provenance a0 = arg_prov(0);
    const Provenance a1 = arg_prov(1);
    EXPECT_FALSE(provably_same_line(fp(a0, 8, 16), fp(a1, 8, 16), 64));
    LineFootprint unknown; // !known
    EXPECT_FALSE(provably_same_line(fp(a0, 8, 16), unknown, 64));
}

// --- planner on the shipped corpus -----------------------------------

TEST(FlushElision, CorpusPlansVerifyClean)
{
    IrFase (*corpus[])() = {ir_stack_push, ir_stack_pop,
                            ir_counter_increment, ir_array_add_loop};
    for (auto make : corpus) {
        lint::LintUnit u(make().fn);
        const PersistPlan plan = plan_of(u);
        const auto diags = verify(u, plan);
        EXPECT_TRUE(diags.empty()) << u.fn.name() << ": "
                                   << diags.front().render();
        // Every deferral claim must name a store-free tail.
        for (const uint32_t r : plan.deferrable_boundaries) {
            ASSERT_LT(r, u.part.num_regions());
            for (uint32_t j = r; j < u.part.num_regions(); ++j)
                EXPECT_EQ(u.info[j].num_stores, 0u) << u.fn.name();
        }
    }
}

TEST(FlushElision, PushElidesSecondNodeInitStore)
{
    // ir_stack_push initializes node->value and node->next back to
    // back into one freshly allocated 16-byte object: the second
    // store's boundary write-back is provably redundant.
    lint::LintUnit u(ir_stack_push().fn);
    const PersistPlan plan = plan_of(u);
    ASSERT_EQ(plan.elisions.size(), 1u);
    EXPECT_EQ(plan.elisions[0].kind, ProofKind::kSameLineCoLocation);
    EXPECT_EQ(plan.elisions[0].store.block,
              plan.elisions[0].witness.block);
    EXPECT_TRUE(plan.store_elided(plan.elisions[0].store));
    EXPECT_FALSE(plan.store_elided(plan.elisions[0].witness));
    // The tail (unlock; ret) is store-free: its pc fence may defer.
    EXPECT_FALSE(plan.deferrable_boundaries.empty());
}

TEST(FlushElision, AlignmentPromotionMakesStraddlersCoLocated)
{
    // alloc(32) with stores at +8 and +24: under the natural 16-byte
    // NvHeap alignment the union [8,32) may straddle a line, but a
    // line-aligned placement makes both provably co-located -- the
    // planner must promote the site rather than give up.
    FnBuilder b("fix.promote");
    const uint32_t entry = b.block("entry");
    b.switch_to(entry);
    const uint32_t root = b.arg();
    b.lock(root, 0);                  // bb0:0
    const uint32_t p = b.alloc(32);   // bb0:1
    const uint32_t x = b.cconst(5);   // bb0:2
    b.store(p, 8, x);                 // bb0:3
    b.store(p, 24, x);                // bb0:4
    b.store(root, 64, p);             // bb0:5  publish
    b.unlock(root, 0);                // bb0:6
    b.ret();                          // bb0:7

    lint::LintUnit u(b.take());
    const PersistPlan plan = plan_of(u);
    ASSERT_EQ(plan.aligned_alloc_sites.size(), 1u);
    EXPECT_EQ(plan.aligned_alloc_sites[0], (InstrRef{0, 1}));
    ASSERT_EQ(plan.elisions.size(), 1u);
    EXPECT_EQ(plan.elisions[0].kind, ProofKind::kSameLineCoLocation);
    EXPECT_EQ(plan.elisions[0].store, (InstrRef{0, 4}));
    EXPECT_EQ(plan.elisions[0].witness, (InstrRef{0, 3}));
    EXPECT_TRUE(verify(u, plan).empty());
}

TEST(FlushElision, CoveredAfterIsAsSoundAsCoveredBefore)
{
    FnBuilder b("fix.doublestore");
    const uint32_t entry = b.block("entry");
    b.switch_to(entry);
    const uint32_t root = b.arg();
    b.lock(root, 0);                  // bb0:0
    const uint32_t v = b.cconst(5);   // bb0:1
    b.store(root, 64, v);             // bb0:2
    b.store(root, 64, v);             // bb0:3
    b.unlock(root, 0);                // bb0:4
    b.ret();                          // bb0:5
    lint::LintUnit u(b.take());

    // The planner elides the later store against the earlier witness.
    const PersistPlan computed = plan_of(u);
    ASSERT_EQ(computed.elisions.size(), 1u);
    EXPECT_EQ(computed.elisions[0].kind, ProofKind::kAlreadyPersisted);
    EXPECT_EQ(computed.elisions[0].store, (InstrRef{0, 3}));
    EXPECT_TRUE(verify(u, computed).empty());

    // The reverse plan -- elide the first, witness after it -- is just
    // as sound: every path from the elided store still dirties the
    // line again before the boundary.
    PersistPlan reversed;
    reversed.elisions.push_back({ProofKind::kAlreadyPersisted,
                                 InstrRef{0, 2}, InstrRef{0, 3}});
    EXPECT_TRUE(verify(u, reversed).empty());
}

// --- seeded persist-ordering bugs must be flagged --------------------

TEST(PersistVerify, LoopRedirtyAcrossBoundaryIsMissingPersist)
{
    // A loop body re-dirties the line each iteration; the claimed
    // witness is the pre-loop store, which sits on the far side of the
    // loop-header region boundary.  A crash at the header fence after
    // iteration 1 loses the loop's store: missing-persist, with the
    // crash-frontier path as the counterexample.
    FnBuilder b("fix.loop.redirty");
    const uint32_t entry = b.block("entry");
    const uint32_t loop = b.block("loop");
    const uint32_t done = b.block("done");
    b.switch_to(entry);
    const uint32_t root = b.arg();
    const uint32_t n = b.arg();
    b.lock(root, 0);                    // bb0:0
    const uint32_t one = b.cconst(1);   // bb0:1
    const uint32_t i = b.cconst(0);     // bb0:2
    const uint32_t w = b.cconst(7);     // bb0:3
    b.store(root, 64, w);               // bb0:4
    b.br(loop);                         // bb0:5
    b.switch_to(loop);
    const uint32_t w2 = b.cconst(9);    // bb1:0
    b.store(root, 64, w2);              // bb1:1
    const uint32_t i2 = b.add(i, one);  // bb1:2
    b.mov_to(i, i2);                    // bb1:3
    const uint32_t c = b.cmp_lt(i, n);  // bb1:4
    b.cond_br(c, loop, done);           // bb1:5
    b.switch_to(done);
    b.unlock(root, 0);                  // bb2:0
    b.ret();                            // bb2:1
    lint::LintUnit u(b.take());

    // The planner itself claims nothing here (the stores sit in
    // different region instances), so the seeded bug is a hand-made
    // unsound plan.
    EXPECT_TRUE(plan_of(u).elisions.empty());

    PersistPlan seeded;
    seeded.elisions.push_back({ProofKind::kAlreadyPersisted,
                               InstrRef{1, 1}, InstrRef{0, 4}});
    const auto diags = verify(u, seeded);
    ASSERT_EQ(count_check(diags, "missing-persist"), 1u);
    const lint::Diagnostic& d = diags.front();
    EXPECT_EQ(d.severity, lint::Severity::kError);
    EXPECT_EQ(d.loc, (InstrRef{1, 1}));
    EXPECT_FALSE(d.trace.empty()) << "no counterexample trace";
}

TEST(PersistVerify, BranchBypassIsMissingPersistWithBranchTrace)
{
    // The witness only executes on the taken branch; the fall-through
    // path reaches the boundary with the elided store's line dirty.
    FnBuilder b("fix.branch.bypass");
    const uint32_t entry = b.block("entry");
    const uint32_t then_b = b.block("then");
    const uint32_t else_b = b.block("else");
    b.switch_to(entry);
    const uint32_t root = b.arg();
    const uint32_t cond = b.arg();
    b.lock(root, 0);                  // bb0:0
    const uint32_t v = b.cconst(5);   // bb0:1
    b.store(root, 64, v);             // bb0:2
    b.cond_br(cond, then_b, else_b);  // bb0:3
    b.switch_to(then_b);
    const uint32_t w = b.cconst(6);   // bb1:0
    b.store(root, 64, w);             // bb1:1
    b.unlock(root, 0);                // bb1:2
    b.ret();                          // bb1:3
    b.switch_to(else_b);
    b.unlock(root, 0);                // bb2:0
    b.ret();                          // bb2:1
    lint::LintUnit u(b.take());

    PersistPlan seeded;
    seeded.elisions.push_back({ProofKind::kAlreadyPersisted,
                               InstrRef{0, 2}, InstrRef{1, 1}});
    const auto diags = verify(u, seeded);
    ASSERT_EQ(count_check(diags, "missing-persist"), 1u);
    const lint::Diagnostic& d = diags.front();
    ASSERT_FALSE(d.trace.empty());
    // The counterexample must route through the witness-free branch.
    bool through_else = false;
    for (const lint::TraceStep& s : d.trace)
        through_else = through_else || s.loc.block == 2;
    EXPECT_TRUE(through_else) << d.render();
}

TEST(PersistVerify, StraddlingAliasedStoresAreFenceWithoutFlush)
{
    // Same fixture as the promotion test, but the seeded plan claims
    // co-location *without* the aligned-placement directive: under the
    // natural 16-byte alignment the two stores may straddle a cache
    // line, so the proof is structurally unsound.
    FnBuilder b("fix.straddle");
    const uint32_t entry = b.block("entry");
    b.switch_to(entry);
    const uint32_t root = b.arg();
    b.lock(root, 0);                  // bb0:0
    const uint32_t p = b.alloc(32);   // bb0:1
    const uint32_t x = b.cconst(5);   // bb0:2
    b.store(p, 8, x);                 // bb0:3
    b.store(p, 24, x);                // bb0:4
    b.store(root, 64, p);             // bb0:5
    b.unlock(root, 0);                // bb0:6
    b.ret();                          // bb0:7
    lint::LintUnit u(b.take());

    PersistPlan seeded;
    seeded.elisions.push_back({ProofKind::kSameLineCoLocation,
                               InstrRef{0, 4}, InstrRef{0, 3}});
    const auto diags = verify(u, seeded);
    ASSERT_EQ(count_check(diags, "fence-without-flush"), 1u);
    EXPECT_EQ(diags.front().severity, lint::Severity::kError);
}

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
    const PersistPlan good = plan_of(u);
    ASSERT_EQ(good.elisions.size(), 1u);

    // Witness == store (a proof may not vouch for itself).
    PersistPlan self_witness = good;
    self_witness.elisions[0].witness = self_witness.elisions[0].store;
    EXPECT_EQ(count_check(verify(u, self_witness),
                          "fence-without-flush"),
              1u);

    // Witness position that is not a store at all.
    PersistPlan not_a_store = good;
    not_a_store.elisions[0].witness = InstrRef{0, 0};
    EXPECT_EQ(count_check(verify(u, not_a_store),
                          "fence-without-flush"),
              1u);

    // Aligned-placement directive naming a non-alloc instruction.
    PersistPlan bad_site = good;
    bad_site.aligned_alloc_sites.push_back(InstrRef{0, 0});
    EXPECT_EQ(count_check(verify(u, bad_site), "fence-without-flush"),
              1u);
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

// --- runtime half: covered stores, audit, flush reduction ------------

namespace {

uint64_t
flushes_for_pushes(bool elide, uint32_t fase_id, int iters)
{
    IrFase ir = ir_stack_push();
    CompiledFase push(fase_id, std::move(ir.fn), LintMode::kWarn,
                      elide);
    nvm::PersistentHeap heap({.size = 16u << 20});
    nvm::RealDomain dom;
    rt::RuntimeConfig cfg;
    cfg.check_contracts = true;
    cfg.flush_elision = elide;
    IdoRuntime runtime(heap, dom, cfg);
    auto th = runtime.make_thread();
    const uint64_t root = ds::PStack::create(*th);

    const uint64_t before = tls_persist_counters().flushes;
    for (int i = 0; i < iters; ++i) {
        rt::RegionCtx ctx;
        ctx.r[ir.arg0] = root;
        ctx.r[ir.arg1] = static_cast<uint64_t>(i);
        th->run_fase(push.program(), ctx);
    }
    return tls_persist_counters().flushes - before;
}

} // namespace

TEST(ElisionRuntime, ElisionReducesBoundaryFlushes)
{
    constexpr int kIters = 32;
    const uint64_t with = flushes_for_pushes(true, 7301, kIters);
    const uint64_t without = flushes_for_pushes(false, 7302, kIters);
    // Each push region writes node->value, node->next and the head
    // pointer; elision + boundary line dedup must drop at least one
    // write-back per push.
    EXPECT_LT(with, without);
    EXPECT_LE(with + kIters, without)
        << "elision saved fewer than one flush per push";
}

TEST(ElisionRuntime, NvAllocLineIsLineAligned)
{
    nvm::PersistentHeap heap({.size = 4u << 20});
    nvm::RealDomain dom;
    rt::RuntimeConfig cfg;
    IdoRuntime runtime(heap, dom, cfg);
    auto th = runtime.make_thread();
    (void)th->nv_alloc(8); // perturb the bump pointer
    for (size_t n : {8u, 16u, 48u, 64u}) {
        const uint64_t a = th->nv_alloc_line(n);
        EXPECT_EQ(a % kCacheLineBytes, 0u) << "n=" << n;
    }
}

TEST(ElisionAudit, DirtyNotedLinePanicsAtBoundary)
{
    nvm::PersistentHeap heap({.size = 1u << 20});
    nvm::ShadowDomain shadow(heap.base(), heap.size());
    shadow.set_elision_audit(true);
    char* p = static_cast<char*>(heap.base()) + 256;
    const uint64_t v = 42;
    shadow.store(p, &v, sizeof v);
    shadow.note_covered_store(p, sizeof v);
    EXPECT_DEATH(shadow.audit_covered_boundary(), "elision audit");
}

TEST(ElisionAudit, PendingOrDurableNotedLinePasses)
{
    nvm::PersistentHeap heap({.size = 1u << 20});
    nvm::ShadowDomain shadow(heap.base(), heap.size());
    shadow.set_elision_audit(true);
    char* p = static_cast<char*>(heap.base()) + 256;
    const uint64_t v = 42;
    shadow.store(p, &v, sizeof v);
    shadow.note_covered_store(p, sizeof v);
    shadow.flush(p, sizeof v); // write-back requested: line covered
    shadow.audit_covered_boundary();
    // Durable (fenced) lines pass too.
    shadow.store(p, &v, sizeof v);
    shadow.note_covered_store(p, sizeof v);
    shadow.flush(p, sizeof v);
    shadow.fence();
    shadow.audit_covered_boundary();
}

TEST(ElisionAudit, CompiledPushAuditSweepSurvivesEveryCrashPoint)
{
    // The runtime cross-check of the compiler's proofs: the full
    // deterministic crash-point sweep of the compiled push (elision
    // live), with the ShadowDomain audit armed -- any elided
    // write-back whose line is dirty at its region boundary panics.
    static IrFase push_ir = ir_stack_push();
    static CompiledFase push(7201, std::move(push_ir.fn));
    rt::FaseRegistry::instance().register_program(&push.program());
    ASSERT_FALSE(push.persist_plan().elisions.empty());

    for (int64_t k = 1; k < 200; ++k) {
        nvm::PersistentHeap heap({.size = 16u << 20});
        nvm::ShadowDomain shadow(heap.base(), heap.size(), 4200 + k);
        shadow.set_elision_audit(true);
        rt::RuntimeConfig cfg;
        cfg.check_contracts = true;
        auto runtime = std::make_unique<IdoRuntime>(heap, shadow, cfg);

        uint64_t root;
        {
            auto setup = runtime->make_thread();
            root = ds::PStack::create(*setup);
            ds::PStack(root).push(*setup, 111);
        }
        ds::register_all_programs();
        shadow.drain_all();

        bool crashed = false;
        {
            auto th = runtime->make_thread();
            runtime->crash_scheduler().arm(k);
            try {
                rt::RegionCtx ctx;
                ctx.r[push_ir.arg0] = root;
                ctx.r[push_ir.arg1] = 222;
                th->run_fase(push.program(), ctx);
            } catch (const rt::SimCrashException&) {
                crashed = true;
            }
            runtime->crash_scheduler().disarm();
        }
        if (!crashed)
            break;
        shadow.crash(nvm::CrashPolicy::kRandom);
        runtime = std::make_unique<IdoRuntime>(heap, shadow, cfg);
        runtime->recover();
        shadow.drain_all();

        const auto snap = ds::PStack::snapshot(heap, root);
        ASSERT_TRUE(ds::PStack::check_invariants(heap, root));
        if (snap.size() == 2) {
            EXPECT_EQ(snap[0], 222u);
            EXPECT_EQ(snap[1], 111u);
        } else {
            ASSERT_EQ(snap.size(), 1u) << "k=" << k;
            EXPECT_EQ(snap[0], 111u);
        }
    }
}

} // namespace ido::compiler::persistency
