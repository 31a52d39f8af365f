/**
 * @file
 * The FASE driver: runs a FaseProgram's idempotent regions in sequence,
 * invoking the runtime-specific instrumentation hooks at the boundaries,
 * plus the (test-mode) contract checker that enforces the idempotence
 * rules of Sec. II-C on hand-lowered region bodies.
 */
#include "common/panic.h"
#include "runtime/runtime.h"
#include "stats/region_stats.h"
#include "trace/trace.h"

namespace ido::rt {

void
RuntimeThread::run_fase(const FaseProgram& prog, RegionCtx& ctx)
{
    IDO_ASSERT(!in_fase_, "nested run_fase (FASEs are outermost)");
    in_fase_ = true;
    cur_prog_ = &prog;
    trace::emit(trace::EventKind::kFaseBegin, prog.fase_id);
    on_fase_begin(prog, ctx);
    run_regions(prog, 0, ctx);
    on_fase_end(prog, ctx);
    trace::emit(trace::EventKind::kFaseEnd, prog.fase_id);
    in_fase_ = false;
    cur_prog_ = nullptr;
    IDO_ASSERT(held_.empty(), "FASE '%s' ended with locks held",
               prog.name);
    drain_deferred_frees();
}

void
RuntimeThread::resume_fase(const FaseProgram& prog, uint32_t start_region,
                           RegionCtx& ctx)
{
    IDO_ASSERT(!in_fase_);
    in_fase_ = true;
    cur_prog_ = &prog;
    trace::emit(trace::EventKind::kFaseResume,
                (static_cast<uint64_t>(prog.fase_id) << 32)
                    | start_region);
    run_regions(prog, start_region, ctx);
    on_fase_end(prog, ctx);
    trace::emit(trace::EventKind::kFaseEnd, prog.fase_id);
    in_fase_ = false;
    cur_prog_ = nullptr;
    IDO_ASSERT(held_.empty(), "recovered FASE '%s' ended with locks held",
               prog.name);
    // Frees deferred by the crashed run are lost (a leak, never a
    // double free); frees from re-executed regions run now.
    drain_deferred_frees();
}

void
RuntimeThread::run_regions(const FaseProgram& prog, uint32_t start,
                           RegionCtx& ctx)
{
    const bool check = rt_.config().check_contracts;
    LatencyRecorder* stores_rec = nullptr;
    LatencyRecorder* live_in_rec = nullptr;
    if (rt_.config().collect_region_stats) {
        stores_rec = &region_stores_recorder();
        live_in_rec = &region_live_in_recorder();
    }
    tainted_int_ = 0;
    tainted_float_ = 0;
    uint32_t idx = start;
    while (idx != kRegionEnd) {
        const RegionMeta& meta = prog.region(idx);
        cur_region_ = idx;
        region_stores_ = 0;
        lock_taken_in_region_ = false;
        if (check)
            checker_region_entry(meta, ctx);
        trace::emit(trace::EventKind::kRegionBegin,
                    (static_cast<uint64_t>(prog.fase_id) << 32) | idx);
        on_region_begin(prog, idx, ctx);
        crash_tick();
        const uint32_t next = meta.fn(*this, ctx);
        IDO_ASSERT(next == kRegionEnd || next < prog.regions.size(),
                   "region '%s' returned a bad successor", meta.name);
        if (stores_rec != nullptr) {
            stores_rec->record(region_stores_);
            live_in_rec->record(mask_popcount(meta.live_in_int)
                                + mask_popcount(meta.live_in_float));
        }
        if (check)
            checker_region_exit(meta, ctx, next);
        on_region_boundary(prog, idx, ctx, next);
        trace::emit(trace::EventKind::kRegionEnd,
                    (static_cast<uint64_t>(prog.fase_id) << 32) | idx,
                    region_stores_);
        idx = next;
    }
}

// --------------------------------------------------------------------------
// Contract checker
// --------------------------------------------------------------------------
//
// Hand-lowered region bodies stand in for the iDO compiler's generated
// code, so the properties the compiler would prove by construction are
// instead enforced dynamically in test builds:
//
//  1. No antidependence on memory inputs: a region must not store to a
//     persistent location it loaded earlier in the same dynamic region
//     (store-then-load is a flow dependence and is fine).
//  2. Any register the region changes and a successor consumes must be
//     declared in the output mask (otherwise recovery would resume with
//     a stale value).  Tracked via a taint mask across the FASE.
//  3. After a lock acquire, no further stores in the region (the
//     compiler ends regions immediately after acquires).
//
// Overwriting a live-in *register* within a region is safe only while
// its new value stays volatile: the log's intRF slot holds the
// register's region-entry value, and recovery restores the file from
// the log.  But a logged boundary stores the finished region's outputs
// into those slots before it moves the pc off the region, so a region
// whose outputs include one of its own live-ins would be re-executed
// with its post-region value after a crash between the two fences.
// That is the paper's live-interval rule for physical registers, seen
// through fixed slots: IdoThread's logged boundary panics on such a
// region (a loop counter carried around a self-loop is the usual one;
// rename it across a two-region lap instead).  Regions of the unlogged
// prefix write no slot and may do it.

namespace {

/** 8-byte chunk keys covering [off, off+n). */
inline void
for_each_chunk(uint64_t off, size_t n, auto&& fn)
{
    const uint64_t first = off >> 3;
    const uint64_t last = (off + (n ? n - 1 : 0)) >> 3;
    for (uint64_t c = first; c <= last; ++c)
        fn(c);
}

} // namespace

void
RuntimeThread::checker_region_entry(const RegionMeta& meta,
                                    const RegionCtx& ctx)
{
    loaded_chunks_.clear();
    stored_chunks_.clear();
    ctx_snapshot_ = ctx;
    // Rule 3: resuming this region must not consume a tainted register.
    const uint32_t bad_int = meta.live_in_int & tainted_int_;
    const uint32_t bad_float = meta.live_in_float & tainted_float_;
    if (bad_int || bad_float) {
        panic("region '%s' consumes register(s) not declared as outputs "
              "upstream (int mask %x, float mask %x)",
              meta.name, bad_int, bad_float);
    }
}

void
RuntimeThread::checker_region_exit(const RegionMeta& meta,
                                   const RegionCtx& ctx, uint32_t)
{
    for (size_t i = 0; i < kNumIntRegs; ++i) {
        const uint32_t bit = 1u << i;
        const bool changed = ctx.r[i] != ctx_snapshot_.r[i];
        if (changed && !(meta.out_int & bit))
            tainted_int_ |= bit;
        if (meta.out_int & bit)
            tainted_int_ &= ~bit;
    }
    for (size_t i = 0; i < kNumFloatRegs; ++i) {
        const uint32_t bit = 1u << i;
        const bool changed = ctx.f[i] != ctx_snapshot_.f[i];
        if (changed && !(meta.out_float & bit))
            tainted_float_ |= bit;
        if (meta.out_float & bit)
            tainted_float_ &= ~bit;
    }
}

void
RuntimeThread::checker_on_load(uint64_t off, size_t n)
{
    if (!in_fase_)
        return;
    for_each_chunk(off, n, [&](uint64_t c) {
        if (stored_chunks_.find(c) == stored_chunks_.end())
            loaded_chunks_.insert(c);
    });
}

void
RuntimeThread::checker_on_store(uint64_t off, size_t n)
{
    if (!in_fase_)
        return;
    IDO_ASSERT(!lock_taken_in_region_,
               "store after lock acquire within a region");
    for_each_chunk(off, n, [&](uint64_t c) {
        if (loaded_chunks_.find(c) != loaded_chunks_.end()) {
            panic("antidependence in region '%s': store to a location "
                  "loaded earlier in the region (chunk %llx)",
                  cur_prog_ ? cur_prog_->region(cur_region_).name : "?",
                  (unsigned long long)c);
        }
        stored_chunks_.insert(c);
    });
}

} // namespace ido::rt
