#include "ido/ido_runtime.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "common/cacheline.h"
#include "common/panic.h"
#include "stats/metrics.h"
#include "trace/trace.h"

namespace ido {

using rt::RegionCtx;
using rt::RegionMeta;

namespace {

// Stable MetricsRegistry cell for the boundary line-dedup count.
std::atomic<uint64_t>&
metric(const char* name)
{
    return *MetricsRegistry::instance().counter(name);
}

// GC layout facts for the iDO log record.
const bool g_ido_log_type = [] {
    nvm::TypeDescriptor d;
    d.name = "ido_log";
    d.payload_size = sizeof(IdoLogRec);
    d.link_offsets = {offsetof(IdoLogRec, next)};
    // An interrupted FASE's current-instance entries name blocks its
    // resumed region takes back (allocations) or frees at deactivation;
    // the crash may have left them FREEING or FREE-unlisted, which
    // recover_leaks would otherwise relink.
    d.reserved_blocks = [](const nvm::PersistentHeap& heap,
                           uint64_t payload_off, std::vector<uint64_t>* out) {
        const auto* rec = heap.resolve<IdoLogRec>(payload_off);
        if (rec->recovery_pc == kInactivePc)
            return;
        const uint32_t inst = recovery_pc_instance(rec->recovery_pc);
        for (const IdoLogEntry& e : rec->entries) {
            if (e.tag != 0 && entry_instance(e.tag) == inst)
                out->push_back(entry_block_raw(e.block));
        }
    };
    nvm::TypeRegistry::instance().register_type(nvm::TypeId::kIdoLogRec,
                                                std::move(d));
    return true;
}();

/**
 * Does the tail starting at region `next` store nothing?  The index
 * test deactivation trusts: no may_store region at index >= next.  A
 * back edge into a storing region fails it.
 */
bool
store_free_from(const rt::FaseProgram& prog, uint32_t next)
{
    if (next == rt::kRegionEnd)
        return true;
    for (size_t j = next; j < prog.regions.size(); ++j) {
        if (prog.regions[j].may_store)
            return false;
    }
    return true;
}

} // namespace

IdoRuntime::IdoRuntime(nvm::PersistentHeap& heap, nvm::PersistDomain& dom,
                       const rt::RuntimeConfig& cfg)
    : Runtime(heap, dom, cfg)
{
    // Publish every fence site and one-word FASE counter from the
    // start, zero or not.
    MetricsRegistry& reg = MetricsRegistry::instance();
    for (size_t i = 0; i < kNumFenceSites; ++i)
        reg.counter(fence_site_metric(static_cast<FenceSite>(i)));
    reg.counter(kSingleStoreCommitsMetric);
    reg.counter(kSingleStoreFallbacksMetric);
}

rt::RuntimeTraits
IdoRuntime::traits() const
{
    return {"Lock-inferred FASE", "Resumption", "Idempotent Region",
            /*dependence_tracking=*/false, /*transient_caches=*/true};
}

uint64_t
IdoRuntime::allocate_log_rec()
{
    const uint64_t off = alloc_.alloc_linked(
        nvm::RootSlot::kIdoLogHead, nvm::TypeId::kIdoLogRec,
        sizeof(IdoLogRec), dom_,
        [&](void* rec, uint64_t prev_head) {
            IdoLogRec init{};
            init.next = prev_head;
            init.thread_tag = next_thread_tag();
            init.recovery_pc = kInactivePc;
            init.lock_bitmap = 0;
            dom_.store(rec, &init, sizeof(init));
        });
    IDO_ASSERT(off != 0, "out of persistent memory for iDO logs");
    return off;
}

std::unique_ptr<rt::RuntimeThread>
IdoRuntime::make_thread()
{
    return std::make_unique<IdoThread>(*this);
}

// --------------------------------------------------------------------------
// IdoThread
// --------------------------------------------------------------------------

IdoThread::IdoThread(IdoRuntime& rt)
    : RuntimeThread(rt), rec_off_(rt.allocate_log_rec())
{
    rec_ = heap().resolve<IdoLogRec>(rec_off_);
    pending_.reserve(32);
    trace::emit(trace::EventKind::kLogRecAttach, rec_off_,
                dom().load_val(&rec_->thread_tag));
}

IdoThread::IdoThread(IdoRuntime& rt, uint64_t existing_rec_off)
    : RuntimeThread(rt), rec_off_(existing_rec_off)
{
    rec_ = heap().resolve<IdoLogRec>(rec_off_);
    lock_bitmap_mirror_ = dom().load_val(&rec_->lock_bitmap);
    rec_bitmap_ = lock_bitmap_mirror_;
    pending_.reserve(32);
    phase_ = Phase::kActive; // an interrupted FASE was, by definition, live
    recovering_ = true;
    resuming_ = true;
    // The interrupted instance resumes at its durable pc's region: the
    // entries of earlier regions stay, and their frees still await the
    // deactivation; the resumed region re-records from its first slot.
    const uint64_t pc = dom().load_val(&rec_->recovery_pc);
    instance_ = recovery_pc_instance(pc);
    entries_ = region_entries_ = recovery_pc_entries(pc);
    // Earlier regions' allocations are committed, but their deferred
    // LIVE marks rode the fence that advanced the pc and may have
    // lost the race to it: mark them again.
    nvm::NvHeap& heap_alloc = rt_.allocator();
    bool relive = false;
    for (uint32_t slot = 0; slot < entries_; ++slot) {
        const uint64_t tag = dom().load_val(&rec_->entries[slot].tag);
        if (tag == 0 || entry_instance(tag) != instance_)
            continue;
        const uint64_t block = dom().load_val(&rec_->entries[slot].block);
        const uint64_t raw = entry_block_raw(block);
        if (entry_kind(tag) == LogEntryKind::kFree) {
            deferred_frees_.push_back(raw);
            free_slots_ |= static_cast<uint8_t>(1u << slot);
        } else if (!heap_alloc.is_live(raw, dom())) {
            heap_alloc.mark_live(
                raw, static_cast<nvm::TypeId>(entry_block_type(block)),
                entry_block_aligned(block), dom());
            relive = true;
        }
    }
    if (relive)
        fence(FenceSite::kAlloc);
    // An earlier instance's free entry can outlive its clear (a plain
    // store the crash dropped) while recover_leaks relinks its block
    // for reuse.  Clear it durably now, or it would read as pending
    // once this record goes inactive.  (Stale allocation entries are
    // harmless: only the current instance's are ever matched.)
    bool stale = false;
    for (IdoLogEntry& e : rec_->entries) {
        const uint64_t tag = dom().load_val(&e.tag);
        if (tag != 0 && entry_instance(tag) != instance_
            && entry_kind(tag) == LogEntryKind::kFree) {
            dom().store_val(&e.tag, uint64_t{0});
            stale = true;
        }
    }
    if (stale) {
        dom().flush(&rec_->entries[0], sizeof(rec_->entries));
        fence(FenceSite::kAlloc);
    }
    trace::emit(trace::EventKind::kLogRecAttach, rec_off_,
                dom().load_val(&rec_->thread_tag));
}

uint64_t
IdoThread::reacquire_crashed_locks()
{
    trace::emit(trace::EventKind::kRecoverLocksBegin);
    const size_t held_before = held_.size();
    for (size_t slot = 0; slot < kMaxHeldLocks; ++slot) {
        if (!(lock_bitmap_mirror_ & (1ull << slot)))
            continue;
        const uint64_t holder_off =
            dom().load_val(&rec_->lock_array[slot]);
        if (holder_off == 0) {
            // Torn lock record: the bitmap bit persisted but the array
            // entry did not.  That can only happen if the crash hit
            // before the boundary fence following the acquire, i.e.
            // before any instruction executed under the lock -- the
            // harmless "stolen lock" window of Sec. III-B.  Do not
            // reacquire; the resumed region re-acquires from scratch.
            lock_bitmap_mirror_ &= ~(1ull << slot);
            continue;
        }
        rt::TransientLock& l =
            rt_.locks().lock_for(heap().resolve<uint64_t>(holder_off));
        acquire_transient(l, holder_off);
        held_.push_back(
            HeldLock{holder_off, static_cast<uint8_t>(slot), &l});
    }
    trace::emit(trace::EventKind::kRecoverLocksEnd, 0, held_.size());
    return held_.size() - held_before;
}

void
IdoThread::restore_ctx(RegionCtx& ctx) const
{
    trace::emit(trace::EventKind::kRecoverRestoreCtx, rec_off_);
    for (size_t i = 0; i < rt::kNumIntRegs; ++i)
        ctx.r[i] = rec_->intRF[i];
    for (size_t i = 0; i < rt::kNumFloatRegs; ++i)
        ctx.f[i] = rec_->floatRF[i];
}

void
IdoThread::fence(FenceSite site)
{
    crash_tick();
    dom().fence();
    ++tls_persist_counters().site(site);
}

void
IdoThread::credit_alloc_fences(uint64_t fences_before)
{
    PersistCounters& c = tls_persist_counters();
    c.site(FenceSite::kAlloc) += c.fences - fences_before;
}

void
IdoThread::require_storing_region(const char* what) const
{
    // Only an active storing region has a boundary fence 1 to make an
    // entry durable.  In the read-only prefix or the deactivated tail
    // an allocation would leak, or a free be lost, at the next crash.
    if (phase_ != Phase::kActive
        || !cur_prog_->region(cur_region_).may_store)
        panic("FASE '%s': %s in region '%s' outside an active storing "
              "region",
              cur_prog_->name, what, cur_prog_->region(cur_region_).name);
}

uint32_t
IdoThread::next_entry_slot(const char* what) const
{
    if (entries_ >= kMaxLogEntries)
        panic("FASE '%s': %s in region '%s' exceeds the %zu allocation "
              "and free entries of a log record",
              cur_prog_->name, what, cur_prog_->region(cur_region_).name,
              kMaxLogEntries);
    return entries_;
}

void
IdoThread::write_entry(uint32_t slot, uint64_t tag, uint64_t block)
{
    const IdoLogEntry e{tag, block};
    dom().store(&rec_->entries[slot], &e, sizeof(e));
    dom().flush(&rec_->entries[slot], sizeof(e));
    // The write-back carries the last FASE's cleared free entries too.
    rt_.allocator().note_written_back(&rec_->entries[0]);
}

/** Names the block in an allocation entry when NvHeap hands it out. */
struct IdoThread::AllocEntryClaim final : nvm::NvHeap::Claim
{
    AllocEntryClaim(IdoThread& th, uint32_t slot, uint64_t tag,
                    nvm::TypeId type, bool aligned)
        : th(th), slot(slot), tag(tag), type(type), aligned(aligned)
    {
    }

    void
    name(uint64_t raw) override
    {
        th.write_entry(slot, tag,
                       make_entry_block(raw, static_cast<uint8_t>(type),
                                        aligned));
    }

    IdoThread& th;
    uint32_t slot;
    uint64_t tag;
    nvm::TypeId type;
    bool aligned;
};

uint64_t
IdoThread::nv_alloc(size_t n)
{
    if (!in_fase_) {
        const uint64_t before = tls_persist_counters().fences;
        const uint64_t off = RuntimeThread::nv_alloc(n);
        credit_alloc_fences(before);
        return off;
    }
    crash_tick();
    if (phase_ == Phase::kSingle)
        fall_back_from_single();
    const uint64_t before = tls_persist_counters().fences;
    require_storing_region("nv_alloc");
    const nvm::TypeId type = pending_alloc_type_;
    pending_alloc_type_ = nvm::TypeId::kUntyped;
    const bool aligned = n >= kCacheLineBytes;
    const uint32_t slot = next_entry_slot("nv_alloc");
    const uint64_t tag =
        make_entry_tag(instance_, LogEntryKind::kAlloc, cur_region_,
                       entries_ - region_entries_, slot);
    nvm::NvHeap& heap_alloc = rt_.allocator();
    uint64_t raw;
    bool live_deferred = true;
    if (resuming_ && dom().load_val(&rec_->entries[slot].tag) == tag) {
        // The crashed run already took a block for this very call; its
        // entry pinned it through recovery.  Take it back.
        raw = entry_block_raw(dom().load_val(&rec_->entries[slot].block));
        heap_alloc.adopt_claimed(raw, n, aligned, dom());
    } else {
        AllocEntryClaim claim(*this, slot, tag, type, aligned);
        raw = heap_alloc.alloc_claimed(n, dom(), type, aligned, claim,
                                       &live_deferred);
        if (raw == 0)
            panic("nv_alloc: persistent arena exhausted (%zu bytes "
                  "requested)",
                  n);
    }
    if (live_deferred)
        claimed_.push_back(ClaimedBlock{raw, type, aligned});
    ++entries_;
    const uint64_t off =
        aligned ? heap_alloc.publish_aligned(raw, dom()) : raw;
    credit_alloc_fences(before);
    return off;
}

void
IdoThread::nv_free(uint64_t off)
{
    if (!in_fase_) {
        const uint64_t before = tls_persist_counters().fences;
        RuntimeThread::nv_free(off);
        credit_alloc_fences(before);
        return;
    }
    if (phase_ == Phase::kSingle)
        fall_back_from_single();
    require_storing_region("nv_free");
    if (off == 0)
        return;
    // Recorded, not performed: the block is freed at deactivation, and
    // a re-executed region records the same entry again.
    const uint32_t slot = next_entry_slot("nv_free");
    const uint64_t raw = rt_.allocator().raw_payload(off, dom());
    write_entry(slot,
                make_entry_tag(instance_, LogEntryKind::kFree, cur_region_,
                               entries_ - region_entries_, slot),
                make_entry_block(raw));
    deferred_frees_.push_back(raw);
    free_slots_ |= static_cast<uint8_t>(1u << slot);
    ++entries_;
}

void
IdoThread::mark_claimed_live()
{
    // Fence 1 made this region's allocation entries durable; the LIVE
    // marks ride fence 2.  If the crash keeps that fence's pc and drops
    // a mark, the adopting recovery thread marks the block again.
    for (const ClaimedBlock& b : claimed_)
        rt_.allocator().mark_live(b.raw, b.type, b.aligned, dom());
    claimed_.clear();
}

void
IdoThread::begin_recorded_frees()
{
    // Every free entry is durable (its region's fence 1), so a FREEING
    // mark that reaches memory early is pinned by the entry while the
    // pc is active, and the inactive pc orders it otherwise.
    for (const uint64_t raw : deferred_frees_)
        rt_.allocator().begin_free(raw, dom(), recovering_);
}

void
IdoThread::finish_recorded_frees()
{
    if (deferred_frees_.empty())
        return;
    // The FREEING marks are durable (fence 2).  Clearing the entries
    // needs no write-back of its own: the allocator writes the line
    // back before any of these blocks leaves this thread's cache.
    const uint64_t before = tls_persist_counters().fences;
    for (uint32_t slot = 0; slot < kMaxLogEntries; ++slot) {
        if (free_slots_ & (1u << slot))
            dom().store_val(&rec_->entries[slot].tag, uint64_t{0});
    }
    nvm::NvHeap& heap_alloc = rt_.allocator();
    heap_alloc.set_reuse_guard(&rec_->entries[0], dom());
    for (const uint64_t raw : deferred_frees_)
        heap_alloc.finish_free(raw, dom());
    deferred_frees_.clear();
    free_slots_ = 0;
    credit_alloc_fences(before);
}

void
IdoThread::persist_outputs(const RegionMeta& meta, const RegionCtx& ctx,
                           FenceSite site)
{
    // Output registers to their fixed slots.  With fixed slots, persist
    // coalescing (Sec. IV-B) is a matter of flushing whole RF lines:
    // eight u64 registers share one line.
    if (meta.out_int) {
        for (size_t i = 0; i < rt::kNumIntRegs; ++i) {
            if (meta.out_int & (1u << i))
                dom().store_val(&rec_->intRF[i], ctx.r[i]);
        }
        if (meta.out_int & 0x00ffu)
            dom().flush(&rec_->intRF[0], 8 * sizeof(uint64_t));
        if (meta.out_int & 0xff00u)
            dom().flush(&rec_->intRF[8], 8 * sizeof(uint64_t));
    }
    if (meta.out_float) {
        for (size_t i = 0; i < rt::kNumFloatRegs; ++i) {
            if (meta.out_float & (1u << i))
                dom().store_val(&rec_->floatRF[i], ctx.f[i]);
        }
        dom().flush(&rec_->floatRF[0], 8 * sizeof(double));
    }
    // Heap writes of the finished region, tracked at run time
    // (Sec. III-A: pointer-accessed locations are written back at the
    // end of each idempotent region), each distinct line once: two
    // stores of one region that landed on one line need one clwb, not
    // two.  A repeat write-back before the same fence persists nothing
    // the first did not, so skipping it needs no proof.
    line_scratch_.clear();
    for (const PendingRange& p : pending_) {
        const uintptr_t a =
            reinterpret_cast<uintptr_t>(heap().resolve<void>(p.off));
        const uintptr_t last = line_base(a + p.len - 1);
        for (uintptr_t lb = line_base(a); lb <= last;
             lb += kCacheLineBytes) {
            if (std::find(line_scratch_.begin(), line_scratch_.end(), lb)
                != line_scratch_.end())
                continue;
            line_scratch_.push_back(lb);
            dom().flush(reinterpret_cast<void*>(lb), 1);
        }
    }
    if (line_scratch_.size() < pending_.size()) {
        static std::atomic<uint64_t>& deduped =
            metric("ido.elide.boundary_lines_deduped");
        deduped.fetch_add(pending_.size() - line_scratch_.size(),
                          std::memory_order_relaxed);
    }
    pending_.clear();
    fence(site); // boundary fence 1
    trace::emit(trace::EventKind::kPersistOutputs,
                dom().load_val(&rec_->recovery_pc));
}

void
IdoThread::set_recovery_pc(uint64_t pc, FenceSite site)
{
    crash_tick();
    dom().store_val(&rec_->recovery_pc, pc);
    dom().flush(&rec_->recovery_pc, sizeof(uint64_t));
    fence(site); // boundary fence 2
    trace::emit(trace::EventKind::kAdvancePc, pc);
    crash_tick();
}

void
IdoThread::on_fase_begin(const rt::FaseProgram&, RegionCtx&)
{
    // Lazy activation (Sec. V-A's cheap read paths): no logging at all
    // until control reaches the first region that may store.  Losing a
    // store-free FASE prefix to a crash is indistinguishable from it
    // never having run, so recovery_pc can stay inactive.
    phase_ = Phase::kPrefix;
    single_held_ = false;
    entries_ = region_entries_ = 0;
    resuming_ = false;
}

void
IdoThread::on_region_begin(const rt::FaseProgram& prog, uint32_t idx,
                           RegionCtx& ctx)
{
    if (phase_ == Phase::kActive || !prog.region(idx).may_store)
        return;
    // Deactivation trusted the index order: no may_store region after
    // the last one's boundary.  A read-only region that branches back
    // to a storing one breaks that, and re-activating here would tear
    // the FASE in two atomic halves.
    if (phase_ == Phase::kTail)
        panic("FASE '%s': may_store region '%s' runs after the log "
              "deactivated (its tail is not store-free)",
              prog.name, prog.region(idx).name);
    // First potentially-storing region: the log waits.  If the
    // region's one durable effect is an aligned word and its successor
    // starts a store-free tail, its boundary commits the word with one
    // fence and the log never activates.  Anything else activates from
    // this entry snapshot (fall_back_from_single).
    single_entry_ = ctx;
    single_held_ = false;
    phase_ = Phase::kSingle;
}

void
IdoThread::activate(const rt::FaseProgram& prog, uint32_t idx,
                    const RegionCtx& entry)
{
    // Persist every register any region consumes as live-in, at
    // region idx's entry state (registers defined later get
    // re-persisted, fresher, at their defining region's boundary), then
    // go live.  Locks taken before activation live only in the
    // volatile mirror; their ownership records are written here, and
    // fence 1 orders them ahead of the activation recovery_pc.  Bits a
    // previous FASE's deactivated tail left behind are cleared in the
    // same write, and their slots zeroed, so a torn later lock op can
    // only read 0.
    // Recovery reads a record only while its pc is active, so these
    // are exactly the records it can ever observe -- hence fence 1 runs
    // whenever the lock record changes, live-in arguments or not.
    const uint64_t stale = rec_bitmap_ & ~lock_bitmap_mirror_;
    const bool lock_record = !held_.empty() || stale != 0;
    if (lock_record) {
        size_t top = 0;
        for (const HeldLock& h : held_) {
            dom().store_val(&rec_->lock_array[h.slot], h.holder_off);
            top = std::max<size_t>(top, h.slot);
        }
        for (size_t slot = 0; slot < kMaxHeldLocks; ++slot) {
            if (stale & (1ull << slot)) {
                dom().store_val(&rec_->lock_array[slot], uint64_t{0});
                top = std::max(top, slot);
            }
        }
        dom().store_val(&rec_->lock_bitmap, lock_bitmap_mirror_);
        rec_bitmap_ = lock_bitmap_mirror_;
        flush_lock_record(top);
    }
    RegionMeta args_meta{};
    for (const RegionMeta& m : prog.regions) {
        args_meta.out_int |= m.live_in_int;
        args_meta.out_float |= m.live_in_float;
    }
    if (args_meta.out_int || args_meta.out_float || lock_record)
        persist_outputs(args_meta, entry, FenceSite::kActivate1);
    // A new instance number makes every entry an earlier FASE left
    // behind stale.  Before the 24-bit count wraps, the entries are
    // wiped durably, so an old tag can never match a reused number.
    if (instance_ == kMaxInstance) {
        for (IdoLogEntry& e : rec_->entries)
            dom().store_val(&e.tag, uint64_t{0});
        dom().flush(&rec_->entries[0], sizeof(rec_->entries));
        fence(FenceSite::kAlloc);
        instance_ = 0;
    }
    ++instance_;
    set_recovery_pc(pack_recovery_pc(prog.fase_id, idx, instance_, 0),
                    FenceSite::kActivate2);
    phase_ = Phase::kActive;
}

void
IdoThread::fall_back_from_single()
{
    ++tls_persist_counters().single_store_fallbacks;
    activate(*cur_prog_, cur_region_, single_entry_);
    if (single_held_) {
        single_held_ = false;
        do_store(single_off_, &single_val_, sizeof(single_val_));
    }
}

void
IdoThread::commit_single()
{
    // An aligned 8-byte store persists whole or not at all, so it needs
    // no log: a crash before this fence retires leaves the old word or
    // the new one behind an inactive record.  The fence retires before
    // the tail can release a lock, as the deactivating fence does.
    void* p = heap().resolve<void>(single_off_);
    dom().store(p, &single_val_, sizeof(single_val_));
    dom().flush(p, sizeof(single_val_));
    fence(FenceSite::kSingleStore);
    ++tls_persist_counters().single_store_commits;
    trace::emit(trace::EventKind::kSingleStore, single_off_, single_val_);
    single_held_ = false;
}

void
IdoThread::on_region_boundary(const rt::FaseProgram& prog,
                              uint32_t finished_idx, RegionCtx& ctx,
                              uint32_t next_idx)
{
    if (phase_ == Phase::kSingle) {
        if (!single_held_) {
            // The region stored nothing: it was read-only after all.
            phase_ = Phase::kPrefix;
            return;
        }
        if (store_free_from(prog, next_idx)) {
            commit_single();
            phase_ = Phase::kTail;
            return;
        }
        fall_back_from_single();
    }
    if (phase_ != Phase::kActive) {
        // Read-only prefix or deactivated tail: nothing persisted,
        // nothing to order, no recovery_pc to advance.
        IDO_ASSERT(pending_.empty());
        return;
    }
    // Entries recorded in this region become durable at fence 1, and
    // only then may the region's claimed blocks be marked LIVE.
    const bool new_entries = entries_ != region_entries_;
    if (store_free_from(prog, next_idx)) {
        // Deactivate at the last store.  Fence 1 makes the finished
        // region's heap lines and entries durable; no register slot is
        // written, since recovery only ever resumes a storing region,
        // whose inputs are already logged.  Fence 2 publishes the
        // inactive pc with the FREEING marks of the FASE's frees, and
        // must retire before the tail releases any lock: a pending pc
        // flush could still drop at a crash after another thread took
        // the lock and committed, and recovery would then re-run this
        // FASE's store over the newer value.
        if (!pending_.empty() || new_entries)
            persist_outputs(RegionMeta{}, ctx, FenceSite::kBoundary1);
        // A LIVE mark must not share fence 2 with the inactive pc: a
        // crash could keep the pc and lose the mark, and an inactive
        // record no longer says which block it was.  Only a FASE whose
        // last storing region takes a block from the transient cache
        // pays this fence.
        if (!claimed_.empty()) {
            mark_claimed_live();
            fence(FenceSite::kAlloc);
        }
        begin_recorded_frees();
        set_recovery_pc(kInactivePc, FenceSite::kDeactivate);
        phase_ = Phase::kTail;
        resuming_ = false;
        finish_recorded_frees();
        return;
    }
    // A region with no outputs and no tracked heap writes has nothing
    // to order ahead of the recovery_pc update, so its boundary costs a
    // single fence.
    const rt::RegionMeta& meta = prog.region(finished_idx);
    // Fence 1 stores the outputs into their register slots while the
    // pc still names the finished region: an output that is also one
    // of its live-ins would resume the region with its post-region
    // value.
    if ((meta.out_int & meta.live_in_int)
        || (meta.out_float & meta.live_in_float))
        panic("FASE '%s': region '%s' outputs its own live-in register "
              "(int 0x%x, float 0x%x); a logged boundary would overwrite "
              "the value its re-execution reads",
              prog.name, meta.name,
              static_cast<unsigned>(meta.out_int & meta.live_in_int),
              static_cast<unsigned>(meta.out_float & meta.live_in_float));
    if (meta.out_int || meta.out_float || !pending_.empty() || new_entries)
        persist_outputs(meta, ctx, FenceSite::kBoundary1);
    mark_claimed_live();
    set_recovery_pc(
        pack_recovery_pc(prog.fase_id, next_idx, instance_, entries_),
        FenceSite::kBoundary2);
    region_entries_ = entries_;
    resuming_ = false;
}

void
IdoThread::do_store(uint64_t off, const void* src, size_t n)
{
    if (!in_fase_) {
        // Outside any FASE there is no boundary to flush at; write
        // through durably.
        void* p = heap().resolve<void>(off);
        dom().store(p, src, n);
        dom().flush(p, n);
        dom().fence();
        ++tls_persist_counters().site(FenceSite::kWritethrough);
        return;
    }
    void* p = heap().resolve<void>(off);
    if (phase_ == Phase::kSingle) {
        if (!single_held_ && n == sizeof(uint64_t)
            && reinterpret_cast<uintptr_t>(p) % sizeof(uint64_t) == 0) {
            std::memcpy(&single_val_, src, sizeof(single_val_));
            single_off_ = off;
            single_held_ = true;
            return;
        }
        fall_back_from_single();
    }
    IDO_ASSERT(phase_ == Phase::kActive,
               "store in a region not marked may_store (metadata bug)");
    dom().store(p, src, n);
    pending_.push_back(PendingRange{off, static_cast<uint32_t>(n)});
}

void
IdoThread::do_load(uint64_t off, void* dst, size_t n)
{
    if (single_held_ && off < single_off_ + sizeof(single_val_)
        && single_off_ < off + n) {
        if (off == single_off_ && n == sizeof(single_val_)) {
            std::memcpy(dst, &single_val_, n);
            return;
        }
        fall_back_from_single(); // a partial overlap reads the heap
    }
    dom().load(heap().resolve<void>(off), dst, n);
}

void
IdoThread::flush_lock_record(size_t top_slot)
{
    // The bitmap shares a line with the first seven array slots, so the
    // common lock depth costs one write-back.
    dom().flush(&rec_->lock_bitmap, (top_slot + 2) * sizeof(uint64_t));
}

void
IdoThread::record_lock_op(size_t slot, uint64_t holder_off)
{
    dom().store_val(&rec_->lock_array[slot], holder_off);
    dom().store_val(&rec_->lock_bitmap, lock_bitmap_mirror_);
    rec_bitmap_ = lock_bitmap_mirror_;
    flush_lock_record(slot);
    fence(FenceSite::kLock); // the single ordered write per lock op
}

void
IdoThread::do_lock(uint64_t holder_off, rt::TransientLock& l)
{
    if (single_held_)
        fall_back_from_single();
    acquire_transient(l);
    // Crash window between acquire and ownership record: another thread
    // may "steal" the lock in recovery, harmlessly (Sec. III-B).
    crash_tick();
    int slot = -1;
    for (size_t i = 0; i < kMaxHeldLocks; ++i) {
        if (!(lock_bitmap_mirror_ & (1ull << i))) {
            slot = static_cast<int>(i);
            break;
        }
    }
    IDO_ASSERT(slot >= 0, "more than %zu locks held in one FASE",
               kMaxHeldLocks);
    lock_bitmap_mirror_ |= 1ull << slot;
    held_.push_back(HeldLock{holder_off, static_cast<uint8_t>(slot), &l});
    // Outside the active span the record is written at activation, if
    // ever.
    if (phase_ == Phase::kActive)
        record_lock_op(static_cast<size_t>(slot), holder_off);
}

void
IdoThread::do_unlock(uint64_t holder_off, rt::TransientLock& l)
{
    if (single_held_)
        fall_back_from_single();
    int slot = -1;
    for (size_t i = 0; i < held_.size(); ++i) {
        if (held_[i].holder_off == holder_off) {
            slot = held_[i].slot;
            held_.erase(held_.begin() + static_cast<long>(i));
            break;
        }
    }
    IDO_ASSERT(slot >= 0, "unlocking a lock not held");
    lock_bitmap_mirror_ &= ~(1ull << slot);
    // Unrecorded before activation; unread after deactivation.
    if (phase_ == Phase::kActive)
        record_lock_op(static_cast<size_t>(slot), 0); // then release
    crash_tick();
    l.unlock();
}

} // namespace ido
