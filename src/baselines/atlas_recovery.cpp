/**
 * @file
 * Atlas rollback recovery.
 *
 * Unlike iDO's resumption (constant work per thread), Atlas must
 * (1) traverse every thread's entire log, (2) reconstruct the FASE
 * instances and the cross-FASE happens-before order recorded at lock
 * operations, (3) doom every FASE interrupted by the crash plus every
 * FASE that transitively depends on a doomed one, and (4) undo the
 * doomed FASEs' stores in reverse dependence order.  The log traversal
 * makes recovery time grow with run length -- the effect Table I of the
 * paper quantifies.
 */
#include <algorithm>
#include <map>
#include <vector>

#include "baselines/atlas_runtime.h"
#include "trace/trace.h"
#include "common/panic.h"

namespace ido::baselines {

namespace {

struct StoreRec
{
    uint64_t addr_off;
    uint64_t old_val;
    uint16_t size;
};

struct SyncRec
{
    uint64_t holder_off;
    uint64_t seq;
};

struct FaseInstance
{
    std::vector<StoreRec> stores;
    std::vector<SyncRec> acquires;
    std::vector<SyncRec> releases;
    uint64_t first_seq = 0;
    uint64_t last_seq = 0;
    bool complete = false;
    bool doomed = false;
};

/** Entries of one thread log in append order (handles lap wrap). */
std::vector<AtlasEntry>
read_log_entries(nvm::PersistentHeap& heap, nvm::PersistDomain& dom,
                 const AtlasThreadLog* log)
{
    std::vector<AtlasEntry> out;
    const uint64_t lap = dom.load_val(&log->lap);
    const auto* buf = heap.resolve<uint8_t>(log->buf_off);
    const size_t n_slots = log->buf_bytes / sizeof(AtlasEntry);

    std::vector<AtlasEntry> cur_lap, prev_lap;
    bool in_prefix = true;
    for (size_t i = 0; i < n_slots; ++i) {
        AtlasEntry e;
        dom.load(buf + i * sizeof(AtlasEntry), &e, sizeof(e));
        if (e.type == static_cast<uint16_t>(AtlasEntryType::kInvalid))
            break; // untouched tail: nothing further can be valid
        if (in_prefix && e.lap == static_cast<uint32_t>(lap)) {
            cur_lap.push_back(e);
        } else {
            in_prefix = false;
            if (e.lap == static_cast<uint32_t>(lap - 1))
                prev_lap.push_back(e);
            else
                break; // older than one lap: dead
        }
    }
    // Oldest surviving entries first: previous-lap suffix, then the
    // current lap's prefix.
    out.reserve(prev_lap.size() + cur_lap.size());
    out.insert(out.end(), prev_lap.begin(), prev_lap.end());
    out.insert(out.end(), cur_lap.begin(), cur_lap.end());
    return out;
}

} // namespace

void
AtlasRuntime::recover()
{
    bump_lock_epoch();
    // Relink any block the crashed epoch stranded mid-free (NvHeap's
    // online leak reclamation, from the census the attach took).
    alloc_.recover_leaks(dom_);
    trace::emit(trace::EventKind::kRecoveryBegin, 1);

    // Phase 1: traverse all logs, rebuild FASE instances.
    std::vector<FaseInstance> fases;
    std::vector<AtlasThreadLog*> logs;
    for (uint64_t off : log_records(nvm::RootSlot::kAtlasState)) {
        auto* log = heap_.resolve<AtlasThreadLog>(off);
        logs.push_back(log);
        const std::vector<AtlasEntry> entries =
            read_log_entries(heap_, dom_, log);
        FaseInstance* open = nullptr;
        for (const AtlasEntry& e : entries) {
            const auto type = static_cast<AtlasEntryType>(e.type);
            if (open == nullptr && type != AtlasEntryType::kFaseEnd) {
                // A FaseBegin, or an orphan whose Begin aged out of the
                // ring: open an instance either way.
                fases.emplace_back();
                open = &fases.back();
                open->first_seq = e.seq;
            }
            switch (type) {
              case AtlasEntryType::kFaseBegin:
                open->first_seq = e.seq;
                open->last_seq = e.seq;
                break;
              case AtlasEntryType::kStore:
                open->stores.push_back(
                    StoreRec{e.addr_off, e.old_val, e.size});
                break;
              case AtlasEntryType::kAcquire:
                open->acquires.push_back(SyncRec{e.addr_off, e.seq});
                open->last_seq = std::max(open->last_seq, e.seq);
                break;
              case AtlasEntryType::kRelease:
                open->releases.push_back(SyncRec{e.addr_off, e.seq});
                open->last_seq = std::max(open->last_seq, e.seq);
                break;
              case AtlasEntryType::kFaseEnd:
                if (open != nullptr) {
                    open->complete = true;
                    open->last_seq = std::max(open->last_seq, e.seq);
                    open = nullptr;
                }
                break;
              case AtlasEntryType::kInvalid:
                break;
            }
        }
    }

    // Phase 2: happens-before edges.  B depends on A if B acquired a
    // lock at sequence s and A performed the latest release of that
    // lock with sequence < s.
    std::map<uint64_t, std::vector<std::pair<uint64_t, size_t>>>
        releases_by_lock; // holder -> sorted (seq, fase index)
    for (size_t i = 0; i < fases.size(); ++i) {
        for (const SyncRec& r : fases[i].releases)
            releases_by_lock[r.holder_off].emplace_back(r.seq, i);
    }
    for (auto& [holder, rels] : releases_by_lock)
        std::sort(rels.begin(), rels.end());

    // dependents[i] = indices of FASEs that observed FASE i's data.
    std::vector<std::vector<size_t>> dependents(fases.size());
    for (size_t i = 0; i < fases.size(); ++i) {
        for (const SyncRec& a : fases[i].acquires) {
            auto it = releases_by_lock.find(a.holder_off);
            if (it == releases_by_lock.end())
                continue;
            const auto& rels = it->second;
            auto pos = std::lower_bound(
                rels.begin(), rels.end(),
                std::make_pair(a.seq, size_t{0}));
            if (pos == rels.begin())
                continue; // no earlier release: lock came from pre-run
            const size_t src = (pos - 1)->second;
            if (src != i)
                dependents[src].push_back(i);
        }
    }

    // Phase 3: doom incomplete FASEs and propagate to dependents.
    std::vector<size_t> worklist;
    for (size_t i = 0; i < fases.size(); ++i) {
        if (!fases[i].complete) {
            fases[i].doomed = true;
            worklist.push_back(i);
        }
    }
    while (!worklist.empty()) {
        const size_t i = worklist.back();
        worklist.pop_back();
        for (size_t d : dependents[i]) {
            if (!fases[d].doomed) {
                fases[d].doomed = true;
                worklist.push_back(d);
            }
        }
    }

    // Phase 4: undo doomed FASEs, most recent first; within a FASE,
    // stores in reverse.  Data-race freedom makes this order sound:
    // conflicting stores are ordered by the lock sequences.
    std::vector<size_t> doomed;
    for (size_t i = 0; i < fases.size(); ++i) {
        if (fases[i].doomed)
            doomed.push_back(i);
    }
    std::sort(doomed.begin(), doomed.end(), [&](size_t a, size_t b) {
        return fases[a].last_seq > fases[b].last_seq;
    });
    for (size_t i : doomed) {
        const auto& stores = fases[i].stores;
        trace::emit(trace::EventKind::kRecoverUndoBegin, i);
        for (auto it = stores.rbegin(); it != stores.rend(); ++it) {
            void* p = heap_.resolve<void>(it->addr_off);
            dom_.store(p, &it->old_val, it->size);
            dom_.flush(p, it->size);
        }
        trace::emit(trace::EventKind::kRecoverUndoEnd, i,
                    stores.size());
    }
    dom_.fence();

    // Phase 5: truncate every log (single durable lap bump each).
    for (AtlasThreadLog* log : logs) {
        dom_.store_val(&log->lap, log->lap + 2);
        dom_.flush(&log->lap, sizeof(uint64_t));
    }
    dom_.fence();
    trace::emit(trace::EventKind::kRecoveryEnd, 1);
}

} // namespace ido::baselines
