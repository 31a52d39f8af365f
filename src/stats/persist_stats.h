/**
 * @file
 * Contention-free accounting of persistence events.
 *
 * Every runtime under test issues stores / cache-line write-backs /
 * persist fences through nvm::PersistDomain; this module counts them,
 * along with the runtime's validated-read retries and waits.
 * Counters are thread-local (the microbenchmarks of Sec. V-B measure
 * scalability, so shared atomic counters would perturb the results) and
 * are folded into a global registry for reporting.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ido {

/**
 * Where an iDO persist fence was issued.  Each site is published as the
 * counter `ido.fence.<name>`.  The sites partition the fences of every
 * FASE an iDO thread runs (and of its stores outside FASEs), so
 * fences/op decomposes by protocol step.  Fences outside them, such as
 * linking a new thread's log record or recovery's own, have no site.
 */
enum class FenceSite : uint8_t
{
    kActivate1,    ///< activation: live-in registers + prefix lock records
    kActivate2,    ///< activation: the first active recovery_pc
    kBoundary1,    ///< region boundary: outputs and heap lines
    kBoundary2,    ///< region boundary: recovery_pc advance
    kDeactivate,   ///< recovery_pc goes inactive after the last store
    kSingleStore,  ///< a one-word FASE's store, committed without a log
    kLock,         ///< lock-ownership record of an active FASE
    kAlloc,        ///< allocator calls of the thread (nv_alloc, frees)
    kWritethrough, ///< store outside any FASE
    kCount
};

constexpr size_t kNumFenceSites = static_cast<size_t>(FenceSite::kCount);

/** Counter names of PersistCounters' one-word FASE fields. */
constexpr const char* kSingleStoreCommitsMetric = "ido.single_store.commits";
constexpr const char* kSingleStoreFallbacksMetric =
    "ido.single_store.fallbacks";

/** Counter names of PersistCounters' validated-read fields. */
constexpr const char* kReadRetriesMetric = "rt.read.retries";
constexpr const char* kReadWaitsMetric = "rt.read.waits";

/** Metric name of a site, e.g. "ido.fence.activate1". */
const char* fence_site_metric(FenceSite site);

/** Per-thread persistence-event counters. */
struct PersistCounters
{
    uint64_t stores = 0;       ///< store operations to persistent memory
    uint64_t store_bytes = 0;  ///< bytes stored
    uint64_t flushes = 0;      ///< cache-line write-backs (clwb/clflush)
    uint64_t fences = 0;       ///< persist fences (sfence)
    uint64_t log_bytes = 0;    ///< bytes written to runtime logs
    uint64_t fence_sites[kNumFenceSites] = {}; ///< iDO fences by site
    /** iDO one-word FASEs committed without the log, and those that
     *  fell back to it (`ido.single_store.{commits,fallbacks}`). */
    uint64_t single_store_commits = 0;
    uint64_t single_store_fallbacks = 0;
    /** Validated reads (RuntimeThread::read_validated) run again
     *  because a writer took the lock meanwhile, and those that found
     *  it held and waited (`rt.read.{retries,waits}`). */
    uint64_t read_retries = 0;
    uint64_t read_waits = 0;

    uint64_t&
    site(FenceSite s)
    {
        return fence_sites[static_cast<size_t>(s)];
    }

    void clear() { *this = PersistCounters{}; }

    PersistCounters& operator+=(const PersistCounters& o);
};

/** Counters of the calling thread. */
PersistCounters& tls_persist_counters();

/**
 * Fold the calling thread's counters into the global total (the
 * MetricsRegistry `persist.*` counters) and clear them.  Folding also
 * happens automatically at thread exit -- including exits that unwind
 * through SimCrashException -- so this is only needed to make a live
 * thread's counts visible early.
 */
void persist_counters_flush_tls();

/** Snapshot of the global total (call after workers have flushed). */
PersistCounters persist_counters_global();

/** Reset the global total (between benchmark configurations). */
void persist_counters_reset_global();

/** Human-readable one-line summary. */
std::string persist_counters_format(const PersistCounters& c);

} // namespace ido
