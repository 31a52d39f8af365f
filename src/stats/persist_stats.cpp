#include "stats/persist_stats.h"

#include <atomic>
#include <cstdio>

#include "stats/metrics.h"

namespace ido {

namespace {

constexpr const char* kFenceSiteMetrics[kNumFenceSites] = {
    "ido.fence.activate1", "ido.fence.activate2", "ido.fence.boundary1",
    "ido.fence.boundary2", "ido.fence.deactivate",
    "ido.fence.single_store", "ido.fence.lock", "ido.fence.alloc",
    "ido.fence.writethrough"};

/** Registry cells the fold adds into: pointer-stable, looked up once. */
struct FoldCells
{
    std::atomic<uint64_t>* stores;
    std::atomic<uint64_t>* store_bytes;
    std::atomic<uint64_t>* flushes;
    std::atomic<uint64_t>* fences;
    std::atomic<uint64_t>* log_bytes;
    std::atomic<uint64_t>* sites[kNumFenceSites];
    std::atomic<uint64_t>* single_commits;
    std::atomic<uint64_t>* single_fallbacks;
    std::atomic<uint64_t>* read_retries;
    std::atomic<uint64_t>* read_waits;
};

const FoldCells&
fold_cells()
{
    static const FoldCells cells = [] {
        auto& reg = MetricsRegistry::instance();
        FoldCells f{reg.counter("persist.stores"),
                    reg.counter("persist.store_bytes"),
                    reg.counter("persist.flushes"),
                    reg.counter("persist.fences"),
                    reg.counter("persist.log_bytes"),
                    {},
                    reg.counter(kSingleStoreCommitsMetric),
                    reg.counter(kSingleStoreFallbacksMetric),
                    reg.counter(kReadRetriesMetric),
                    reg.counter(kReadWaitsMetric)};
        for (size_t i = 0; i < kNumFenceSites; ++i)
            f.sites[i] = reg.counter(kFenceSiteMetrics[i]);
        return f;
    }();
    return cells;
}

/**
 * Thread-local counters that fold themselves into the MetricsRegistry
 * when the owning thread exits.  This closes the accounting hole where
 * a thread dying on an exception path (e.g. SimCrashException unwinding
 * out of a worker) never reached its explicit persist_counters_flush_tls
 * call and silently dropped its counts.
 */
struct TlsCounters
{
    PersistCounters c;

    ~TlsCounters() { fold(); }

    void
    fold()
    {
        // Every fence site counts a fence, and a one-word commit or a
        // fallback's activation fences, so fences == 0 covers them.
        if (c.stores == 0 && c.store_bytes == 0 && c.flushes == 0 &&
            c.fences == 0 && c.log_bytes == 0 && c.read_retries == 0 &&
            c.read_waits == 0)
            return;
        const FoldCells& f = fold_cells();
        const auto add = [](std::atomic<uint64_t>* cell, uint64_t v) {
            if (v != 0)
                cell->fetch_add(v, std::memory_order_relaxed);
        };
        add(f.stores, c.stores);
        add(f.store_bytes, c.store_bytes);
        add(f.flushes, c.flushes);
        add(f.fences, c.fences);
        add(f.log_bytes, c.log_bytes);
        for (size_t i = 0; i < kNumFenceSites; ++i)
            add(f.sites[i], c.fence_sites[i]);
        add(f.single_commits, c.single_store_commits);
        add(f.single_fallbacks, c.single_store_fallbacks);
        add(f.read_retries, c.read_retries);
        add(f.read_waits, c.read_waits);
        c.clear();
    }
};

thread_local TlsCounters t_counters;

} // namespace

const char*
fence_site_metric(FenceSite site)
{
    return kFenceSiteMetrics[static_cast<size_t>(site)];
}

PersistCounters&
PersistCounters::operator+=(const PersistCounters& o)
{
    stores += o.stores;
    store_bytes += o.store_bytes;
    flushes += o.flushes;
    fences += o.fences;
    log_bytes += o.log_bytes;
    for (size_t i = 0; i < kNumFenceSites; ++i)
        fence_sites[i] += o.fence_sites[i];
    single_store_commits += o.single_store_commits;
    single_store_fallbacks += o.single_store_fallbacks;
    read_retries += o.read_retries;
    read_waits += o.read_waits;
    return *this;
}

PersistCounters&
tls_persist_counters()
{
    return t_counters.c;
}

void
persist_counters_flush_tls()
{
    t_counters.fold();
}

PersistCounters
persist_counters_global()
{
    auto& reg = MetricsRegistry::instance();
    PersistCounters c;
    c.stores = reg.counter_value("persist.stores");
    c.store_bytes = reg.counter_value("persist.store_bytes");
    c.flushes = reg.counter_value("persist.flushes");
    c.fences = reg.counter_value("persist.fences");
    c.log_bytes = reg.counter_value("persist.log_bytes");
    for (size_t i = 0; i < kNumFenceSites; ++i)
        c.fence_sites[i] = reg.counter_value(kFenceSiteMetrics[i]);
    c.single_store_commits = reg.counter_value(kSingleStoreCommitsMetric);
    c.single_store_fallbacks =
        reg.counter_value(kSingleStoreFallbacksMetric);
    c.read_retries = reg.counter_value(kReadRetriesMetric);
    c.read_waits = reg.counter_value(kReadWaitsMetric);
    return c;
}

void
persist_counters_reset_global()
{
    auto& reg = MetricsRegistry::instance();
    reg.set("persist.stores", 0);
    reg.set("persist.store_bytes", 0);
    reg.set("persist.flushes", 0);
    reg.set("persist.fences", 0);
    reg.set("persist.log_bytes", 0);
    for (const char* name : kFenceSiteMetrics)
        reg.set(name, 0);
    reg.set(kSingleStoreCommitsMetric, 0);
    reg.set(kSingleStoreFallbacksMetric, 0);
    reg.set(kReadRetriesMetric, 0);
    reg.set(kReadWaitsMetric, 0);
}

std::string
persist_counters_format(const PersistCounters& c)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "stores=%llu store_bytes=%llu flushes=%llu fences=%llu "
                  "log_bytes=%llu",
                  (unsigned long long)c.stores,
                  (unsigned long long)c.store_bytes,
                  (unsigned long long)c.flushes,
                  (unsigned long long)c.fences,
                  (unsigned long long)c.log_bytes);
    return buf;
}

} // namespace ido
