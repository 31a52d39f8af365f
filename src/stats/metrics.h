/**
 * @file
 * MetricsRegistry: one named home for every quantitative observation.
 *
 * Persist traffic (persist_stats), Fig. 8 region shapes (region_stats)
 * and the ido-stat latencies all land here, behind a flat name ->
 * counter / gauge / LatencyRecorder API with one consistent snapshot
 * and a JSON export the benches, the trace tooling, and CI artifacts
 * all share.
 *
 * Units: a recorder's samples are nanoseconds unless its name says
 * otherwise.  The two "region.*" recorders (region.stores_per_region,
 * region.live_in_per_region) count persistent stores and live-in
 * registers per dynamic region; their "_ns" JSON keys and the text
 * format's "ns" suffix are shared schema, not a unit.
 *
 * Concurrency contract:
 *  - counter cells are std::atomic<uint64_t> stored in a std::deque,
 *    so a pointer returned by counter() stays valid forever and can be
 *    bumped wait-free from any thread;
 *  - latency recorders are owned by the registry and never destroyed,
 *    so a pointer returned by latency() is cached the same way; each
 *    recording thread writes its own shard, and snapshot() merges the
 *    shards of live and exited threads alike;
 *  - name registration takes a mutex (cold: once per name);
 *  - snapshot() is safe against concurrent writers and never observes
 *    torn per-counter values (64-bit atomic loads).
 *
 * Persist counters keep a thread-local accumulation (persist_stats);
 * the registry is where their folded totals live.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/latency_histogram.h"

namespace ido {

class MetricsRegistry
{
  public:
    static MetricsRegistry& instance();

    /**
     * Get-or-create the counter cell for `name`.  The pointer is
     * stable for the process lifetime; callers may cache it and use
     * fetch_add directly on hot-ish paths.
     */
    std::atomic<uint64_t>* counter(const std::string& name);

    /** Add `delta` to the named counter (creating it at 0 first). */
    void add(const std::string& name, uint64_t delta);

    /** Current value of the named counter; 0 if never created. */
    uint64_t counter_value(const std::string& name);

    /** Overwrite the named counter (reset paths). */
    void set(const std::string& name, uint64_t value);

    /**
     * Get-or-create the named latency recorder (ido-stat).  Stable for
     * the process lifetime; hot paths cache the pointer and call
     * record() directly (lock-free per-thread shards).
     */
    LatencyRecorder* latency(const std::string& name);

    /**
     * Register a gauge: a named callback evaluated at snapshot time
     * (conn counts, queue depths, heap occupancy).  Re-registering a
     * name replaces its callback.  The callback runs outside the
     * registry lock but must still be cheap and thread-safe, and must
     * not call back into the registry.
     */
    void register_gauge(const std::string& name,
                        std::function<uint64_t()> fn);

    /** Remove a gauge (owners with shorter lifetimes than the
     *  process must unregister before their state dies). */
    void unregister_gauge(const std::string& name);

    /** Point-in-time copy of everything, sorted by name. */
    struct Snapshot
    {
        std::map<std::string, uint64_t> counters;
        std::map<std::string, uint64_t> gauges;
        std::map<std::string, LatencyHistogram> latencies;
    };

    Snapshot snapshot();

    /** "name value" lines, one per counter and gauge, then one
     *  summary line per latency recorder. */
    std::string format_text();

    /**
     * {"counters":{...},"gauges":{...},"latencies":{name:{"count":..,
     * "mean_ns":..,"min_ns":..,"p50_ns":..,"p90_ns":..,"p99_ns":..,
     * "p999_ns":..,"max_ns":..}}} -- the schema BENCH_*.json rows
     * and ido_lint --json embed.
     */
    std::string format_json();

    /** Zero every counter and latency recorder (names and gauge
     *  registrations persist). */
    void reset();

  private:
    MetricsRegistry() = default;

    std::mutex mutex_;
    // deque: grows without moving elements, so counter() pointers and
    // the indices in names_ stay valid under concurrent registration.
    std::deque<std::atomic<uint64_t>> cells_;
    std::map<std::string, size_t> names_;
    // unique_ptr: latency() pointers stay valid as the map rebalances.
    std::map<std::string, std::unique_ptr<LatencyRecorder>> latencies_;
    std::map<std::string, std::function<uint64_t()>> gauges_;
};

} // namespace ido
