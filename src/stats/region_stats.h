/**
 * @file
 * Dynamic idempotent-region statistics (paper Fig. 8).
 *
 * The paper uses Pin to collect, per benchmark, the cumulative dynamic
 * distribution of (a) persistent stores per idempotent region and
 * (b) live-in registers per region.  Here the runtime itself observes
 * every dynamic region, so the same distributions fall out of normal
 * execution when RuntimeConfig::collect_region_stats is set (the one
 * switch; off by default, so scalability runs pay one predicted branch
 * per region).  Samples go to two MetricsRegistry latency recorders,
 * whose per-thread shards any thread can snapshot at any time; the
 * values are counts, not nanoseconds.
 */
#pragma once

#include <string>

#include "common/latency_histogram.h"

namespace ido {

/** "region.stores_per_region": persistent stores per dynamic region. */
LatencyRecorder& region_stores_recorder();

/** "region.live_in_per_region": live-in registers per dynamic region. */
LatencyRecorder& region_live_in_recorder();

/** Zero both recorders (between benchmark configurations). */
void region_stats_reset();

/** Fig. 8-style CDF printout of the two recorders' current data. */
std::string format_fig8(const std::string& benchmark);

} // namespace ido
