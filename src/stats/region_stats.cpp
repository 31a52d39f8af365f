#include "stats/region_stats.h"

#include <algorithm>
#include <cstdio>

#include "stats/metrics.h"

namespace ido {

namespace {

/** "label:  <=0: 12.3%  <=1: 45.6% ..." -- one cumulative Fig. 8 row,
 *  from 0 up to max(4, largest sample), capped at 8. */
std::string
format_cdf(const char* label, const LatencyHistogram& h)
{
    const uint64_t up_to =
        std::min<uint64_t>(8, std::max<uint64_t>(4, h.max_value()));
    std::string out = label;
    out += ":";
    char buf[64];
    for (uint64_t v = 0; v <= up_to; ++v) {
        std::snprintf(buf, sizeof(buf), "  <=%llu: %5.1f%%",
                      static_cast<unsigned long long>(v), h.cdf(v) * 100.0);
        out += buf;
    }
    return out;
}

} // namespace

LatencyRecorder&
region_stores_recorder()
{
    static LatencyRecorder* const r =
        MetricsRegistry::instance().latency("region.stores_per_region");
    return *r;
}

LatencyRecorder&
region_live_in_recorder()
{
    static LatencyRecorder* const r =
        MetricsRegistry::instance().latency("region.live_in_per_region");
    return *r;
}

void
region_stats_reset()
{
    region_stores_recorder().reset();
    region_live_in_recorder().reset();
}

std::string
format_fig8(const std::string& benchmark)
{
    const LatencyHistogram stores = region_stores_recorder().snapshot();
    const LatencyHistogram live_in = region_live_in_recorder().snapshot();
    std::string out;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "[fig8] %-12s dynamic regions: %llu\n",
                  benchmark.c_str(),
                  static_cast<unsigned long long>(stores.total()));
    out += buf;
    out += "  " + format_cdf("stores/region ", stores) + "\n";
    out += "  " + format_cdf("live-in regs  ", live_in) + "\n";
    std::snprintf(buf, sizeof(buf),
                  "  mean stores/region %.2f   mean live-in %.2f   "
                  "regions with >1 store %.1f%%   live-in<5 %.1f%%\n",
                  stores.mean(), live_in.mean(),
                  (1.0 - stores.cdf(1)) * 100.0, live_in.cdf(4) * 100.0);
    out += buf;
    return out;
}

} // namespace ido
