#include "stats/stat_plane.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "stats/metrics.h"
#include "trace/trace.h"

namespace ido {

namespace {

bool
env_stat_enabled()
{
    const char* v = std::getenv("IDO_STAT");
    if (v == nullptr)
        return true;
    return std::strcmp(v, "off") != 0 && std::strcmp(v, "0") != 0;
}

uint64_t
env_slow_threshold_ns()
{
    const char* v = std::getenv("IDO_STAT_SLOW_NS");
    if (v == nullptr || *v == '\0')
        return 0;
    return std::strtoull(v, nullptr, 10);
}

/** Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. */
std::string
prom_name(const std::string& raw)
{
    std::string out = "ido_";
    for (char c : raw) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                        || (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

} // namespace

bool
stat_enabled()
{
    static const bool enabled = env_stat_enabled();
    return enabled;
}

uint64_t
stat_now_ns()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::string
stat_prometheus_text()
{
    const MetricsRegistry::Snapshot s =
        MetricsRegistry::instance().snapshot();
    std::string out;
    out.reserve(4096);
    char buf[256];
    for (const auto& [name, v] : s.counters) {
        const std::string n = prom_name(name) + "_total";
        out += "# TYPE " + n + " counter\n";
        std::snprintf(buf, sizeof buf, "%s %llu\n", n.c_str(),
                      static_cast<unsigned long long>(v));
        out += buf;
    }
    for (const auto& [name, v] : s.gauges) {
        const std::string n = prom_name(name);
        out += "# TYPE " + n + " gauge\n";
        std::snprintf(buf, sizeof buf, "%s %llu\n", n.c_str(),
                      static_cast<unsigned long long>(v));
        out += buf;
    }
    for (const auto& [name, h] : s.latencies) {
        const std::string n = prom_name(name);
        out += "# TYPE " + n + " summary\n";
        static constexpr struct
        {
            const char* label;
            double q;
        } kQ[] = { { "0.5", 0.50 },
                   { "0.9", 0.90 },
                   { "0.99", 0.99 },
                   { "0.999", 0.999 } };
        for (const auto& q : kQ) {
            std::snprintf(buf, sizeof buf,
                          "%s{quantile=\"%s\"} %llu\n", n.c_str(),
                          q.label,
                          static_cast<unsigned long long>(
                              h.percentile(q.q)));
            out += buf;
        }
        std::snprintf(buf, sizeof buf, "%s_sum %.0f\n%s_count %llu\n",
                      n.c_str(),
                      h.mean() * static_cast<double>(h.total()),
                      n.c_str(),
                      static_cast<unsigned long long>(h.total()));
        out += buf;
    }
    return out;
}

uint64_t
stat_slow_threshold_ns()
{
    static const uint64_t t = env_slow_threshold_ns();
    return t;
}

void
stat_note_slow_request(uint64_t total_ns, uint32_t shard)
{
    static std::atomic<uint64_t>* slow_ctr =
        MetricsRegistry::instance().counter("net.slow_requests");
    slow_ctr->fetch_add(1, std::memory_order_relaxed);
    (void)total_ns;

    // Capture budget: a latency storm must not write thousands of
    // trace files.  First-come wins; concurrent shards each get a
    // distinct sequence number.
    static constexpr uint64_t kSlowCaptureBudget = 8;
    static std::atomic<uint64_t> captures{0};
    if (!trace::Tracer::armed())
        return;
    const char* dir = std::getenv("IDO_TRACE_DIR");
    if (dir == nullptr || *dir == '\0')
        return;
    const uint64_t n = captures.fetch_add(1, std::memory_order_relaxed);
    if (n >= kSlowCaptureBudget)
        return;
    char path[512];
    std::snprintf(path, sizeof path, "%s/slow_req_%u_%llu.idotrace",
                  dir, shard, static_cast<unsigned long long>(n));
    trace::Tracer::write_file(path);
    MetricsRegistry::instance().add("net.slow_captures", 1);
}

} // namespace ido
