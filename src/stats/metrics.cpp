#include "stats/metrics.h"

#include <cinttypes>
#include <cstdio>

#include "common/json.h"

namespace ido {

MetricsRegistry&
MetricsRegistry::instance()
{
    static MetricsRegistry* reg = new MetricsRegistry; // immortal
    return *reg;
}

std::atomic<uint64_t>*
MetricsRegistry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> g(mutex_);
    auto it = names_.find(name);
    if (it == names_.end()) {
        cells_.emplace_back(0);
        it = names_.emplace(name, cells_.size() - 1).first;
    }
    return &cells_[it->second];
}

void
MetricsRegistry::add(const std::string& name, uint64_t delta)
{
    counter(name)->fetch_add(delta, std::memory_order_relaxed);
}

uint64_t
MetricsRegistry::counter_value(const std::string& name)
{
    std::lock_guard<std::mutex> g(mutex_);
    auto it = names_.find(name);
    if (it == names_.end())
        return 0;
    return cells_[it->second].load(std::memory_order_relaxed);
}

void
MetricsRegistry::set(const std::string& name, uint64_t value)
{
    counter(name)->store(value, std::memory_order_relaxed);
}

LatencyRecorder*
MetricsRegistry::latency(const std::string& name)
{
    std::lock_guard<std::mutex> g(mutex_);
    auto it = latencies_.find(name);
    if (it == latencies_.end())
        it = latencies_
                 .emplace(name, std::make_unique<LatencyRecorder>())
                 .first;
    return it->second.get();
}

void
MetricsRegistry::register_gauge(const std::string& name,
                                std::function<uint64_t()> fn)
{
    std::lock_guard<std::mutex> g(mutex_);
    gauges_[name] = std::move(fn);
}

void
MetricsRegistry::unregister_gauge(const std::string& name)
{
    std::lock_guard<std::mutex> g(mutex_);
    gauges_.erase(name);
}

MetricsRegistry::Snapshot
MetricsRegistry::snapshot()
{
    Snapshot s;
    std::vector<std::pair<std::string, std::function<uint64_t()>>> fns;
    {
        std::lock_guard<std::mutex> g(mutex_);
        for (const auto& [name, idx] : names_)
            s.counters[name] =
                cells_[idx].load(std::memory_order_relaxed);
        for (const auto& [name, rec] : latencies_)
            s.latencies[name] = rec->snapshot();
        fns.assign(gauges_.begin(), gauges_.end());
    }
    // Gauge callbacks run outside the registry lock: they may take
    // their owner's locks (heap refill mutex etc.) without inverting
    // against a concurrent counter registration.
    for (auto& [name, fn] : fns)
        s.gauges[name] = fn ? fn() : 0;
    return s;
}

std::string
MetricsRegistry::format_text()
{
    const Snapshot s = snapshot();
    std::string out;
    char buf[256];
    for (const auto& [name, v] : s.counters) {
        std::snprintf(buf, sizeof buf, "%-32s %" PRIu64 "\n",
                      name.c_str(), v);
        out += buf;
    }
    for (const auto& [name, v] : s.gauges) {
        std::snprintf(buf, sizeof buf, "%-32s %" PRIu64 " (gauge)\n",
                      name.c_str(), v);
        out += buf;
    }
    for (const auto& [name, h] : s.latencies) {
        std::snprintf(buf, sizeof buf,
                      "%-32s n=%" PRIu64 " mean=%.1f p50=%" PRIu64
                      " p99=%" PRIu64 " p999=%" PRIu64 " max=%" PRIu64
                      "\n",
                      name.c_str(), h.total(), h.mean(),
                      h.percentile(0.50), h.percentile(0.99),
                      h.percentile(0.999), h.max_value());
        out += buf;
    }
    return out;
}

std::string
MetricsRegistry::format_json()
{
    const Snapshot s = snapshot();
    std::string out = "{\"counters\":{";
    char buf[384];
    bool first = true;
    for (const auto& [name, v] : s.counters) {
        std::snprintf(buf, sizeof buf, "%s\"%s\":%" PRIu64,
                      first ? "" : ",", json_escape(name).c_str(), v);
        out += buf;
        first = false;
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, v] : s.gauges) {
        std::snprintf(buf, sizeof buf, "%s\"%s\":%" PRIu64,
                      first ? "" : ",", json_escape(name).c_str(), v);
        out += buf;
        first = false;
    }
    out += "},\"latencies\":{";
    first = true;
    for (const auto& [name, h] : s.latencies) {
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\":{\"count\":%" PRIu64
                      ",\"mean_ns\":%.1f,\"min_ns\":%" PRIu64
                      ",\"p50_ns\":%" PRIu64 ",\"p90_ns\":%" PRIu64
                      ",\"p99_ns\":%" PRIu64 ",\"p999_ns\":%" PRIu64
                      ",\"max_ns\":%" PRIu64 "}",
                      first ? "" : ",", json_escape(name).c_str(),
                      h.total(), h.mean(), h.min_value(),
                      h.percentile(0.50), h.percentile(0.90),
                      h.percentile(0.99), h.percentile(0.999),
                      h.max_value());
        out += buf;
        first = false;
    }
    out += "}}";
    return out;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> g(mutex_);
    for (auto& cell : cells_)
        cell.store(0, std::memory_order_relaxed);
    for (auto& [name, rec] : latencies_)
        rec->reset();
}

} // namespace ido
