#include "stats/recovery_timeline.h"

#include <cstdio>

#include "common/json.h"
#include "stats/metrics.h"
#include "stats/stat_plane.h"

namespace ido {

RecoveryTimeline&
RecoveryTimeline::instance()
{
    static RecoveryTimeline* tl = new RecoveryTimeline; // immortal
    return *tl;
}

void
RecoveryTimeline::start(const std::string& trigger)
{
    std::lock_guard<std::mutex> g(mu_);
    recorded_ = false;
    open_ = true;
    trigger_ = trigger;
    start_ns_ = stat_now_ns();
    wall_ns_ = 0;
    phases_.clear();
    fields_.clear();
}

void
RecoveryTimeline::backdate(uint64_t ns)
{
    std::lock_guard<std::mutex> g(mu_);
    if (open_)
        start_ns_ -= ns;
}

void
RecoveryTimeline::add_phase(const std::string& name, uint64_t dur_ns,
                            uint64_t detail)
{
    std::lock_guard<std::mutex> g(mu_);
    if (!open_)
        return;
    phases_.push_back(Phase{ name, dur_ns, detail });
}

void
RecoveryTimeline::set_field(const std::string& key, uint64_t value)
{
    std::lock_guard<std::mutex> g(mu_);
    if (!open_)
        return;
    for (auto& [k, v] : fields_) {
        if (k == key) {
            v = value;
            return;
        }
    }
    fields_.emplace_back(key, value);
}

void
RecoveryTimeline::finish()
{
    std::lock_guard<std::mutex> g(mu_);
    if (!open_)
        return;
    wall_ns_ = stat_now_ns() - start_ns_;
    open_ = false;
    recorded_ = true;
}

bool
RecoveryTimeline::recorded() const
{
    std::lock_guard<std::mutex> g(mu_);
    return recorded_;
}

std::string
RecoveryTimeline::to_json() const
{
    std::lock_guard<std::mutex> g(mu_);
    if (!recorded_)
        return "{\"recorded\":false}";
    std::string out = "{\"recorded\":true,\"trigger\":\""
                      + json_escape(trigger_) + "\",";
    char buf[192];
    std::snprintf(buf, sizeof buf, "\"wall_ns\":%llu,\"phases\":[",
                  static_cast<unsigned long long>(wall_ns_));
    out += buf;
    bool first = true;
    for (const auto& p : phases_) {
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"dur_ns\":%llu,"
                      "\"detail\":%llu}",
                      first ? "" : ",", json_escape(p.name).c_str(),
                      static_cast<unsigned long long>(p.dur_ns),
                      static_cast<unsigned long long>(p.detail));
        out += buf;
        first = false;
    }
    out += "],\"fields\":{";
    first = true;
    for (const auto& [k, v] : fields_) {
        std::snprintf(buf, sizeof buf, "%s\"%s\":%llu",
                      first ? "" : ",", json_escape(k).c_str(),
                      static_cast<unsigned long long>(v));
        out += buf;
        first = false;
    }
    out += "}}";
    return out;
}

void
RecoveryTimeline::publish_metrics() const
{
    // Copy under the lock, publish outside it (registry takes its own).
    std::vector<std::pair<std::string, uint64_t>> kv;
    {
        std::lock_guard<std::mutex> g(mu_);
        if (!recorded_)
            return;
        kv.emplace_back("recovery.count", 1);
        kv.emplace_back("recovery.wall_ns", wall_ns_);
        for (const auto& p : phases_)
            kv.emplace_back("recovery.phase." + p.name + "_ns",
                            p.dur_ns);
        for (const auto& [k, v] : fields_)
            kv.emplace_back("recovery." + k, v);
    }
    auto& reg = MetricsRegistry::instance();
    for (const auto& [k, v] : kv)
        reg.add(k, v);
}

bool
RecoveryTimeline::write_file(const std::string& dir) const
{
    const std::string body = to_json();
    const std::string path = dir + "/recovery_timeline.json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const size_t n = std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    return n == body.size();
}

} // namespace ido
