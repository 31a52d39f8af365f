#include "apps/memcached_client.h"

#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "net/memc_client.h"
#include "stats/persist_stats.h"
#include "stats/stat_plane.h"

namespace ido::apps {

const char*
transport_name(McTransport t)
{
    return t == McTransport::kSocket ? "socket" : "inproc";
}

std::pair<uint64_t, uint64_t>
memcached_key(uint64_t index)
{
    uint64_t s = index + 0x12345;
    const uint64_t lo = splitmix64(s);
    const uint64_t hi = splitmix64(s);
    return {lo, hi};
}

std::string
memcached_key_text(uint64_t index)
{
    return "k" + std::to_string(index);
}

bool
memcached_prefill_socket(const MemcachedWorkloadConfig& cfg)
{
    net::MemcClient c;
    if (!c.connect_retry("127.0.0.1", cfg.port, 100, 10))
        return false;
    for (uint64_t i = 0; i < cfg.key_space / 2; ++i)
        c.pipeline_set(memcached_key_text(i), i);
    return c.pipeline_flush() == cfg.key_space / 2;
}

uint64_t
memcached_setup(rt::Runtime& rt, const MemcachedWorkloadConfig& cfg)
{
    MemcachedMini::register_programs();
    auto th = rt.make_thread();
    const uint64_t root =
        MemcachedMini::create(*th, cfg.nshards, cfg.nbuckets);
    if (cfg.prefill) {
        MemcachedMini cache(rt.heap(), root);
        for (uint64_t i = 0; i < cfg.key_space / 2; ++i) {
            const auto [lo, hi] = memcached_key(i);
            cache.set(*th, lo, hi, i);
        }
    }
    persist_counters_flush_tls();
    return root;
}

MemcachedWorkloadResult
memcached_run(rt::Runtime& rt, uint64_t root_off,
              const MemcachedWorkloadConfig& cfg)
{
    std::vector<std::thread> threads;
    std::vector<uint64_t> ops(cfg.threads, 0), hits(cfg.threads, 0);
    // Per-thread histograms: recording is thread-private and merged
    // after the join, so measuring adds no shared-state traffic.
    std::vector<LatencyHistogram> lat(cfg.measure_latency ? cfg.threads
                                                          : 0);
    Stopwatch clock;
    for (uint32_t t = 0; t < cfg.threads; ++t) {
        threads.emplace_back([&, t] {
            const bool count_mode = cfg.ops_per_thread != 0;
            const bool timed = cfg.measure_latency;
            Rng rng(cfg.seed + 7919 * (t + 1));
            auto deadline_hit = [&] {
                if (count_mode)
                    return ops[t] >= cfg.ops_per_thread;
                return (ops[t] & 63) == 0
                       && clock.elapsed_seconds() >= cfg.duration_seconds;
            };
            if (cfg.transport == McTransport::kSocket) {
                net::MemcClient c;
                if (!c.connect_retry("127.0.0.1", cfg.port, 100, 10))
                    return;
                uint64_t value = 0;
                while (!deadline_hit()) {
                    const uint64_t idx = rng.next_below(cfg.key_space);
                    const std::string key = memcached_key_text(idx);
                    const uint64_t t0 = timed ? stat_now_ns() : 0;
                    if (rng.percent(cfg.set_pct)) {
                        if (!c.set(key, rng.next()))
                            break; // server gone
                    } else if (c.get(key, &value)) {
                        hits[t]++;
                    }
                    if (timed)
                        lat[t].record(stat_now_ns() - t0);
                    ops[t]++;
                }
                return;
            }
            auto th = rt.make_thread();
            MemcachedMini cache(rt.heap(), root_off);
            uint64_t value = 0;
            try {
                while (!deadline_hit()) {
                    const uint64_t idx =
                        rng.next_below(cfg.key_space);
                    const auto [lo, hi] = memcached_key(idx);
                    const uint64_t t0 = timed ? stat_now_ns() : 0;
                    if (rng.percent(cfg.set_pct)) {
                        cache.set(*th, lo, hi, rng.next());
                    } else if (cache.get(*th, lo, hi, &value)) {
                        hits[t]++;
                    }
                    if (timed)
                        lat[t].record(stat_now_ns() - t0);
                    ops[t]++;
                }
            } catch (const rt::SimCrashException&) {
                // fail-stop (crash tests)
            }
            persist_counters_flush_tls();
        });
    }
    for (auto& t : threads)
        t.join();
    MemcachedWorkloadResult result;
    result.seconds = clock.elapsed_seconds();
    for (uint32_t t = 0; t < cfg.threads; ++t) {
        result.total_ops += ops[t];
        result.hits += hits[t];
        if (cfg.measure_latency)
            result.latency.merge(lat[t]);
    }
    return result;
}

} // namespace ido::apps
