#include "apps/redis_client.h"

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/zipf.h"
#include "stats/persist_stats.h"
#include "stats/stat_plane.h"

namespace ido::apps {

uint64_t
redis_setup(rt::Runtime& rt, const RedisWorkloadConfig& cfg)
{
    RedisMini::register_programs();
    auto th = rt.make_thread();
    const uint64_t root = RedisMini::create(*th, cfg.nbuckets);
    if (cfg.prefill) {
        RedisMini store(rt.heap(), root);
        for (uint64_t k = 0; k < cfg.key_range / 2; ++k)
            store.set(*th, k + 1, k * 13 + 1);
    }
    persist_counters_flush_tls();
    return root;
}

RedisWorkloadResult
redis_run(rt::Runtime& rt, uint64_t root_off,
          const RedisWorkloadConfig& cfg)
{
    if (cfg.transport != McTransport::kInProcess)
        return RedisWorkloadResult{}; // no redis protocol in ido-serve
    auto th = rt.make_thread();
    RedisMini store(rt.heap(), root_off);
    Rng rng(cfg.seed);
    ZipfSampler zipf(cfg.key_range, cfg.zipf_theta);
    RedisWorkloadResult result;
    Stopwatch clock;
    const bool count_mode = cfg.ops_total != 0;
    uint64_t value = 0;
    try {
        for (;;) {
            if (count_mode) {
                if (result.total_ops >= cfg.ops_total)
                    break;
            } else if ((result.total_ops & 63) == 0
                       && clock.elapsed_seconds()
                              >= cfg.duration_seconds) {
                break;
            }
            const uint64_t key = 1 + zipf.next(rng);
            const uint64_t t0 =
                cfg.measure_latency ? stat_now_ns() : 0;
            if (rng.percent(cfg.get_pct)) {
                if (store.get(*th, key, &value))
                    result.hits++;
            } else {
                store.set(*th, key, rng.next() | 1);
            }
            if (cfg.measure_latency)
                result.latency.record(stat_now_ns() - t0);
            result.total_ops++;
        }
    } catch (const rt::SimCrashException&) {
    }
    result.seconds = clock.elapsed_seconds();
    persist_counters_flush_tls();
    return result;
}

} // namespace ido::apps
