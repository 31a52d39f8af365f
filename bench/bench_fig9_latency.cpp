/**
 * @file
 * Figure 9 reproduction: sensitivity to NVM write latency.  As in the
 * paper (and in Mnemosyne/Atlas before it), a configurable delay is
 * charged per cache-line write-back to "NVM", emulating slow persistent
 * media or a long data path; the sweep covers 20-2000 ns.  RealDomain
 * charges it at the fence that waits for the write-back, so the delay
 * cannot hide behind the write-back itself.
 *
 * Workloads reprise the paper's two data points: the
 * insertion-intensive memcached mix and the "large" (1M-key) redis
 * configuration.
 *
 * Paper shape: iDO and Atlas hold their throughput up to ~100 ns and
 * degrade beyond; JUSTDO suffers 1.5-2x slowdown already at 20 ns
 * because it issues so many more ordered write-backs per operation.
 */
#include "apps/memcached_client.h"
#include "apps/redis_client.h"
#include "bench/bench_util.h"

using namespace ido;
using namespace ido::bench;

int
main()
{
    const double secs = bench_seconds();
    const uint32_t delays[] = {0, 20, 100, 500, 2000};
    const baselines::RuntimeKind kinds[] = {
        baselines::RuntimeKind::kIdo, baselines::RuntimeKind::kAtlas,
        baselines::RuntimeKind::kJustdo};

    print_header("Fig.9a memcached (insertion mix, 4 threads) vs "
                 "NVM latency");
    std::printf("%-10s %8s %10s %10s %10s %10s\n", "runtime",
                "delay_ns", "Mops/s", "p50_us", "p99_us", "p999_us");
    for (auto kind : kinds) {
        for (uint32_t delay : delays) {
            BenchWorld world(kind, 512u << 20, 0);
            apps::MemcachedWorkloadConfig cfg;
            cfg.threads = 4;
            cfg.set_pct = 50;
            cfg.duration_seconds = secs;
            cfg.measure_latency = true;
            const uint64_t root =
                apps::memcached_setup(*world.runtime, cfg);
            world.dom.set_flush_delay_ns(delay); // measure only
            const auto result =
                apps::memcached_run(*world.runtime, root, cfg);
            std::printf("%-10s %8u %10.3f %10.1f %10.1f %10.1f\n",
                        baselines::runtime_kind_name(kind), delay,
                        result.mops(),
                        result.latency.percentile(0.50) / 1e3,
                        result.latency.percentile(0.99) / 1e3,
                        result.latency.percentile(0.999) / 1e3);
            // The latency sweep lives in the runtime label so every
            // row of the figure lands in one BENCH_ file.
            const std::string label =
                std::string(baselines::runtime_kind_name(kind)) + "_d"
                + std::to_string(delay);
            emit_json_row("fig9a_memcached", label.c_str(),
                          cfg.threads, result.total_ops, secs,
                          &result.latency);
        }
    }

    print_header("Fig.9b redis (1M keys) vs NVM latency");
    std::printf("%-10s %8s %10s %10s %10s %10s\n", "runtime",
                "delay_ns", "Mops/s", "p50_us", "p99_us", "p999_us");
    for (auto kind : kinds) {
        for (uint32_t delay : delays) {
            BenchWorld world(kind, 1536u << 20, 0);
            apps::RedisWorkloadConfig cfg;
            cfg.key_range = 1000000;
            cfg.nbuckets = 1u << 18;
            cfg.duration_seconds = secs;
            cfg.measure_latency = true;
            const uint64_t root =
                apps::redis_setup(*world.runtime, cfg);
            world.dom.set_flush_delay_ns(delay); // measure only
            const auto result =
                apps::redis_run(*world.runtime, root, cfg);
            std::printf("%-10s %8u %10.3f %10.1f %10.1f %10.1f\n",
                        baselines::runtime_kind_name(kind), delay,
                        result.mops(),
                        result.latency.percentile(0.50) / 1e3,
                        result.latency.percentile(0.99) / 1e3,
                        result.latency.percentile(0.999) / 1e3);
            const std::string label =
                std::string(baselines::runtime_kind_name(kind)) + "_d"
                + std::to_string(delay);
            emit_json_row("fig9b_redis", label.c_str(), 1,
                          result.total_ops, secs, &result.latency);
        }
    }
    return 0;
}
