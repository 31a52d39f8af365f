/**
 * @file
 * ido-serve group-commit ablation: throughput and fences per request
 * for batch limits K in {1, 4, 16}, on the memcached-canonical
 * read-heavy mix (2 sets per 16 requests).  K=1 hands each request to
 * its shard alone; larger K lets each shard execute up to K pipelined
 * requests per wakeup and release their replies together.  Batching
 * saves handoffs and syscalls, not fences: every FASE is durable when
 * it returns (ido_runtime.h), and GETs never activate the iDO log, so
 * they pay no fence at any K.
 *
 * Acceptance (checked by CI from BENCH_server.json): K=1 costs at most
 * 0.51 fences/request (2 sets per 16 requests x 4 fences per
 * set-update), K=16 no more than K=1, at equal or better throughput.
 *
 * Clients are real loopback-TCP connections pipelining bursts, since
 * a blocking client can never present a shard with more than one
 * queued request and would degenerate every K to 1.
 */
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "apps/memcached_client.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "net/admin.h"
#include "net/memc_client.h"
#include "net/server.h"
#include "stats/metrics.h"
#include "stats/stat_plane.h"

using namespace ido;
using namespace ido::bench;

namespace {

constexpr uint32_t kClients = 4;
constexpr uint32_t kBurst = 64;      ///< pipelined requests per flush
constexpr uint64_t kKeySpace = 2048; ///< prefilled working set

struct KResult
{
    uint64_t requests = 0;
    uint64_t fences = 0;
    uint64_t scrapes = 0;
    double seconds = 0.0;
    LatencyHistogram lat; ///< server-side end-to-end request ns
};

/** IDO_STAT_SCRAPE_MS: poll the admin /metrics endpoint at this
 *  period during the run (0 = no scraper).  Lets CI measure the
 *  overhead of live scraping on top of the instrumentation itself. */
uint64_t
scrape_period_ms()
{
    const char* env = std::getenv("IDO_STAT_SCRAPE_MS");
    return env ? std::strtoull(env, nullptr, 10) : 0;
}

KResult
run_at_batch_limit(uint32_t batch_limit, double secs)
{
    const uint64_t scrape_ms = scrape_period_ms();
    BenchWorld world(baselines::RuntimeKind::kIdo);
    apps::MemcachedMini::register_programs();
    net::ServerConfig scfg;
    scfg.shards = 4;
    scfg.batch_limit = batch_limit;
    scfg.nbuckets = 1024;
    scfg.admin = scrape_ms > 0;
    net::Server server(*world.runtime, scfg);
    std::thread srv([&] { server.run(); });

    {
        net::MemcClient c;
        if (!c.connect_retry("127.0.0.1", server.port(), 100, 10)) {
            std::fprintf(stderr, "bench_server: connect failed\n");
            std::exit(1);
        }
        for (uint64_t i = 0; i < kKeySpace; ++i)
            c.pipeline_set(apps::memcached_key_text(i), i);
        if (c.pipeline_flush() != kKeySpace) {
            std::fprintf(stderr, "bench_server: prefill failed\n");
            std::exit(1);
        }
    }
    persist_counters_reset_global();
    // Drop the prefill traffic from the server-side request
    // percentiles so each K row reports only the measured window.
    auto& reg = MetricsRegistry::instance();
    LatencyRecorder* const recs[] = {reg.latency("net.lat.req.get"),
                                     reg.latency("net.lat.req.set"),
                                     reg.latency("net.lat.req.delete")};
    for (auto* rec : recs)
        rec->reset();

    std::vector<std::thread> clients;
    std::vector<uint64_t> ops(kClients, 0);
    std::atomic<bool> stop{false};
    for (uint32_t t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
            net::MemcClient c;
            if (!c.connect_retry("127.0.0.1", server.port(), 100, 10))
                return;
            Rng rng(1234 + t);
            while (!stop.load(std::memory_order_relaxed)) {
                for (uint32_t i = 0; i < kBurst; ++i) {
                    const uint64_t idx = rng.next_below(kKeySpace);
                    const std::string key = apps::memcached_key_text(idx);
                    if (i % 8 == 0)
                        c.pipeline_set(key, rng.next());
                    else
                        c.pipeline_get(key);
                }
                if (c.pipeline_flush() != kBurst)
                    return; // server gone
                ops[t] += kBurst;
            }
        });
    }
    KResult r;
    std::thread scraper;
    if (scrape_ms > 0) {
        scraper = std::thread([&] {
            std::string body;
            while (!stop.load(std::memory_order_relaxed)) {
                if (net::admin_http_get(server.admin_port(), "/metrics",
                                        &body))
                    r.scrapes++;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(scrape_ms));
            }
        });
    }
    Stopwatch clock;
    while (clock.elapsed_seconds() < secs)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.store(true, std::memory_order_relaxed);
    for (auto& c : clients)
        c.join();
    if (scraper.joinable())
        scraper.join();
    r.seconds = clock.elapsed_seconds();
    server.stop(); // joins shard workers: TLS fence counters flushed
    srv.join();
    for (uint32_t t = 0; t < kClients; ++t)
        r.requests += ops[t];
    r.fences = persist_counters_global().fences;
    // Server-side percentiles (empty when IDO_STAT=off: the shards
    // never record, and emit_json_row skips an empty histogram).
    for (auto* rec : recs)
        r.lat.merge(rec->snapshot());
    return r;
}

} // namespace

int
main()
{
    const double secs = bench_seconds();
    print_header("ido-serve group commit (4 shards, 4 pipelined "
                 "clients, 2 sets / 14 gets per 16 requests)");
    std::printf("%-8s %12s %12s %14s %10s %10s %10s\n", "K", "Mreq/s",
                "fences", "fences/req", "p50_us", "p99_us", "p999_us");
    for (uint32_t k : {1u, 4u, 16u}) {
        const KResult r = run_at_batch_limit(k, secs);
        const double fpr =
            r.requests ? double(r.fences) / double(r.requests) : 0.0;
        std::printf("%-8u %12.3f %12llu %14.3f %10.1f %10.1f %10.1f\n",
                    k, r.requests / r.seconds / 1e6,
                    static_cast<unsigned long long>(r.fences), fpr,
                    r.lat.percentile(0.50) / 1e3,
                    r.lat.percentile(0.99) / 1e3,
                    r.lat.percentile(0.999) / 1e3);
        if (r.scrapes)
            std::printf("         (admin /metrics scraped %llu times)\n",
                        static_cast<unsigned long long>(r.scrapes));
        // One BENCH_server.json; the K ablation lives in the runtime
        // label so CI can compare rows from a single file.
        const std::string label = "ido_k" + std::to_string(k);
        emit_json_row("server", label.c_str(), kClients, r.requests,
                      r.seconds, &r.lat);
    }
    return 0;
}
