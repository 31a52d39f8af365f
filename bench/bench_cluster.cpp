/**
 * @file
 * ido-cluster scaling bench: real forked ido_serve processes under
 * NodeSupervisor, swept over nodes in {1, 2, 4} x replication
 * {off, on}.  Clients route through the consistent-hash ring
 * (ClusterClient) and pipeline 16-deep bursts; a node runs each burst
 * it reads as one batch, so a replicated primary amortizes one replica
 * round trip per batch, not per request.
 *
 * Replication pairs node 0 with a replica (the supervisor's topology);
 * nodes 1+ stay unreplicated, so the n1 rows isolate the replication
 * cost.  Acceptance (checked by CI from BENCH_cluster.json): the
 * unreplicated single node may outrun the replicated one by at most
 * 1.6x -- the batch-amortized ack flight must not dominate.
 *
 * Latency rows report the client-observed round trip of one pipelined
 * burst (flush-to-last-ack), the unit a batched client actually waits
 * on; p99 is over bursts, not single ops.
 */
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <libgen.h>
#include <string>
#include <thread>
#include <vector>

#include "apps/memcached_client.h"
#include "bench/bench_util.h"
#include "cluster/cluster_client.h"
#include "cluster/supervisor.h"
#include "common/rng.h"
#include "common/stopwatch.h"

using namespace ido;
using namespace ido::bench;

namespace {

constexpr uint32_t kClients = 4;
constexpr uint32_t kBurst = 16;      ///< pipelined requests per flush
constexpr uint64_t kKeySpace = 2048; ///< prefilled working set

struct ClusterResult
{
    uint64_t acks = 0;
    double seconds = 0.0;
    LatencyHistogram burst_rtt; ///< ns per burst flush round trip
};

std::string
serve_bin_path(const char* argv0)
{
    if (const char* env = std::getenv("IDO_SERVE_BIN"))
        return env;
    // Build-tree layout: bench/ and tools/ are sibling directories.
    std::vector<char> buf(argv0, argv0 + std::strlen(argv0) + 1);
    return std::string(::dirname(buf.data())) + "/../tools/ido_serve";
}

std::string
make_temp_dir()
{
    char tmpl[] = "/tmp/ido_bench_cluster_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    if (dir == nullptr) {
        std::fprintf(stderr, "bench_cluster: mkdtemp failed\n");
        std::exit(1);
    }
    return dir;
}

ClusterResult
run_config(const std::string& serve_bin, uint32_t nodes, bool replicate,
           double secs)
{
    const std::string dir = make_temp_dir();
    cluster::SupervisorConfig scfg;
    scfg.serve_bin = serve_bin;
    scfg.dir = dir;
    scfg.nodes = nodes;
    scfg.replicate = replicate;
    scfg.shards = 2;
    scfg.heap_bytes = 64u << 20;
    cluster::NodeSupervisor sup(scfg);
    if (!sup.start_all()) {
        std::fprintf(stderr, "bench_cluster: cluster failed to start\n");
        std::exit(1);
    }

    {
        cluster::ClusterClient c(sup.node_addrs());
        if (!c.connect_all()) {
            std::fprintf(stderr, "bench_cluster: connect failed\n");
            std::exit(1);
        }
        size_t acked = 0;
        for (uint64_t i = 0; i < kKeySpace; ++i)
            c.pipeline_set(apps::memcached_key_text(i), i);
        for (const size_t n : c.flush_all())
            acked += n;
        if (acked != kKeySpace) {
            std::fprintf(stderr, "bench_cluster: prefill failed\n");
            std::exit(1);
        }
    }

    ClusterResult r;
    std::vector<std::thread> clients;
    std::vector<uint64_t> acks(kClients, 0);
    std::vector<LatencyHistogram> lats(kClients);
    std::atomic<bool> stop{false};
    for (uint32_t t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
            cluster::ClusterClient c(sup.node_addrs());
            if (!c.connect_all())
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
                const auto t0 = std::chrono::steady_clock::now();
                size_t got = 0;
                for (const size_t n : c.flush_all())
                    got += n;
                const auto t1 = std::chrono::steady_clock::now();
                if (got != kBurst)
                    return; // a node went away: bench world is broken
                lats[t].record(static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t1 - t0)
                        .count()));
                acks[t] += got;
            }
        });
    }
    Stopwatch clock;
    while (clock.elapsed_seconds() < secs)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.store(true, std::memory_order_relaxed);
    for (auto& c : clients)
        c.join();
    r.seconds = clock.elapsed_seconds();
    for (uint32_t t = 0; t < kClients; ++t) {
        r.acks += acks[t];
        r.burst_rtt.merge(lats[t]);
    }
    ::system(("rm -rf " + dir).c_str());
    return r;
}

} // namespace

int
main(int, char** argv)
{
    const double secs = bench_seconds();
    const std::string serve_bin = serve_bin_path(argv[0]);
    print_header("ido-cluster scaling (real ido_serve processes, "
                 "4 routed clients, 16-deep pipelined bursts, "
                 "2 sets / 14 gets per 16 requests)");
    std::printf("%-12s %12s %14s %14s %14s\n", "config", "Kreq/s",
                "burst_p50_us", "burst_p99_us", "burst_p999_us");
    for (uint32_t nodes : {1u, 2u, 4u}) {
        for (const bool repl : {false, true}) {
            const ClusterResult r =
                run_config(serve_bin, nodes, repl, secs);
            const std::string label = "n" + std::to_string(nodes) +
                                      (repl ? "_repl" : "_norepl");
            std::printf("%-12s %12.1f %14.1f %14.1f %14.1f\n",
                        label.c_str(), r.acks / r.seconds / 1e3,
                        r.burst_rtt.percentile(0.50) / 1e3,
                        r.burst_rtt.percentile(0.99) / 1e3,
                        r.burst_rtt.percentile(0.999) / 1e3);
            emit_json_row("cluster", label.c_str(), kClients, r.acks,
                          r.seconds, &r.burst_rtt);
        }
    }
    return 0;
}
