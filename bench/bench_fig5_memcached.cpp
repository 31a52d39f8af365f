/**
 * @file
 * Figure 5 reproduction: Memcached throughput (millions of data
 * structure operations per second) as a function of thread count, for
 * the insertion-intensive (50% set / 50% get) and search-intensive
 * (10% set / 90% get) memaslap workloads, across all runtimes.
 *
 * Paper shape: iDO outperforms all FASE-based competitors by 2x or
 * more; Mnemosyne benefits from memcached 1.2.4's coarse locking; no
 * system scales past ~8 threads.  The persist-event profile column is
 * the machine-independent evidence: iDO's fences/op sit well below
 * Atlas's and far below JUSTDO's.
 *
 * IDO_BENCH_TRANSPORT=socket drives the same mixes through a real
 * ido-serve instance over loopback TCP (bench_server owns the
 * pipelined server measurement).  Default is
 * the paper's in-process path.  Every printed row and JSON line states
 * the transport used.  Each mix starts with one untimed warm-up point
 * at the widest thread count.
 */
#include <algorithm>
#include <thread>

#include "apps/memcached_client.h"
#include "bench/bench_util.h"
#include "net/server.h"

using namespace ido;
using namespace ido::bench;

namespace {

apps::McTransport
transport_from_env()
{
    const char* s = std::getenv("IDO_BENCH_TRANSPORT");
    if (s && std::string(s) == "socket")
        return apps::McTransport::kSocket;
    return apps::McTransport::kInProcess;
}

/**
 * Measure one point on a fresh world: set up the cache, reset the
 * persist counters, run the timed mix.  False if socket prefill failed.
 */
bool
run_point(baselines::RuntimeKind kind, uint32_t threads, uint32_t set_pct,
          double secs, apps::McTransport transport,
          apps::MemcachedWorkloadResult* result)
{
    BenchWorld world(kind);
    apps::MemcachedWorkloadConfig cfg;
    cfg.threads = threads;
    cfg.set_pct = set_pct;
    cfg.key_space = 10000;
    cfg.duration_seconds = secs;
    cfg.transport = transport;
    if (transport != apps::McTransport::kSocket) {
        const uint64_t root = apps::memcached_setup(*world.runtime, cfg);
        persist_counters_reset_global();
        *result = apps::memcached_run(*world.runtime, root, cfg);
        return true;
    }
    apps::MemcachedMini::register_programs();
    net::ServerConfig scfg;
    scfg.shards = static_cast<uint32_t>(cfg.nshards);
    scfg.nbuckets = static_cast<uint32_t>(cfg.nbuckets);
    net::Server server(*world.runtime, scfg);
    std::thread srv([&] { server.run(); });
    cfg.port = server.port();
    const bool ok = apps::memcached_prefill_socket(cfg);
    if (ok) {
        persist_counters_reset_global();
        *result = apps::memcached_run(*world.runtime, 0, cfg);
    }
    server.stop(); // joins shards: TLS counters flushed
    srv.join();
    return ok;
}

} // namespace

int
main()
{
    const double secs = bench_seconds();
    const apps::McTransport transport = transport_from_env();
    struct Mix
    {
        const char* name;
        uint32_t set_pct;
    };
    const Mix mixes[] = {{"insertion-intensive (50/50)", 50},
                         {"search-intensive (10/90)", 10}};
    const auto& kinds = baselines::all_runtime_kinds();

    for (const Mix& mix : mixes) {
        print_header((std::string("Fig.5 memcached, ") + mix.name
                      + ", transport=" + apps::transport_name(transport))
                         .c_str());
        std::printf("%-10s %8s %10s %9s   %s\n", "runtime", "threads",
                    "Mops/s", "transport", "persist profile");
        // One untimed warm-up point first, at the widest thread count
        // for at least 2 s: without it the mix's first measured rows
        // sometimes ran flat, not scaling with threads, and read
        // bimodal from run to run.  A 1-thread, one-point warm-up was
        // not enough.
        apps::MemcachedWorkloadResult result;
        if (!run_point(kinds.front(), thread_sweep().back(),
                       mix.set_pct, std::max(secs, 2.0), transport,
                       &result)) {
            std::fprintf(stderr, "fig5: socket prefill failed\n");
            return 1;
        }
        for (const baselines::RuntimeKind kind : kinds) {
            const char* label = baselines::runtime_kind_name(kind);
            for (uint32_t threads : thread_sweep()) {
                if (!run_point(kind, threads, mix.set_pct, secs, transport,
                               &result)) {
                    std::fprintf(stderr, "fig5: socket prefill failed\n");
                    return 1;
                }
                std::printf("%-10s %8u %10.3f %9s   %s\n", label,
                            threads, result.mops(),
                            apps::transport_name(transport),
                            persist_profile(result.total_ops).c_str());
                const std::string row_name =
                    std::string(mix.set_pct == 50
                                    ? "fig5_memcached_5050"
                                    : "fig5_memcached_1090")
                    + "_" + apps::transport_name(transport);
                emit_json_row(row_name.c_str(), label, threads,
                              result.total_ops, secs);
            }
        }
    }
    return 0;
}
