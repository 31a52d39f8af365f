/**
 * @file
 * ido-cluster: one-command cluster supervisor.  Spawns N ido-serve
 * nodes (plus an optional replica pair for node 0), runs the
 * consistent-hash router in-process, health-checks every child, and
 * restarts crashed nodes through iDO recovery while the router holds
 * and replays requests for the recovering slice.
 *
 * Usage:
 *   ido_cluster --serve-bin=PATH --dir=DIR [--nodes=3] [--replicate]
 *               [--router-port=0] [--router-port-file=PATH]
 *               [--state-file=PATH] [--shards=2]
 *               [--heap-bytes=N] [--health-interval-ms=200]
 *
 * The state file (default DIR/cluster.state) is rewritten atomically
 * after every (re)spawn:
 *   router <port>
 *   node<i> <pid> <port> <admin_port> <heap>
 *   replica0 <pid> <port> <admin_port> <heap>
 * The CI smoke job reads pids from it to aim its kill -9 rounds, then
 * watches the same file to learn the respawned pids.
 */
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cluster/port_file.h"
#include "cluster/router.h"
#include "cluster/supervisor.h"

using namespace ido;

namespace {

std::atomic<bool> g_stop{false};
cluster::Router* g_router = nullptr;

void
on_signal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
    if (g_router)
        g_router->stop();
}

bool
parse_flag(const char* arg, const char* name, std::string* out)
{
    const size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    *out = arg + n + 1;
    return true;
}

uint64_t
parse_u64_or_die(const std::string& s, const char* what)
{
    char* end = nullptr;
    const uint64_t v = std::strtoull(s.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
        std::fprintf(stderr, "ido_cluster: bad %s: '%s'\n", what,
                     s.c_str());
        std::exit(2);
    }
    return v;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: ido_cluster --serve-bin=PATH --dir=DIR [--nodes=N]\n"
        "                   [--replicate] [--router-port=N]\n"
        "                   [--router-port-file=PATH]\n"
        "                   [--state-file=PATH] [--shards=N]\n"
        "                   [--heap-bytes=N]\n"
        "                   [--health-interval-ms=N]\n");
    return 2;
}

/**
 * Rewrite the state file atomically (same tmp+rename discipline as
 * the port files): a concurrent reader sees either the old complete
 * state or the new one, never a torn mix of pids.
 */
bool
write_state(const std::string& path, const cluster::NodeSupervisor& sup,
            uint16_t router_port)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "router %u\n", router_port);
    for (uint32_t i = 0; i < sup.node_count(); ++i)
        std::fprintf(f, "node%u %d %u %u %s\n", i,
                     static_cast<int>(sup.node_pid(i)), sup.node_port(i),
                     sup.node_admin_port(i), sup.node_heap(i).c_str());
    if (sup.replicated() && sup.replica_pid() > 0)
        std::fprintf(f, "replica0 %d %u %u %s\n",
                     static_cast<int>(sup.replica_pid()),
                     sup.replica_port(), sup.replica_admin_port(),
                     sup.replica_heap().c_str());
    std::fflush(f);
    std::fclose(f);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    cluster::SupervisorConfig scfg;
    std::string router_port_file;
    std::string state_file;
    uint64_t router_port = 0;
    uint64_t health_interval_ms = 200;
    scfg.nodes = 3;

    for (int i = 1; i < argc; ++i) {
        std::string val;
        if (parse_flag(argv[i], "--serve-bin", &val))
            scfg.serve_bin = val;
        else if (parse_flag(argv[i], "--dir", &val))
            scfg.dir = val;
        else if (parse_flag(argv[i], "--nodes", &val))
            scfg.nodes =
                static_cast<uint32_t>(parse_u64_or_die(val, "--nodes"));
        else if (std::strcmp(argv[i], "--replicate") == 0)
            scfg.replicate = true;
        else if (parse_flag(argv[i], "--router-port-file", &val))
            router_port_file = val;
        else if (parse_flag(argv[i], "--router-port", &val))
            router_port = parse_u64_or_die(val, "--router-port");
        else if (parse_flag(argv[i], "--state-file", &val))
            state_file = val;
        else if (parse_flag(argv[i], "--shards", &val))
            scfg.shards =
                static_cast<uint32_t>(parse_u64_or_die(val, "--shards"));
        else if (parse_flag(argv[i], "--heap-bytes", &val))
            scfg.heap_bytes = parse_u64_or_die(val, "--heap-bytes");
        else if (parse_flag(argv[i], "--health-interval-ms", &val))
            health_interval_ms =
                parse_u64_or_die(val, "--health-interval-ms");
        else
            return usage();
    }
    if (scfg.serve_bin.empty() || scfg.dir.empty() || scfg.nodes < 1 ||
        router_port > 65535)
        return usage();
    if (state_file.empty())
        state_file = scfg.dir + "/cluster.state";

    cluster::NodeSupervisor sup(scfg);
    if (!sup.start_all()) {
        std::fprintf(stderr, "ido_cluster: failed to start nodes\n");
        return 1;
    }

    cluster::RouterConfig rcfg;
    rcfg.nodes = sup.node_addrs();
    rcfg.port = static_cast<uint16_t>(router_port);
    cluster::Router router(rcfg);

    g_router = &router;
    struct sigaction sa = {};
    sa.sa_handler = on_signal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    if (!router_port_file.empty() &&
        !cluster::write_port_file(router_port_file, router.port())) {
        std::fprintf(stderr, "ido_cluster: cannot write %s\n",
                     router_port_file.c_str());
        return 1;
    }
    if (!write_state(state_file, sup, router.port())) {
        std::fprintf(stderr, "ido_cluster: cannot write %s\n",
                     state_file.c_str());
        return 1;
    }
    std::printf("CLUSTER 127.0.0.1:%u nodes=%u replicate=%d\n",
                router.port(), sup.node_count(),
                sup.replicated() ? 1 : 0);
    std::fflush(stdout);

    // The router owns a worker thread; the main thread is the health
    // loop.  A crashed node is respawned on its pinned port (iDO
    // recovery runs inside ido_serve before it binds) while the router
    // holds that slice's requests and replays them on reconnect.
    std::thread router_thread([&router] { router.run(); });
    while (!g_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(health_interval_ms));
        bool changed = false;
        for (uint32_t i = 0; i < sup.node_count(); ++i) {
            if (sup.node_alive(i))
                continue;
            std::fprintf(stderr,
                         "ido_cluster: node%u died, restarting\n", i);
            if (sup.restart_node(i)) {
                changed = true;
                std::fprintf(stderr, "ido_cluster: node%u back (pid %d)\n",
                             i, static_cast<int>(sup.node_pid(i)));
            }
        }
        if (sup.replicated() && !sup.replica_alive()) {
            std::fprintf(stderr,
                         "ido_cluster: replica died, restarting\n");
            if (sup.restart_replica())
                changed = true;
        }
        if (changed)
            write_state(state_file, sup, router.port());
    }
    router.stop();
    router_thread.join();
    g_router = nullptr;
    // ~NodeSupervisor SIGKILLs the children; their heaps recover on
    // the next start, which is the contract this whole tool exists to
    // demonstrate.
    return 0;
}
