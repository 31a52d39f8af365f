/**
 * @file
 * ido-serve: the memcached-protocol server binary over the iDO FASE
 * runtime (src/net).  This is the process the kill -9 harness aims
 * at: a file-backed persistent heap, iDO recovery on reattach, and
 * FASEs run on the event loop, one batch of replies per read.
 *
 * Usage:
 *   ido_serve --heap=/path/cache.heap [--port=0] [--port-file=PATH]
 *             [--shards=4] [--buckets=256]
 *             [--heap-bytes=67108864] [--reset]
 *             [--admin] [--admin-port=0] [--admin-port-file=PATH]
 *
 * With --admin (implied by either --admin-port or --admin-port-file)
 * a loopback HTTP endpoint serves /metrics (Prometheus), /stats.json,
 * /recovery (the structured recovery timeline) and /healthz off the
 * same epoll loop; `ido_top` and the CI scrape job poll it.
 *
 * Lifecycle:
 *   1. open the heap; if the previous instance died mid-run
 *      (recovered_from_crash), run iDO recovery: reacquire locks from
 *      the persistent indirect lock holders, restore contexts, resume
 *      every interrupted FASE to completion;
 *   2. bind, write the bound port to --port-file (the harness's
 *      readiness handshake), print LISTENING, serve;
 *   3. on SIGINT/SIGTERM, drain and mark the heap clean.
 *
 * A `quit`-less client disconnect, a kill -9, or a crash anywhere in
 * between leaves the heap recoverable by the next invocation.
 */
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "apps/memcached_mini.h"
#include "cluster/port_file.h"
#include "ido/ido_runtime.h"
#include "net/server.h"
#include "nvm/persist_domain.h"
#include "nvm/persistent_heap.h"
#include "stats/recovery_timeline.h"
#include "stats/stat_plane.h"
#include "trace/trace.h"

using namespace ido;

namespace {

net::Server* g_server = nullptr;

void
on_signal(int)
{
    // EventLoop::stop() only writes an eventfd: async-signal-safe.
    if (g_server)
        g_server->stop();
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
        std::fprintf(stderr, "ido_serve: bad %s: '%s'\n", what, s.c_str());
        std::exit(2);
    }
    return v;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: ido_serve --heap=PATH [--port=N] [--port-file=PATH]\n"
        "                 [--shards=N] [--buckets=N]\n"
        "                 [--heap-bytes=N] [--reset] [--admin]\n"
        "                 [--admin-port=N] [--admin-port-file=PATH]\n"
        "                 [--replica-of=HOST:PORT]\n"
        "                 [--publish-delay-ms=N]\n"
        "--replica-of makes this process a replicated primary: client\n"
        "acks release only after the replica acknowledged the batch.\n"
        "--publish-delay-ms delays reply release after the fence (test\n"
        "injection for the replication ack-ordering proofs).\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string heap_path;
    std::string port_file;
    std::string admin_port_file;
    uint64_t port = 0;
    uint64_t admin_port = 0;
    bool admin = false;
    uint64_t shards = 4;
    uint64_t buckets = 256;
    uint64_t heap_bytes = 64u << 20;
    bool reset = false;
    std::string replica_of;
    uint64_t publish_delay_ms = 0;

    for (int i = 1; i < argc; ++i) {
        std::string val;
        if (parse_flag(argv[i], "--heap", &val))
            heap_path = val;
        else if (parse_flag(argv[i], "--port-file", &val))
            port_file = val;
        else if (parse_flag(argv[i], "--port", &val))
            port = parse_u64_or_die(val, "--port");
        else if (parse_flag(argv[i], "--admin-port-file", &val)) {
            admin_port_file = val;
            admin = true;
        } else if (parse_flag(argv[i], "--admin-port", &val)) {
            admin_port = parse_u64_or_die(val, "--admin-port");
            admin = true;
        } else if (std::strcmp(argv[i], "--admin") == 0)
            admin = true;
        else if (parse_flag(argv[i], "--shards", &val))
            shards = parse_u64_or_die(val, "--shards");
        else if (parse_flag(argv[i], "--buckets", &val))
            buckets = parse_u64_or_die(val, "--buckets");
        else if (parse_flag(argv[i], "--heap-bytes", &val))
            heap_bytes = parse_u64_or_die(val, "--heap-bytes");
        else if (std::strcmp(argv[i], "--reset") == 0)
            reset = true;
        else if (parse_flag(argv[i], "--replica-of", &val))
            replica_of = val;
        else if (parse_flag(argv[i], "--publish-delay-ms", &val))
            publish_delay_ms =
                parse_u64_or_die(val, "--publish-delay-ms");
        else
            return usage();
    }
    std::string replica_host;
    uint64_t replica_port = 0;
    if (!replica_of.empty()) {
        const size_t colon = replica_of.rfind(':');
        if (colon == std::string::npos)
            return usage();
        replica_host = replica_of.substr(0, colon);
        replica_port =
            parse_u64_or_die(replica_of.substr(colon + 1), "--replica-of");
        if (replica_host.empty() || replica_port == 0 ||
            replica_port > 65535)
            return usage();
    }
    if (heap_path.empty() || port > 65535 || admin_port > 65535 ||
        shards < 1 || shards > 7)
        return usage();

    // Slow-request forensics need an armed ring tracer to snapshot.
    if (stat_slow_threshold_ns() > 0 && !trace::Tracer::armed())
        trace::Tracer::arm();

    const uint64_t t_attach0 = stat_now_ns();
    nvm::PersistentHeap heap(
        {.path = heap_path, .size = heap_bytes, .reset = reset});
    nvm::RealDomain dom;
    ido::IdoRuntime rt(heap, dom, rt::RuntimeConfig{});
    apps::MemcachedMini::register_programs();
    const uint64_t attach_ns = stat_now_ns() - t_attach0;

    if (heap.recovered_from_crash()) {
        std::fprintf(stderr,
                     "ido_serve: unclean shutdown detected, running "
                     "iDO recovery\n");
        // recover() records the "crash" RecoveryTimeline (phases,
        // FASEs resumed, flush/fence deltas) and publishes the
        // recovery.* counters the crash harness asserts on.
        rt.recover();
        std::fprintf(stderr, "ido_serve: recovery complete\n");
    } else {
        // Clean attach: record a timeline for /recovery anyway so a
        // scraper always sees the latest attach, but publish no
        // recovery.* counters -- those mean "a crash was recovered".
        auto& tl = RecoveryTimeline::instance();
        tl.start("clean");
        tl.add_phase("heap-attach", attach_ns);
        tl.finish();
    }
    heap.mark_running(dom);

    net::ServerConfig cfg;
    cfg.port = static_cast<uint16_t>(port);
    cfg.shards = static_cast<uint32_t>(shards);
    cfg.nbuckets = buckets;
    cfg.admin = admin;
    cfg.admin_port = static_cast<uint16_t>(admin_port);
    if (replica_port != 0) {
        cfg.replica_host = replica_host;
        cfg.replica_port = static_cast<uint16_t>(replica_port);
    }
    cfg.publish_delay_ms = static_cast<uint32_t>(publish_delay_ms);
    net::Server server(rt, cfg);

    g_server = &server;
    struct sigaction sa = {};
    sa.sa_handler = on_signal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    // The readiness handshake: the port file appears only once the
    // socket is bound, so a harness can poll for it then connect.
    // Atomic publication (tmp + fsync + rename, cluster/port_file.h):
    // the supervisor polls these files and must never observe a
    // partially written port.
    if (!port_file.empty() &&
        !cluster::write_port_file(port_file, server.port())) {
        std::fprintf(stderr, "ido_serve: cannot write %s\n",
                     port_file.c_str());
        return 1;
    }
    if (!admin_port_file.empty() &&
        !cluster::write_port_file(admin_port_file, server.admin_port())) {
        std::fprintf(stderr, "ido_serve: cannot write %s\n",
                     admin_port_file.c_str());
        return 1;
    }
    std::printf("LISTENING 127.0.0.1:%u shards=%llu admin=%u\n",
                server.port(), static_cast<unsigned long long>(shards),
                server.admin_port());
    std::fflush(stdout);

    server.run();
    g_server = nullptr;

    heap.mark_clean(dom);
    std::printf("ido_serve: clean shutdown (%llu requests served)\n",
                static_cast<unsigned long long>(server.requests_served()));
    return 0;
}
