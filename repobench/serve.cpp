/**
 * @file
 * serve and serve-routed: ido-serve (net::Server) in process, loaded
 * over loopback TCP by two closed-loop client connections that pipeline
 * bursts of 64 requests (2 sets per 16, uniform keys) and read every
 * reply themselves.  serve-routed puts a cluster::Router in front of two
 * one-shard nodes.
 *
 * Each connection owns the keys whose index is congruent to its number
 * mod 2 and checks every get reply against its model.  After the
 * window every node is restarted a few times on a fresh runtime over
 * its heap (recover() + reattach, timed), then every key is re-read
 * through the same front door and each heap is checked and audited.
 */
#include <cstdio>
#include <string_view>
#include <map>
#include <memory>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "apps/memcached_mini.h"
#include "baselines/runtime_factory.h"
#include "bench.h"
#include "cluster/router.h"
#include "common/panic.h"
#include "common/rng.h"
#include "net/server.h"
#include "nvm/heap_gc.h"
#include "stats/metrics.h"

namespace repobench {
namespace {

using namespace ido;

constexpr unsigned kConns = 2;
constexpr uint32_t kBurst = 64;
constexpr uint64_t kKeys = 64 * 1024;
constexpr int kSetups = 5;
constexpr int kRestarts = 8; ///< node restarts per run, over all nodes
constexpr uint64_t kItemPayloadBytes = 24;

/** A request of a burst and the reply the model predicts. */
struct Req
{
    bool set = false;
    uint64_t expect = 0; ///< get: expected value (0 = miss)
};

/** Blocking text-protocol connection that parses replies itself. */
class Wire
{
  public:
    Wire() = default;
    ~Wire()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Wire(const Wire&) = delete;
    Wire& operator=(const Wire&) = delete;

    bool
    connect(uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0)
            return false;
        int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        timeval tv{10, 0}; // a wedged server fails the run, not hangs it
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        sockaddr_in a{};
        a.sin_family = AF_INET;
        a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        a.sin_port = htons(port);
        return ::connect(fd_, reinterpret_cast<sockaddr*>(&a), sizeof a)
               == 0;
    }

    /** One `version` round trip: proves the server is serving. */
    bool
    version()
    {
        if (!send("version\r\n"))
            return false;
        for (;;) {
            size_t p = pos_;
            std::string_view l;
            if (line(&p, &l)) {
                pos_ = p;
                return l.substr(0, 8) == "VERSION ";
            }
            char buf[256];
            const ssize_t n = ::read(fd_, buf, sizeof buf);
            ++reads;
            if (n <= 0)
                return false;
            in_.append(buf, size_t(n));
        }
    }

    bool
    send(const std::string& s)
    {
        for (size_t off = 0; off < s.size();) {
            const ssize_t n = ::write(fd_, s.data() + off, s.size() - off);
            ++writes;
            if (n <= 0)
                return false;
            off += size_t(n);
        }
        return true;
    }

    /**
     * Read the replies to reqs in order; calls done(i, ok, now_ns) as
     * each completes.  False if the connection failed or a reply broke
     * the protocol.
     */
    template <typename F>
    bool
    replies(const std::vector<Req>& reqs, F&& done)
    {
        for (size_t i = 0; i < reqs.size();) {
            int r = parse(reqs[i], &ok_);
            if (r < 0)
                return false;
            if (r > 0) {
                done(i, ok_, last_read_ns_);
                ++i;
                continue;
            }
            char buf[16384];
            const ssize_t n = ::read(fd_, buf, sizeof buf);
            ++reads;
            if (n <= 0)
                return false;
            last_read_ns_ = now_ns();
            in_.erase(0, pos_);
            pos_ = 0;
            in_.append(buf, size_t(n));
        }
        return true;
    }

    uint64_t reads = 0, writes = 0;

  private:
    /** Next CRLF-terminated line at pos_ (without CRLF); false if
     *  incomplete. */
    bool
    line(size_t* from, std::string_view* out) const
    {
        const size_t e = in_.find("\r\n", *from);
        if (e == std::string::npos)
            return false;
        *out = std::string_view(in_).substr(*from, e - *from);
        *from = e + 2;
        return true;
    }

    /** 1: parsed one reply (sets *ok); 0: incomplete; -1: protocol. */
    int
    parse(const Req& rq, bool* ok)
    {
        size_t p = pos_;
        std::string_view l;
        if (!line(&p, &l))
            return 0;
        if (rq.set) {
            *ok = l == "STORED";
        } else if (l == "END") {
            *ok = rq.expect == 0;
        } else if (l.substr(0, 6) == "VALUE ") {
            std::string_view data, end;
            if (!line(&p, &data) || !line(&p, &end))
                return 0;
            if (end != "END")
                return -1;
            *ok = std::to_string(rq.expect) == data;
        } else {
            return -1;
        }
        pos_ = p;
        return 1;
    }

    int fd_ = -1;
    std::string in_;
    size_t pos_ = 0;
    bool ok_ = false;
    uint64_t last_read_ns_ = 0;
};

/** One ido-serve node: heap, domain(s), runtime, server, loop thread.
 *  restart() is timed from the fresh runtime to the first answered
 *  request. */
class Node
{
  public:
    Node(bool traced, const net::ServerConfig& cfg)
        : heap_({.size = 64u << 20}), cfg_(cfg)
    {
        if (traced)
            timing_ = std::make_unique<TimingDomain>(real_);
        start_runtime();
        arena_total_ = rt_->allocator().arena_remaining();
        start_server();
    }

    ~Node() { stop(); }

    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    uint16_t port() const { return cfg_.port; }
    std::thread& loop() { return loop_; }

    void
    stop()
    {
        if (!loop_.joinable())
            return;
        server_->stop();
        loop_.join();
    }

    /** Stop, then come back on a fresh runtime over the same heap and
     *  the same port, timed into led. */
    void
    restart(RecoveryLedger& led)
    {
        stop();
        server_.reset();
        rt_.reset();
        led.time([&] {
            start_runtime();
            rt_->recover();
            start_server();
        });
    }

    /** Arena bytes in use and live items (quiescent node only). */
    std::pair<uint64_t, uint64_t>
    space() const
    {
        return {arena_total_ - rt_->allocator().arena_remaining(),
                apps::MemcachedMini::size(heap_, server_->root_off())};
    }

    /** Structural and heap checks (stopped node only). */
    void
    check(Report& rep)
    {
        if (!apps::MemcachedMini::check_invariants(heap_,
                                                   server_->root_off()))
            rep.problem("memcached_mini invariants violated");
        nvm::HeapGc gc(rt_->allocator(), dom());
        const nvm::GcStats gs = gc.audit();
        if (gs.leaked_blocks != 0 || gs.dangling_links != 0)
            rep.problem("heap audit: leaked="
                        + std::to_string(gs.leaked_blocks) + " dangling="
                        + std::to_string(gs.dangling_links));
    }

  private:
    nvm::PersistDomain& dom()
    {
        return timing_ ? static_cast<nvm::PersistDomain&>(*timing_) : real_;
    }

    void
    start_runtime()
    {
        rt_ = baselines::make_runtime(baselines::RuntimeKind::kIdo, heap_,
                                      dom(), runtime_config());
    }

    /** Start serving; returns once a request was answered (a stop()
     *  that lands before Server::run() starts its loop would be lost). */
    void
    start_server()
    {
        server_ = std::make_unique<net::Server>(*rt_, cfg_);
        cfg_.port = server_->port(); // a restart rebinds the same port
        loop_ = std::thread([this] {
            pin_to(CpuHalf::kSystem); // the shard workers inherit it
            server_->run();
        });
        Wire w;
        const bool up = w.connect(cfg_.port) && w.version();
        IDO_ASSERT(up, "node does not answer after start");
    }

    mutable nvm::PersistentHeap heap_;
    nvm::RealDomain real_;
    std::unique_ptr<TimingDomain> timing_;
    std::unique_ptr<rt::Runtime> rt_;
    net::ServerConfig cfg_;
    uint64_t arena_total_ = 0;
    std::unique_ptr<net::Server> server_;
    std::thread loop_;
};

void
append_set(std::string& w, uint64_t idx, uint64_t v)
{
    const std::string val = std::to_string(v);
    w += "set k" + std::to_string(idx) + " 0 0 " + std::to_string(val.size())
         + "\r\n" + val + "\r\n";
}

void
append_get(std::string& w, uint64_t idx)
{
    w += "get k" + std::to_string(idx) + "\r\n";
}

/** A connection's key subset and model. */
struct Owner
{
    std::vector<uint64_t> val = std::vector<uint64_t>(kKeys / kConns, 0);
    uint64_t next_value = 0;
    uint64_t fresh(unsigned c) { return (++next_value << 8) | (c + 1); }
};

/**
 * Pipeline reqs through one connection in chunks; checks each reply.
 * Used for the prefill and the post-restart read-back.
 */
bool
bulk(uint16_t port, std::vector<Owner>& owners, bool write, Report& rep)
{
    Wire w;
    if (!w.connect(port))
        return false;
    std::string wire;
    std::vector<Req> reqs;
    constexpr uint64_t kChunk = 1024;
    for (uint64_t base = 0; base < kKeys; base += kChunk) {
        wire.clear();
        reqs.clear();
        for (uint64_t idx = base; idx < std::min(base + kChunk, kKeys);
             ++idx) {
            const unsigned c = unsigned(idx % kConns);
            uint64_t& v = owners[c].val[idx / kConns];
            if (write) {
                v = owners[c].fresh(c);
                append_set(wire, idx, v);
                reqs.push_back({true, v});
            } else {
                append_get(wire, idx);
                reqs.push_back({false, v});
            }
        }
        if (!w.send(wire)
            || !w.replies(reqs, [&](size_t, bool ok, uint64_t) {
                   rep.check(ok);
               }))
            return false;
    }
    return true;
}

/** The whole system under test: nodes, optional router, front port. */
struct System
{
    System(bool routed, bool traced)
    {
        net::ServerConfig cfg;
        cfg.batch_limit = 16;
        cfg.shards = routed ? 1 : 2;
        cfg.nbuckets = kKeys / 2; // one bucket per item in either layout
        for (int i = 0; i < (routed ? 2 : 1); ++i)
            nodes.push_back(std::make_unique<Node>(traced, cfg));
        front = nodes[0]->port();
        if (!routed)
            return;
        cluster::RouterConfig rc;
        for (auto& n : nodes)
            rc.nodes.push_back({"127.0.0.1", n->port()});
        rc.ring_seed = 0x5eed;
        router = std::make_unique<cluster::Router>(rc);
        front = router->port();
        router_loop = std::thread([this] {
            pin_to(CpuHalf::kSystem);
            router->run();
        });
    }

    ~System()
    {
        stop_router();
        for (auto& n : nodes)
            n->stop();
    }

    void
    stop_router()
    {
        if (!router_loop.joinable())
            return;
        router->stop();
        router_loop.join();
    }

    std::vector<std::unique_ptr<Node>> nodes;
    std::unique_ptr<cluster::Router> router;
    std::thread router_loop;
    uint16_t front = 0;
};

/** Server-side latency recorders (request end to end, then phases). */
const char* const kServerLat[] = {"net.lat.req.get", "net.lat.req.set",
                                  "net.lat.req.delete", "net.lat.queue",
                                  "net.lat.exec", "net.lat.publish"};

/** Client side of one connection, what it measured. */
struct ClientStats
{
    SliceLat lat[2]; ///< 0: get, 1: set
    uint64_t cpu_ns = 0, ctx = 0, reads = 0, writes = 0;
    uint64_t attempted = 0, failed = 0;
    bool broken = false;
};

/** Gets sent to the router and straight to a node, alternately: the
 *  difference of the medians is the router hop. */
double
probe_hop(System& sys, const std::atomic<bool>& stop)
{
    Wire via, direct;
    if (!via.connect(sys.front) || !direct.connect(sys.nodes[0]->port()))
        return 0.0;
    std::vector<double> v, d;
    const std::vector<Req> one{{false, 0}};
    const std::string rq = "get probe\r\n";
    while (!stop.load(std::memory_order_relaxed)) {
        for (auto [w, out] : {std::pair{&via, &v}, std::pair{&direct, &d}}) {
            const uint64_t t0 = now_ns();
            if (!w->send(rq)
                || !w->replies(one, [](size_t, bool, uint64_t) {}))
                return 0.0;
            out->push_back(double(now_ns() - t0) / 1e3);
        }
        sleep_until_ns(now_ns() + 1'000'000);
    }
    return median(v) - median(d);
}

} // namespace

void
run_serve(const Args& args, Report& rep)
{
    const bool routed = args.workload == "serve-routed";
    const bool traced = args.trace;
    apps::MemcachedMini::register_programs();
    IdleSpinners spinners;

    // Restart times depend on where each heap landed in physical memory,
    // which differs per heap and per run, so every set-up's heap is
    // restarted once, on top of the restarts after the window.
    RecoveryLedger led;
    std::vector<Owner> owners;
    std::unique_ptr<System> sys;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetups; ++i) {
        sys.reset();
        owners.assign(kConns, Owner{});
        const uint64_t t0 = now_ns();
        sys = std::make_unique<System>(routed, traced);
        if (!bulk(sys->front, owners, true, rep)) {
            rep.problem("prefill failed");
            return;
        }
        setup_s.push_back(double(now_ns() - t0) / 1e9);
        for (auto& n : sys->nodes)
            n->restart(led);
    }

    const unsigned measured = traced ? 2 : 1;
    const unsigned stop_phase = measured + 1;
    Phases phases(kConns);
    Window untraced_half, window;
    std::vector<std::vector<PaddedCount>> counts(stop_phase);
    for (auto& c : counts)
        c = std::vector<PaddedCount>(kConns);
    std::vector<ClientStats> stats(kConns);
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kConns; ++c) {
        clients.emplace_back([&, c] {
            pin_to(CpuHalf::kLoad);
            ClientStats& st = stats[c];
            Owner& o = owners[c];
            Rng rng(args.seed * 1000003 + c + 1);
            Wire w;
            st.broken = !w.connect(sys->front);
            unsigned my_phase = 0;
            uint64_t cpu0 = 0, ctx0 = 0, r0 = 0, w0 = 0;
            std::string wire;
            std::vector<Req> reqs;
            for (;;) {
                const unsigned ph = phases.current();
                if (ph != my_phase) {
                    // Own resources over the measured phase, so the
                    // server side can be told apart from the client.
                    if (ph == measured) {
                        cpu0 = thread_cpu_ns();
                        ctx0 = thread_ctx_switches();
                        r0 = w.reads;
                        w0 = w.writes;
                    } else if (ph == stop_phase) {
                        st.cpu_ns = thread_cpu_ns() - cpu0;
                        st.ctx = thread_ctx_switches() - ctx0;
                        st.reads = w.reads - r0;
                        st.writes = w.writes - w0;
                    }
                    phases.ack();
                    my_phase = ph;
                    if (ph == stop_phase)
                        break;
                }
                if (st.broken) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                    continue;
                }
                wire.clear();
                reqs.clear();
                for (uint32_t i = 0; i < kBurst; ++i) {
                    const uint64_t local = rng.next_below(kKeys / kConns);
                    const uint64_t idx = local * kConns + c;
                    if (i % 8 == 0) {
                        o.val[local] = o.fresh(c);
                        append_set(wire, idx, o.val[local]);
                        reqs.push_back({true, o.val[local]});
                    } else {
                        append_get(wire, idx);
                        reqs.push_back({false, o.val[local]});
                    }
                }
                const uint64_t t0 = now_ns();
                const bool timed = ph == measured;
                st.broken =
                    !w.send(wire)
                    || !w.replies(reqs, [&](size_t i, bool ok, uint64_t t) {
                           ++st.attempted;
                           st.failed += ok ? 0 : 1;
                           if (timed)
                               st.lat[reqs[i].set ? 1 : 0].add(window, t0,
                                                               t - t0);
                       });
                if (st.broken) {
                    std::fprintf(stderr, "repobench: connection %u failed\n",
                                 c);
                    continue;
                }
                counts[ph][c].v.fetch_add(kBurst, std::memory_order_relaxed);
            }
        });
    }

    const double warmup_s = std::min(2.0, 0.2 * args.seconds);
    sleep_until_ns(now_ns() + uint64_t(warmup_s * 1e9));
    double untraced_rate = 0;
    if (traced) {
        untraced_half.open(args.seconds / 2);
        phases.advance();
        untraced_rate = untraced_half.rate(counts[1]);
    }
    window.open(traced ? args.seconds / 2 : args.seconds);
    phases.advance();
    if (traced)
        trace::g_on.store(true);
    std::atomic<bool> probe_stop{false};
    double hop_us = 0;
    std::thread probe;
    if (traced && routed)
        probe = std::thread([&] { hop_us = probe_hop(*sys, probe_stop); });
    auto& reg = MetricsRegistry::instance();
    for (const char* n : kServerLat)
        reg.latency(n)->reset();
    const Counters c0 = Counters::read();
    const uint64_t cpu0 = process_cpu_ns(), main_cpu0 = thread_cpu_ns();
    const uint64_t spin0 = spinners.cpu_ns();
    const uint64_t ctx0 = process_ctx_switches();
    const uint64_t main_ctx0 = thread_ctx_switches();
    const SyscallCounts sys0 = process_syscalls();
    std::vector<uint64_t> loop0;
    for (auto& n : sys->nodes)
        loop0.push_back(thread_cpu_ns(n->loop()));
    const uint64_t router0 = routed ? thread_cpu_ns(sys->router_loop) : 0;

    const double rate = window.rate(counts[measured]);

    const uint64_t cpu = process_cpu_ns() - cpu0;
    const uint64_t main_cpu = thread_cpu_ns() - main_cpu0;
    const uint64_t spin_cpu = spinners.cpu_ns() - spin0;
    const uint64_t ctx = process_ctx_switches() - ctx0;
    const uint64_t main_ctx = thread_ctx_switches() - main_ctx0;
    const SyscallCounts sys1 = process_syscalls();
    uint64_t loop_cpu = 0;
    for (size_t i = 0; i < sys->nodes.size(); ++i)
        loop_cpu += thread_cpu_ns(sys->nodes[i]->loop()) - loop0[i];
    const uint64_t router_cpu =
        routed ? thread_cpu_ns(sys->router_loop) - router0 : 0;
    const double fragmentation = heap_fragmentation_ppm();
    std::map<std::string, LatencyHistogram> server_lat;
    for (const char* n : kServerLat)
        server_lat[n] = reg.latency(n)->snapshot();
    phases.advance();
    trace::g_on.store(false);
    probe_stop.store(true);
    if (probe.joinable())
        probe.join();
    for (auto& t : clients)
        t.join();
    // Stopping the nodes folds every shard's persist counters.
    for (auto& n : sys->nodes)
        n->stop();
    const Counters c1 = Counters::read();

    uint64_t reqs = 0, client_cpu = 0, client_ctx = 0, client_r = 0,
             client_w = 0;
    for (const PaddedCount& c : counts[measured])
        reqs += c.v.load();
    reqs = std::max<uint64_t>(reqs, 1);
    std::vector<const SliceLat*> get, set, all;
    for (const ClientStats& st : stats) {
        client_cpu += st.cpu_ns;
        client_ctx += st.ctx;
        client_r += st.reads;
        client_w += st.writes;
        get.push_back(&st.lat[0]);
        set.push_back(&st.lat[1]);
        all.push_back(&st.lat[0]);
        all.push_back(&st.lat[1]);
        rep.attempted += st.attempted;
        rep.failed += st.failed;
        if (st.broken)
            rep.problem("a client connection failed");
    }
    uint64_t used = 0, live = 0;
    for (auto& n : sys->nodes) {
        const auto [u, l] = n->space();
        used += u;
        live += l;
    }

    // Restart every node a few times; then read every key back through
    // the front door and audit each heap.
    for (int r = 0; r < kRestarts; ++r)
        sys->nodes[r % sys->nodes.size()]->restart(led);
    if (!bulk(sys->front, owners, false, rep))
        rep.problem("read-back after restart failed");
    sys->stop_router();
    for (auto& n : sys->nodes) {
        n->stop();
        n->check(rep);
    }

    const auto delta = [&](const char* name) { return c1.since(c0, name); };
    const double system_cpu = double(cpu) - double(client_cpu)
                              - double(main_cpu) - double(spin_cpu);
    if (!traced) {
        std::printf("samples: get=%llu set=%llu\n",
                    (unsigned long long)SliceLat::total_seen(get),
                    (unsigned long long)SliceLat::total_seen(set));
        rep.add("ops_per_s", rate, "1/s");
        rep.add("get_p50_us", SliceLat::quantile_us(get, 0.50), "us");
        rep.add("get_p90_us", SliceLat::quantile_us(get, 0.90), "us");
        rep.add("set_p50_us", SliceLat::quantile_us(set, 0.50), "us");
        rep.add("set_p90_us", SliceLat::quantile_us(set, 0.90), "us");
        rep.add("cpu_us_per_op", system_cpu / 1e3 / double(reqs), "us");
        rep.add("fences_per_op", delta("persist.fences") / double(reqs),
                "count");
        rep.add("setup_s", median(setup_s), "s");
        rep.add("recovery_ms", median(led.wall_ms), "ms");
        rep.add("space_amp", double(used) / double(live * kItemPayloadBytes),
                "ratio");
        rep.add("peak_rss_mb", peak_rss_mb(), "MB");
        return;
    }

    const double n = double(reqs);
    report_shared_layers({c0, c1, n, system_cpu, fragmentation,
                          untraced_rate, rate},
                         rep);
    led.report(rep);
    const auto server_us = [&](const char* name, double q) {
        return double(server_lat[name].percentile(q)) / 1e3;
    };
    LatencyHistogram server_req;
    for (const char* n : {"net.lat.req.get", "net.lat.req.set",
                          "net.lat.req.delete"})
        server_req.merge(server_lat[n]);
    rep.add("net.queue_us_p50", server_us("net.lat.queue", 0.5), "us");
    rep.add("net.queue_us_p99", server_us("net.lat.queue", 0.99), "us");
    rep.add("net.exec_us_p50", server_us("net.lat.exec", 0.5), "us");
    rep.add("net.publish_us_p50", server_us("net.lat.publish", 0.5), "us");
    rep.add("net.outside_server_us_p50",
            SliceLat::quantile_us(all, 0.5)
                - double(server_req.percentile(0.5)) / 1e3,
            "us");
    rep.add("net.loop_cpu_us_per_req", double(loop_cpu) / 1e3 / n, "us");
    rep.add("net.shard_cpu_us_per_req",
            (system_cpu - double(loop_cpu) - double(router_cpu)) / 1e3 / n,
            "us");
    rep.add("net.read_syscalls_per_req",
            (double(sys1.reads - sys0.reads) - double(client_r)) / n,
            "count");
    rep.add("net.write_syscalls_per_req",
            (double(sys1.writes - sys0.writes) - double(client_w)) / n,
            "count");
    rep.add("net.ctx_switches_per_req",
            (double(ctx) - double(client_ctx) - double(main_ctx)) / n,
            "count");
    rep.add("cluster.router_cpu_us_per_req", double(router_cpu) / 1e3 / n,
            "us");
    rep.add("cluster.hop_us_p50", hop_us, "us");
    rep.add("cluster.forwarded_per_req",
            delta("cluster.router.forwarded") / n, "count");
    rep.add("client.cpu_us_per_req", double(client_cpu) / 1e3 / n, "us");
}

} // namespace repobench
