/**
 * @file
 * Seeded byte-stream fuzzing of the connection layer (net/conn_table.h)
 * through its three users: ido-serve, the cluster router in front of
 * it, and the admin endpoint.
 *
 * Each round sends a random script of memcached requests over loopback
 * and checks every reply, in order, against a model of the round's own
 * keys.  The scripts carry the inputs that stress connection handling:
 *  - random split points, down to one byte per write with pauses, so
 *    requests straddle reads;
 *  - recoverable garbage (unknown commands, malformed sets) mid-pipeline;
 *  - quit or a framing-fatal error mid-pipeline, followed by bytes that
 *    must not be answered;
 *  - peer resets (RST) while the server or nodes still owe replies;
 *  - raw random bytes;
 *  - a client that reads nothing until its replies overflow the socket
 *    buffers (EPOLLOUT and the stop-reading high-water mark).
 * Every round derives from IDO_SEED, which tests/test_main.cpp prints,
 * and the sanitizer CI legs run the whole file.
 */
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/memcached_mini.h"
#include "cluster/router.h"
#include "common/rng.h"
#include "ido/ido_runtime.h"
#include "net/admin.h"
#include "net/memc_client.h"
#include "net/server.h"
#include "nvm/persist_domain.h"
#include "nvm/persistent_heap.h"

namespace ido {
namespace {

/** ido-serve in process, optionally behind an in-process router. */
struct Target
{
    explicit Target(bool routed)
        : heap({.size = 64u << 20}), runtime(heap, dom, rt::RuntimeConfig{})
    {
        apps::MemcachedMini::register_programs();
        net::ServerConfig cfg;
        cfg.shards = 2;
        cfg.nbuckets = 64;
        cfg.admin = true;
        server = std::make_unique<net::Server>(runtime, cfg);
        server_thread = std::thread([this] { server->run(); });
        port = server->port();
        if (routed) {
            cluster::RouterConfig rc;
            rc.nodes = {{"127.0.0.1", server->port()}};
            router = std::make_unique<cluster::Router>(rc);
            router_thread = std::thread([this] { router->run(); });
            port = router->port();
        }
    }

    ~Target()
    {
        if (router) {
            router->stop();
            router_thread.join();
        }
        if (server_thread.joinable()) {
            server->stop();
            server_thread.join();
        }
    }

    /** Gauge `name` from a `stats` scrape through the front port. */
    uint64_t
    gauge(net::MemcClient& c, const std::string& name)
    {
        std::map<std::string, std::string> st;
        if (!c.stats(&st) || !st.count(name))
            return UINT64_MAX;
        return std::stoull(st[name]);
    }

    nvm::PersistentHeap heap;
    nvm::RealDomain dom;
    IdoRuntime runtime;
    std::unique_ptr<net::Server> server;
    std::unique_ptr<cluster::Router> router;
    std::thread server_thread;
    std::thread router_thread;
    uint16_t port = 0;
};

/** A blocking loopback client socket with a read buffer. */
class Wire
{
  public:
    explicit Wire(uint16_t port, int rcvbuf = 0)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (rcvbuf > 0)
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
        timeval tv = {5, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
        int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in a = {};
        a.sin_family = AF_INET;
        a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        a.sin_port = htons(port);
        ok_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&a), sizeof a) == 0;
    }

    ~Wire()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool ok() const { return ok_; }

    bool
    send(const std::string& s)
    {
        for (size_t at = 0; at < s.size();) {
            const ssize_t n =
                ::send(fd_, s.data() + at, s.size() - at, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            at += static_cast<size_t>(n);
        }
        return true;
    }

    /** Send in random chunks (1..64 bytes, often 1..4) with pauses. */
    bool
    send_split(Rng& rng, const std::string& s)
    {
        for (size_t at = 0; at < s.size();) {
            const size_t n = std::min<size_t>(
                s.size() - at, 1 + rng.next_below(rng.percent(30) ? 4 : 64));
            if (!send(s.substr(at, n)))
                return false;
            at += n;
            if (rng.percent(10))
                std::this_thread::sleep_for(
                    std::chrono::microseconds(rng.next_below(300)));
        }
        return true;
    }

    /** Half-close: the server sees EOF after what was sent. */
    void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

    /** Abort with a RST instead of a FIN. */
    void
    reset()
    {
        linger lg = {1, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
        ::close(fd_);
        fd_ = -1;
    }

    bool
    read_exact(size_t n, std::string* out)
    {
        while (buf_.size() < n)
            if (!fill())
                return false;
        *out = buf_.substr(0, n);
        buf_.erase(0, n);
        return true;
    }

    /** One line, CRLF included. */
    bool
    read_line(std::string* out)
    {
        size_t eol;
        while ((eol = buf_.find("\r\n")) == std::string::npos)
            if (!fill())
                return false;
        *out = buf_.substr(0, eol + 2);
        buf_.erase(0, eol + 2);
        return true;
    }

    /** Everything until the peer closes; false on a timeout. */
    bool
    drain_to_eof(std::string* out)
    {
        for (;;) {
            char b[4096];
            const ssize_t n = ::recv(fd_, b, sizeof b, 0);
            if (n > 0) {
                buf_.append(b, static_cast<size_t>(n));
                continue;
            }
            out->swap(buf_);
            return n == 0 || errno == ECONNRESET;
        }
    }

  private:
    bool
    fill()
    {
        char b[4096];
        const ssize_t n = ::recv(fd_, b, sizeof b, 0);
        if (n <= 0)
            return false;
        buf_.append(b, static_cast<size_t>(n));
        return true;
    }

    int fd_ = -1;
    bool ok_ = false;
    std::string buf_;
};

/** An expected reply: exact bytes, or a STAT...END block. */
struct Expect
{
    std::string exact;
    bool stats = false;
};

struct Script
{
    std::string wire;             ///< requests, sent with split points
    std::string tail;             ///< a terminal request and junk, one write
    std::vector<Expect> replies;  ///< in order
    bool closes = false;          ///< the server must close after replies
};

const std::string kStored = "STORED\r\n";
const std::string kMiss = "END\r\n";
const std::string kError = "ERROR\r\n";
const std::string kBadChunk = "CLIENT_ERROR bad data chunk\r\n";

std::string
value_reply(const std::string& key, uint64_t v)
{
    const std::string d = std::to_string(v);
    return "VALUE " + key + " 0 " + std::to_string(d.size()) + "\r\n" + d
           + "\r\nEND\r\n";
}

/**
 * A random pipeline over keys "<prefix>0".."<prefix>7", with its
 * replies predicted from a model of those keys.
 */
Script
make_script(Rng& rng, const std::string& prefix, size_t nreq)
{
    // Recoverable garbage: answered, then the pipeline goes on.
    const std::pair<std::string, std::string> garbage[] = {
        {"bogus\r\n", kError},
        {"get\r\n", kError},
        {"get a b\r\n", kError},
        {"delete\r\n", kError},
        {"stats detail\r\n", kError},
        {"set " + prefix + "z 0 0 x\r\n", kError},
        {"set " + prefix + "z 0 0 3\r\nabc\r\n", kBadChunk},
        {"get " + std::string(251, 'k') + "\r\n", kError},
        {"\x01\x7f\xff garbage\r\n", kError},
    };
    // Framing-fatal: answered, then the connection closes.
    const std::pair<std::string, std::string> fatal[] = {
        {"set " + prefix + "z 0 0 2\r\n123\r\n", kBadChunk},
        {"set " + prefix + "z 0 0 99\r\n",
         "SERVER_ERROR object too large for cache\r\n"},
        {std::string(600, 'x') + "\r\n", kError},
    };

    Script s;
    std::map<std::string, uint64_t> model;
    for (size_t i = 0; i < nreq; ++i) {
        const std::string key = prefix + std::to_string(rng.next_below(8));
        const uint64_t dice = rng.next_below(100);
        if (dice < 40) {
            const uint64_t v = rng.next();
            const std::string d = std::to_string(v);
            s.wire += "set " + key + " 0 0 " + std::to_string(d.size())
                      + "\r\n" + d + "\r\n";
            s.replies.push_back({kStored});
            model[key] = v;
        } else if (dice < 65) {
            s.wire += "get " + key + "\r\n";
            auto it = model.find(key);
            s.replies.push_back(
                {it == model.end() ? kMiss : value_reply(key, it->second)});
        } else if (dice < 75) {
            s.wire += "delete " + key + "\r\n";
            s.replies.push_back({model.erase(key) ? "DELETED\r\n"
                                                  : "NOT_FOUND\r\n"});
        } else if (dice < 80) {
            s.wire += "version\r\n";
            s.replies.push_back({net::memc_reply_version()});
        } else if (dice < 82) {
            s.wire += "stats\r\n";
            s.replies.push_back({"", true});
        } else if (dice < 85) {
            s.wire += "\r\n"; // blank line: no reply
        } else {
            const auto& g = garbage[rng.next_below(std::size(garbage))];
            s.wire += g.first;
            s.replies.push_back({g.second});
        }
    }
    switch (rng.next_below(4)) {
    case 0:
        s.tail = "quit\r\n";
        s.closes = true;
        break;
    case 1: {
        const auto& f = fatal[rng.next_below(std::size(fatal))];
        s.tail = f.first;
        s.replies.push_back({f.second});
        s.closes = true;
        break;
    }
    default:
        break;
    }
    if (s.closes) // must never be answered
        s.tail += "version\r\nget " + prefix + "0\r\n";
    return s;
}

/** Read and check every reply the script predicts. */
void
check_replies(Wire& w, const Script& s)
{
    for (size_t i = 0; i < s.replies.size(); ++i) {
        const Expect& e = s.replies[i];
        std::string got;
        if (!e.stats) {
            ASSERT_TRUE(w.read_exact(e.exact.size(), &got))
                << "reply " << i << " missing, wanted " << e.exact;
            ASSERT_EQ(got, e.exact) << "reply " << i;
            continue;
        }
        for (;;) {
            ASSERT_TRUE(w.read_line(&got)) << "stats reply " << i;
            if (got == kMiss)
                break;
            ASSERT_EQ(got.rfind("STAT ", 0), 0u) << got;
        }
    }
}

/** Random bytes, weighted toward protocol tokens and line breaks. */
std::string
chaos_bytes(Rng& rng)
{
    static const char* const kTokens[] = {"get ", "set ", "delete ",
                                          "quit", "stats", "version",
                                          " 0 0 ", "\r\n", "\n", " "};
    std::string out;
    const size_t n = 1 + rng.next_below(64);
    for (size_t i = 0; i < n; ++i) {
        if (rng.percent(50))
            out += kTokens[rng.next_below(std::size(kTokens))];
        else
            out += static_cast<char>(rng.next_below(256));
    }
    return out;
}

/**
 * Fuzz rounds against one target.  A long-lived probe connection must
 * keep working throughout, and at the end no connection or reply byte
 * may be left behind.
 */
void
fuzz_target(bool routed, uint64_t salt, int rounds)
{
    Target t(routed);
    Rng rng(mix_seed(salt));
    net::MemcClient probe;
    ASSERT_TRUE(probe.connect_retry("127.0.0.1", t.port, 50, 10));
    ASSERT_FALSE(probe.version().empty());

    for (int r = 0; r < rounds; ++r) {
        SCOPED_TRACE("round " + std::to_string(r) + " (IDO_SEED="
                     + std::to_string(global_seed()) + ")");
        const std::string prefix = "r" + std::to_string(r) + "k";
        Wire w(t.port);
        ASSERT_TRUE(w.ok());
        const uint64_t kind = rng.next_below(100);
        if (kind < 70) { // a checked script
            const Script s = make_script(rng, prefix, 1 + rng.next_below(40));
            ASSERT_TRUE(w.send_split(rng, s.wire));
            ASSERT_TRUE(w.send(s.tail));
            check_replies(w, s);
            if (::testing::Test::HasFatalFailure())
                return;
            if (s.closes) {
                std::string extra;
                EXPECT_TRUE(w.drain_to_eof(&extra)) << "no close after end";
                EXPECT_EQ(extra, "") << "answered past quit/fatal error";
            }
        } else if (kind < 85) { // reset with replies still owed
            const Script s = make_script(rng, prefix, 1 + rng.next_below(40));
            const std::string part =
                s.wire.substr(0, rng.next_below(s.wire.size() + 1));
            ASSERT_TRUE(w.send_split(rng, part));
            if (rng.percent(50))
                std::this_thread::sleep_for(
                    std::chrono::microseconds(rng.next_below(2000)));
            w.reset();
        } else { // raw bytes, then EOF: the server must still close
            // A stray quit may close the connection mid-send: no assert.
            w.send_split(rng, chaos_bytes(rng));
            w.shutdown_write();
            std::string ignored;
            EXPECT_TRUE(w.drain_to_eof(&ignored)) << "wedged after EOF";
        }
        ASSERT_FALSE(probe.version().empty()) << "probe lost";
    }

    // Every round's connection is gone and nothing is left to write:
    // only the probe (and the router's upstream) remain.
    const std::string front = routed ? "cluster.router" : "net";
    uint64_t conns = 0, pending = 0;
    for (int i = 0; i < 200; ++i) {
        conns = t.gauge(probe, front + ".conns");
        pending = t.gauge(probe, front + ".pending_out_bytes");
        if (conns == 1 && pending == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(conns, 1u);
    EXPECT_EQ(pending, 0u);
    if (routed) {
        EXPECT_EQ(t.gauge(probe, "net.conns"), 1u); // the upstream link
    }
}

TEST(ConnFuzz, ServerByteStreams)
{
    fuzz_target(/*routed=*/false, 0xc0ff01, 120);
}

TEST(ConnFuzz, RouterByteStreams)
{
    fuzz_target(/*routed=*/true, 0xc0ff02, 120);
}

// The use-after-free this layer was built to remove: a quit inside a
// pipelined burst closed the connection while the parse loop still
// held it.  Requests after the quit must not be answered.
TEST(ConnFuzz, QuitMidPipelineClosesCleanly)
{
    for (const bool routed : {false, true}) {
        Target t(routed);
        for (int i = 0; i < 2; ++i) {
            Wire w(t.port);
            ASSERT_TRUE(w.ok());
            ASSERT_TRUE(w.send("version\r\nquit\r\nversion\r\n"));
            std::string got;
            EXPECT_TRUE(w.drain_to_eof(&got));
            EXPECT_EQ(got, net::memc_reply_version()) << "routed=" << routed;
        }
    }
}

// memcached ignores a blank line: it draws no reply and is not counted
// as a request served.
TEST(ConnFuzz, BlankLinesAreNotRequests)
{
    Target t(/*routed=*/false);
    {
        Wire w(t.port);
        ASSERT_TRUE(w.ok());
        ASSERT_TRUE(w.send("\r\n\n  \r\nversion\r\n\r\nquit\r\n"));
        std::string got;
        EXPECT_TRUE(w.drain_to_eof(&got));
        EXPECT_EQ(got, net::memc_reply_version());
    }
    t.server->stop();
    t.server_thread.join();
    EXPECT_EQ(t.server->requests_served(), 2u); // version and quit
}

// A client that pipelines more replies than the socket buffers hold
// and reads nothing for a while: the layer parks output behind EPOLLOUT
// and stops reading past its high-water mark, then resumes.
TEST(ConnFuzz, BackPressureThenResume)
{
    for (const bool routed : {false, true}) {
        Target t(routed);
        const std::string key = std::string(200, 'b');
        {
            net::MemcClient c;
            ASSERT_TRUE(c.connect_retry("127.0.0.1", t.port, 50, 10));
            ASSERT_TRUE(c.set(key, 12345));
        }
        const std::string want = value_reply(key, 12345);
        const size_t n = 2 * net::ConnTable::kOutHighWater / want.size();
        std::string wire;
        for (size_t i = 0; i < n; ++i)
            wire += "get " + key + "\r\n";

        Wire w(t.port, /*rcvbuf=*/4096);
        ASSERT_TRUE(w.ok());
        std::thread writer([&] { EXPECT_TRUE(w.send(wire)); });
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        for (size_t i = 0; i < n; ++i) {
            std::string got;
            ASSERT_TRUE(w.read_exact(want.size(), &got)) << i;
            ASSERT_EQ(got, want) << i;
        }
        writer.join();
    }
}

// The admin endpoint shares the layer: split heads, junk after the
// head, oversized heads, early EOF and resets must not disturb it.
TEST(ConnFuzz, AdminHostileInput)
{
    Target t(/*routed=*/false);
    const uint16_t port = t.server->admin_port();
    Rng rng(mix_seed(0xad31));
    const auto body_of = [](const std::string& resp) {
        const size_t at = resp.find("\r\n\r\n");
        return at == std::string::npos ? std::string() : resp.substr(at + 4);
    };
    std::string got;
    {
        // Split head, then junk in the write that completes it (bytes
        // sent after the close would draw a reset).
        const std::string head = "GET /healthz HTTP/1.0\r\n\r\n";
        Wire w(port);
        ASSERT_TRUE(w.send_split(rng, head.substr(0, head.size() - 1)));
        ASSERT_TRUE(w.send("\nGET /metrics HTTP/1.0\r\n\r\n"));
        ASSERT_TRUE(w.drain_to_eof(&got));
        EXPECT_EQ(got.rfind("HTTP/1.0 200 OK", 0), 0u) << got;
        EXPECT_EQ(body_of(got), "ok\n");
    }
    {
        Wire w(port); // not a GET
        ASSERT_TRUE(w.send("POST /metrics HTTP/1.0\r\n\r\n"));
        ASSERT_TRUE(w.drain_to_eof(&got));
        EXPECT_EQ(got.rfind("HTTP/1.0 405", 0), 0u) << got;
    }
    {
        Wire w(port); // oversized head: dropped without an answer
        w.send(std::string(20 * 1024, 'h'));
        ASSERT_TRUE(w.drain_to_eof(&got));
        EXPECT_EQ(got, "");
    }
    {
        Wire w(port); // EOF before the head completes
        ASSERT_TRUE(w.send("GET /metr"));
        w.shutdown_write();
        ASSERT_TRUE(w.drain_to_eof(&got));
        EXPECT_EQ(got, "");
    }
    for (int i = 0; i < 20; ++i) {
        Wire w(port); // resets and raw bytes
        w.send_split(rng, chaos_bytes(rng));
        w.reset();
    }
    std::string body;
    EXPECT_TRUE(net::admin_http_get(port, "/healthz", &body));
    EXPECT_EQ(body, "ok\n");
}

} // namespace
} // namespace ido
