/**
 * @file
 * ido-serve end-to-end tests.
 *
 * - InProcess*: a Server on an anonymous heap in this process, driven
 *   over real loopback sockets: protocol conformance, pipelining with
 *   cross-shard reply reordering, connection lifecycle.
 *
 * - KillNineUnderLoad: the headline crash test.  Forks the real
 *   ido_serve binary (found via $IDO_SERVE_BIN, set by CMake) on a
 *   file-backed heap, pumps pipelined sets, SIGKILLs the server at a
 *   deterministic acknowledgement count mid-pipeline, restarts it
 *   (which runs iDO recovery), reconnects with bounded retry/backoff,
 *   and verifies: every acknowledged write survived, every observed
 *   value is one the client actually sent and no older than the last
 *   acknowledged one (per-key order holds), and the cache answers
 *   fresh traffic.
 *
 * - Soak: repeats that crash cycle for $IDO_SOAK_SECONDS (default 2;
 *   CI runs 30) with a seeded random kill point per round.
 */
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "apps/memcached_mini.h"
#include "common/rng.h"
#include "ido/ido_runtime.h"
#include "net/admin.h"
#include "net/memc_client.h"
#include "net/server.h"
#include "nvm/persist_domain.h"
#include "nvm/persistent_heap.h"
#include "stats/metrics.h"

namespace ido {
namespace {

using net::MemcClient;

// --------------------------------------------------------------------------
// In-process smoke tests
// --------------------------------------------------------------------------

struct InProcessServer
{
    explicit InProcessServer(uint32_t shards, bool admin = false)
        : heap({.size = 64u << 20}), dom(),
          runtime(heap, dom, rt::RuntimeConfig{})
    {
        apps::MemcachedMini::register_programs();
        net::ServerConfig cfg;
        cfg.port = 0;
        cfg.shards = shards;
        cfg.nbuckets = 64;
        cfg.admin = admin;
        server = std::make_unique<net::Server>(runtime, cfg);
        thread = std::thread([this] { server->run(); });
    }

    ~InProcessServer()
    {
        server->stop();
        thread.join();
    }

    nvm::PersistentHeap heap;
    nvm::RealDomain dom;
    IdoRuntime runtime;
    std::unique_ptr<net::Server> server;
    std::thread thread;
};

TEST(InProcessServer_, ProtocolBasics)
{
    InProcessServer s(/*shards=*/2);
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", s.server->port(), 50, 10));

    EXPECT_NE(c.version().find("VERSION"), std::string::npos);

    uint64_t v = 0;
    EXPECT_FALSE(c.get("absent", &v));
    EXPECT_TRUE(c.set("alpha", 11));
    EXPECT_TRUE(c.get("alpha", &v));
    EXPECT_EQ(v, 11u);
    EXPECT_TRUE(c.set("alpha", 12)); // update in place
    EXPECT_TRUE(c.get("alpha", &v));
    EXPECT_EQ(v, 12u);
    EXPECT_TRUE(c.del("alpha"));
    EXPECT_FALSE(c.del("alpha"));
    EXPECT_FALSE(c.get("alpha", &v));
}

TEST(InProcessServer_, PipelinedAcrossShardsStaysOrdered)
{
    InProcessServer s(/*shards=*/4);
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", s.server->port(), 50, 10));

    // Keys hash across all 4 shard workers; replies must still come
    // back in request order, which pipeline_flush depends on.
    const int kOps = 200;
    for (int i = 0; i < kOps; ++i)
        c.pipeline_set("pk" + std::to_string(i), 1000 + i);
    EXPECT_EQ(c.pipeline_flush(), static_cast<size_t>(kOps));
    for (int i = 0; i < kOps; ++i) {
        uint64_t v = 0;
        ASSERT_TRUE(c.get("pk" + std::to_string(i), &v)) << i;
        EXPECT_EQ(v, 1000u + i);
    }
}

TEST(InProcessServer_, MalformedInputAnsweredInOrder)
{
    InProcessServer s(/*shards=*/1);
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", s.server->port(), 50, 10));
    // A bogus command between two valid ones: ERROR must arrive
    // between the two STOREDs, not reordered around them.
    EXPECT_TRUE(c.set("m1", 1));
    uint64_t v = 0;
    EXPECT_FALSE(c.get("nosuchcommandkey", &v));
    EXPECT_TRUE(c.set("m2", 2));
}

// `stats` round-trip: after acked traffic the reply must carry the
// request counter, the connection gauge, and -- because reply release
// happens after latency recording -- a nonzero per-op sample count.
TEST(InProcessServer_, StatsCommandReportsTrafficAndLatency)
{
    InProcessServer s(/*shards=*/2);
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", s.server->port(), 50, 10));
    for (int i = 0; i < 20; ++i)
        ASSERT_TRUE(c.set("sk" + std::to_string(i), 100 + i));
    uint64_t v = 0;
    ASSERT_TRUE(c.get("sk3", &v));

    std::map<std::string, std::string> st;
    ASSERT_TRUE(c.stats(&st));
    ASSERT_TRUE(st.count("net.requests"));
    EXPECT_GE(std::stoull(st["net.requests"]), 21u);
    ASSERT_TRUE(st.count("net.conns"));
    EXPECT_GE(std::stoull(st["net.conns"]), 1u);
    // Default build runs with IDO_STAT on; each acked set was recorded
    // before its reply was released.
    ASSERT_TRUE(st.count("net.lat.req.set.count"));
    EXPECT_GE(std::stoull(st["net.lat.req.set.count"]), 20u);
    ASSERT_TRUE(st.count("net.lat.req.set.p99_ns"));
    EXPECT_GT(std::stoull(st["net.lat.req.set.p99_ns"]), 0u);
    // The execute phase recorder and the reply send counter ride along.
    ASSERT_TRUE(st.count("net.lat.exec.count"));
    EXPECT_GE(std::stoull(st["net.lat.exec.count"]), 21u);
    ASSERT_TRUE(st.count("net.sends"));
    EXPECT_GE(std::stoull(st["net.sends"]), 21u);
    // Interleaves with normal traffic on the same connection.
    EXPECT_TRUE(c.set("after-stats", 7));
    ASSERT_TRUE(c.get("after-stats", &v));
    EXPECT_EQ(v, 7u);
}

// Reply coalescing, pinned by a count that does not vary run to run: a
// pipelined burst the server reads at once is one batch, and its
// replies leave in one send() (two if the burst straddles two reads).
// The connection layer counts a send before making it, so the count is
// complete once the client holds the replies.
TEST(InProcessServer_, PipelinedBurstAnsweredInAtMostTwoSends)
{
    InProcessServer s(/*shards=*/2);
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", s.server->port(), 50, 10));
    ASSERT_TRUE(c.set("warm", 1));
    auto& reg = MetricsRegistry::instance();
    const uint64_t before = reg.counter_value("net.sends");
    for (int i = 0; i < 64; ++i) {
        if (i % 4 == 0)
            c.pipeline_set("burst" + std::to_string(i), i);
        else
            c.pipeline_get("burst" + std::to_string(i % 8));
    }
    // One send() of the whole burst, then all 64 acks.
    EXPECT_EQ(c.pipeline_flush(), 64u);
    const uint64_t sends = reg.counter_value("net.sends") - before;
    EXPECT_GE(sends, 1u);
    EXPECT_LE(sends, 2u) << "replies to one burst left in " << sends
                         << " sends";
}

// The admin endpoint serves Prometheus text, the JSON snapshot, and
// health without blocking the data path.
TEST(InProcessServer_, AdminEndpointServesMetrics)
{
    InProcessServer s(/*shards=*/2, /*admin=*/true);
    ASSERT_NE(s.server->admin_port(), 0);
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", s.server->port(), 50, 10));
    ASSERT_TRUE(c.set("adm", 1));

    std::string body;
    ASSERT_TRUE(
        net::admin_http_get(s.server->admin_port(), "/metrics", &body));
    EXPECT_NE(body.find("ido_net_requests_total"), std::string::npos);
    EXPECT_NE(body.find("# TYPE"), std::string::npos);

    ASSERT_TRUE(net::admin_http_get(s.server->admin_port(),
                                    "/stats.json", &body));
    EXPECT_NE(body.find("\"counters\""), std::string::npos);
    EXPECT_NE(body.find("\"latencies\""), std::string::npos);

    ASSERT_TRUE(
        net::admin_http_get(s.server->admin_port(), "/healthz", &body));
    EXPECT_EQ(body, "ok\n");

    ASSERT_TRUE(
        net::admin_http_get(s.server->admin_port(), "/recovery", &body));
    EXPECT_NE(body.find("\"recorded\""), std::string::npos);

    EXPECT_FALSE(net::admin_http_get(s.server->admin_port(),
                                     "/no-such-route", &body));

    // Scraping must not have disturbed the data path.
    uint64_t v = 0;
    ASSERT_TRUE(c.get("adm", &v));
    EXPECT_EQ(v, 1u);
}

// Typed client errors (ido-cluster satellite): failover logic needs to
// tell "the node died" from "the node answered no"; a benign miss or
// NOT_FOUND must not look like either.
TEST(InProcessServer_, TypedClientErrors)
{
    using net::ClientError;
    auto s = std::make_unique<InProcessServer>(/*shards=*/2);
    MemcClient c;
    // Calls before any connect: kNotConnected.
    EXPECT_FALSE(c.set("x", 1));
    EXPECT_EQ(c.last_error(), ClientError::kNotConnected);

    ASSERT_TRUE(c.connect_retry("127.0.0.1", s->server->port(), 50, 10));
    ASSERT_TRUE(c.set("te", 5));
    EXPECT_EQ(c.last_error(), ClientError::kNone);

    // Answers, not failures: miss and absent-delete stay kNone.
    uint64_t v = 0;
    EXPECT_FALSE(c.get("te-absent", &v));
    EXPECT_EQ(c.last_error(), ClientError::kNone);
    EXPECT_FALSE(c.del("te-absent"));
    EXPECT_EQ(c.last_error(), ClientError::kNone);

    // Tear the server down mid-connection: the next RPC must surface
    // a disconnect-class error, not a generic false.
    s.reset();
    EXPECT_FALSE(c.get("te", &v));
    EXPECT_TRUE(c.last_error() == ClientError::kDisconnected ||
                c.last_error() == ClientError::kSendFailed ||
                c.last_error() == ClientError::kTimeout)
        << net::client_error_name(c.last_error());

    // A refused connect reports kConnectFailed (one attempt, no retry:
    // nothing listens on the dead server's port any more).
    MemcClient c2;
    EXPECT_FALSE(c2.connect("127.0.0.1", 1));
    EXPECT_EQ(c2.last_error(), ClientError::kConnectFailed);
}

// --------------------------------------------------------------------------
// Kill -9 under load (real process, file-backed heap)
// --------------------------------------------------------------------------

struct ServerProcess
{
    pid_t pid = -1;
    uint16_t port = 0;
};

/** Launch $IDO_SERVE_BIN and wait for its port file.  pid<0 on error.
 *  A nonempty `admin_port_path` also starts the admin endpoint and
 *  writes its port there. */
ServerProcess
spawn_server(const std::string& bin, const std::string& heap_path,
             const std::string& port_path, int shards, bool reset, const std::string& admin_port_path = "")
{
    ServerProcess sp;
    ::unlink(port_path.c_str());
    if (!admin_port_path.empty())
        ::unlink(admin_port_path.c_str());
    const pid_t pid = ::fork();
    if (pid < 0)
        return sp;
    if (pid == 0) {
        const std::string heap_arg = "--heap=" + heap_path;
        const std::string port_arg = "--port-file=" + port_path;
        const std::string shards_arg =
            "--shards=" + std::to_string(shards);
        const std::string admin_arg =
            "--admin-port-file=" + admin_port_path;
        std::vector<const char*> args = {
            bin.c_str(),       heap_arg.c_str(),  port_arg.c_str(),
            shards_arg.c_str()};
        if (!admin_port_path.empty())
            args.push_back(admin_arg.c_str());
        if (reset)
            args.push_back("--reset");
        args.push_back(nullptr);
        ::execv(bin.c_str(), const_cast<char* const*>(args.data()));
        ::_exit(127);
    }
    // Readiness handshake: poll for the port file.
    for (int i = 0; i < 1000; ++i) {
        std::FILE* f = std::fopen(port_path.c_str(), "r");
        if (f) {
            unsigned p = 0;
            const int got = std::fscanf(f, "%u", &p);
            std::fclose(f);
            if (got == 1 && p != 0) {
                sp.pid = pid;
                sp.port = static_cast<uint16_t>(p);
                return sp;
            }
        }
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid)
            return sp; // died before binding
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return sp;
}

void
kill_server(ServerProcess& sp)
{
    if (sp.pid > 0) {
        ::kill(sp.pid, SIGKILL);
        ::waitpid(sp.pid, nullptr, 0);
        sp.pid = -1;
    }
}

/** Per-key client-side model of what the server may legally hold. */
struct KeyModel
{
    std::vector<uint64_t> sent; ///< every value ever pipelined, in order
    size_t acked = 0;           ///< prefix of `sent` known durable
};

std::string
e2e_key(int i)
{
    return "ek" + std::to_string(i);
}

/**
 * Verify the recovered server against the model: each key's value must
 * be one the client sent, at or after the last acknowledged write
 * (at-least-once execution of unacked requests is legal; losing an
 * acked one, inventing a value, or reordering backwards is not).
 */
void
verify_model(MemcClient& c, const std::map<int, KeyModel>& model)
{
    for (const auto& [i, km] : model) {
        if (km.sent.empty())
            continue;
        uint64_t v = 0;
        const bool present = c.get(e2e_key(i), &v);
        if (km.acked > 0) {
            ASSERT_TRUE(present)
                << "key " << i << " lost " << km.acked << " acked writes";
        }
        if (!present)
            continue;
        size_t idx = km.sent.size();
        for (size_t s = 0; s < km.sent.size(); ++s) {
            if (km.sent[s] == v) {
                idx = s;
                break;
            }
        }
        ASSERT_LT(idx, km.sent.size())
            << "key " << i << " holds value " << v
            << " the client never sent";
        if (km.acked > 0) {
            EXPECT_GE(idx + 1, km.acked)
                << "key " << i << " rolled back behind its last acked "
                << "write (value " << v << ")";
        }
    }
}

struct TempDir
{
    TempDir()
    {
        char tmpl[] = "/tmp/ido_serve_test_XXXXXX";
        char* d = ::mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        path = d ? d : "";
    }
    ~TempDir()
    {
        if (path.empty())
            return;
        ::unlink((path + "/cache.heap").c_str());
        ::unlink((path + "/port").c_str());
        ::unlink((path + "/admin_port").c_str());
        ::rmdir(path.c_str());
    }
    std::string path;
};

/** Port number from a port file written by ido_serve; 0 on error. */
uint16_t
read_port_file(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (!f)
        return 0;
    unsigned p = 0;
    const int got = std::fscanf(f, "%u", &p);
    std::fclose(f);
    return got == 1 ? static_cast<uint16_t>(p) : 0;
}

/**
 * One crash round: pipeline `total` sets over `keys` keys, SIGKILL the
 * server after `kill_after_acks` acknowledgements, restart, reconnect
 * with retry/backoff, verify the model, and leave the server running.
 */
void
crash_round(const std::string& bin, const std::string& heap_path,
            const std::string& port_path, std::map<int, KeyModel>* model,
            uint64_t* next_value, ServerProcess* sp, int keys, int total,
            size_t kill_after_acks,
            const std::string& admin_port_path = "")
{
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", sp->port, 100, 20));

    std::vector<int> order;
    for (int n = 0; n < total; ++n) {
        const int i = n % keys;
        const uint64_t v = (*next_value)++;
        c.pipeline_set(e2e_key(i), v);
        (*model)[i].sent.push_back(v);
        order.push_back(i);
    }
    const size_t acks = c.pipeline_flush(kill_after_acks);
    // In-order replies: exactly the first `acks` pipelined requests
    // are known durable.  Per key, everything but this round's
    // unacked tail is acknowledged.
    std::map<int, size_t> sent_count, acked_count;
    for (int n = 0; n < total; ++n)
        ++sent_count[order[static_cast<size_t>(n)]];
    for (size_t n = 0; n < acks; ++n)
        ++acked_count[order[n]];
    for (auto& [i, km] : *model) {
        auto sent_it = sent_count.find(i);
        if (sent_it == sent_count.end())
            continue; // key untouched this round
        const size_t unacked = sent_it->second - acked_count[i];
        km.acked = km.sent.size() - unacked;
    }

    kill_server(*sp); // mid-pipeline: outstanding requests die with it
    c.close();

    *sp = spawn_server(bin, heap_path, port_path, /*shards=*/4,
                       /*reset=*/false, admin_port_path);
    ASSERT_GT(sp->pid, 0) << "server failed to restart after kill -9";

    MemcClient c2;
    ASSERT_TRUE(c2.connect_retry("127.0.0.1", sp->port, 100, 20));
    verify_model(c2, *model);

    // The recovered server must accept fresh traffic on every shard.
    for (int i = 0; i < keys; ++i) {
        const uint64_t v = (*next_value)++;
        ASSERT_TRUE(c2.set(e2e_key(i), v)) << "post-recovery set failed";
        (*model)[i].sent.push_back(v);
        (*model)[i].acked = (*model)[i].sent.size();
    }
}

const char*
serve_bin()
{
    return std::getenv("IDO_SERVE_BIN");
}

TEST(KillNine, UnderLoadEveryAckedWriteSurvives)
{
    const char* bin = serve_bin();
    if (!bin)
        GTEST_SKIP() << "IDO_SERVE_BIN not set";
    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string heap_path = dir.path + "/cache.heap";
    const std::string port_path = dir.path + "/port";
    const std::string admin_path = dir.path + "/admin_port";

    ServerProcess sp = spawn_server(bin, heap_path, port_path, 4,
                                    /*reset=*/true, admin_path);
    ASSERT_GT(sp.pid, 0) << "server failed to start";

    std::map<int, KeyModel> model;
    uint64_t next_value = 1;
    // Three deterministic kill points: early (mid first batches), mid,
    // and late (most of the pipeline acked).
    crash_round(bin, heap_path, port_path, &model, &next_value, &sp,
                /*keys=*/32, /*total=*/400, /*kill_after_acks=*/37,
                admin_path);
    crash_round(bin, heap_path, port_path, &model, &next_value, &sp,
                /*keys=*/32, /*total=*/400, /*kill_after_acks=*/201,
                admin_path);
    crash_round(bin, heap_path, port_path, &model, &next_value, &sp,
                /*keys=*/32, /*total=*/400, /*kill_after_acks=*/389,
                admin_path);

    // The respawned server ran real crash recovery: the structured
    // timeline must be recorded and its counters published.
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", sp.port, 100, 20));
    std::map<std::string, std::string> st;
    ASSERT_TRUE(c.stats(&st));
    ASSERT_TRUE(st.count("recovery.count"))
        << "recovery counters missing after kill -9 respawn";
    EXPECT_GE(std::stoull(st["recovery.count"]), 1u);
    ASSERT_TRUE(st.count("recovery.wall_ns"));

    const uint16_t admin_port = read_port_file(admin_path);
    ASSERT_NE(admin_port, 0) << "admin port file missing";
    std::string body;
    ASSERT_TRUE(net::admin_http_get(admin_port, "/recovery", &body));
    EXPECT_NE(body.find("\"recorded\":true"), std::string::npos) << body;
    EXPECT_NE(body.find("\"trigger\":\"crash\""), std::string::npos)
        << body;
    EXPECT_NE(body.find("\"phases\":["), std::string::npos) << body;
    EXPECT_NE(body.find("scan-log-records"), std::string::npos) << body;

    kill_server(sp);
}

TEST(KillNine, Soak)
{
    const char* bin = serve_bin();
    if (!bin)
        GTEST_SKIP() << "IDO_SERVE_BIN not set";
    double budget = 2.0;
    if (const char* s = std::getenv("IDO_SOAK_SECONDS"))
        budget = std::atof(s);

    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string heap_path = dir.path + "/cache.heap";
    const std::string port_path = dir.path + "/port";

    ServerProcess sp = spawn_server(bin, heap_path, port_path, 4,
                                    /*reset=*/true);
    ASSERT_GT(sp.pid, 0) << "server failed to start";

    std::map<int, KeyModel> model;
    uint64_t next_value = 1;
    Rng rng(20260806); // fixed seed: deterministic kill points
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(budget);
    int rounds = 0;
    while (std::chrono::steady_clock::now() < deadline) {
        const size_t kill_at = 1 + rng.next_below(390);
        crash_round(bin, heap_path, port_path, &model, &next_value, &sp,
                    /*keys=*/32, /*total=*/400, kill_at);
        if (::testing::Test::HasFatalFailure())
            break;
        ++rounds;
    }
    kill_server(sp);
    EXPECT_GE(rounds, 1) << "soak budget too small to run one round";
    std::printf("soak: %d crash/recover rounds, %llu writes modeled\n",
                rounds,
                static_cast<unsigned long long>(next_value - 1));
}

} // namespace
} // namespace ido
