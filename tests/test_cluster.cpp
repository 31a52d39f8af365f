/**
 * @file
 * ido-cluster tests: the consistent-hash ring, atomic port files, the
 * hold-and-replay router, the multi-node SIGKILL crash harness, and
 * the replicated durable-prefix ack rule.
 *
 * Unit layers (ring, port files) run hermetically.  Everything that
 * involves a cluster forks the *real* ido_serve binary ($IDO_SERVE_BIN,
 * set by CMake) through NodeSupervisor -- the same spawn/kill/recover
 * machinery the ido_cluster tool uses -- so a test kill -9 exercises
 * exactly the production recovery path, including iDO FASE resumption
 * inside each respawned node.
 *
 * The two headline properties:
 *  - ClusterKillNine: after SIGKILLing *any* subset of nodes mid
 *    pipeline, every per-node acked prefix survives recovery, and each
 *    node's heap audits leak-free.
 *  - Replication: a primary releases zero acks before its replica's
 *    durable ack (proved by injected replica delay and by a dead
 *    replica withholding acks), so killing primary+replica
 *    back-to-back loses nothing, whichever of the two heaps restarts.
 */
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/memcached_mini.h"
#include "cluster/cluster_client.h"
#include "cluster/hash_ring.h"
#include "cluster/port_file.h"
#include "cluster/router.h"
#include "cluster/supervisor.h"
#include "common/rng.h"
#include "ido/ido_runtime.h"
#include "net/memc_client.h"
#include "nvm/heap_gc.h"
#include "nvm/persist_domain.h"
#include "nvm/persistent_heap.h"

namespace ido {
namespace {

using cluster::ClusterClient;
using cluster::ConsistentHashRing;
using cluster::NodeSupervisor;
using cluster::Router;
using cluster::RouterConfig;
using cluster::SupervisorConfig;
using net::MemcClient;

// --------------------------------------------------------------------------
// Consistent-hash ring
// --------------------------------------------------------------------------

std::string
ring_key(int i)
{
    return "rk" + std::to_string(i);
}

TEST(HashRing, DistributionSkewBounded)
{
    // 1k keys over every cluster size we deploy: each node must own a
    // sane share.  64 vnodes gives stddev ~ mean/8, so [mean/2, 2*mean]
    // is a loose-but-meaningful envelope for 1..8 nodes.
    const int kKeys = 1000;
    for (uint32_t n = 1; n <= 8; ++n) {
        ConsistentHashRing ring(/*seed=*/12345);
        for (uint32_t node = 0; node < n; ++node)
            ring.add_node(node);
        std::vector<int> per_node(n, 0);
        for (int i = 0; i < kKeys; ++i)
            ++per_node[ring.owner_of_key(ring_key(i))];
        const double mean = static_cast<double>(kKeys) / n;
        for (uint32_t node = 0; node < n; ++node) {
            EXPECT_GE(per_node[node], mean / 2)
                << "node " << node << "/" << n << " starved";
            EXPECT_LE(per_node[node], mean * 2)
                << "node " << node << "/" << n << " overloaded";
        }
    }
}

TEST(HashRing, AddNodeRemapsOnlyOntoNewNode)
{
    const int kKeys = 1000;
    for (uint32_t n = 1; n <= 7; ++n) {
        ConsistentHashRing before(/*seed=*/777);
        ConsistentHashRing after(/*seed=*/777);
        for (uint32_t node = 0; node < n; ++node) {
            before.add_node(node);
            after.add_node(node);
        }
        after.add_node(n);
        int moved = 0;
        for (int i = 0; i < kKeys; ++i) {
            const uint32_t b = before.owner_of_key(ring_key(i));
            const uint32_t a = after.owner_of_key(ring_key(i));
            if (a == b)
                continue;
            ++moved;
            // The defining consistent-hash property: a key may only
            // move *onto the node that joined*, never between old
            // nodes.
            EXPECT_EQ(a, n) << "key " << i << " moved " << b << "->" << a;
        }
        // Expected moved fraction is 1/(n+1); allow 2x for vnode
        // placement variance at 1k samples.
        const double bound = 2.0 * kKeys / (n + 1);
        EXPECT_LE(moved, bound) << "n=" << n;
    }
}

TEST(HashRing, RemoveNodeStrandsOnlyItsKeys)
{
    const int kKeys = 1000;
    ConsistentHashRing before(/*seed=*/99);
    ConsistentHashRing after(/*seed=*/99);
    for (uint32_t node = 0; node < 4; ++node) {
        before.add_node(node);
        after.add_node(node);
    }
    after.remove_node(2);
    for (int i = 0; i < kKeys; ++i) {
        const uint32_t b = before.owner_of_key(ring_key(i));
        const uint32_t a = after.owner_of_key(ring_key(i));
        if (b != 2)
            EXPECT_EQ(a, b) << "key " << i
                            << " moved though its node stayed";
        else
            EXPECT_NE(a, 2u);
    }
}

TEST(HashRing, DeterministicAndOrderIndependent)
{
    // Same seed + same node set must agree bit-for-bit regardless of
    // the order nodes were added -- ClusterClient, the router, and the
    // harness all build their rings independently.
    ConsistentHashRing a(/*seed=*/4242);
    ConsistentHashRing b(/*seed=*/4242);
    for (uint32_t node : {0u, 1u, 2u, 3u})
        a.add_node(node);
    for (uint32_t node : {3u, 1u, 0u, 2u})
        b.add_node(node);
    ConsistentHashRing c(/*seed=*/4243);
    for (uint32_t node : {0u, 1u, 2u, 3u})
        c.add_node(node);
    int differs_under_other_seed = 0;
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(a.owner_of_key(ring_key(i)),
                  b.owner_of_key(ring_key(i)));
        if (a.owner_of_key(ring_key(i)) != c.owner_of_key(ring_key(i)))
            ++differs_under_other_seed;
    }
    // A different seed is a different placement function.
    EXPECT_GT(differs_under_other_seed, 0);
}

TEST(HashRing, SeedZeroDerivesFromGlobalSeed)
{
    // Two default-seeded rings in one process agree (both derive from
    // IDO_SEED), so every component can just pass 0.
    ConsistentHashRing a;
    ConsistentHashRing b;
    a.add_node(0);
    a.add_node(1);
    b.add_node(0);
    b.add_node(1);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(a.owner_of_key(ring_key(i)),
                  b.owner_of_key(ring_key(i)));
}

// --------------------------------------------------------------------------
// Atomic port files
// --------------------------------------------------------------------------

struct TempDir
{
    TempDir()
    {
        char tmpl[] = "/tmp/ido_cluster_test_XXXXXX";
        char* d = ::mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        path = d ? d : "";
    }
    ~TempDir()
    {
        if (path.empty())
            return;
        // Best-effort sweep of everything the tests and children drop.
        ::system(("rm -rf " + path).c_str());
    }
    std::string path;
};

TEST(PortFile, RoundTripAndNoTmpLeftover)
{
    TempDir dir;
    const std::string p = dir.path + "/port";
    ASSERT_TRUE(cluster::write_port_file(p, 4711));
    EXPECT_EQ(cluster::read_port_file(p), 4711);
    // The tmp staging file must be gone after the rename.
    const std::string tmp = p + ".tmp." + std::to_string(::getpid());
    struct stat st;
    EXPECT_NE(::stat(tmp.c_str(), &st), 0);
    // Overwrite in place: readers see old or new, file stays valid.
    ASSERT_TRUE(cluster::write_port_file(p, 4712));
    EXPECT_EQ(cluster::read_port_file(p), 4712);
}

TEST(PortFile, RejectsPartialWrites)
{
    TempDir dir;
    const std::string p = dir.path + "/port";
    // Regression for the observed race: a reader overlapping a
    // non-atomic write sees a truncated number.  read_port_file
    // demands a full "N\n" record, so a torn file reads as "not
    // ready" (0), never as a wrong port.
    std::FILE* f = std::fopen(p.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("47", f); // partial: no trailing newline
    std::fclose(f);
    EXPECT_EQ(cluster::read_port_file(p), 0);
    EXPECT_EQ(cluster::read_port_file(dir.path + "/absent"), 0);
}

TEST(PortFile, ConcurrentReaderNeverSeesTornValue)
{
    TempDir dir;
    const std::string p = dir.path + "/port";
    ASSERT_TRUE(cluster::write_port_file(p, 1111));
    std::atomic<bool> stop{false};
    std::atomic<int> bad{0};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const uint16_t v = cluster::read_port_file(p);
            // rename(2) atomicity: only ever a fully published value.
            if (v != 1111 && v != 2222)
                bad.fetch_add(1, std::memory_order_relaxed);
        }
    });
    for (int i = 0; i < 500; ++i)
        ASSERT_TRUE(
            cluster::write_port_file(p, (i & 1) ? 2222 : 1111));
    stop.store(true, std::memory_order_relaxed);
    reader.join();
    EXPECT_EQ(bad.load(), 0);
    // Last writer wins (i=499 is odd -> 2222).
    EXPECT_EQ(cluster::wait_port_file(p, 100), 2222);
}

// --------------------------------------------------------------------------
// Real-process cluster harness helpers
// --------------------------------------------------------------------------

const char*
serve_bin()
{
    return std::getenv("IDO_SERVE_BIN");
}

constexpr uint64_t kHeapBytes = 32u << 20;

SupervisorConfig
base_config(const char* bin, const std::string& dir, uint32_t nodes,
            bool replicate)
{
    SupervisorConfig cfg;
    cfg.serve_bin = bin;
    cfg.dir = dir;
    cfg.nodes = nodes;
    cfg.replicate = replicate;
    cfg.shards = 2;
    cfg.heap_bytes = kHeapBytes;
    return cfg;
}

std::string
ckey(int i)
{
    return "ck" + std::to_string(i);
}

/** Per-key model (same legality rule as the single-node harness). */
struct KeyModel
{
    std::vector<uint64_t> sent;
    size_t acked = 0;
};

void
verify_model(ClusterClient& cc, const std::map<int, KeyModel>& model)
{
    for (const auto& [i, km] : model) {
        if (km.sent.empty())
            continue;
        uint64_t v = 0;
        const bool present = cc.get(ckey(i), &v);
        if (km.acked > 0) {
            ASSERT_TRUE(present)
                << "key " << i << " lost " << km.acked << " acked writes";
        }
        if (!present)
            continue;
        size_t idx = km.sent.size();
        for (size_t s = 0; s < km.sent.size(); ++s)
            if (km.sent[s] == v) {
                idx = s;
                break;
            }
        ASSERT_LT(idx, km.sent.size())
            << "key " << i << " holds a value the client never sent";
        if (km.acked > 0) {
            EXPECT_GE(idx + 1, km.acked)
                << "key " << i << " rolled back behind its acked prefix";
        }
    }
}

/**
 * Open one node's heap in-process, run iDO recovery if it died dirty,
 * and assert the GC audit finds zero leaks and zero dangling links.
 * This is the per-node equivalent of `ido_heap audit` the CI smoke job
 * runs out-of-process.
 */
void
audit_heap(const std::string& path)
{
    nvm::PersistentHeap heap({.path = path, .size = kHeapBytes});
    nvm::RealDomain dom;
    IdoRuntime rt(heap, dom, rt::RuntimeConfig{});
    apps::MemcachedMini::register_programs();
    if (heap.recovered_from_crash())
        rt.recover();
    nvm::HeapGc gc(rt.allocator(), dom);
    const nvm::GcStats s = gc.audit();
    EXPECT_EQ(s.leaked_blocks, 0u) << path;
    EXPECT_EQ(s.dangling_links, 0u) << path;
    EXPECT_GT(s.live_blocks, 0u) << path;
    heap.mark_clean(dom);
}

// --------------------------------------------------------------------------
// ClusterClient + multi-node SIGKILL crash harness
// --------------------------------------------------------------------------

TEST(Cluster, ClientRoutesAcrossNodes)
{
    const char* bin = serve_bin();
    if (!bin)
        GTEST_SKIP() << "IDO_SERVE_BIN not set";
    TempDir dir;
    NodeSupervisor sup(base_config(bin, dir.path, 2, false));
    ASSERT_TRUE(sup.start_all());

    ClusterClient cc(sup.node_addrs());
    ASSERT_TRUE(cc.connect_all());
    std::set<uint32_t> owners;
    for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(cc.set(ckey(i), 100 + i));
        owners.insert(cc.node_for(ckey(i)));
    }
    // 64 keys over 2 nodes: both slices must actually be exercised.
    EXPECT_EQ(owners.size(), 2u);
    for (int i = 0; i < 64; ++i) {
        uint64_t v = 0;
        ASSERT_TRUE(cc.get(ckey(i), &v)) << i;
        EXPECT_EQ(v, 100u + i);
    }
    // Cross-check placement agreement: ask each node directly; only
    // the ring owner may hold the key.
    for (int i = 0; i < 16; ++i) {
        const uint32_t owner = cc.node_for(ckey(i));
        for (uint32_t n = 0; n < cc.node_count(); ++n) {
            uint64_t v = 0;
            const bool hit = cc.client(n).get(ckey(i), &v);
            EXPECT_EQ(hit, n == owner) << "key " << i << " node " << n;
        }
    }
}

/**
 * One cluster crash round: pipeline writes over every node, take only
 * a prefix of acks from each victim (SIGKILL lands mid-pipeline),
 * fully flush the survivors, kill the victims, restart them (iDO
 * recovery inside), reconnect, verify the per-node durable prefixes.
 */
void
cluster_crash_round(NodeSupervisor& sup, ClusterClient& cc,
                    std::map<int, KeyModel>* model, uint64_t* next_value,
                    const std::vector<uint32_t>& victims, int keys,
                    int total, size_t kill_after_acks)
{
    std::vector<std::vector<int>> order(cc.node_count());
    for (int n = 0; n < total; ++n) {
        const int i = n % keys;
        const uint64_t v = (*next_value)++;
        const uint32_t node = cc.pipeline_set(ckey(i), v);
        (*model)[i].sent.push_back(v);
        order[node].push_back(i);
    }
    const std::set<uint32_t> victim_set(victims.begin(), victims.end());
    std::vector<size_t> acks(cc.node_count(), 0);
    for (uint32_t n = 0; n < cc.node_count(); ++n) {
        if (cc.pipeline_pending(n) == 0)
            continue;
        acks[n] = victim_set.count(n)
                      ? cc.flush_node(n, kill_after_acks)
                      : cc.flush_node(n);
        if (!victim_set.count(n)) {
            ASSERT_EQ(acks[n], order[n].size()) << "survivor " << n;
        }
    }
    // Per-node in-order replies -> per-node durable prefix; fold into
    // the per-key model (each key lives on exactly one node).
    std::map<int, size_t> sent_count, acked_count;
    for (uint32_t n = 0; n < cc.node_count(); ++n) {
        for (size_t k = 0; k < order[n].size(); ++k) {
            ++sent_count[order[n][k]];
            if (k < acks[n])
                ++acked_count[order[n][k]];
        }
    }
    for (auto& [i, km] : *model) {
        auto it = sent_count.find(i);
        if (it == sent_count.end())
            continue;
        km.acked = km.sent.size() - (it->second - acked_count[i]);
    }

    for (uint32_t v : victims)
        sup.kill_node(v);
    for (uint32_t v : victims) {
        ASSERT_TRUE(sup.restart_node(v))
            << "node " << v << " failed to recover";
        ASSERT_TRUE(cc.reconnect_node(v));
    }
    verify_model(cc, *model);
    // Every node (victim or not) must take fresh traffic.
    for (int i = 0; i < keys; ++i) {
        const uint64_t v = (*next_value)++;
        ASSERT_TRUE(cc.set(ckey(i), v)) << "post-recovery set " << i;
        (*model)[i].sent.push_back(v);
        (*model)[i].acked = (*model)[i].sent.size();
    }
}

TEST(Cluster, KillNineAnySubsetKeepsAckedWrites)
{
    const char* bin = serve_bin();
    if (!bin)
        GTEST_SKIP() << "IDO_SERVE_BIN not set";
    TempDir dir;
    NodeSupervisor sup(base_config(bin, dir.path, 3, false));
    ASSERT_TRUE(sup.start_all());

    ClusterClient cc(sup.node_addrs());
    ASSERT_TRUE(cc.connect_all());

    std::map<int, KeyModel> model;
    uint64_t next_value = 1;
    // Escalating victim subsets: one node, two nodes, all three.
    cluster_crash_round(sup, cc, &model, &next_value, {1u},
                        /*keys=*/48, /*total=*/300,
                        /*kill_after_acks=*/23);
    cluster_crash_round(sup, cc, &model, &next_value, {0u, 2u},
                        /*keys=*/48, /*total=*/300,
                        /*kill_after_acks=*/41);
    cluster_crash_round(sup, cc, &model, &next_value, {0u, 1u, 2u},
                        /*keys=*/48, /*total=*/300,
                        /*kill_after_acks=*/7);

    // Health after three rounds of carnage.
    for (uint32_t n = 0; n < sup.node_count(); ++n)
        EXPECT_TRUE(sup.node_healthy(n)) << "node " << n;

    // Kill everything and audit each heap in-process: recovery must
    // leave zero leaked blocks and zero dangling links per node.
    std::vector<std::string> heaps;
    for (uint32_t n = 0; n < sup.node_count(); ++n)
        heaps.push_back(sup.node_heap(n));
    for (uint32_t n = 0; n < sup.node_count(); ++n)
        sup.kill_node(n);
    for (const std::string& h : heaps)
        audit_heap(h);
}

// --------------------------------------------------------------------------
// Router: hold-and-replay, fail-fast, cross-node pipelining
// --------------------------------------------------------------------------

struct RouterThread
{
    explicit RouterThread(const RouterConfig& cfg) : router(cfg)
    {
        thread = std::thread([this] { router.run(); });
    }
    ~RouterThread()
    {
        router.stop();
        thread.join();
    }
    Router router;
    std::thread thread;
};

TEST(Cluster, RouterPipelinesAcrossNodesInOrder)
{
    const char* bin = serve_bin();
    if (!bin)
        GTEST_SKIP() << "IDO_SERVE_BIN not set";
    TempDir dir;
    NodeSupervisor sup(base_config(bin, dir.path, 2, false));
    ASSERT_TRUE(sup.start_all());
    RouterConfig rcfg;
    rcfg.nodes = sup.node_addrs();
    RouterThread rt(rcfg);

    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", rt.router.port(), 100, 20));
    // A deep pipeline fanning out over both upstreams must come back
    // in client request order -- the router's reorder buffer at work.
    const int kOps = 200;
    for (int i = 0; i < kOps; ++i)
        c.pipeline_set(ckey(i), 5000 + i);
    EXPECT_EQ(c.pipeline_flush(), static_cast<size_t>(kOps));
    for (int i = 0; i < kOps; ++i) {
        uint64_t v = 0;
        ASSERT_TRUE(c.get(ckey(i), &v)) << i;
        EXPECT_EQ(v, 5000u + i);
    }
    EXPECT_FALSE(c.del("cluster-absent-key"));
    EXPECT_EQ(c.last_error(), net::ClientError::kNone);
}

TEST(Cluster, RouterHoldsAndReplaysAcrossNodeCrash)
{
    const char* bin = serve_bin();
    if (!bin)
        GTEST_SKIP() << "IDO_SERVE_BIN not set";
    TempDir dir;
    NodeSupervisor sup(base_config(bin, dir.path, 2, false));
    ASSERT_TRUE(sup.start_all());
    RouterConfig rcfg;
    rcfg.nodes = sup.node_addrs();
    rcfg.hold_deadline_ms = 15000;
    RouterThread rt(rcfg);

    ClusterClient ring_probe(sup.node_addrs()); // placement oracle only
    // A key each for the victim node and a survivor.
    int victim_key = -1, survivor_key = -1;
    for (int i = 0; victim_key < 0 || survivor_key < 0; ++i) {
        ASSERT_LT(i, 10000);
        if (ring_probe.node_for(ckey(i)) == 1 && victim_key < 0)
            victim_key = i;
        if (ring_probe.node_for(ckey(i)) == 0 && survivor_key < 0)
            survivor_key = i;
    }

    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", rt.router.port(), 100, 20));
    ASSERT_TRUE(c.set(ckey(victim_key), 1));
    ASSERT_TRUE(c.set(ckey(survivor_key), 2));

    sup.kill_node(1);
    // Let the router observe the EOF and mark the upstream down, so
    // the next request takes the holdback path (not the in-flight
    // error path).
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    // The restart races the held request on purpose: the set below
    // blocks inside the router's hold queue until node 1 is back.
    std::thread restarter([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        ASSERT_TRUE(sup.restart_node(1));
    });
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = c.set(ckey(victim_key), 3);
    const auto held_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    restarter.join();
    ASSERT_TRUE(ok) << "held request must replay, not error";
    EXPECT_GE(held_ms, 300) << "reply released before the node was back";

    // The survivor slice kept serving while node 1 was down -- and the
    // replayed write really landed.
    uint64_t v = 0;
    ASSERT_TRUE(c.get(ckey(survivor_key), &v));
    EXPECT_EQ(v, 2u);
    ASSERT_TRUE(c.get(ckey(victim_key), &v));
    EXPECT_EQ(v, 3u);
}

TEST(Cluster, RouterFailsFastPastHoldDeadline)
{
    const char* bin = serve_bin();
    if (!bin)
        GTEST_SKIP() << "IDO_SERVE_BIN not set";
    TempDir dir;
    NodeSupervisor sup(base_config(bin, dir.path, 2, false));
    ASSERT_TRUE(sup.start_all());
    RouterConfig rcfg;
    rcfg.nodes = sup.node_addrs();
    rcfg.hold_deadline_ms = 250; // fail fast for the test
    RouterThread rt(rcfg);

    ClusterClient ring_probe(sup.node_addrs());
    int victim_key = 0;
    while (ring_probe.node_for(ckey(victim_key)) != 1)
        ++victim_key;

    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", rt.router.port(), 100, 20));
    ASSERT_TRUE(c.set(ckey(victim_key), 1));

    sup.kill_node(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    // No restart this time: the held request must expire with a typed
    // SERVER_ERROR, not hang and not pretend durability.
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(c.set(ckey(victim_key), 2));
    EXPECT_EQ(c.last_error(), net::ClientError::kServerError);
    const auto waited_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(waited_ms, 5000) << "fail-fast took too long";
    // The connection survives the error; the other slice still works.
    int ok_key = 0;
    while (ring_probe.node_for(ckey(ok_key)) != 0)
        ++ok_key;
    EXPECT_TRUE(c.set(ckey(ok_key), 3));
}

// --------------------------------------------------------------------------
// Replication: the durable-prefix ack rule across two heaps
// --------------------------------------------------------------------------

TEST(Replication, AckWaitsForReplicaDurableAck)
{
    const char* bin = serve_bin();
    if (!bin)
        GTEST_SKIP() << "IDO_SERVE_BIN not set";
    TempDir dir;
    SupervisorConfig cfg = base_config(bin, dir.path, 1, true);
    cfg.shards = 1;
    // The injected delay sits between the *replica's* fence and its
    // reply release; the primary's ack must inherit it.
    cfg.replica_extra_args = {"--publish-delay-ms=250"};
    NodeSupervisor sup(cfg);
    ASSERT_TRUE(sup.start_all());

    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", sup.node_port(0), 100, 20));

    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(c.set(ckey(0), 1));
    const auto single_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    // Zero acks before the replica's durable ack: one set cannot
    // return faster than the replica's injected publish delay.
    EXPECT_GE(single_ms, 240);

    // And the round trip amortizes: 8 pipelined sets read at once are
    // one batch and ride ONE replica flight, not 8.
    const auto t1 = std::chrono::steady_clock::now();
    for (int i = 1; i <= 8; ++i)
        c.pipeline_set(ckey(i), 100 + i);
    EXPECT_EQ(c.pipeline_flush(), 8u);
    const auto batch_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t1)
            .count();
    EXPECT_GE(batch_ms, 240);
    EXPECT_LT(batch_ms, 1000)
        << "K-deep batch paid per-request replica round trips";

    // Reads don't pay the replica round trip (read-only batches skip
    // the forwarding flight entirely).
    uint64_t v = 0;
    const auto t2 = std::chrono::steady_clock::now();
    ASSERT_TRUE(c.get(ckey(0), &v));
    const auto get_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t2)
            .count();
    EXPECT_EQ(v, 1u);
    EXPECT_LT(get_ms, 200);

    // Every acked write is durable on the replica's own heap: ask the
    // replica directly (it is a stock ido_serve).
    MemcClient rc;
    ASSERT_TRUE(
        rc.connect_retry("127.0.0.1", sup.replica_port(), 100, 20));
    ASSERT_TRUE(rc.get(ckey(0), &v));
    EXPECT_EQ(v, 1u);
    for (int i = 1; i <= 8; ++i) {
        ASSERT_TRUE(rc.get(ckey(i), &v)) << i;
        EXPECT_EQ(v, 100u + i);
    }
}

TEST(Replication, DeadReplicaWithholdsAcksUntilItReturns)
{
    const char* bin = serve_bin();
    if (!bin)
        GTEST_SKIP() << "IDO_SERVE_BIN not set";
    TempDir dir;
    NodeSupervisor sup(base_config(bin, dir.path, 1, true));
    ASSERT_TRUE(sup.start_all());

    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", sup.node_port(0), 100, 20));
    ASSERT_TRUE(c.set(ckey(0), 1));

    sup.kill_replica();
    // A mutation now must NOT ack: the primary executes and fences it
    // locally but holds the reply while it re-dials the replica.
    std::atomic<bool> acked{false};
    c.pipeline_set(ckey(1), 2);
    std::thread flusher([&] {
        const size_t acks = c.pipeline_flush();
        EXPECT_EQ(acks, 1u);
        acked.store(true, std::memory_order_relaxed);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    EXPECT_FALSE(acked.load(std::memory_order_relaxed))
        << "ack released while the replica was dead";
    ASSERT_TRUE(sup.restart_replica());
    flusher.join(); // the held ack must release after replica recovery
    EXPECT_TRUE(acked.load(std::memory_order_relaxed));

    // The late-acked write is durable on the recovered replica too.
    MemcClient rc;
    uint64_t v = 0;
    ASSERT_TRUE(
        rc.connect_retry("127.0.0.1", sup.replica_port(), 100, 20));
    ASSERT_TRUE(rc.get(ckey(1), &v));
    EXPECT_EQ(v, 2u);
}

// Several pipelining clients keep many flights (one per batch) on the
// wire to the replica at once.  Every acked write must still be on the
// replica with the last value the client was acked for.
TEST(Replication, ManyFlightsInFlightAckOnlyReplicatedWrites)
{
    const char* bin = serve_bin();
    if (!bin)
        GTEST_SKIP() << "IDO_SERVE_BIN not set";
    TempDir dir;
    SupervisorConfig cfg = base_config(bin, dir.path, 1, true);
    NodeSupervisor sup(cfg);
    ASSERT_TRUE(sup.start_all());

    constexpr int kClients = 4;
    constexpr int kBursts = 40;
    constexpr int kBurst = 16;
    // Per client: key -> last acked value (absent after a delete).
    std::vector<std::map<int, uint64_t>> model(kClients);
    std::vector<std::set<int>> touched(kClients);
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
            MemcClient c;
            if (!c.connect_retry("127.0.0.1", sup.node_port(0), 100, 20)) {
                failures.fetch_add(1);
                return;
            }
            Rng rng(mix_seed(0x5e91 + t));
            for (int b = 0; b < kBursts; ++b) {
                std::map<int, uint64_t> sets;
                std::set<int> dels;
                for (int i = 0; i < kBurst; ++i) {
                    // Client-private keys: the final value is this
                    // client's last acked mutation.
                    const int k = t * 1000 + static_cast<int>(rng.next_below(48));
                    const uint64_t roll = rng.next_below(10);
                    if (roll < 5) {
                        const uint64_t v = rng.next_below(1u << 30);
                        c.pipeline_set(ckey(k), v);
                        sets[k] = v;
                        dels.erase(k);
                    } else if (roll < 6) {
                        c.pipeline_del(ckey(k));
                        dels.insert(k);
                        sets.erase(k);
                    } else {
                        c.pipeline_get(ckey(k));
                    }
                }
                if (c.pipeline_flush() != kBurst) {
                    failures.fetch_add(1);
                    return;
                }
                for (const auto& [k, v] : sets) {
                    model[t][k] = v;
                    touched[t].insert(k);
                }
                for (const int k : dels) {
                    model[t].erase(k);
                    touched[t].insert(k);
                }
            }
        });
    }
    for (auto& th : clients)
        th.join();
    ASSERT_EQ(failures.load(), 0);

    MemcClient rc;
    ASSERT_TRUE(
        rc.connect_retry("127.0.0.1", sup.replica_port(), 100, 20));
    for (int t = 0; t < kClients; ++t) {
        for (const int k : touched[t]) {
            uint64_t v = 0;
            const bool present = rc.get(ckey(k), &v);
            const auto it = model[t].find(k);
            if (it == model[t].end()) {
                EXPECT_FALSE(present) << ckey(k);
            } else {
                ASSERT_TRUE(present) << ckey(k);
                EXPECT_EQ(v, it->second) << ckey(k);
            }
        }
    }
}

TEST(Replication, PrimaryAndReplicaKilledBackToBack)
{
    const char* bin = serve_bin();
    if (!bin)
        GTEST_SKIP() << "IDO_SERVE_BIN not set";
    TempDir dir;
    NodeSupervisor sup(base_config(bin, dir.path, 1, true));
    ASSERT_TRUE(sup.start_all());

    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", sup.node_port(0), 100, 20));
    for (int i = 0; i < 32; ++i)
        ASSERT_TRUE(c.set(ckey(i), 1000 + i));

    // Path 1: both die, both recover (replica first so the primary's
    // --replica-of address is live again).
    sup.kill_node(0);
    sup.kill_replica();
    ASSERT_TRUE(sup.restart_replica());
    ASSERT_TRUE(sup.restart_node(0));
    MemcClient c2;
    ASSERT_TRUE(c2.connect_retry("127.0.0.1", sup.node_port(0), 100, 20));
    for (int i = 0; i < 32; ++i) {
        uint64_t v = 0;
        ASSERT_TRUE(c2.get(ckey(i), &v)) << "lost acked key " << i;
        EXPECT_EQ(v, 1000u + i);
    }
    for (int i = 32; i < 48; ++i)
        ASSERT_TRUE(c2.set(ckey(i), 1000 + i));
    c2.close();

    // Path 2: both die again and the *primary's heap is declared
    // lost* -- promotion serves the replica's heap on the primary's
    // pinned port.  The ack rule makes this lossless: nothing was
    // ever acked that the replica had not made durable.
    sup.kill_node(0);
    sup.kill_replica();
    ASSERT_TRUE(sup.promote_replica());
    MemcClient c3;
    ASSERT_TRUE(c3.connect_retry("127.0.0.1", sup.node_port(0), 100, 20));
    for (int i = 0; i < 48; ++i) {
        uint64_t v = 0;
        ASSERT_TRUE(c3.get(ckey(i), &v))
            << "promotion lost acked key " << i;
        EXPECT_EQ(v, 1000u + i);
    }
    // The promoted node is a standalone primary: writes ack without a
    // replica in the loop.
    ASSERT_TRUE(c3.set(ckey(99), 7));
    uint64_t v = 0;
    ASSERT_TRUE(c3.get(ckey(99), &v));
    EXPECT_EQ(v, 7u);

    // Final audit of the surviving (promoted) heap.
    const std::string heap = sup.node_heap(0);
    sup.kill_node(0);
    audit_heap(heap);
}

} // namespace
} // namespace ido
