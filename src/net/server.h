/**
 * @file
 * ido-serve: a memcached-text-protocol server whose storage engine is
 * memcached_mini running under the iDO FASE runtime.
 *
 * Threading model: one EventLoop thread does everything -- accept,
 * parse, execute, reply.  It owns one RuntimeThread and runs each
 * get/set/delete as a FASE inline (memc_exec), under the lock of the
 * key's shard.  The shard count is a data layout (how keys and locks
 * split), not a thread count: an iDO FASE is bounded by its locks and
 * durable when it returns, so any thread may run any shard's FASE.
 *
 * Batches: the requests one loop callback parsed from a connection
 * form a batch.  Their replies are held until the callback returns and
 * then released together, so the connection layer (conn_table.h)
 * writes them in one send().
 *
 * Durability: a reply leaves only after its FASE returned, and an iDO
 * FASE is durable when it returns (ido_runtime.h), so any byte a client
 * reads implies its request is persistent.  Killing the process at any
 * instant loses at most unacknowledged requests.
 *
 * Replication: with replica_port set, each batch's mutations are
 * forwarded to the replica (a stock ido-serve) as one flight, and the
 * batch's replies are released only once the replica acked them, in
 * flight order.  A client ack then implies durability on two heaps.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "net/admin.h"
#include "net/conn_table.h"
#include "net/event_loop.h"
#include "net/memc_client.h"
#include "net/memc_protocol.h"

namespace ido::rt {
class Runtime;
class RuntimeThread;
}

namespace ido::apps {
class MemcachedMini;
}

namespace ido::net {

/**
 * Run one get/set/delete as a FASE of `cache` on `th` and return its
 * wire reply.  The FASE is durable when this returns; other ops get
 * the protocol's ERROR line.
 */
std::string memc_exec(apps::MemcachedMini& cache, rt::RuntimeThread& th,
                      const MemcRequest& rq);

struct ServerConfig
{
    uint16_t port = 0;        ///< 0: kernel-assigned; see Server::port()
    uint32_t shards = 4;      ///< McShard count, 1..7 (a data layout)
    /// No effect: a batch is whatever one loop callback parsed.  Kept
    /// only because the repo benchmark still assigns it.
    uint32_t batch_limit = 16;
    uint64_t nbuckets = 256;  ///< hash buckets per shard (power of two)
    bool admin = false;       ///< serve /metrics, /stats.json, /recovery
    uint16_t admin_port = 0;  ///< 0: kernel-assigned; see admin_port()

    /**
     * Replication (ido-cluster): when replica_port != 0 this server is
     * a *primary* -- it forwards each batch's mutations to the replica
     * (itself a stock ido_serve) after its FASEs returned, and releases
     * the batch's replies only once the replica acknowledged them all.
     */
    std::string replica_host = "127.0.0.1";
    uint16_t replica_port = 0; ///< 0: replication off

    /**
     * Test injection: sleep this long after each batch's FASEs
     * returned, before releasing its replies.  Lets the replication
     * tests prove acks wait for the replica (run the *replica* with a
     * publish delay and the primary's acks must inherit it).
     */
    uint32_t publish_delay_ms = 0;
};

class Server
{
  public:
    /// Most batches a primary keeps awaiting the replica's acks.  When
    /// the window is full the loop blocks on the oldest, so forwarding
    /// never fills the socket while acks go unread.
    static constexpr size_t kReplicaWindow = 8;
    /// A replica silent this long with flights out is probed by a
    /// blocking read, whose timeout turns a hung peer into a resend.
    static constexpr int kStallMs = 1000;

    /**
     * Bind + listen and create (or reattach to) the McRoot in the
     * runtime's heap at RootSlot::kAppRoot.  On reattach the shard
     * count stored in the durable root wins over cfg.shards, so a
     * restarted server always matches the data it recovers.
     */
    Server(rt::Runtime& rt, const ServerConfig& cfg);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /** The bound port (useful when cfg.port was 0). */
    uint16_t port() const { return conns_.port(); }

    /** Bound admin port; 0 when cfg.admin was false. */
    uint16_t admin_port() const
    {
        return admin_ ? admin_->port() : 0;
    }

    uint64_t root_off() const { return root_off_; }

    /** Serve until stop(); blocks the calling thread, which runs the
     *  FASEs. */
    void run();

    /** Shut down: callable from any thread or a signal handler. */
    void stop();

    /** Requests answered (read after run() returns). */
    uint64_t requests_served() const { return served_; }

  private:
    /** An executed request whose reply waits for its batch to close. */
    struct Done
    {
        uint64_t conn_id = 0;
        uint64_t seq = 0;
        uint64_t t_ns = 0; ///< stat_now_ns() at parse; 0 = untimed
        MemcRequest req;
        std::string reply;
    };

    /** A batch whose mutations went to the replica, owed its acks. */
    struct Flight
    {
        std::vector<Done> done;
        size_t nmut = 0;      ///< sets + deletes the replica must ack
        uint64_t sent_ns = 0; ///< 0 = untimed
    };

    void dispatch(Conn& c, uint64_t seq, MemcRequest&& rq);
    void close_batch();
    void release(std::vector<Done>& done);

    // Replication, all on the loop thread.
    void forward(std::vector<Done>&& batch);
    void queue_mutations(const Flight& f);
    void release_flights(bool probe);
    bool head_ready();
    bool await_head();
    void replica_drop();

    rt::Runtime& rt_;
    ServerConfig cfg_;
    uint64_t root_off_ = 0;

    EventLoop loop_;
    ConnTable conns_;
    std::unique_ptr<AdminEndpoint> admin_; ///< ido-stat HTTP plane

    // Loop thread only; the thread and cache live while run() runs.
    std::unique_ptr<rt::RuntimeThread> th_;
    std::unique_ptr<apps::MemcachedMini> cache_;
    std::vector<Done> batch_; ///< this callback's executed requests
    uint64_t batch_conn_ = 0;
    uint64_t served_ = 0;

    MemcClient replica_;
    std::deque<Flight> flights_; ///< oldest first
    int stall_fd_ = -1;          ///< timerfd ticking every kStallMs
    uint64_t flights_released_ = 0;
    uint64_t stall_mark_ = 0; ///< flights_released_ at the last tick
};

} // namespace ido::net
