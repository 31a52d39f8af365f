/**
 * @file
 * ido-serve: a memcached-text-protocol server whose storage engine is
 * memcached_mini running under the iDO FASE runtime.
 *
 * Threading model:
 *  - one EventLoop thread owns all sockets (accept, parse, reply);
 *  - N McShardWorker threads, one per McShard, execute FASEs.  The
 *    loop routes each request by MemcachedMini::shard_index(), so each
 *    shard's lock is taken by one worker only.
 *
 * Reply ordering: the memcached text protocol has no request ids, so
 * replies on a connection must go out in request order even though
 * requests fan out to different shards.  The connection layer
 * (conn_table.h) stamps requests with a sequence number and holds
 * completed replies in a reorder buffer until every earlier reply has
 * been written.
 *
 * Durability: a worker publishes a batch's replies only after every
 * FASE of the batch returned, and an iDO FASE is durable when it
 * returns (group_commit.h), so any byte a client reads implies the
 * whole batch is persistent.  Killing the process at any instant
 * loses at most unacknowledged requests.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/admin.h"
#include "net/conn_table.h"
#include "net/event_loop.h"
#include "net/memc_protocol.h"
#include "net/shard.h"

namespace ido::rt {
class Runtime;
}

namespace ido::net {

struct ServerConfig
{
    uint16_t port = 0;        ///< 0: kernel-assigned; see Server::port()
    uint32_t shards = 4;      ///< == McShard count, 1..7
    uint32_t batch_limit = 16; ///< K: group-commit batch size
    uint64_t nbuckets = 256;  ///< hash buckets per shard (power of two)
    bool admin = false;       ///< serve /metrics, /stats.json, /recovery
    uint16_t admin_port = 0;  ///< 0: kernel-assigned; see admin_port()

    /**
     * Replication (ido-cluster): when replica_port != 0 this server is
     * a *primary* -- every shard worker forwards its batch's mutations
     * to the replica (itself a stock ido_serve) after its local
     * FASEs returned, and releases the batch's replies only once
     * the replica acknowledged them all.  A client ack then implies
     * durability on two heaps.
     */
    std::string replica_host = "127.0.0.1";
    uint16_t replica_port = 0; ///< 0: replication off

    /**
     * Test injection: sleep this long after each batch's fence before
     * publishing replies.  Lets the replication tests prove acks wait
     * for the replica (run the *replica* with a publish delay and the
     * primary's acks must inherit it).
     */
    uint32_t publish_delay_ms = 0;
};

class Server
{
  public:
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

    /** Serve until stop(); blocks the calling thread. */
    void run();

    /** Shut down: callable from any thread or a signal handler. */
    void stop();

    /** Requests fully executed across all shards (after run() returns). */
    uint64_t requests_served() const;

  private:
    void dispatch(Conn& c, uint64_t seq, MemcRequest&& rq);
    void drain_completions();

    rt::Runtime& rt_;
    ServerConfig cfg_;
    uint64_t root_off_ = 0;

    EventLoop loop_;
    ConnTable conns_;
    std::vector<std::unique_ptr<McShardWorker>> workers_;

    std::mutex done_mu_;
    std::vector<ShardReply> done_; ///< worker -> loop completions

    uint64_t served_on_loop_ = 0; ///< version/quit/errors answered inline

    std::unique_ptr<AdminEndpoint> admin_; ///< ido-stat HTTP plane
};

} // namespace ido::net
