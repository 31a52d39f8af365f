/**
 * @file
 * Shard worker: one thread owning one McShard's slice of the keyspace.
 *
 * The event loop routes every request whose key hashes to shard i onto
 * worker i's queue, so worker i is the *only* thread that ever takes
 * shard i's FASE-boundary lock; thread_main asserts the routing per
 * request.
 *
 * Each worker owns its own RuntimeThread (created on the worker thread
 * itself, so per-thread durable log records and trace rings attach to
 * it) and drains its queue in batches of at most K = batch_limit jobs
 * through GroupCommit before publishing the replies back to the loop.
 *
 * A replicating worker keeps up to kReplicaWindow executed batches on
 * the wire to its replica and releases each batch's replies once the
 * replica acked it, in batch order.  While flights are out it sleeps
 * in poll() on the replica socket and an eventfd that submit() and
 * stop() write only while it sleeps there.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "net/group_commit.h"

namespace ido::rt {
class Runtime;
}

namespace ido::net {

struct ShardConfig
{
    uint64_t index = 0;       ///< which McShard this worker owns
    uint32_t batch_limit = 1; ///< K: max pipelined requests per batch
    uint64_t root_off = 0;    ///< McRoot heap offset
    /// Replication target (server.h): port 0 = replication off.  Each
    /// worker owns its own connection, so forwarding never crosses a
    /// lock between shards.
    std::string replica_host = "127.0.0.1";
    uint16_t replica_port = 0;
    uint32_t publish_delay_ms = 0; ///< test injection (server.h)
};

class McShardWorker
{
  public:
    /** Called from the worker thread with a finished batch's replies. */
    using PublishFn = std::function<void(std::vector<ShardReply>&&)>;

    McShardWorker(rt::Runtime& rt, const ShardConfig& cfg,
                  PublishFn publish);
    ~McShardWorker();

    McShardWorker(const McShardWorker&) = delete;
    McShardWorker& operator=(const McShardWorker&) = delete;

    /** Start the worker thread. */
    void start();

    /** Enqueue one job (loop thread). */
    void submit(ShardJob job);

    /** Drain the queue, then stop and join the worker thread. */
    void stop();

    uint64_t requests_served() const { return served_; }

    /// Most executed batches a replicating worker keeps awaiting the
    /// replica's acks.  Their mutations (at most K each) stay far below
    /// a socket buffer, so the replica's back-pressure never engages.
    static constexpr size_t kReplicaWindow = 8;
    /// A replica silent this long with flights out is probed by a
    /// blocking read, whose timeout turns a hung peer into a resend.
    static constexpr int kStallMs = 1000;

  private:
    void thread_main();
    /** Wake a worker sleeping in poll() with flights out. */
    void wake();
    /** Has stop() been requested?  (Replication retry loops poll this
     *  so a dead replica cannot wedge shutdown forever.) */
    bool stopping_now();

    rt::Runtime& rt_;
    ShardConfig cfg_;
    PublishFn publish_;

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<ShardJob> queue_;
    bool stopping_ = false;
    /// The worker sleeps in poll() and must be woken via wake_fd_.
    bool polling_ = false;
    int wake_fd_ = -1; ///< eventfd; replicating workers only

    std::thread thread_;
    uint64_t served_ = 0; ///< worker thread only; read after stop()
    /// Jobs submitted but not yet taken into a batch (ido-stat gauge
    /// net.shard.<i>.queue_depth; readable from the scrape thread).
    std::atomic<uint64_t> queue_depth_{0};
};

} // namespace ido::net
