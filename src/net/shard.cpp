#include "net/shard.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <thread>

#include "apps/memcached_mini.h"
#include "common/panic.h"
#include "net/memc_client.h"
#include "net/memc_protocol.h"
#include "runtime/runtime.h"
#include "stats/metrics.h"
#include "stats/persist_stats.h"
#include "stats/stat_plane.h"

namespace ido::net {

McShardWorker::McShardWorker(rt::Runtime& rt, const ShardConfig& cfg,
                             PublishFn publish)
    : rt_(rt), cfg_(cfg), publish_(std::move(publish))
{
    if (cfg_.replica_port != 0) {
        wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
        IDO_ASSERT(wake_fd_ >= 0, "shard worker: eventfd failed");
    }
    MetricsRegistry::instance().register_gauge(
        "net.shard." + std::to_string(cfg_.index) + ".queue_depth",
        [this] { return queue_depth_.load(std::memory_order_relaxed); });
}

McShardWorker::~McShardWorker()
{
    stop();
    // The gauge captures `this`; it must not outlive the worker.
    MetricsRegistry::instance().unregister_gauge(
        "net.shard." + std::to_string(cfg_.index) + ".queue_depth");
    if (wake_fd_ >= 0)
        ::close(wake_fd_);
}

void
McShardWorker::start()
{
    thread_ = std::thread([this] { thread_main(); });
}

void
McShardWorker::submit(ShardJob job)
{
    bool poke = false;
    {
        std::lock_guard<std::mutex> g(mu_);
        queue_.push_back(std::move(job));
        poke = polling_;
    }
    queue_depth_.fetch_add(1, std::memory_order_relaxed);
    cv_.notify_one();
    if (poke)
        wake();
}

void
McShardWorker::stop()
{
    bool poke = false;
    {
        std::lock_guard<std::mutex> g(mu_);
        if (stopping_ && !thread_.joinable())
            return;
        stopping_ = true;
        poke = polling_;
    }
    cv_.notify_one();
    if (poke)
        wake();
    if (thread_.joinable())
        thread_.join();
}

void
McShardWorker::wake()
{
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t r = ::write(wake_fd_, &one, sizeof one);
}

bool
McShardWorker::stopping_now()
{
    std::lock_guard<std::mutex> g(mu_);
    return stopping_;
}

void
McShardWorker::thread_main()
{
    // The RuntimeThread is created *here* so its durable log record
    // and trace ring belong to this worker thread.
    std::unique_ptr<rt::RuntimeThread> th = rt_.make_thread();
    IDO_ASSERT(rt_.allocator().block_type(cfg_.root_off)
                   == nvm::TypeId::kMcRoot,
               "shard worker handed a root that is not a memcached root");
    apps::MemcachedMini cache(th->heap(), cfg_.root_off);
    GroupCommit committer(cfg_.index);

    static std::atomic<uint64_t>& net_requests =
        *MetricsRegistry::instance().counter("net.requests");

    // ido-stat instruments: per-op end-to-end latency plus its
    // queue-wait / execute / fence-publish decomposition.  Pointers
    // are cached once; recording is wait-free per-thread shards.
    auto& reg = MetricsRegistry::instance();
    LatencyRecorder* const lat_get = reg.latency("net.lat.req.get");
    LatencyRecorder* const lat_set = reg.latency("net.lat.req.set");
    LatencyRecorder* const lat_del = reg.latency("net.lat.req.delete");
    LatencyRecorder* const lat_queue = reg.latency("net.lat.queue");
    LatencyRecorder* const lat_exec = reg.latency("net.lat.exec");
    LatencyRecorder* const lat_publish = reg.latency("net.lat.publish");
    const uint64_t slow_ns = stat_slow_threshold_ns();
    uint64_t last_exec_end_ns = 0;
    uint64_t batches_since_fold = 0;

    // Replication (ido-cluster): this worker's private connection to
    // the replica, plus the cluster.* accounting.  A batch's mutations
    // go out after its FASEs returned (each durable on return), and
    // its replies are released only once the replica acked them, so a
    // client ack certifies durability on both heaps.
    const bool replicate = cfg_.replica_port != 0;
    MemcClient replica;
    std::atomic<uint64_t>* const rep_batches =
        replicate ? reg.counter("cluster.replica.batches") : nullptr;
    std::atomic<uint64_t>* const rep_requests =
        replicate ? reg.counter("cluster.replica.requests") : nullptr;
    std::atomic<uint64_t>* const rep_resends =
        replicate ? reg.counter("cluster.replica.resends") : nullptr;
    std::atomic<uint64_t>* const rep_reconnects =
        replicate ? reg.counter("cluster.replica.reconnects") : nullptr;
    LatencyRecorder* const lat_replica =
        replicate ? reg.latency("net.lat.replica_ack") : nullptr;

    /**
     * Executed batches whose replies wait for the replica, oldest
     * first.  Up to kReplicaWindow of them are on the wire at once, so
     * the worker runs batch N+1 while batch N's acks travel.  Replies
     * are released strictly in flight order (a read-only flight waits
     * behind older mutating ones), so no client sees a value the
     * replica does not hold yet.
     */
    struct Flight
    {
        std::vector<ShardJob> jobs;
        std::vector<ShardReply> replies;
        size_t nmut = 0;          ///< sets + deletes the replica must ack
        uint64_t exec_end_ns = 0; ///< last execute end; 0 = untimed
        uint64_t sent_ns = 0;     ///< joined the window; 0 = untimed
    };
    std::deque<Flight> flights;

    const auto queue_mutations = [&](const Flight& f) {
        for (const ShardJob& j : f.jobs) {
            if (j.req.op == MemcOp::kSet)
                replica.pipeline_set(j.req.key, j.req.value);
            else if (j.req.op == MemcOp::kDelete)
                replica.pipeline_del(j.req.key);
        }
    };

    /** The head flight's acks can be read without waiting for them. */
    const auto head_ready = [&]() -> bool {
        if (!replica.connected() || replica.reply_buffered())
            return true;
        struct pollfd pfd = {replica.fd(), POLLIN, 0};
        return ::poll(&pfd, 1, 0) > 0;
    };

    /**
     * Wait for the head flight's durable acks.  A dead replica blocks
     * them (the availability contract): we reconnect with backoff and
     * resend every flight still owed an ack, which is safe
     * at-least-once -- a set rewrites the same value, a re-delete acks
     * NOT_FOUND.  The retry loop is reserved for transport faults
     * (disconnect/send/timeout); a replica that stays up and *answers*
     * SERVER_ERROR or garbage is divergence -- resending can never
     * succeed, and acking the client without the replica copy would
     * break the durable-prefix contract, so that panics instead of
     * wedging the shard.  Returns false only when the worker is
     * stopping and the replica is unreachable; the caller must then
     * drop the replies unpublished (no client ack).
     */
    const auto await_head = [&]() -> bool {
        const size_t need = flights.front().nmut;
        for (;;) {
            if (!replica.connected()) {
                if (!replica.connect_retry(cfg_.replica_host,
                                           cfg_.replica_port,
                                           /*attempts=*/25,
                                           /*backoff_ms=*/20)) {
                    if (stopping_now())
                        return false;
                    continue; // keep riding out the replica restart
                }
                rep_reconnects->fetch_add(1, std::memory_order_relaxed);
                for (const Flight& f : flights)
                    queue_mutations(f);
                replica.pipeline_send(); // a failure shows up as acks
            }
            if (replica.pipeline_collect(need) == need)
                return true; // every mutation durable on the replica
            const ClientError err = replica.last_error();
            if (err == ClientError::kServerError
                || err == ClientError::kProtocol) {
                panic("replica %s:%u refused a mutation (%s): "
                      "primary/replica divergence, cannot certify the "
                      "durable-prefix ack",
                      cfg_.replica_host.c_str(), cfg_.replica_port,
                      client_error_name(err));
            }
            replica.close(); // node down / torn reply: resend all
            rep_resends->fetch_add(1, std::memory_order_relaxed);
            if (stopping_now())
                return false;
        }
    };

    const GroupCommit::Exec exec = [&](const ShardJob& job) -> std::string {
        const MemcRequest& rq = job.req;
        auto [lo, hi] = memc_key_words(rq.key);
        // Routing guard: the loop must never route a key here that
        // another worker's shard owns.
        IDO_ASSERT(cache.shard_index(lo, hi) == cfg_.index,
                   "request routed to the wrong shard worker");
        net_requests.fetch_add(1, std::memory_order_relaxed);
        const uint64_t t0 = job.t_enqueue_ns ? stat_now_ns() : 0;
        std::string reply;
        switch (rq.op) {
        case MemcOp::kSet:
            cache.set(*th, lo, hi, rq.value);
            reply = memc_reply_stored();
            break;
        case MemcOp::kGet: {
            uint64_t value = 0;
            if (cache.get(*th, lo, hi, &value))
                reply = memc_reply_value(rq.key, rq.flags, value);
            else
                reply = memc_reply_miss();
            break;
        }
        case MemcOp::kDelete:
            reply = memc_reply_deleted(cache.del(*th, lo, hi));
            break;
        default:
            reply = memc_reply_error();
            break;
        }
        if (t0 != 0) {
            last_exec_end_ns = stat_now_ns();
            lat_exec->record(last_exec_end_ns - t0);
        }
        return reply;
    };

    /**
     * Release one finished batch: account its publish phase and
     * per-op end-to-end latency, then hand its replies to the loop.
     * Every FASE of the batch is durable (and, when replicating, the
     * replica acked), so the replies are safe to release.
     */
    const auto release = [&](const std::vector<ShardJob>& jobs,
                             std::vector<ShardReply>&& replies,
                             uint64_t exec_end_ns) {
        if (exec_end_ns != 0) {
            // The gap since the last job's execute end is the
            // group-commit publish phase (fence, plus the replica
            // wait when replicating), shared by every job in the batch.
            const uint64_t t_done = stat_now_ns();
            lat_publish->record(t_done - exec_end_ns);
            for (const ShardJob& j : jobs) {
                if (j.t_enqueue_ns == 0 || t_done <= j.t_enqueue_ns)
                    continue;
                const uint64_t total = t_done - j.t_enqueue_ns;
                switch (j.req.op) {
                case MemcOp::kGet:
                    lat_get->record(total);
                    break;
                case MemcOp::kSet:
                    lat_set->record(total);
                    break;
                case MemcOp::kDelete:
                    lat_del->record(total);
                    break;
                default:
                    break;
                }
                if (slow_ns != 0 && total >= slow_ns)
                    stat_note_slow_request(
                        total, static_cast<uint32_t>(cfg_.index));
            }
        }
        if (publish_ && !replies.empty())
            publish_(std::move(replies));
    };

    std::vector<ShardJob> batch;
    std::vector<ShardReply> replies;
    for (;;) {
        bool stalled = false; // the replica went quiet for kStallMs
        {
            std::unique_lock<std::mutex> g(mu_);
            if (flights.empty()) {
                cv_.wait(g, [this] { return stopping_ || !queue_.empty(); });
            } else if (queue_.empty() && !stopping_ && !head_ready()) {
                // Flights are on the wire and there is nothing to run:
                // sleep until acks arrive or submit()/stop() pokes us.
                polling_ = true;
                g.unlock();
                struct pollfd pfd[2] = {{replica.fd(), POLLIN, 0},
                                        {wake_fd_, POLLIN, 0}};
                stalled = ::poll(pfd, 2, kStallMs) == 0;
                if (pfd[1].revents != 0) {
                    uint64_t n = 0;
                    [[maybe_unused]] const ssize_t r =
                        ::read(wake_fd_, &n, sizeof n);
                }
                g.lock();
                polling_ = false;
            }
            if (queue_.empty() && stopping_ && flights.empty())
                break;
            const size_t take =
                std::min<size_t>(queue_.size(), cfg_.batch_limit);
            batch.assign(std::make_move_iterator(queue_.begin()),
                         std::make_move_iterator(queue_.begin() +
                                                 static_cast<long>(take)));
            queue_.erase(queue_.begin(),
                         queue_.begin() + static_cast<long>(take));
        }
        if (!batch.empty()) {
            queue_depth_.fetch_sub(batch.size(), std::memory_order_relaxed);
            // Queue-wait phase ends for every job in the batch now, when
            // the worker picks it up (jobs routed with stats off carry
            // t_enqueue_ns == 0 and are skipped entirely).
            if (batch.front().t_enqueue_ns != 0) {
                const uint64_t t_pickup = stat_now_ns();
                for (const ShardJob& j : batch)
                    if (j.t_enqueue_ns != 0 && t_pickup > j.t_enqueue_ns)
                        lat_queue->record(t_pickup - j.t_enqueue_ns);
            }
            replies.clear();
            last_exec_end_ns = 0;
            committer.run_batch(batch, exec, &replies);
            served_ += batch.size();
            // Injected publish delay (tests): the fence has retired but
            // the acks sit on this side of the wire a little longer.
            if (cfg_.publish_delay_ms != 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(cfg_.publish_delay_ms));
            if (!replicate) {
                release(batch, std::move(replies), last_exec_end_ns);
            } else {
                Flight f;
                for (const ShardJob& j : batch)
                    if (j.req.op == MemcOp::kSet
                        || j.req.op == MemcOp::kDelete)
                        ++f.nmut;
                f.jobs = std::move(batch);
                f.replies = std::move(replies);
                f.exec_end_ns = last_exec_end_ns;
                f.sent_ns = stat_enabled() ? stat_now_ns() : 0;
                // Unconnected, the flight goes out with the rest when
                // await_head reconnects.
                if (f.nmut != 0 && replica.connected()) {
                    queue_mutations(f);
                    if (!replica.pipeline_send())
                        replica.close();
                }
                flights.push_back(std::move(f));
            }
            batch.clear();
            replies.clear();
            // Fold TLS persist counters into the registry every 64
            // batches, and whenever the queue has drained, so a live
            // `stats` / /metrics scrape -- or a bench reading totals
            // between phases -- sees the fences of every request
            // already answered.  A fold is a few relaxed adds.
            if (++batches_since_fold >= 64
                || queue_depth_.load(std::memory_order_relaxed) == 0) {
                persist_counters_flush_tls();
                batches_since_fold = 0;
            }
        }
        // Release every flight the replica has acked, oldest first.
        // Block on the head only when the window is full, the replica
        // stalled, or we are shutting down; otherwise the poll above
        // waits for acks and new work together.
        while (!flights.empty()) {
            Flight& f = flights.front();
            if (f.nmut != 0) {
                const bool must_wait = stalled
                                       || flights.size() >= kReplicaWindow
                                       || stopping_now();
                if (!must_wait && !head_ready())
                    break;
                if (!await_head()) {
                    // Stopping with the replica unreachable: these
                    // requests stay unacknowledged, which the
                    // durability model permits.
                    flights.clear();
                    break;
                }
                if (f.sent_ns != 0)
                    lat_replica->record(stat_now_ns() - f.sent_ns);
                rep_batches->fetch_add(1, std::memory_order_relaxed);
                rep_requests->fetch_add(f.nmut, std::memory_order_relaxed);
            }
            release(f.jobs, std::move(f.replies), f.exec_end_ns);
            flights.pop_front();
        }
    }
    // Fold this thread's persist counters into the global registry
    // before the thread (and its TLS) goes away.
    persist_counters_flush_tls();
}

} // namespace ido::net
