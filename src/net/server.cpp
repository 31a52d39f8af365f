#include "net/server.h"

#include <sys/epoll.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <iterator>
#include <thread>

#include "apps/memcached_mini.h"
#include "common/panic.h"
#include "nvm/persistent_heap.h"
#include "runtime/runtime.h"
#include "stats/metrics.h"
#include "stats/persist_stats.h"
#include "stats/recovery_timeline.h"
#include "stats/stat_plane.h"
#include "trace/trace.h"

namespace ido::net {

std::string
memc_exec(apps::MemcachedMini& cache, rt::RuntimeThread& th,
          const MemcRequest& rq)
{
    auto [lo, hi] = memc_key_words(rq.key);
    switch (rq.op) {
    case MemcOp::kSet:
        cache.set(th, lo, hi, rq.value);
        return memc_reply_stored();
    case MemcOp::kGet: {
        uint64_t value = 0;
        if (cache.get(th, lo, hi, &value))
            return memc_reply_value(rq.key, rq.flags, value);
        return memc_reply_miss();
    }
    case MemcOp::kDelete:
        return memc_reply_deleted(cache.del(th, lo, hi));
    default:
        return memc_reply_error();
    }
}

// The table binds before the constructor returns, so callers (and the
// port file in ido_serve) can rely on the port being acquired.
Server::Server(rt::Runtime& rt, const ServerConfig& cfg)
    : rt_(rt), cfg_(cfg), conns_(loop_, cfg.port, "net", [this](Conn& c) {
          served_ +=
              memc_serve(conns_, c, std::bind_front(&Server::dispatch, this));
      })
{
    IDO_ASSERT(cfg_.shards >= 1 && cfg_.shards <= 7,
               "shards must be 1..7 (McRoot capacity)");

    // Create or adopt the durable cache root.  A restarted server must
    // use the shard count the data was created with, whatever the
    // command line says, or keys would re-hash onto the wrong shards.
    nvm::PersistentHeap& heap = rt_.heap();
    root_off_ = nvm::RootRegistry::get_ref(heap, nvm::RootSlot::kAppRoot);
    if (root_off_ == 0) {
        std::unique_ptr<rt::RuntimeThread> th = rt_.make_thread();
        root_off_ = apps::MemcachedMini::create(*th, cfg_.shards,
                                                cfg_.nbuckets);
        nvm::RootRegistry::set_ref(heap, nvm::RootSlot::kAppRoot,
                                   root_off_, rt_.domain());
    } else {
        apps::MemcachedMini cache(heap, root_off_);
        cfg_.shards = static_cast<uint32_t>(cache.nshards());
    }
    IDO_ASSERT(rt_.allocator().block_type(root_off_)
                   == nvm::TypeId::kMcRoot,
               "server handed a root that is not a memcached root");

    // ido-stat plane: the loopback admin HTTP endpoint reads only
    // registry snapshots and relaxed atomics.
    if (cfg_.admin) {
        admin_ = std::make_unique<AdminEndpoint>(loop_, cfg_.admin_port);
        admin_->route("/recovery", "application/json", [] {
            return RecoveryTimeline::instance().to_json();
        });
    }
}

Server::~Server()
{
    if (stall_fd_ >= 0)
        ::close(stall_fd_);
}

void
Server::run()
{
    // The RuntimeThread is created *here* so its durable log record
    // and trace ring belong to the thread that runs the FASEs.
    th_ = rt_.make_thread();
    cache_ = std::make_unique<apps::MemcachedMini>(th_->heap(), root_off_);

    if (cfg_.replica_port != 0) {
        // The stall probe: a timerfd is just another readable fd.
        stall_fd_ = ::timerfd_create(CLOCK_MONOTONIC,
                                     TFD_NONBLOCK | TFD_CLOEXEC);
        IDO_ASSERT(stall_fd_ >= 0, "timerfd_create failed");
        struct itimerspec its = {};
        its.it_interval.tv_sec = kStallMs / 1000;
        its.it_interval.tv_nsec = (kStallMs % 1000) * 1000000l;
        its.it_value = its.it_interval;
        ::timerfd_settime(stall_fd_, 0, &its, nullptr);
        // Every flight queued this round goes out in one write: fewer
        // sends on the primary and fewer, larger batches on the replica.
        loop_.set_round_end([this] {
            if (replica_.pipeline_pending() != 0
                && !replica_.pipeline_send()) {
                replica_drop();
                release_flights(/*probe=*/false); // re-dial and resend
            }
        });
        loop_.add(stall_fd_, EPOLLIN, [this](uint32_t) {
            uint64_t ticks = 0;
            while (::read(stall_fd_, &ticks, sizeof ticks) > 0) {
            }
            // The head flight saw no ack for a whole tick: probe it.
            if (!flights_.empty() && flights_released_ == stall_mark_)
                release_flights(/*probe=*/true);
            stall_mark_ = flights_released_;
        });
    }

    loop_.run();

    // Stopped with flights out: their requests stay unacknowledged,
    // which the durability model permits.
    flights_.clear();
    if (stall_fd_ >= 0)
        loop_.del(stall_fd_);
    replica_drop();
    cache_.reset();
    th_.reset();
    // Fold this thread's persist counters into the global registry
    // before a bench or test reads them.
    persist_counters_flush_tls();
}

void
Server::stop()
{
    loop_.stop();
}

void
Server::dispatch(Conn& c, uint64_t seq, MemcRequest&& rq)
{
    static LatencyRecorder* const lat_exec =
        MetricsRegistry::instance().latency("net.lat.exec");

    if (batch_.empty()) {
        batch_conn_ = c.id;
        trace::emit(trace::EventKind::kGroupOpen, c.id);
        loop_.defer([this] { close_batch(); });
    }
    // Stamp the ido-stat clock at parse time, so the end-to-end latency
    // covers execute, the batch close and, when replicating, the
    // replica's ack.  0 keeps the timing paths cold when the plane is
    // off.
    const uint64_t t0 = stat_enabled() ? stat_now_ns() : 0;
    std::string reply = memc_exec(*cache_, *th_, rq);
    if (t0 != 0)
        lat_exec->record(stat_now_ns() - t0);
    batch_.push_back({c.id, seq, t0, std::move(rq), std::move(reply)});
}

void
Server::close_batch()
{
    static std::atomic<uint64_t>& requests =
        *MetricsRegistry::instance().counter("net.requests");
    static std::atomic<uint64_t>& batches =
        *MetricsRegistry::instance().counter("net.group.batches");
    static std::atomic<uint64_t>& batch_requests =
        *MetricsRegistry::instance().counter("net.group.requests");

    // Injected publish delay (tests): every FASE of the batch returned,
    // but the acks sit on this side of the wire a little longer.
    if (cfg_.publish_delay_ms != 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(cfg_.publish_delay_ms));
    const uint64_t n = batch_.size();
    trace::emit(trace::EventKind::kGroupClose, batch_conn_, n);
    requests.fetch_add(n, std::memory_order_relaxed);
    batches.fetch_add(1, std::memory_order_relaxed);
    batch_requests.fetch_add(n, std::memory_order_relaxed);
    served_ += n;
    // A live `stats` or /metrics scrape sees the fences of every
    // request answered so far.  A fold is a few relaxed adds.
    persist_counters_flush_tls();

    if (cfg_.replica_port == 0)
        release(batch_);
    else
        forward(std::move(batch_));
    batch_.clear();
}

void
Server::release(std::vector<Done>& done)
{
    static LatencyRecorder* const lat_req[] = {
        MetricsRegistry::instance().latency("net.lat.req.get"),
        MetricsRegistry::instance().latency("net.lat.req.set"),
        MetricsRegistry::instance().latency("net.lat.req.delete")};

    const uint64_t slow_ns = stat_slow_threshold_ns();
    const uint64_t t_done = stat_enabled() ? stat_now_ns() : 0;
    for (Done& d : done) {
        if (t_done > d.t_ns && d.t_ns != 0) {
            const uint64_t total = t_done - d.t_ns;
            const size_t op = static_cast<size_t>(d.req.op);
            if (op < std::size(lat_req))
                lat_req[op]->record(total);
            if (slow_ns != 0 && total >= slow_ns) {
                auto [lo, hi] = memc_key_words(d.req.key);
                stat_note_slow_request(
                    total,
                    static_cast<uint32_t>(cache_->shard_index(lo, hi)));
            }
        }
        // Dropped if the connection closed meanwhile.
        conns_.reply(d.conn_id, d.seq, std::move(d.reply));
    }
}

// --- replication ---------------------------------------------------------
//
// A batch's mutations go to the replica as one flight after its FASEs
// returned (each durable on return), and its replies are released only
// once the replica acked them, strictly in flight order (a read-only
// batch waits behind older mutating ones), so no client sees a value
// the replica does not hold yet.

void
Server::forward(std::vector<Done>&& batch)
{
    Flight f;
    for (const Done& d : batch)
        f.nmut += d.req.op == MemcOp::kSet || d.req.op == MemcOp::kDelete;
    f.done = std::move(batch);
    f.sent_ns = stat_enabled() ? stat_now_ns() : 0;
    // Queued here, written at the end of the loop round together with
    // the round's other flights (run()).  Unconnected, the flight goes
    // out with the rest when await_head reconnects.
    if (f.nmut != 0 && replica_.connected())
        queue_mutations(f);
    flights_.push_back(std::move(f));
    // Acks arrive through the replica fd's callback; release here only
    // what cannot wait for one: a read-only head, a full window, or a
    // replica to dial.
    if (flights_.front().nmut == 0 || flights_.size() >= kReplicaWindow
        || !replica_.connected())
        release_flights(/*probe=*/false);
}

void
Server::queue_mutations(const Flight& f)
{
    for (const Done& d : f.done) {
        if (d.req.op == MemcOp::kSet)
            replica_.pipeline_set(d.req.key, d.req.value);
        else if (d.req.op == MemcOp::kDelete)
            replica_.pipeline_del(d.req.key);
    }
}

/**
 * Release every flight the replica has acked, oldest first.  Block on
 * the head only when the window is full or `probe` (the replica went
 * quiet for kStallMs); otherwise stop at the first head whose acks
 * cannot be read without waiting.
 */
void
Server::release_flights(bool probe)
{
    static LatencyRecorder* const lat_replica =
        MetricsRegistry::instance().latency("net.lat.replica_ack");
    static std::atomic<uint64_t>& rep_batches =
        *MetricsRegistry::instance().counter("cluster.replica.batches");
    static std::atomic<uint64_t>& rep_requests =
        *MetricsRegistry::instance().counter("cluster.replica.requests");

    while (!flights_.empty()) {
        Flight& f = flights_.front();
        if (f.nmut != 0) {
            const bool must_wait =
                probe || flights_.size() >= kReplicaWindow;
            if (!must_wait && !head_ready())
                return;
            if (!await_head()) {
                // Stopping with the replica unreachable: these requests
                // stay unacknowledged, which the durability model
                // permits.
                flights_.clear();
                return;
            }
            if (f.sent_ns != 0)
                lat_replica->record(stat_now_ns() - f.sent_ns);
            rep_batches.fetch_add(1, std::memory_order_relaxed);
            rep_requests.fetch_add(f.nmut, std::memory_order_relaxed);
        }
        release(f.done);
        flights_.pop_front();
        ++flights_released_;
        probe = false;
    }
}

/**
 * The head flight's acks can be read without waiting for them: some
 * are buffered, or the replica needs a re-dial (await_head does both).
 */
bool
Server::head_ready()
{
    if (!replica_.connected() || replica_.reply_buffered())
        return true;
    return !replica_.read_available() || replica_.reply_buffered();
}

/**
 * Wait for the head flight's durable acks.  A dead replica blocks them
 * (the availability contract): we reconnect with backoff and resend
 * every flight still owed an ack, which is safe at-least-once -- a set
 * rewrites the same value, a re-delete acks NOT_FOUND.  The retry loop
 * is reserved for transport faults (disconnect/send/timeout); a replica
 * that stays up and *answers* SERVER_ERROR or garbage is divergence --
 * resending can never succeed, and acking the client without the
 * replica copy would break the durable-prefix contract, so that panics
 * instead of wedging the server.  Returns false only when the server is
 * stopping and the replica is unreachable.
 */
bool
Server::await_head()
{
    static std::atomic<uint64_t>& rep_resends =
        *MetricsRegistry::instance().counter("cluster.replica.resends");
    static std::atomic<uint64_t>& rep_reconnects =
        *MetricsRegistry::instance().counter("cluster.replica.reconnects");

    const size_t need = flights_.front().nmut;
    for (;;) {
        if (!replica_.connected()) {
            if (!replica_.connect_retry(cfg_.replica_host,
                                        cfg_.replica_port,
                                        /*attempts=*/25,
                                        /*backoff_ms=*/20)) {
                if (loop_.stopping())
                    return false;
                continue; // keep riding out the replica restart
            }
            rep_reconnects.fetch_add(1, std::memory_order_relaxed);
            // Acks (and a dead replica's EOF) wake the loop.  With no
            // flight left to ack, readable bytes can only be an EOF or
            // garbage: drop the link and re-dial with the next flight.
            loop_.add(replica_.fd(), EPOLLIN, [this](uint32_t) {
                if (flights_.empty())
                    replica_drop();
                else
                    release_flights(/*probe=*/false);
            });
            for (const Flight& f : flights_)
                queue_mutations(f);
        }
        // Flights still queued for the round's end go out before we
        // wait on them; a failed send shows up as missing acks.
        if (replica_.pipeline_pending() != 0)
            replica_.pipeline_send();
        if (replica_.pipeline_collect(need) == need)
            return true; // every mutation durable on the replica
        const ClientError err = replica_.last_error();
        if (err == ClientError::kServerError
            || err == ClientError::kProtocol) {
            panic("replica %s:%u refused a mutation (%s): "
                  "primary/replica divergence, cannot certify the "
                  "durable-prefix ack",
                  cfg_.replica_host.c_str(), cfg_.replica_port,
                  client_error_name(err));
        }
        replica_drop(); // node down / torn reply: resend all
        rep_resends.fetch_add(1, std::memory_order_relaxed);
        if (loop_.stopping())
            return false;
    }
}

void
Server::replica_drop()
{
    if (replica_.connected())
        loop_.del(replica_.fd());
    replica_.close();
}

} // namespace ido::net
