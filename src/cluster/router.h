/**
 * @file
 * ido-router: a standalone memcached-protocol proxy that spreads keys
 * across N ido-serve nodes through the shared consistent-hash ring.
 *
 * Clients speak plain memcached to the router and never learn the
 * topology.  The client side is the server's: the same epoll EventLoop,
 * connection layer (net/conn_table.h) and memcached front end
 * (net::memc_serve), so replies release strictly in request order even
 * when a pipeline fans out across nodes.
 *
 * Pipelining is preserved per upstream: requests routed to one node
 * are appended to that node's connection back-to-back without waiting
 * for replies, so a K-deep client pipeline still reaches the node as
 * one K-deep batch for the group-commit batcher to amortize.  Each
 * upstream connection is FIFO (server.h guarantees reply order), so a
 * deque of pending (conn, seq, op) descriptors is enough to match
 * replies back to the clients that asked.
 *
 * Failure handling -- the recovery-holdback protocol:
 *  - When an upstream dies, its *in-flight* requests get SERVER_ERROR
 *    replies (the router cannot know whether the node executed them:
 *    re-sending could double-apply an un-acked mutation under a
 *    crash-recovery race, so the client must decide).
 *  - *New* requests for the dead slice are held in a bounded queue
 *    while the router reconnects with exponential backoff; once the
 *    supervisor restarts the node (iDO recovery included), held
 *    requests replay in arrival order and the clients never saw an
 *    error -- a node crash shows up as a latency blip.
 *  - Requests held past `hold_deadline_ms`, or arriving when the hold
 *    queue is full, fail fast with SERVER_ERROR so a dead-forever node
 *    degrades only its ring slice instead of wedging every client.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_client.h" // NodeAddr
#include "cluster/hash_ring.h"
#include "net/conn_table.h"
#include "net/event_loop.h"
#include "net/memc_protocol.h"

namespace ido::cluster {

struct RouterConfig
{
    std::vector<NodeAddr> nodes;
    uint16_t port = 0;     ///< listen port (0 = kernel-assigned)
    uint64_t ring_seed = 0; ///< 0 = derive from IDO_SEED
    uint32_t vnodes = ConsistentHashRing::kDefaultVnodes;
    /// Max requests held per down upstream before new ones fail fast.
    size_t hold_max = 4096;
    /// A held request older than this fails fast with SERVER_ERROR.
    uint32_t hold_deadline_ms = 10000;
    /// Reconnect backoff: initial delay, doubling up to the cap.
    uint32_t backoff_min_ms = 20;
    uint32_t backoff_max_ms = 500;
    /// An async connect still unresolved after this is treated as down.
    uint32_t connect_timeout_ms = 1000;
};

class Router
{
  public:
    explicit Router(const RouterConfig& cfg);
    ~Router();

    Router(const Router&) = delete;
    Router& operator=(const Router&) = delete;

    uint16_t port() const { return conns_.port(); }

    /** Serve until stop().  Owns the calling thread. */
    void run();

    /** Ask run() to return (any thread / signal handler). */
    void stop();

  private:
    /** One request owed a reply by an upstream (FIFO per upstream). */
    struct PendingOp
    {
        uint64_t conn_id = 0;
        uint64_t seq = 0;
        net::MemcOp op = net::MemcOp::kError;
    };

    /** A request parked while its upstream is down. */
    struct HeldOp
    {
        uint64_t conn_id = 0;
        uint64_t seq = 0;
        net::MemcOp op = net::MemcOp::kError;
        std::string wire;        ///< re-serialized request bytes
        uint64_t deadline_ns = 0;
    };

    enum class UpState : uint8_t { kDown, kConnecting, kUp };

    struct Upstream
    {
        NodeAddr addr;
        int fd = -1;
        UpState state = UpState::kDown;
        std::string out;   ///< bytes not yet written to the node
        std::string in;    ///< reply bytes not yet matched
        std::deque<PendingOp> pending; ///< awaiting replies, FIFO
        std::deque<HeldOp> hold;       ///< parked while down
        uint32_t backoff_ms = 0;
        uint64_t next_attempt_ns = 0;
        bool want_write = false;
    };

    // client side
    void on_input(net::Conn& c);
    void dispatch(net::Conn& c, uint64_t seq, net::MemcRequest&& rq);

    // upstream side
    void start_connect(uint32_t node);
    void on_upstream_event(uint32_t node, uint32_t events);
    void upstream_established(uint32_t node);
    void upstream_down(uint32_t node);
    void flush_upstream(Upstream& u);
    void read_upstream(uint32_t node);
    /** Try to peel one complete reply for `op` off the front of buf. */
    static bool extract_reply(std::string& buf, net::MemcOp op,
                              std::string* reply);
    void replay_held(uint32_t node);

    // timer sweep: reconnect attempts + hold-deadline expiry
    void on_timer();

    RouterConfig cfg_;
    ConsistentHashRing ring_;
    net::EventLoop loop_;
    net::ConnTable conns_;
    int timer_fd_ = -1;
    std::vector<Upstream> upstreams_;

    // cluster.router.* instruments (stats / admin scrape)
    std::atomic<uint64_t>* forwarded_ = nullptr;
    std::atomic<uint64_t>* held_ = nullptr;
    std::atomic<uint64_t>* replayed_ = nullptr;
    std::atomic<uint64_t>* expired_ = nullptr;
    std::atomic<uint64_t>* rejected_ = nullptr;
    std::atomic<uint64_t>* upstream_errors_ = nullptr;
    std::atomic<uint64_t>* reconnects_ = nullptr;
};

} // namespace ido::cluster
