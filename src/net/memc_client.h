/**
 * @file
 * Blocking memcached-text-protocol client used by the crash harness,
 * the socket transport of the workload generator, and bench_server.
 *
 * Two modes:
 *  - simple RPC: set()/get()/del() send one request and wait for its
 *    reply;
 *  - pipelined: pipeline_set() queues requests locally, and
 *    pipeline_flush() writes them all then counts acknowledgements.
 *    Replies arrive strictly in request order (server.h), so the ack
 *    count identifies exactly *which prefix* of the pipeline the
 *    server made durable -- the property the kill-9 test verifies.
 *
 * connect_retry() implements the bounded retry/backoff a client needs
 * to ride through a server crash + recovery window.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace ido::net {

/**
 * Why the last MemcClient call returned false.  Failover logic (the
 * cluster router, ClusterClient, the crash harnesses) needs to
 * distinguish "the node died" (kDisconnected / kSendFailed: reconnect
 * and retry elsewhere) from "the node answered but said no"
 * (kProtocol / kServerError: retrying is useless) -- a plain false
 * conflates the two.
 */
enum class ClientError : uint8_t
{
    kNone = 0,       ///< last call succeeded (or benign miss/NOT_FOUND)
    kNotConnected,   ///< no socket: connect() never succeeded or close()d
    kConnectFailed,  ///< connect refused / bad address
    kSendFailed,     ///< EPIPE/ECONNRESET mid-send: peer gone
    kDisconnected,   ///< EOF mid-reply: peer died with requests in flight
    kTimeout,        ///< no reply within the read timeout
    kProtocol,       ///< peer answered something the protocol forbids
    kServerError,    ///< explicit SERVER_ERROR reply line from the peer
};

const char* client_error_name(ClientError e);

class MemcClient
{
  public:
    MemcClient() = default;
    ~MemcClient();

    MemcClient(const MemcClient&) = delete;
    MemcClient& operator=(const MemcClient&) = delete;

    /** One connection attempt.  False on refusal/timeout. */
    bool connect(const std::string& host, uint16_t port);

    /**
     * Up to `attempts` connection attempts, sleeping backoff_ms
     * (doubling, capped at 10x) between tries.  Rides through a
     * server restart.  False once the budget is exhausted.
     */
    bool connect_retry(const std::string& host, uint16_t port,
                       int attempts, int backoff_ms);

    bool connected() const { return fd_ >= 0; }
    void close();

    /**
     * Why the most recent operation failed; kNone after a success.
     * A get miss and a delete of an absent key return false but leave
     * kNone -- they are answers, not failures.
     */
    ClientError last_error() const { return last_error_; }

    // --- simple RPC (one round trip each) -----------------------------

    /** True iff the server acknowledged STORED. */
    bool set(const std::string& key, uint64_t value);

    /** True on hit; fills *value. */
    bool get(const std::string& key, uint64_t* value);

    /** True iff DELETED (false on NOT_FOUND or error). */
    bool del(const std::string& key);

    /** Server version line, empty on failure (liveness probe). */
    std::string version();

    /**
     * `stats`: parse the multi-line "STAT <key> <value>" reply into
     * *out (cleared first) until the terminating END.
     * @return true iff END arrived (out may legitimately be empty).
     */
    bool stats(std::map<std::string, std::string>* out);

    // --- pipelining ---------------------------------------------------

    /** Queue a set locally; nothing is sent yet. */
    void pipeline_set(const std::string& key, uint64_t value);

    /** Queue a get locally; its reply counts as one ack on flush. */
    void pipeline_get(const std::string& key);

    /** Queue a delete; DELETED and NOT_FOUND both ack (idempotent
     *  replay of a replicated batch must not stall on a re-delete). */
    void pipeline_del(const std::string& key);

    /**
     * Send every queued request, then read replies until all are
     * acknowledged or the connection dies (server killed mid-batch).
     * A set's ack is its STORED line; a get's ack is its terminating
     * END (hit or miss).
     * @param max_acks stop reading after this many acks, leaving the
     *        rest outstanding -- the kill -9 harness uses this to
     *        SIGKILL the server at a chosen point mid-pipeline.
     * @return the number of acks received -- the durable prefix
     *         length of this pipeline.
     */
    size_t pipeline_flush(size_t max_acks = SIZE_MAX);

    size_t pipeline_pending() const { return pipeline_kinds_.size(); }

    // --- split flush: keep several flights on the wire ------------------

    /**
     * Send every queued request without waiting; they join the
     * outstanding requests that pipeline_collect() acks, oldest first.
     * @return false (kNotConnected / kSendFailed) unless every byte
     *         went out; the peer may still ack a prefix.
     */
    bool pipeline_send();

    /**
     * Read acks for up to n of the oldest outstanding requests.
     * @return the acks read; fewer than n means last_error() says why.
     */
    size_t pipeline_collect(size_t n);

    size_t pipeline_outstanding() const { return outstanding_.size(); }

    /** The socket, for polling it next to other fds (-1 if closed). */
    int fd() const { return fd_; }

    /** Reply bytes already read off the socket but not yet parsed
     *  (polling fd() cannot see them). */
    bool reply_buffered() const { return !inbuf_.empty(); }

    /**
     * Buffer whatever reply bytes the socket holds now, without
     * blocking, so pipeline_collect() parses them with no further
     * syscall.  False once the peer closed or reset (kDisconnected).
     */
    bool read_available();

  private:
    bool send_all(const char* data, size_t n);
    /** Read until `out` contains a full line; false on EOF/timeout. */
    bool read_line(std::string* out);
    bool fail(ClientError e);

    int fd_ = -1;
    std::string inbuf_;    ///< bytes read past the last parsed line
    std::string pipeline_; ///< queued wire bytes
    /// Queued ops (0=set, 1=get, 2=delete).
    std::vector<uint8_t> pipeline_kinds_;
    /// Sent ops still owed a reply, oldest first (same codes).
    std::deque<uint8_t> outstanding_;
    ClientError last_error_ = ClientError::kNone;
};

} // namespace ido::net
