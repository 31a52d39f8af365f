/**
 * @file
 * The connection layer shared by ido-serve, the cluster router and the
 * admin endpoint: one loopback listener on an EventLoop, and the table
 * of the connections it accepted.
 *
 * Each connection has an input buffer the protocol consumes, a reorder
 * buffer and an output buffer.  Requests take sequence numbers
 * (begin()); their replies may complete in any order and on any path
 * (a closing batch of FASEs, a replica ack, an upstream node, the loop
 * itself) and go on the wire strictly in sequence order -- the
 * memcached text protocol has no request ids.
 *
 * Writes: reply() only appends what it released to the output buffer
 * and marks the connection dirty.  A dirty connection is flushed once,
 * right after the loop callback in progress returns (EventLoop::defer),
 * so every reply one callback produced for it leaves in one send().
 * The <prefix>.sends counter counts those send() calls.
 *
 * Lifetime: close() takes the socket out of the loop at once, but the
 * Conn is erased only after the callback in progress returns
 * (EventLoop::defer).  A handler may therefore close a connection deep
 * in a call chain that still holds its Conn&; it only checks closed()
 * before using it again.  Ids are never reused, and a reply for an id
 * that is gone is dropped.
 *
 * Back-pressure: while a connection holds kOutHighWater unwritten reply
 * bytes the table stops reading it, so a peer that pipelines without
 * reading cannot grow the process without bound.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "net/event_loop.h"

namespace ido::net {

/** One accepted connection. */
struct Conn
{
    uint64_t id = 0;      ///< unique for the table's lifetime
    int fd = -1;          ///< -1 once closed (the shell awaits its erase)
    std::string in;       ///< bytes read, not yet consumed by the protocol
    bool closing = false; ///< stop reading; close once all replies are out

    bool closed() const { return fd < 0; }

    // Owned by ConnTable.
    std::string out;                         ///< released, not yet written
    std::map<uint64_t, std::string> reorder; ///< completed out of order
    uint64_t next_seq = 0;                   ///< next sequence to assign
    uint64_t next_release = 0;               ///< next sequence to release
    size_t out_accounted = 0;                ///< out bytes in the gauge
    uint32_t interest = 0;                   ///< registered epoll mask
    bool dirty = false;                      ///< a flush is deferred
};

class ConnTable
{
  public:
    /**
     * Called on the loop thread after new bytes landed in c.in, never
     * once c.closing is set.
     */
    using InputFn = std::function<void(Conn& c)>;

    static constexpr size_t kOutHighWater = 1u << 20;

    /**
     * Bind + listen on loopback:`port` (0 = kernel-assigned) and
     * register the listener with `loop`.  A nonempty `metric_prefix`
     * publishes the <prefix>.conns and <prefix>.pending_out_bytes
     * gauges and the <prefix>.sends counter.
     */
    ConnTable(EventLoop& loop, uint16_t port, std::string metric_prefix,
              InputFn on_input);
    ~ConnTable();

    ConnTable(const ConnTable&) = delete;
    ConnTable& operator=(const ConnTable&) = delete;

    uint16_t port() const { return port_; }

    /** Sequence number of the next request read from c. */
    uint64_t begin(Conn& c) { return c.next_seq++; }

    /** Complete request `seq` of c; dropped if c is closed. */
    void reply(Conn& c, uint64_t seq, std::string data);

    /** Same, by id, for replies computed away from the connection. */
    void reply(uint64_t conn_id, uint64_t seq, std::string data);

    /** Close the socket now; replies still owed to c are dropped. */
    void close(Conn& c);

  private:
    void on_accept();
    void on_event(uint64_t id, uint32_t events);
    void read(Conn& c);
    /** Flush c once the callback in progress returns. */
    void mark_dirty(Conn& c);
    void flush(Conn& c);
    void account(Conn& c);

    EventLoop& loop_;
    InputFn on_input_;
    std::string metric_prefix_;
    int listen_fd_ = -1;
    uint16_t port_ = 0;
    uint64_t next_id_ = 1;
    std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;

    // Gauges, read from the scrape thread.
    std::atomic<uint64_t> open_{0};
    std::atomic<uint64_t> pending_out_{0};
    std::atomic<uint64_t>* sends_ = nullptr; ///< <prefix>.sends; may be null
};

/** How a socket drain ended. */
enum class IoStatus : uint8_t { kAgain, kEof, kError };

/** Append up to about `max` readable bytes of fd to *in. */
IoStatus read_some(int fd, std::string* in, size_t max);

/**
 * Write as much of *out as the socket takes and erase it from *out.
 * False when the peer is gone.  Never raises SIGPIPE.  Counts each
 * send() call in *sends, when given, before making it (so a peer that
 * saw the bytes also sees the count).
 */
bool write_some(int fd, std::string* out,
                std::atomic<uint64_t>* sends = nullptr);

} // namespace ido::net
