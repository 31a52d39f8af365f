/**
 * @file
 * Incremental parser and reply formatter for the memcached text
 * protocol (the wire format of the paper's Sec. V-A workload).
 *
 * Scope: the four commands a memaslap-style load (and a human with
 * `nc`) needs -- `set`, `get`, `delete`, `quit` -- plus `version`.
 * Values are stored as the 8-byte integers memcached_mini holds, so
 * the data block of a `set` must be the decimal text of a u64 and
 * `get` replies render the same way.  Keys are arbitrary text up to
 * 250 bytes (memcached's limit) and are mapped onto memcached_mini's
 * 16-byte key words by hashing.
 *
 * memc_serve() is the front end ido-serve and the cluster router share
 * on top of the connection layer (conn_table.h).  Its parser is
 * stateless: it pops requests off the front of whatever bytes a
 * connection has buffered, however the socket chunked them (a request
 * split across a hundred reads, or a hundred pipelined requests in one
 * read).  It answers version, stats, quit and protocol errors itself
 * and hands get/set/delete to the caller, which owns the storage (the
 * server's FASE path or an upstream node).  Errors that desynchronise framing
 * (oversized line, bad byte count) are answered and then drop the
 * connection, which is what memcached itself does.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

namespace ido::net {

enum class MemcOp : uint8_t
{
    kGet = 0,
    kSet,
    kDelete,
    kVersion,
    kQuit,
    kStats, ///< admin: metrics snapshot as STAT lines (loop thread)
    kError, ///< malformed input; `message` holds the reply line
};

struct MemcRequest
{
    MemcOp op = MemcOp::kError;
    std::string key;
    uint64_t value = 0;    ///< kSet: parsed data block
    uint32_t flags = 0;    ///< kSet: client flags, echoed by get
    std::string message;   ///< kError: the full reply line (CRLF included)
};

// --- reply formatting (exact memcached framing) ------------------------

std::string memc_reply_stored();
std::string memc_reply_value(const std::string& key, uint32_t flags,
                             uint64_t value); ///< VALUE..data..END
std::string memc_reply_miss();               ///< END (get miss)
std::string memc_reply_deleted(bool found);  ///< DELETED / NOT_FOUND
std::string memc_reply_version();
std::string memc_reply_error();              ///< unknown command

/**
 * `stats`: the metrics registry as STAT lines, then END.  Latency
 * recorders expand into .count/.mean_ns/.p50_ns/... keys so a text
 * client sees percentiles without JSON parsing.
 */
std::string memc_reply_stats();

/**
 * Re-serialize a parsed data request (set/get/delete) to its exact
 * wire form.  The cluster router and the replication forwarder use it
 * to relay a request to an upstream node; other ops return "".
 */
std::string memc_wire_request(const MemcRequest& rq);

/**
 * Map a text key onto memcached_mini's (key_lo, key_hi) words.
 * Deterministic across processes (no seed), so a client can address
 * the same item before and after a server restart.
 */
std::pair<uint64_t, uint64_t> memc_key_words(const std::string& key);

class ConnTable;
struct Conn;

/** Takes a get/set/delete read from c; its reply must carry `seq`. */
using MemcDispatch =
    std::function<void(Conn& c, uint64_t seq, MemcRequest&& rq)>;

/**
 * Serve the requests buffered in c.in: answer version, stats, quit and
 * protocol errors in place and hand data requests to `dispatch`.
 * Stops reading at quit or a fatal error; the table closes c once
 * every earlier reply is written.
 * @return the number of requests answered in place.
 */
uint64_t memc_serve(ConnTable& table, Conn& c, const MemcDispatch& dispatch);

} // namespace ido::net
