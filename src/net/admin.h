/**
 * @file
 * Admin endpoint: a loopback HTTP listener riding the epoll EventLoop
 * of ido-serve or the cluster router (ido-stat), on the shared
 * connection layer (conn_table.h).
 *
 * Scraping must never take a shard lock, so the endpoint lives
 * entirely on the loop thread: accept, a bounded read of the request
 * head, one route handler call (which only snapshots the metrics
 * registry -- no FASE locks), and a single buffered write.  Handlers
 * produce the whole body up front; there is no streaming, keep-alive,
 * or chunking -- every response closes the connection, which is all a
 * Prometheus scraper or `curl` needs.  /metrics (Prometheus text),
 * /stats.json and /healthz are always routed.
 *
 * Protocol floor on purpose: "GET <path> HTTP/1.x" requests only,
 * 404 for unknown paths, 405 for anything that is not a GET, and a
 * 16 KiB cap on the request head (a scraper's GET fits in one MTU).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "net/conn_table.h"
#include "net/event_loop.h"

namespace ido::net {

class AdminEndpoint
{
  public:
    /** Returns the response body for one GET of its route. */
    using Handler = std::function<std::string()>;

    /** Bind + listen on loopback:`port` (0 = kernel-assigned). */
    explicit AdminEndpoint(EventLoop& loop, uint16_t port = 0);

    AdminEndpoint(const AdminEndpoint&) = delete;
    AdminEndpoint& operator=(const AdminEndpoint&) = delete;

    uint16_t port() const { return conns_.port(); }

    /** Register a GET route ("/metrics"). */
    void route(const std::string& path, const std::string& content_type,
               Handler handler);

  private:
    struct Route
    {
        std::string content_type;
        Handler handler;
    };

    void on_input(Conn& c);
    std::string respond(const std::string& request_line);

    std::map<std::string, Route> routes_;
    ConnTable conns_;
};

/**
 * Blocking convenience client (tools / tests): GET `path` from
 * 127.0.0.1:`port`, store the response *body* in `*body`.
 * @return true iff the request round-tripped with a 200.
 */
bool admin_http_get(uint16_t port, const std::string& path,
                    std::string* body, int timeout_ms = 5000);

} // namespace ido::net
