/**
 * @file
 * A minimal single-threaded epoll event loop for ido-serve, the cluster
 * router and the admin endpoint.
 *
 * One loop thread owns every socket: accepts, reads, protocol parsing,
 * FASE execution (server.h) and reply writes all happen here.  The
 * only cross-thread entry is stop(), which writes an eventfd
 * registered like any other fd.
 *
 * Deliberately not a general-purpose reactor: level-triggered epoll,
 * no timers (a user that needs one registers a timerfd), no
 * cross-thread fd registration.  Callbacks may add, modify or remove
 * fds (including their own) from inside the callback; removal is
 * handled by looking handlers up fresh per event and copying the
 * callback before invoking it.  Work that must wait until no callback
 * is on the stack (freeing the state a callback is still using, closing
 * a batch, coalescing writes) goes through defer().
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

namespace ido::net {

class EventLoop
{
  public:
    /** Called with the ready EPOLLIN/EPOLLOUT/EPOLLERR/... mask. */
    using Callback = std::function<void(uint32_t events)>;

    EventLoop();
    ~EventLoop();

    EventLoop(const EventLoop&) = delete;
    EventLoop& operator=(const EventLoop&) = delete;

    /**
     * Register fd for `events` (EPOLLIN etc.).  add/mod/del: loop
     * thread only, or any thread while the loop is not running.
     */
    void add(int fd, uint32_t events, Callback cb);

    /** Change the event mask of a registered fd. */
    void mod(int fd, uint32_t events);

    /** Deregister fd.  Does not close it. */
    void del(int fd);

    /**
     * Run fn on the loop thread right after the callback in progress
     * returns, before the next event is dispatched (FIFO).  Loop
     * thread only.
     */
    void defer(std::function<void()> fn);

    /**
     * Run fn after each round of ready events (one epoll_wait's worth)
     * was dispatched, before the loop sleeps again.  Lets a user batch
     * work across the round's callbacks (server.cpp writes every
     * replica flight of the round at once).  Loop thread only.
     */
    void set_round_end(std::function<void()> fn);

    /** Run until stop(); dispatches events and deferred work. */
    void run();

    /**
     * Ask run() to return.  Callable from any thread / signal, also
     * before run() starts: run() then returns at once.
     */
    void stop();

    /** Has stop() been called?  Lets a callback that blocks (the
     *  replica reconnect in server.cpp) give up on shutdown. */
    bool stopping() const
    {
        return stopped_.load(std::memory_order_relaxed);
    }

  private:
    void run_deferred();

    int epfd_ = -1;
    int wakefd_ = -1; ///< written by stop(), so epoll_wait returns
    std::atomic<bool> stopped_{false};
    std::unordered_map<int, Callback> handlers_;
    std::vector<std::function<void()>> deferred_;
    std::function<void()> round_end_;
};

} // namespace ido::net
