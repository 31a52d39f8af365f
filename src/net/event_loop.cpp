#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>

#include "common/panic.h"

namespace ido::net {

EventLoop::EventLoop()
{
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    IDO_ASSERT(epfd_ >= 0, "epoll_create1 failed");
    wakefd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    IDO_ASSERT(wakefd_ >= 0, "eventfd failed");
    struct epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.fd = wakefd_;
    int rc = ::epoll_ctl(epfd_, EPOLL_CTL_ADD, wakefd_, &ev);
    IDO_ASSERT(rc == 0, "epoll_ctl(wakefd) failed");
}

EventLoop::~EventLoop()
{
    if (wakefd_ >= 0)
        ::close(wakefd_);
    if (epfd_ >= 0)
        ::close(epfd_);
}

void
EventLoop::add(int fd, uint32_t events, Callback cb)
{
    struct epoll_event ev = {};
    ev.events = events;
    ev.data.fd = fd;
    int rc = ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
    IDO_ASSERT(rc == 0, "epoll_ctl(ADD) failed");
    handlers_[fd] = std::move(cb);
}

void
EventLoop::mod(int fd, uint32_t events)
{
    struct epoll_event ev = {};
    ev.events = events;
    ev.data.fd = fd;
    int rc = ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
    IDO_ASSERT(rc == 0, "epoll_ctl(MOD) failed");
}

void
EventLoop::del(int fd)
{
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    handlers_.erase(fd);
}

void
EventLoop::defer(std::function<void()> fn)
{
    deferred_.push_back(std::move(fn));
}

void
EventLoop::set_round_end(std::function<void()> fn)
{
    round_end_ = std::move(fn);
}

void
EventLoop::run_deferred()
{
    // A deferred function may defer more work; it runs in this pass.
    for (size_t i = 0; i < deferred_.size(); ++i) {
        std::function<void()> fn = std::move(deferred_[i]);
        fn();
    }
    deferred_.clear();
}

void
EventLoop::run()
{
    constexpr int kMaxEvents = 64;
    struct epoll_event evs[kMaxEvents];
    while (!stopped_.load(std::memory_order_relaxed)) {
        int n = ::epoll_wait(epfd_, evs, kMaxEvents, -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (int i = 0; i < n && !stopped_.load(std::memory_order_relaxed);
             ++i) {
            const int fd = evs[i].data.fd;
            if (fd == wakefd_)
                continue; // stop(): the loop condition sees stopped_
            // A previous callback this round may have del()ed this fd;
            // copy the callback so it can safely del() itself too.
            auto it = handlers_.find(fd);
            if (it == handlers_.end())
                continue;
            Callback cb = it->second;
            cb(evs[i].events);
            run_deferred();
        }
        if (round_end_ && !stopped_.load(std::memory_order_relaxed)) {
            round_end_();
            run_deferred();
        }
    }
}

void
EventLoop::stop()
{
    stopped_.store(true, std::memory_order_relaxed);
    // write(2) on an eventfd is async-signal-safe, so stop() can be
    // driven from a SIGTERM handler in ido_serve.
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wakefd_, &one, sizeof one);
}

} // namespace ido::net
