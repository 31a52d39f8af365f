#include "net/conn_table.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/panic.h"
#include "stats/metrics.h"
#include "trace/trace.h"

namespace ido::net {

namespace {

/// Bytes read from one connection per event, so one fast sender cannot
/// starve the others (level-triggered epoll comes back for the rest).
constexpr size_t kReadBurst = 64 * 1024;

} // namespace

ConnTable::ConnTable(EventLoop& loop, uint16_t port,
                     std::string metric_prefix, InputFn on_input)
    : loop_(loop), on_input_(std::move(on_input)),
      metric_prefix_(std::move(metric_prefix))
{
    listen_fd_ =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    IDO_ASSERT(listen_fd_ >= 0, "socket() failed");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    int rc = ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof addr);
    IDO_ASSERT(rc == 0, "bind() failed (port in use?)");
    rc = ::listen(listen_fd_, 128);
    IDO_ASSERT(rc == 0, "listen() failed");
    socklen_t alen = sizeof addr;
    rc = ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                       &alen);
    IDO_ASSERT(rc == 0, "getsockname() failed");
    port_ = ntohs(addr.sin_port);
    loop_.add(listen_fd_, EPOLLIN, [this](uint32_t) { on_accept(); });

    if (!metric_prefix_.empty()) {
        auto& reg = MetricsRegistry::instance();
        reg.register_gauge(metric_prefix_ + ".conns", [this] {
            return open_.load(std::memory_order_relaxed);
        });
        reg.register_gauge(metric_prefix_ + ".pending_out_bytes", [this] {
            return pending_out_.load(std::memory_order_relaxed);
        });
        sends_ = reg.counter(metric_prefix_ + ".sends");
    }
}

ConnTable::~ConnTable()
{
    for (auto& [id, c] : conns_) {
        if (!c->closed()) {
            loop_.del(c->fd);
            ::close(c->fd);
        }
    }
    loop_.del(listen_fd_);
    ::close(listen_fd_);
    if (!metric_prefix_.empty()) {
        auto& reg = MetricsRegistry::instance();
        reg.unregister_gauge(metric_prefix_ + ".conns");
        reg.unregister_gauge(metric_prefix_ + ".pending_out_bytes");
    }
}

void
ConnTable::on_accept()
{
    for (;;) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN and everything else: try again next event
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        auto c = std::make_unique<Conn>();
        c->id = next_id_++;
        c->fd = fd;
        c->interest = EPOLLIN;
        const uint64_t id = c->id;
        conns_.emplace(id, std::move(c));
        open_.fetch_add(1, std::memory_order_relaxed);
        trace::emit(trace::EventKind::kConnOpen, id);
        loop_.add(fd, EPOLLIN,
                  [this, id](uint32_t ev) { on_event(id, ev); });
    }
}

void
ConnTable::on_event(uint64_t id, uint32_t events)
{
    auto it = conns_.find(id);
    if (it == conns_.end() || it->second->closed())
        return;
    Conn& c = *it->second;
    if (events & (EPOLLHUP | EPOLLERR)) {
        close(c);
        return;
    }
    if (events & EPOLLIN)
        read(c);
    if (!c.closed())
        mark_dirty(c);
}

void
ConnTable::read(Conn& c)
{
    const size_t before = c.in.size();
    const IoStatus st = read_some(c.fd, &c.in, kReadBurst);
    if (st == IoStatus::kError) {
        close(c);
        return;
    }
    if (c.in.size() > before && !c.closing)
        on_input_(c); // may close c
    if (st == IoStatus::kEof)
        c.closing = true; // peer closed its write side
}

void
ConnTable::reply(Conn& c, uint64_t seq, std::string data)
{
    if (c.closed())
        return;
    if (seq != c.next_release) {
        c.reorder.emplace(seq, std::move(data));
        return;
    }
    c.out += data;
    ++c.next_release;
    for (auto it = c.reorder.begin();
         it != c.reorder.end() && it->first == c.next_release;
         it = c.reorder.erase(it)) {
        c.out += it->second;
        ++c.next_release;
    }
    mark_dirty(c);
}

void
ConnTable::reply(uint64_t conn_id, uint64_t seq, std::string data)
{
    auto it = conns_.find(conn_id);
    if (it != conns_.end())
        reply(*it->second, seq, std::move(data));
}

void
ConnTable::mark_dirty(Conn& c)
{
    if (c.dirty)
        return;
    c.dirty = true;
    loop_.defer([this, id = c.id] {
        auto it = conns_.find(id);
        if (it == conns_.end())
            return;
        it->second->dirty = false;
        if (!it->second->closed())
            flush(*it->second);
    });
}

void
ConnTable::flush(Conn& c)
{
    if (!write_some(c.fd, &c.out, sends_)) {
        close(c);
        return;
    }
    account(c);
    if (c.closing && c.out.empty() && c.next_release == c.next_seq) {
        close(c);
        return;
    }
    // Stop reading while closing or while the peer is not draining its
    // replies; EPOLLERR/EPOLLHUP are reported whatever the mask.
    uint32_t want = c.out.empty() ? 0u : uint32_t{EPOLLOUT};
    if (!c.closing && c.out.size() < kOutHighWater)
        want |= EPOLLIN;
    if (want != c.interest) {
        c.interest = want;
        loop_.mod(c.fd, want);
    }
}

void
ConnTable::account(Conn& c)
{
    const size_t now = c.out.size();
    if (now > c.out_accounted)
        pending_out_.fetch_add(now - c.out_accounted,
                               std::memory_order_relaxed);
    else if (now < c.out_accounted)
        pending_out_.fetch_sub(c.out_accounted - now,
                               std::memory_order_relaxed);
    c.out_accounted = now;
}

void
ConnTable::close(Conn& c)
{
    if (c.closed())
        return;
    trace::emit(trace::EventKind::kConnClose, c.id, c.next_release);
    loop_.del(c.fd);
    ::close(c.fd);
    c.fd = -1;
    c.out.clear();
    account(c);
    open_.fetch_sub(1, std::memory_order_relaxed);
    const uint64_t id = c.id;
    loop_.defer([this, id] { conns_.erase(id); });
}

IoStatus
read_some(int fd, std::string* in, size_t max)
{
    char buf[16 * 1024];
    for (size_t got = 0; got < max;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n > 0) {
            in->append(buf, static_cast<size_t>(n));
            got += static_cast<size_t>(n);
            continue;
        }
        if (n == 0)
            return IoStatus::kEof;
        if (errno == EINTR)
            continue;
        return errno == EAGAIN || errno == EWOULDBLOCK ? IoStatus::kAgain
                                                       : IoStatus::kError;
    }
    return IoStatus::kAgain;
}

bool
write_some(int fd, std::string* out, std::atomic<uint64_t>* sends)
{
    size_t done = 0;
    while (done < out->size()) {
        if (sends != nullptr)
            sends->fetch_add(1, std::memory_order_relaxed);
        const ssize_t n = ::send(fd, out->data() + done, out->size() - done,
                                 MSG_NOSIGNAL);
        if (n > 0) {
            done += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        return false;
    }
    out->erase(0, done);
    return true;
}

} // namespace ido::net
