#include "net/memc_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>

namespace ido::net {

namespace {

/// Per-read timeout: generous for CI, small enough that a test which
/// kills the server mid-reply fails fast instead of hanging.
constexpr int kReadTimeoutMs = 5000;

std::string
format_set(const std::string& key, uint64_t value)
{
    char data[32];
    int dlen = std::snprintf(data, sizeof data, "%" PRIu64, value);
    char head[320];
    int hlen = std::snprintf(head, sizeof head, "set %s 0 0 %d\r\n",
                             key.c_str(), dlen);
    std::string out(head, static_cast<size_t>(hlen));
    out.append(data, static_cast<size_t>(dlen));
    out += "\r\n";
    return out;
}

bool
is_server_error_line(const std::string& line)
{
    return line.rfind("SERVER_ERROR", 0) == 0;
}

} // namespace

const char*
client_error_name(ClientError e)
{
    switch (e) {
      case ClientError::kNone:
        return "none";
      case ClientError::kNotConnected:
        return "not_connected";
      case ClientError::kConnectFailed:
        return "connect_failed";
      case ClientError::kSendFailed:
        return "send_failed";
      case ClientError::kDisconnected:
        return "disconnected";
      case ClientError::kTimeout:
        return "timeout";
      case ClientError::kProtocol:
        return "protocol";
      case ClientError::kServerError:
        return "server_error";
    }
    return "?";
}

bool
MemcClient::fail(ClientError e)
{
    last_error_ = e;
    return false;
}

MemcClient::~MemcClient()
{
    close();
}

bool
MemcClient::connect(const std::string& host, uint16_t port)
{
    close();
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return fail(ClientError::kConnectFailed);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return fail(ClientError::kConnectFailed);
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return fail(ClientError::kConnectFailed);
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fd_ = fd;
    inbuf_.clear();
    last_error_ = ClientError::kNone;
    return true;
}

bool
MemcClient::connect_retry(const std::string& host, uint16_t port,
                          int attempts, int backoff_ms)
{
    int delay = backoff_ms;
    for (int i = 0; i < attempts; ++i) {
        if (connect(host, port))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
        delay = std::min(delay * 2, backoff_ms * 10);
    }
    return false; // last_error_ left from the final connect attempt
}

void
MemcClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    inbuf_.clear();
    pipeline_.clear();
    pipeline_kinds_.clear();
    outstanding_.clear();
}

bool
MemcClient::send_all(const char* data, size_t n)
{
    size_t off = 0;
    while (off < n) {
        ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
        if (w > 0) {
            off += static_cast<size_t>(w);
            continue;
        }
        if (errno == EINTR)
            continue;
        return fail(ClientError::kSendFailed); // EPIPE/ECONNRESET
    }
    return true;
}

bool
MemcClient::read_line(std::string* out)
{
    for (;;) {
        const size_t nl = inbuf_.find('\n');
        if (nl != std::string::npos) {
            size_t len = nl;
            if (len > 0 && inbuf_[len - 1] == '\r')
                --len;
            out->assign(inbuf_, 0, len);
            inbuf_.erase(0, nl + 1);
            return true;
        }
        struct pollfd pfd = {fd_, POLLIN, 0};
        int pr = ::poll(&pfd, 1, kReadTimeoutMs);
        if (pr == 0)
            return fail(ClientError::kTimeout);
        if (pr < 0)
            return fail(ClientError::kDisconnected);
        char buf[8192];
        ssize_t n = ::read(fd_, buf, sizeof buf);
        if (n > 0) {
            inbuf_.append(buf, static_cast<size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return fail(ClientError::kDisconnected); // EOF or hard error
    }
}

bool
MemcClient::read_available()
{
    if (fd_ < 0)
        return fail(ClientError::kNotConnected);
    char buf[8192];
    for (;;) {
        const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
        if (n > 0) {
            inbuf_.append(buf, static_cast<size_t>(n));
            if (static_cast<size_t>(n) < sizeof buf)
                return true; // drained: skip the EAGAIN round trip
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true;
        return fail(ClientError::kDisconnected); // EOF or reset
    }
}

bool
MemcClient::set(const std::string& key, uint64_t value)
{
    if (fd_ < 0)
        return fail(ClientError::kNotConnected);
    const std::string wire = format_set(key, value);
    if (!send_all(wire.data(), wire.size()))
        return false;
    std::string line;
    if (!read_line(&line))
        return false;
    if (line == "STORED") {
        last_error_ = ClientError::kNone;
        return true;
    }
    return fail(is_server_error_line(line) ? ClientError::kServerError
                                           : ClientError::kProtocol);
}

bool
MemcClient::get(const std::string& key, uint64_t* value)
{
    if (fd_ < 0)
        return fail(ClientError::kNotConnected);
    const std::string wire = "get " + key + "\r\n";
    if (!send_all(wire.data(), wire.size()))
        return false;
    std::string line;
    if (!read_line(&line))
        return false;
    if (line == "END") { // miss: an answer, not a failure
        last_error_ = ClientError::kNone;
        return false;
    }
    if (line.rfind("VALUE ", 0) != 0)
        return fail(is_server_error_line(line)
                        ? ClientError::kServerError
                        : ClientError::kProtocol);
    std::string data;
    if (!read_line(&data))
        return false;
    uint64_t v = 0;
    for (char ch : data) {
        if (ch < '0' || ch > '9')
            return fail(ClientError::kProtocol);
        v = v * 10 + static_cast<uint64_t>(ch - '0');
    }
    std::string end;
    if (!read_line(&end))
        return false;
    if (end != "END")
        return fail(ClientError::kProtocol);
    if (value)
        *value = v;
    last_error_ = ClientError::kNone;
    return true;
}

bool
MemcClient::del(const std::string& key)
{
    if (fd_ < 0)
        return fail(ClientError::kNotConnected);
    const std::string wire = "delete " + key + "\r\n";
    if (!send_all(wire.data(), wire.size()))
        return false;
    std::string line;
    if (!read_line(&line))
        return false;
    if (line == "DELETED") {
        last_error_ = ClientError::kNone;
        return true;
    }
    if (line == "NOT_FOUND") { // an answer, not a failure
        last_error_ = ClientError::kNone;
        return false;
    }
    return fail(is_server_error_line(line) ? ClientError::kServerError
                                           : ClientError::kProtocol);
}

std::string
MemcClient::version()
{
    if (fd_ < 0) {
        fail(ClientError::kNotConnected);
        return std::string();
    }
    const char wire[] = "version\r\n";
    if (!send_all(wire, sizeof wire - 1))
        return std::string();
    std::string line;
    if (!read_line(&line))
        return std::string();
    last_error_ = ClientError::kNone;
    return line;
}

bool
MemcClient::stats(std::map<std::string, std::string>* out)
{
    if (out)
        out->clear();
    if (fd_ < 0)
        return fail(ClientError::kNotConnected);
    const char wire[] = "stats\r\n";
    if (!send_all(wire, sizeof wire - 1))
        return false;
    for (;;) {
        std::string line;
        if (!read_line(&line))
            return false;
        if (line == "END") {
            last_error_ = ClientError::kNone;
            return true;
        }
        if (line.rfind("STAT ", 0) != 0)
            return fail(ClientError::kProtocol);
        const size_t sp = line.find(' ', 5);
        if (sp == std::string::npos)
            return fail(ClientError::kProtocol);
        if (out)
            (*out)[line.substr(5, sp - 5)] = line.substr(sp + 1);
    }
}

void
MemcClient::pipeline_set(const std::string& key, uint64_t value)
{
    pipeline_ += format_set(key, value);
    pipeline_kinds_.push_back(0);
}

void
MemcClient::pipeline_get(const std::string& key)
{
    pipeline_ += "get " + key + "\r\n";
    pipeline_kinds_.push_back(1);
}

void
MemcClient::pipeline_del(const std::string& key)
{
    pipeline_ += "delete " + key + "\r\n";
    pipeline_kinds_.push_back(2);
}

size_t
MemcClient::pipeline_flush(size_t max_acks)
{
    const bool sent = pipeline_send();
    // Count acks even after a send failure: the server may have
    // executed (and durably committed) a prefix before dying.
    const size_t acks =
        pipeline_collect(std::min(outstanding_.size(), max_acks));
    outstanding_.clear(); // replies past max_acks are abandoned
    if (!sent && last_error_ == ClientError::kNone)
        fail(ClientError::kSendFailed);
    return acks;
}

bool
MemcClient::pipeline_send()
{
    std::string wire = std::move(pipeline_);
    pipeline_.clear();
    if (fd_ < 0) {
        pipeline_kinds_.clear();
        return fail(ClientError::kNotConnected);
    }
    outstanding_.insert(outstanding_.end(), pipeline_kinds_.begin(),
                        pipeline_kinds_.end());
    pipeline_kinds_.clear();
    return send_all(wire.data(), wire.size());
}

size_t
MemcClient::pipeline_collect(size_t n)
{
    if (fd_ < 0) {
        fail(ClientError::kNotConnected);
        return 0;
    }
    last_error_ = ClientError::kNone;
    const size_t expected = std::min(n, outstanding_.size());
    size_t acks = 0;
    while (acks < expected) {
        std::string line;
        if (!read_line(&line))
            break; // read_line set kDisconnected/kTimeout
        const uint8_t kind = outstanding_.front();
        if (kind == 0) {
            if (line != "STORED") {
                fail(is_server_error_line(line)
                         ? ClientError::kServerError
                         : ClientError::kProtocol);
                break;
            }
        } else if (kind == 2) {
            // delete: either answer is a durable ack of the outcome.
            if (line != "DELETED" && line != "NOT_FOUND") {
                fail(is_server_error_line(line)
                         ? ClientError::kServerError
                         : ClientError::kProtocol);
                break;
            }
        } else {
            // get: zero or one VALUE+data line pair, then END.
            bool ok = true;
            while (line.rfind("VALUE ", 0) == 0) {
                std::string data;
                if (!read_line(&data) || !read_line(&line)) {
                    ok = false;
                    break;
                }
            }
            if (!ok)
                break;
            if (line != "END") {
                fail(is_server_error_line(line)
                         ? ClientError::kServerError
                         : ClientError::kProtocol);
                break;
            }
        }
        outstanding_.pop_front();
        ++acks;
    }
    return acks;
}

} // namespace ido::net
