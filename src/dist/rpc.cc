#include "dist/rpc.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "sim/partition.h"

namespace dist {

namespace {

// Remaining milliseconds until `deadline`, clamped to [0, INT_MAX] for
// poll().  Zero means "already expired".
int millis_left(TimePoint deadline) {
  const auto left =
      std::chrono::duration_cast<Millis>(deadline - Clock::now()).count();
  if (left <= 0) return 0;
  if (left > 0x7FFFFFFF) return 0x7FFFFFFF;
  return static_cast<int>(left);
}

[[noreturn]] void throw_errno(const char* what) {
  throw RpcError(std::string(what) + ": " + std::strerror(errno));
}

// Waits until `fd` is ready for `events` or the deadline passes.  Returns
// normally on readiness; throws RpcTimeout when time runs out.  EINTR loops.
void wait_ready(int fd, short events, TimePoint deadline, const char* what) {
  for (;;) {
    pollfd pfd{fd, events, 0};
    const int left = millis_left(deadline);
    if (left == 0) throw RpcTimeout(std::string(what) + ": deadline exceeded");
    const int rc = ::poll(&pfd, 1, left);
    if (rc > 0) {
      // POLLERR/POLLHUP readiness falls through to the actual syscall, which
      // reports the precise error (or EOF) — one error path, not two.
      return;
    }
    if (rc == 0) throw RpcTimeout(std::string(what) + ": deadline exceeded");
    if (errno == EINTR) continue;
    throw_errno(what);
  }
}

// TCP_NODELAY (the request/response pattern dies by Nagle otherwise) and
// O_NONBLOCK: with a blocking socket a full peer buffer would let send()
// stall past any deadline; nonblocking + poll keeps every wait bounded.
void setup_stream(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Writes every byte the iovecs cover, looping over partial writes (which
// may end mid-iovec) and EINTR, and polling while the socket buffer is full.
void send_all(int fd, iovec* iov, int count, TimePoint deadline) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(count);
#ifdef MSG_NOSIGNAL
    const int flags = MSG_NOSIGNAL;
#else
    const int flags = 0;
#endif
    const ssize_t n = ::sendmsg(fd, &msg, flags);
    if (n > 0) {
      auto sent = static_cast<std::size_t>(n);
      while (count > 0 && sent >= iov->iov_len) {
        sent -= iov->iov_len;
        ++iov;
        --count;
      }
      if (count > 0) {
        iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + sent;
        iov->iov_len -= sent;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      wait_ready(fd, POLLOUT, deadline, "send");
      continue;
    }
    throw_errno("send");
  }
}

}  // namespace

Conn& Conn::operator=(Conn&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Conn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Conn::recv_all(std::uint8_t* data, std::size_t len, TimePoint deadline) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::recv(fd_, data + off, len - off, MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) throw RpcError("recv: connection closed by peer");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      wait_ready(fd_, POLLIN, deadline, "recv");
      continue;
    }
    throw_errno("recv");
  }
}

void Conn::send_msg(MsgType type, const std::vector<std::uint8_t>& payload,
                    TimePoint deadline) {
  if (!valid()) throw RpcError("send_msg: connection is closed");
  if (payload.size() > kMaxMessageBytes)
    throw RpcError("send_msg: payload exceeds kMaxMessageBytes");
  std::uint8_t hdr[5];
  store_u32(hdr, static_cast<std::uint32_t>(payload.size()));
  hdr[4] = static_cast<std::uint8_t>(type);
  // The header and the payload go out in one gathered write, without being
  // copied into one buffer first.
  iovec iov[2] = {{hdr, sizeof(hdr)},
                  {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  send_all(fd_, iov, payload.empty() ? 1 : 2, deadline);
}

Message Conn::recv_msg(TimePoint deadline) {
  if (!valid()) throw RpcError("recv_msg: connection is closed");
  std::uint8_t hdr[5];
  recv_all(hdr, sizeof(hdr), deadline);
  const std::uint32_t len = load_u32(hdr);
  if (len > kMaxMessageBytes)
    throw RpcError("recv_msg: length prefix exceeds kMaxMessageBytes");
  Message m;
  m.type = static_cast<MsgType>(hdr[4]);
  m.payload.resize(len);
  if (len > 0) recv_all(m.payload.data(), len, deadline);
  return m;
}

bool Conn::readable() const {
  if (!valid()) return false;
  pollfd pfd{fd_, POLLIN, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1, 0);
    if (rc >= 0) return rc > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR));
    if (errno == EINTR) continue;
    return false;
  }
}

bool Conn::wait_readable(const Waker& wake) const {
  if (!valid()) return false;
  pollfd pfd[2] = {{fd_, POLLIN, 0}, {wake.fd(), POLLIN, 0}};
  for (;;) {
    if (::poll(pfd, 2, -1) >= 0) {
      if (pfd[0].revents != 0) return true;
      if (pfd[1].revents != 0) return false;
      continue;
    }
    if (errno != EINTR) throw_errno("poll");
  }
}

Waker::Waker() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  if (fd_ < 0) throw_errno("eventfd");
}

Waker::~Waker() { ::close(fd_); }

void Waker::signal() {
  const std::uint64_t one = 1;
  // Only EINTR can fail here: the counter cannot realistically overflow.
  while (::write(fd_, &one, sizeof(one)) < 0 && errno == EINTR) {
  }
}

void Waker::clear() {
  std::uint64_t count = 0;
  // Reading resets the counter; EAGAIN means it was already clear.
  while (::read(fd_, &count, sizeof(count)) < 0 && errno == EINTR) {
  }
}

Conn connect_local(std::uint16_t port, Millis timeout) {
  const TimePoint deadline = Clock::now() + timeout;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Conn conn(fd);  // owns the fd from here: every throw below closes it
  setup_stream(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  for (;;) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      break;
    if (errno == EINTR) continue;
    if (errno == EINPROGRESS || errno == EALREADY || errno == EAGAIN) {
      wait_ready(fd, POLLOUT, deadline, "connect");
      continue;
    }
    if (errno == EISCONN) break;
    throw_errno("connect");
  }
  return conn;
}

void Listener::listen(std::uint16_t port) {
  close();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw RpcError(std::string("bind: ") + std::strerror(err));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port_ = ntohs(addr.sin_port);
  if (::listen(fd, 8) < 0) {
    const int err = errno;
    ::close(fd);
    throw RpcError(std::string("listen: ") + std::strerror(err));
  }
  fd_ = fd;
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  port_ = 0;
}

Conn Listener::accept(TimePoint deadline) {
  if (!valid()) throw RpcError("accept: listener is closed");
  for (;;) {
    wait_ready(fd_, POLLIN, deadline, "accept");
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn >= 0) {
      setup_stream(conn);
      return Conn(conn);
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED)
      continue;
    throw_errno("accept");
  }
}

void Listener::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Millis Backoff::delay(std::uint32_t attempt) const {
  // Saturate the exponent well before 2^attempt overflows.
  std::uint64_t mult = attempt >= 20 ? (1u << 20) : (1u << attempt);
  std::uint64_t ms = static_cast<std::uint64_t>(base_.count()) * mult;
  const std::uint64_t cap = static_cast<std::uint64_t>(max_.count());
  if (ms > cap) ms = cap;
  if (ms == 0) return Millis(0);
  // Deterministic jitter in [ms/2, ms): hash (seed, attempt).
  const std::uint64_t h = netsim::mix64(seed_ ^ (0x9E3779B97F4A7C15ULL *
                                                 (attempt + 1)));
  const std::uint64_t half = ms / 2;
  const std::uint64_t jittered = half + (half > 0 ? h % half : 0);
  return Millis(static_cast<long long>(jittered > 0 ? jittered : ms));
}

}  // namespace dist
