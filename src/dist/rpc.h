// Socket plumbing for the distributed fleet: deadline-bounded message I/O
// over TCP, a listener, and the reconnect backoff policy.
//
// Everything here is defensive by construction:
//   * every send/recv runs a poll()-guarded loop with an absolute deadline —
//     a stalled or dead peer costs at most the deadline, never a hang;
//   * EINTR and partial reads/writes are retried inside the loop (the same
//     write-loop discipline the MetricsEndpoint hardening applies);
//   * message length prefixes are bounded by framing.h's kMaxMessageBytes
//     before any allocation;
//   * all failures surface as RpcError with errno text, and timeouts as the
//     distinct RpcTimeout so callers can treat "slow" differently from
//     "broken" (the health state machine does: timeout -> suspect,
//     hard error -> the same path, but the counters differ).
//
// Backoff: bounded exponential with deterministic jitter.  The jitter source
// is a seeded SplitMix64 walk, so a reconnect storm in a chaos test replays
// identically for one seed while still decorrelating real fleets.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/framing.h"

namespace dist {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;
using Millis = std::chrono::milliseconds;

class RpcError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// A deadline expired before the operation completed.  The connection is left
// in an undefined mid-message position, so callers must reconnect (or, in
// the front tier, re-send the whole request after backoff — the worker-side
// seq dedup makes that safe).
class RpcTimeout : public RpcError {
 public:
  using RpcError::RpcError;
};

// A wake-up fd (an eventfd) that interrupts Conn::wait_readable from another
// thread.  Level-triggered: a signal() sent before the wait starts still
// wakes it, and keeps waking every later wait until clear().
class Waker {
 public:
  Waker();  // throws RpcError
  ~Waker();
  Waker(const Waker&) = delete;
  Waker& operator=(const Waker&) = delete;

  void signal();
  void clear();
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

struct Message {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

// One connected TCP stream carrying length-prefixed messages.  Owns the fd.
// Not thread-safe: one side of the conversation drives it at a time (the
// front tier's pump loop, or a worker's serve loop).
class Conn {
 public:
  Conn() = default;
  explicit Conn(int fd) : fd_(fd) {}
  ~Conn() { close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  Conn(Conn&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Conn& operator=(Conn&& o) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  // Writes the (u32 length, u8 type, payload) envelope as one gathered write
  // (sendmsg over the header and the payload in place), looping over partial
  // writes and EINTR until done or `deadline` passes (throws RpcTimeout).
  void send_msg(MsgType type, const std::vector<std::uint8_t>& payload,
                TimePoint deadline);

  // Reads exactly one message.  Throws RpcTimeout on deadline, RpcError on
  // EOF / reset / an over-long length prefix.
  Message recv_msg(TimePoint deadline);

  // True when at least one byte (or EOF, or an error) is readable without
  // blocking (poll with zero timeout): the front tier uses this to settle
  // pipelined acks, and to notice a dead peer, before it sends more.
  bool readable() const;

  // Blocks until the stream is readable (true) or `wake` is signalled while
  // it is not (false), with no deadline: the wait of an idle serve loop,
  // whose only way out besides traffic is the waker.  EINTR retried.
  bool wait_readable(const Waker& wake) const;

 private:
  void recv_all(std::uint8_t* data, std::size_t len, TimePoint deadline);

  int fd_ = -1;
};

// Connects to 127.0.0.1:port with a connect deadline.  Throws RpcTimeout /
// RpcError.  The resulting socket has TCP_NODELAY set: the RPC tier's
// request/response pattern dies by Nagle otherwise.
Conn connect_local(std::uint16_t port, Millis timeout);

// A listening socket on 127.0.0.1 (SO_REUSEADDR, so a restarted worker can
// re-bind its port immediately).  port == 0 picks an ephemeral port.
class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  void listen(std::uint16_t port);
  void close();

  // Blocks until a peer connects or `deadline` passes (RpcTimeout) or the
  // listener is shut down from another thread (RpcError).  EINTR retried.
  Conn accept(TimePoint deadline);

  // Unblocks a concurrent accept() from another thread.
  void shutdown();

  bool valid() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

// Bounded exponential backoff with deterministic jitter: delay(attempt) is
// min(base * 2^attempt, max), jittered to [delay/2, delay) by a seeded hash
// of (seed, attempt) — full determinism per seed, decorrelation across seeds.
class Backoff {
 public:
  Backoff(Millis base, Millis max, std::uint64_t seed)
      : base_(base), max_(max), seed_(seed) {}

  Millis delay(std::uint32_t attempt) const;

  Millis base() const { return base_; }
  Millis max() const { return max_; }

 private:
  Millis base_;
  Millis max_;
  std::uint64_t seed_;
};

}  // namespace dist
