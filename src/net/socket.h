// Thin POSIX TCP plumbing under the network tier: an RAII fd, listen /
// connect helpers with io::Status error reporting, and host:port parsing.
// Everything here is deliberately boring — the interesting behavior
// (framing, routing, draining) lives above it in wire.h / shard_server.h /
// router.h, and every call site treats failure as a reportable condition,
// never a crash (the rest of the library's error model).

#ifndef VIPTREE_NET_SOCKET_H_
#define VIPTREE_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "io/binary_io.h"

namespace viptree {
namespace net {

// Owning file descriptor (move-only; closes on destruction).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Close();

 private:
  int fd_ = -1;
};

// "host:port" -> (host, port). Accepts a bare ":port" (host defaults to
// 127.0.0.1). Returns false on a missing/unparsable port.
bool ParseHostPort(const std::string& endpoint, std::string* host,
                   uint16_t* port);

// Opens a listening TCP socket on `bind_address:port` (port 0 picks an
// ephemeral port; *bound_port reports the actual one). The socket is
// non-blocking with SO_REUSEADDR, ready for an accept loop.
io::Status ListenTcp(const std::string& bind_address, uint16_t port,
                     int backlog, Socket* out, uint16_t* bound_port);

// Blocking connect to "host:port" with TCP_NODELAY (frames are small and
// latency-bound; Nagle would serialize the request/response ping-pong).
// `timeout_ms` bounds the connection attempt; <= 0 means the OS default.
io::Status ConnectTcp(const std::string& endpoint, double timeout_ms,
                      Socket* out);

// Sets O_NONBLOCK on an accepted/connected socket.
io::Status SetNonBlocking(int fd);

// Sends as much of [data, data + size) as the socket takes without
// blocking (MSG_DONTWAIT | MSG_NOSIGNAL, EINTR retried). *sent reports
// the bytes written; a short count means EAGAIN. Returns false on a hard
// error (peer reset, closed fd): the caller drops the bytes.
bool SendNonBlocking(int fd, const uint8_t* data, size_t size, size_t* sent);

// Writes the unsent suffix outbox[*out_pos..] with SendNonBlocking and
// advances *out_pos. A fully written outbox is cleared; once the written
// prefix passes half of the buffer it is erased, so a connection that
// never goes idle still holds at most twice its unsent bytes. Returns
// false on a hard error.
bool FlushOutbox(int fd, std::vector<uint8_t>* outbox, size_t* out_pos);

// A pipe whose read end can sit in a poll set: writing one byte wakes the
// loop. Used for cross-thread wakeups (a response callback whose bytes the
// socket could not take at once -> event loop) and signal-handler drain
// requests (write() is async-signal-safe).
struct WakePipe {
  Socket read_end;
  Socket write_end;

  static io::Status Create(WakePipe* out);
  // Best-effort, non-blocking, async-signal-safe wake.
  void Wake() const;
  // Drains every pending wake byte (called by the loop once awake).
  void Clear() const;
};

}  // namespace net
}  // namespace viptree

#endif  // VIPTREE_NET_SOCKET_H_
