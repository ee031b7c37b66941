#include "net/shard_server.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace viptree {
namespace net {

namespace {

// Level-triggered poll ticks over at most this often even with no events:
// cheap insurance against a lost wakeup, and the cadence at which the
// drain flag is re-checked.
constexpr int kPollTimeoutMs = 250;

constexpr size_t kReadChunk = 64 * 1024;

}  // namespace

ShardServer::ShardServer(std::shared_ptr<const engine::VenueBundle> bundle,
                         ShardServerOptions options)
    : service_(std::make_unique<engine::Service>(std::move(bundle),
                                                 options.service)),
      options_(std::move(options)) {}

ShardServer::ShardServer(engine::VenueRegistry registry,
                         ShardServerOptions options)
    : service_(std::make_unique<engine::Service>(std::move(registry),
                                                 options.service)),
      options_(std::move(options)) {}

ShardServer::~ShardServer() { Stop(); }

io::Status ShardServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  VIPTREE_CHECK_MSG(!started_, "ShardServer::Start called twice");
  if (io::Status status = WakePipe::Create(&wake_); !status.ok()) {
    return status;
  }
  if (io::Status status = ListenTcp(options_.bind_address, options_.port,
                                    options_.backlog, &listener_, &port_);
      !status.ok()) {
    return status;
  }
  service_->Start();
  loop_thread_ = std::thread([this] { Loop(); });
  started_ = true;
  return io::Status::Ok();
}

void ShardServer::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  wake_.Wake();
}

void ShardServer::Wait() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (loop_thread_.joinable()) loop_thread_.join();
  joined_ = true;
}

void ShardServer::Stop() {
  stop_requested_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (started_ && loop_thread_.joinable()) {
      wake_.Wake();
      loop_thread_.join();
    }
    joined_ = true;
  }
  service_->Stop();
}

void ShardServer::Loop() {
  std::vector<pollfd> pollfds;
  std::vector<std::shared_ptr<Connection>> polled;
  bool drained = false;

  while (!stop_requested_.load(std::memory_order_acquire)) {
    const bool draining = draining_.load(std::memory_order_acquire);

    if (!draining && drain_requested_.load(std::memory_order_acquire)) {
      // Drain, phase 1: stop admitting bytes. Close the listener, stop
      // reading request frames, then block until every accepted request
      // has completed — the callbacks write to sockets or outboxes
      // themselves, so they never need this thread. Phase 2 (below)
      // flushes what the sockets could not take.
      draining_.store(true, std::memory_order_release);
      listener_.Close();
      service_->Drain();
      drained = true;
      continue;
    }

    if (drained) {
      // Drain, phase 2: exit once every response byte is on the wire (or
      // its peer is gone).
      bool any_pending = false;
      for (auto& [fd, conn] : connections_) {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->out_pos < conn->outbox.size()) {
          any_pending = true;
          break;
        }
      }
      if (!any_pending) break;
    }

    pollfds.clear();
    polled.clear();
    pollfds.push_back({wake_.read_end.fd(), POLLIN, 0});
    if (listener_.valid()) pollfds.push_back({listener_.fd(), POLLIN, 0});
    for (auto& [fd, conn] : connections_) {
      short events = 0;
      if (!draining && !conn->poisoned) events |= POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->out_pos < conn->outbox.size()) events |= POLLOUT;
      }
      pollfds.push_back({fd, events, 0});
      polled.push_back(conn);
    }

    const int ready = ::poll(pollfds.data(),
                             static_cast<nfds_t>(pollfds.size()),
                             kPollTimeoutMs);
    if (ready < 0 && errno != EINTR) break;
    if (stop_requested_.load(std::memory_order_acquire)) break;

    size_t index = 0;
    if (pollfds[index].revents & POLLIN) wake_.Clear();
    ++index;
    if (listener_.valid()) {
      if (pollfds[index].revents & POLLIN) AcceptAll();
      ++index;
    }

    for (size_t c = 0; c < polled.size(); ++c, ++index) {
      const pollfd& pfd = pollfds[index];
      const std::shared_ptr<Connection>& conn = polled[c];
      bool alive = true;
      if (pfd.revents & (POLLERR | POLLNVAL)) alive = false;
      if (alive && (pfd.revents & POLLOUT)) alive = FlushWrites(conn);
      if (alive && (pfd.revents & (POLLIN | POLLHUP))) {
        alive = ServiceReadable(conn);
      }
      // A poisoned connection lingers only to flush its kError frame.
      if (alive && conn->poisoned) {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->out_pos >= conn->outbox.size()) alive = false;
      }
      if (!alive) CloseConnection(pfd.fd);
    }
  }

  // Loop exit: close every socket under its lock so a late response
  // callback sees `closed` and drops its bytes instead of writing to a
  // closed (or reused) fd or growing a dead outbox forever.
  for (auto& [fd, conn] : connections_) {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    conn->sock.Close();
  }
  connections_.clear();
  listener_.Close();
}

void ShardServer::AcceptAll() {
  while (true) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (or a transient error): try next tick
    if (connections_.size() >= options_.max_connections) {
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    // Response frames are small and latency-bound; without this, Nagle
    // against the peer's delayed ACKs stalls pipelined streams.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->sock = Socket(fd);
    connections_.emplace(fd, std::move(conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool ShardServer::ServiceReadable(const std::shared_ptr<Connection>& conn) {
  uint8_t chunk[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(conn->sock.fd(), chunk, sizeof(chunk), 0);
    if (n == 0) return false;  // orderly EOF
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    conn->decoder.Feed(chunk, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof(chunk)) break;
  }

  while (std::optional<Frame> frame = conn->decoder.Next()) {
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    HandleFrame(conn, std::move(*frame));
    if (conn->poisoned) break;
  }
  if (conn->decoder.failed() && !conn->poisoned) {
    // Framing-level violation (bad magic/version/CRC/length): report it on
    // this connection, then close. Nothing else is affected.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    conn->poisoned = true;
    Deliver(conn.get(), EncodeErrorFrame(conn->decoder.error(), 0));
  }
  return true;
}

void ShardServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                              Frame frame) {
  switch (frame.type) {
    case FrameType::kRequest: {
      WireRequest request;
      io::Reader reader(
          Span<const uint8_t>(frame.payload.data(), frame.payload.size()));
      std::string error;
      if (!DecodeRequestPayload(&reader, &request, &error)) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        conn->poisoned = true;
        Deliver(conn.get(),
                EncodeErrorFrame("request decode: " + error, frame.tag));
        return;
      }
      engine::Request engine_request = request.ToRequest();
      engine_request.tag = frame.tag;
      // The callback runs on a Service worker (or synchronously right here
      // for admission rejections) and writes the response itself; only
      // bytes the socket cannot take at once wake the loop.
      service_->Submit(
          std::move(engine_request),
          [this, conn](const engine::Response& response) {
            if (Deliver(conn.get(),
                        EncodeResponseFrame(
                            WireResponse::FromResponse(response),
                            response.tag))) {
              wake_.Wake();
            }
          });
      return;
    }
    case FrameType::kHealthProbe: {
      WireHealth health;
      health.ready = draining_.load(std::memory_order_acquire) ? 0 : 1;
      health.queue_depth = service_->QueueDepth();
      Deliver(conn.get(), EncodeHealthReplyFrame(health, frame.tag));
      return;
    }
    case FrameType::kStatsProbe: {
      Deliver(conn.get(),
              EncodeStatsReplyFrame(
                  WireStats::FromServiceStats(service_->Stats()), frame.tag));
      return;
    }
    default:
      // Reply frames have no business arriving at a server.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      conn->poisoned = true;
      Deliver(conn.get(),
              EncodeErrorFrame(std::string("unexpected ") +
                                   FrameTypeName(frame.type) +
                                   " frame at a shard server",
                               frame.tag));
      return;
  }
}

bool ShardServer::Deliver(Connection* conn,
                          const std::vector<uint8_t>& bytes) {
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->closed) return false;
  // Bytes already waiting go first, so a frame is sent directly only from
  // an empty outbox: per-connection order is the order of Deliver calls.
  const bool was_empty = conn->out_pos == conn->outbox.size();
  size_t sent = 0;
  if (was_empty &&
      !SendNonBlocking(conn->sock.fd(), bytes.data(), bytes.size(), &sent)) {
    // Peer gone: drop the frame. The loop sees POLLERR/POLLHUP or EOF on
    // this socket and closes the connection.
    return false;
  }
  if (sent == bytes.size()) return false;
  conn->outbox.insert(conn->outbox.end(),
                      bytes.begin() + static_cast<std::ptrdiff_t>(sent),
                      bytes.end());
  // A non-empty outbox is already in (or on its way into) the loop's
  // POLLOUT set; only the empty -> queued edge needs a wake.
  return was_empty;
}

bool ShardServer::FlushWrites(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  return FlushOutbox(conn->sock.fd(), &conn->outbox, &conn->out_pos);
}

void ShardServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  {
    std::lock_guard<std::mutex> lock(it->second->mu);
    it->second->closed = true;
    it->second->sock.Close();
  }
  connections_.erase(it);
}

}  // namespace net
}  // namespace viptree
