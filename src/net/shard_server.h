// net::ShardServer: one serving process of the sharded deployment. A TCP
// listener whose poll() event loop decodes wire frames (net/wire.h) into
// engine::Service submissions and streams each response back over the
// connection it arrived on — the socket face of the Submit -> queue ->
// worker -> callback lifecycle engine/service.h documents.
//
// Threading model. One event-loop thread accepts, reads, decodes, and
// admits: every request frame decoded from one read goes to the Service in
// one bulk SubmitBatch (one queue-lock hold, one worker wake per read).
// Writes happen where the bytes are made. The connection is the
// submission's engine::ResponseSink: a Service worker encodes each
// response of its turn into the connection's outbox under the
// connection's mutex, and at the end of the turn flushes the outbox with
// one non-blocking send — one send per connection per group, not per
// response. Only when the socket cannot take everything (EAGAIN or a short
// write) does the worker wake the loop through the self-pipe, once per
// backlog; the loop then flushes on POLLOUT. Frames append in completion
// order, so each connection's responses leave in that order. A worker
// never blocks on a slow peer, and the loop closes a socket only under
// the same mutex, so a worker never writes to a stale fd. The loop's own
// replies (health, stats, error frames) append and flush the same way.

// Error containment (the network tier's core promise): a malformed,
// truncated, or bit-flipped frame — untrusted input — fails *that
// connection* with a kError frame and a close; the process, the Service,
// and every other connection keep serving. Request-level problems the
// engine can name (unknown venue, invalid partition id) come back as
// normal kResponse frames with a non-kOk status, exactly like the
// in-process API.
//
// Drain lifecycle (SIGTERM path): RequestDrain() is async-signal-safe
// (atomic flag + self-pipe write). The loop then stops accepting, stops
// reading new frames, runs Service::Drain() — every accepted request
// completes and its worker's end-of-turn flush has sent or queued its
// response — flushes every outbox,
// closes, and exits; Wait() returns once the loop is done. Stop() is the
// impatient sibling: queued requests complete kCancelled and the loop
// exits without flushing stragglers.

#ifndef VIPTREE_NET_SHARD_SERVER_H_
#define VIPTREE_NET_SHARD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/service.h"
#include "net/socket.h"
#include "net/wire.h"

namespace viptree {
namespace net {

struct ShardServerOptions {
  // IPv4 literal to bind. Loopback by default: exposing a shard beyond the
  // host is a deployment decision, not a default.
  std::string bind_address = "127.0.0.1";
  // 0 picks an ephemeral port; port() reports the actual one (what the
  // in-process tests use to avoid fixed-port collisions).
  uint16_t port = 0;
  int backlog = 64;
  // Connections beyond this are accepted and immediately closed, bounding
  // the poll set and per-connection buffer memory.
  size_t max_connections = 256;
  // Forwarded to the owned engine::Service (workers, queue bound, caching
  // — everything downstream composes with the wire for free).
  engine::ServiceOptions service;
};

class ShardServer {
 public:
  // Single-venue shard over a shared bundle (requests leave venue_id
  // empty), or a multi-venue shard owning a registry — the same two
  // shapes as engine::Service.
  ShardServer(std::shared_ptr<const engine::VenueBundle> bundle,
              ShardServerOptions options = {});
  ShardServer(engine::VenueRegistry registry, ShardServerOptions options = {});
  ~ShardServer();  // Stop()

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  // Binds, starts the Service workers, and spawns the event loop. Returns
  // a Status instead of aborting: a taken port is an operational error.
  io::Status Start();

  // The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  // Async-signal-safe graceful-drain trigger; see the drain lifecycle
  // above. Safe to call from a SIGTERM handler or any thread.
  void RequestDrain();

  // Blocks until the event loop exits (i.e. a drain or stop completed).
  void Wait();

  // Immediate shutdown: queued requests finish kCancelled, sockets close,
  // the loop joins. Idempotent; the destructor calls it.
  void Stop();

  // The owned service's statistics (the per-shard half of the fleet-wide
  // aggregation the router performs).
  engine::ServiceStats ServiceStatsNow() const { return service_->Stats(); }

  // Observability counters for tests and logs.
  uint64_t connections_accepted() const { return connections_accepted_; }
  uint64_t frames_received() const { return frames_received_; }
  // Socket flushes that had bytes to write: one per connection per worker
  // turn, plus the loop's POLLOUT flushes of a backlog and its own
  // replies. Each is one send call unless the socket takes only part.
  uint64_t sends() const { return sends_; }
  uint64_t protocol_errors() const { return protocol_errors_; }

 private:
  // One accepted connection, and the sink its responses stream into.
  // Owned by the loop thread except the `mu`-guarded write side: workers
  // append to the outbox and flush it from their turns, and the loop
  // closes `sock` only under `mu`.
  struct Connection : engine::ResponseSink {
    explicit Connection(ShardServer* owner) : server(owner) {}

    // Encodes the response frame and appends it to the outbox.
    void Deliver(const engine::Response& response) override;
    // One send of everything queued; wakes the loop to poll for POLLOUT
    // when bytes remain and no earlier flush has told it already.
    void EndOfTurn() override;
    // Appends one frame and flushes at once (the loop's own replies).
    void Reply(const std::vector<uint8_t>& bytes);
    // Sends the unsent outbox once, if any; false on a hard send error
    // (the peer is gone). Caller holds `mu`.
    bool FlushLocked();

    ShardServer* const server;
    Socket sock;
    FrameDecoder decoder;

    std::mutex mu;
    std::vector<uint8_t> outbox;  // bytes not yet handed to the socket
    size_t out_pos = 0;           // flushed prefix of outbox
    bool closed = false;          // loop closed the socket; writes drop
    // The last flush left bytes queued, and the loop knows: it polls this
    // connection for POLLOUT until a flush empties the outbox.
    bool backlogged = false;
    // After a protocol error: flush the kError frame, then close (no
    // further reads).
    bool poisoned = false;
  };

  void Loop();
  void AcceptAll();
  // Reads, decodes, and dispatches every complete frame — the requests
  // among them as one bulk admission; returns false if the connection
  // should be closed (EOF, error).
  bool ServiceReadable(const std::shared_ptr<Connection>& conn);
  bool FlushWrites(Connection* conn);
  // Answers a probe or poisons the connection; a request frame is decoded
  // into `requests` for the read's bulk admission.
  void HandleFrame(Connection* conn, Frame frame,
                   std::vector<engine::Request>* requests);
  void CloseConnection(int fd);

  std::unique_ptr<engine::Service> service_;
  ShardServerOptions options_;
  Socket listener_;
  uint16_t port_ = 0;
  WakePipe wake_;
  std::thread loop_thread_;
  bool started_ = false;
  bool joined_ = false;
  std::mutex lifecycle_mu_;  // serializes Start/Stop/Wait bookkeeping

  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> draining_{false};

  // Loop-thread-owned; workers never touch the map (queued requests hold
  // their own shared_ptr<Connection>).
  std::map<int, std::shared_ptr<Connection>> connections_;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> sends_{0};
  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace net
}  // namespace viptree

#endif  // VIPTREE_NET_SHARD_SERVER_H_
