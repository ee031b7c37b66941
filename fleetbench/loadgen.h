// The load generator: one thread, non-blocking sockets and a busy ppoll
// loop. It sends pre-encoded request frames (so the client's own encoding
// cost stays out of the measurement), receives on the same loop, and
// checks every response against its reference as it arrives. It never
// sleeps: the generator has a CPU of its own (see FleetCpus), and a CPU
// that never idles wakes no later for a response or a due send.
//
//   ClosedLoop  a fixed window of requests in flight on each connection;
//               a completion immediately releases the next send.
//   OpenLoop    request i is due at start + i / rate regardless of
//               completions; latency runs from the due time, and the
//               generator's own lateness (send time - due time) is kept
//               as a run-validity figure.
//
// Requests are taken from a pool in order, wrapping around; a response's
// tag identifies its pool entry and send (or due) time.

#ifndef FLEETBENCH_LOADGEN_H_
#define FLEETBENCH_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "engine/service.h"
#include "harness.h"
#include "net/socket.h"
#include "net/wire.h"

namespace fleetbench {

// A request pool with its references and pre-encoded frames.
struct Traffic {
  Traffic(const std::vector<viptree::engine::Request>& requests,
          std::vector<viptree::engine::Result> references);

  const std::vector<viptree::engine::Request>& requests;
  std::vector<viptree::engine::Result> references;
  std::vector<std::vector<uint8_t>> frames;  // tag 0; re-tagged per send

  bool is_update(size_t i) const {
    return requests[i].kind == viptree::engine::RequestKind::kUpdateObjects;
  }
};

struct PhaseResult {
  uint64_t sent = 0;
  uint64_t ok = 0;          // kOk responses with the right answer
  uint64_t failed = 0;      // non-kOk responses
  uint64_t mismatched = 0;  // kOk responses whose answer differs
  uint64_t ok_in_window = 0;  // kOk responses received inside the window
  double window_s = 0.0;
  std::vector<double> latency_us;  // every kOk response
  std::vector<double> lag_us;  // open loop: send time - due time
};

// Checks one response against its reference; counts into *phase.
// Returns false on a wrong answer (already counted).
bool CheckResponse(const Traffic& traffic, size_t index,
                   const viptree::net::WireResponse& response,
                   PhaseResult* phase);

class LoadGen {
 public:
  // Opens `connections` sockets to `endpoint`. nullptr + *error on failure.
  static std::unique_ptr<LoadGen> Connect(const std::string& endpoint,
                                         size_t connections,
                                         std::string* error);
  ~LoadGen();

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  // `window` requests in flight per connection for `seconds`, continuing
  // (for at most 3 x seconds + 10 s) until at least `min_samples`
  // responses arrived. Requests continue from *cursor in the pool. With
  // one connection and a window of 1 this is the serial phase.
  PhaseResult ClosedLoop(const Traffic& traffic, size_t window,
                         double seconds, size_t min_samples, size_t* cursor);

  // One request (pool entry `index`) on the first connection; returns once
  // its response is checked and recorded in *phase. False on a socket
  // error (see error()).
  bool Call(const Traffic& traffic, size_t index, PhaseResult* phase);

  // Fixed-rate sends for `seconds`, round-robin over the connections, then
  // waits for the stragglers.
  PhaseResult OpenLoop(const Traffic& traffic, double rate, double seconds,
                       size_t* cursor);

  // Set after a socket failure; the phase that hit it is incomplete.
  const std::string& error() const { return error_; }

 private:
  struct Conn;
  struct InFlight {
    size_t index = 0;          // pool entry
    Clock::time_point origin;  // send time (closed) or due time (open)
    size_t conn = 0;
  };

  LoadGen() = default;
  void Enqueue(const Traffic& traffic, size_t conn, size_t index,
               Clock::time_point origin);
  // Writes pending bytes, polls up to `timeout` for responses, and checks
  // and records each one (ok_in_window counts arrivals up to
  // `window_end`). Appends the connection of every completed request to
  // *freed when non-null. False on a socket or protocol error.
  bool Pump(const Traffic& traffic, Clock::duration timeout,
            Clock::time_point window_end, PhaseResult* phase,
            std::vector<size_t>* freed);

  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<InFlight> in_flight_;  // indexed by tag - 1
  uint64_t next_tag_ = 1;
  size_t outstanding_ = 0;
  std::string error_;
};

}  // namespace fleetbench

#endif  // FLEETBENCH_LOADGEN_H_
