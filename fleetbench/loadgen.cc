#include "loadgen.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <optional>

#include "fleet.h"

namespace fleetbench {

namespace eng = viptree::engine;
namespace net = viptree::net;

Traffic::Traffic(const std::vector<eng::Request>& pool,
                 std::vector<eng::Result> refs)
    : requests(pool), references(std::move(refs)) {
  frames.reserve(requests.size());
  for (const eng::Request& r : requests) {
    frames.push_back(
        net::EncodeRequestFrame(net::WireRequest::FromRequest(r, 0.0), 0));
  }
}

bool CheckResponse(const Traffic& traffic, size_t index,
                   const net::WireResponse& response, PhaseResult* phase) {
  if (!response.ok()) {
    ++phase->failed;
    return true;
  }
  const bool update = traffic.is_update(index);
  const bool right =
      update ? response.kind == eng::RequestKind::kUpdateObjects
             : response.kind == eng::RequestKind::kQuery &&
                   SameAnswer(traffic.references[index],
                                         response.result);
  if (!right) {
    ++phase->mismatched;
    return false;
  }
  ++phase->ok;
  return true;
}

struct LoadGen::Conn {
  net::Socket sock;
  net::FrameDecoder decoder;
  std::vector<uint8_t> outbox;
  size_t out_pos = 0;
};

std::unique_ptr<LoadGen> LoadGen::Connect(const std::string& endpoint,
                                        size_t connections,
                                        std::string* error) {
  std::unique_ptr<LoadGen> gen(new LoadGen());
  for (size_t i = 0; i < connections; ++i) {
    auto conn = std::make_unique<Conn>();
    viptree::io::Status status = net::ConnectTcp(endpoint, 5000.0, &conn->sock);
    if (status.ok()) status = net::SetNonBlocking(conn->sock.fd());
    if (!status.ok()) {
      *error = status.error;
      return nullptr;
    }
    gen->conns_.push_back(std::move(conn));
  }
  return gen;
}

LoadGen::~LoadGen() = default;

void LoadGen::Enqueue(const Traffic& traffic, size_t conn, size_t index,
                     Clock::time_point origin) {
  const std::vector<uint8_t>& frame = traffic.frames[index];
  Conn& c = *conns_[conn];
  const size_t at = c.outbox.size();
  c.outbox.insert(c.outbox.end(), frame.begin(), frame.end());
  net::RetagFrame(next_tag_++, c.outbox.data() + at);
  in_flight_.push_back({index, origin, conn});
  ++outstanding_;
}

bool LoadGen::Pump(const Traffic& traffic, Clock::duration timeout,
                  Clock::time_point window_end, PhaseResult* phase,
                  std::vector<size_t>* freed) {
  std::vector<pollfd> fds(conns_.size());
  for (size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = *conns_[i];
    while (c.out_pos < c.outbox.size()) {
      const ssize_t n =
          ::send(c.sock.fd(), c.outbox.data() + c.out_pos,
                 c.outbox.size() - c.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_pos += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        error_ = std::string("send: ") + std::strerror(errno);
        return false;
      }
    }
    if (c.out_pos == c.outbox.size()) {
      c.outbox.clear();
      c.out_pos = 0;
    }
    fds[i].fd = c.sock.fd();
    fds[i].events = POLLIN;
    if (!c.outbox.empty()) fds[i].events |= POLLOUT;
    fds[i].revents = 0;
  }

  const auto ns = std::max<int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count());
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1000000000);
  ts.tv_nsec = static_cast<long>(ns % 1000000000);
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return true;
    error_ = std::string("ppoll: ") + std::strerror(errno);
    return false;
  }

  uint8_t chunk[64 * 1024];
  for (size_t i = 0; i < conns_.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    Conn& c = *conns_[i];
    while (true) {
      const ssize_t n = ::recv(c.sock.fd(), chunk, sizeof(chunk), 0);
      if (n == 0) {
        error_ = "connection closed by the server";
        return false;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        error_ = std::string("recv: ") + std::strerror(errno);
        return false;
      }
      const Clock::time_point arrived = Clock::now();
      c.decoder.Feed(chunk, static_cast<size_t>(n));
      while (std::optional<net::Frame> frame = c.decoder.Next()) {
        net::WireResponse response;
        viptree::io::Reader reader(viptree::Span<const uint8_t>(
            frame->payload.data(), frame->payload.size()));
        std::string decode_error;
        if (frame->type != net::FrameType::kResponse ||
            !net::DecodeResponsePayload(&reader, &response, &decode_error) ||
            frame->tag == 0 || frame->tag > in_flight_.size()) {
          error_ = "unexpected frame from the server " + decode_error;
          return false;
        }
        const InFlight& f = in_flight_[frame->tag - 1];
        --outstanding_;
        if (freed != nullptr) freed->push_back(f.conn);
        if (!CheckResponse(traffic, f.index, response, phase)) continue;
        if (!response.ok()) continue;
        const double us = MicrosBetween(f.origin, arrived);
        phase->latency_us.push_back(us);
        if (arrived <= window_end) ++phase->ok_in_window;
      }
      if (c.decoder.failed()) {
        error_ = "wire decode: " + c.decoder.error();
        return false;
      }
    }
  }
  return true;
}

PhaseResult LoadGen::ClosedLoop(const Traffic& traffic, size_t window,
                               double seconds, size_t min_samples,
                               size_t* cursor) {
  PhaseResult phase;
  in_flight_.clear();
  next_tag_ = 1;
  const Clock::time_point start = Clock::now();
  const auto span = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  const Clock::time_point end = start + span;
  const Clock::time_point hard_end =
      start + 3 * span + std::chrono::seconds(10);
  const size_t pool = traffic.requests.size();
  const auto send = [&](size_t conn) {
    Enqueue(traffic, conn, (*cursor)++ % pool, Clock::now());
    ++phase.sent;
  };
  for (size_t c = 0; c < conns_.size(); ++c) {
    for (size_t i = 0; i < window; ++i) send(c);
  }
  std::vector<size_t> freed;
  bool sending = true;
  while (sending || outstanding_ > 0) {
    freed.clear();
    if (!Pump(traffic, Clock::duration(0), end, &phase, &freed)) {
      break;
    }
    const Clock::time_point now = Clock::now();
    if (sending && ((now >= end && phase.latency_us.size() >= min_samples) ||
                    now >= hard_end)) {
      sending = false;
    }
    if (sending) {
      for (const size_t c : freed) send(c);
    }
  }
  phase.window_s = seconds;
  return phase;
}

bool LoadGen::Call(const Traffic& traffic, size_t index, PhaseResult* phase) {
  in_flight_.clear();
  next_tag_ = 1;
  Enqueue(traffic, 0, index, Clock::now());
  ++phase->sent;
  const Clock::time_point far = Clock::time_point::max();
  while (outstanding_ > 0) {
    if (!Pump(traffic, Clock::duration(0), far, phase, nullptr)) return false;
  }
  return true;
}

PhaseResult LoadGen::OpenLoop(const Traffic& traffic, double rate,
                             double seconds, size_t* cursor) {
  PhaseResult phase;
  in_flight_.clear();
  next_tag_ = 1;
  const OpenLoopSchedule schedule(
      rate, Clock::now() + std::chrono::milliseconds(1));
  const size_t total = static_cast<size_t>(std::ceil(seconds * rate));
  const size_t pool = traffic.requests.size();
  const Clock::time_point far = Clock::time_point::max();
  size_t next = 0;
  while (next < total) {
    const Clock::time_point now = Clock::now();
    const size_t due = std::min(schedule.DueBy(now), total);
    for (; next < due; ++next) {
      const Clock::time_point at = schedule.Due(next);
      Enqueue(traffic, next % conns_.size(), (*cursor)++ % pool, at);
      phase.lag_us.push_back(MicrosBetween(at, now));
      ++phase.sent;
    }
    if (!Pump(traffic, Clock::duration(0), far, &phase, nullptr)) return phase;
  }
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
  while (outstanding_ > 0 && Clock::now() < give_up) {
    if (!Pump(traffic, Clock::duration(0), far, &phase, nullptr)) {
      return phase;
    }
  }
  if (outstanding_ > 0) error_ = "open loop: responses still missing after 30 s";
  phase.window_s = seconds;
  return phase;
}

}  // namespace fleetbench
