#include "fleet.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "common/rng.h"
#include "common/stats.h"
#include "engine/venue_registry.h"
#include "graph/dijkstra.h"
#include "harness.h"
#include "net/client.h"

namespace fleetbench {

namespace eng = viptree::engine;
namespace net = viptree::net;
using viptree::Timer;

namespace {

double FileMiB(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0.0;
  return static_cast<double>(st.st_size) / (1024.0 * 1024.0);
}

bool Failed(const viptree::io::Status& status, std::string* error) {
  if (status.ok()) return false;
  *error = status.error;
  return true;
}

}  // namespace

std::unique_ptr<Fleet> Fleet::Start(const Workload& w, const std::string& dir,
                                    SetupTimes* times, std::string* error) {
  std::unique_ptr<Fleet> fleet(new Fleet());
  fleet->dir_ = dir;
  fleet->manifest_ = dir + "/registry.txt";
  std::remove(fleet->manifest_.c_str());
  *times = SetupTimes{};

  // Copies of the generated inputs are made outside the timed region.
  std::vector<std::pair<viptree::Venue, std::vector<viptree::IndoorPoint>>>
      inputs;
  for (const VenueInput& v : w.venues) inputs.emplace_back(v.venue.Clone(), v.objects);

  const Timer total;
  for (size_t i = 0; i < w.venues.size(); ++i) {
    const std::string& id = w.venues[i].id;
    const Timer build;
    auto bundle = std::make_shared<eng::VenueBundle>(eng::VenueBundle::Build(
        std::move(inputs[i].first), std::move(inputs[i].second)));
    times->build_s += build.ElapsedSeconds();
    const Timer save;
    if (!bundle->Save(fleet->SnapshotPath(id)).ok() ||
        !eng::VenueRegistry::UpsertManifestEntry(fleet->manifest_, id,
                                                 id + ".vipsnap")
             .ok()) {
      *error = "cannot save snapshot of " + id + " under " + dir;
      return nullptr;
    }
    times->save_ms += save.ElapsedMillis();
    times->index_mb +=
        static_cast<double>(bundle->IndexMemoryBytes()) / (1024.0 * 1024.0);
    times->snapshot_mb += FileMiB(fleet->SnapshotPath(id));
    fleet->venue_ids_.push_back(id);
    fleet->built_.push_back(std::move(bundle));
  }

  if (!fleet->Serve(w, times, error)) return nullptr;
  times->total_s = total.ElapsedSeconds();
  return fleet;
}

bool Fleet::Serve(const Workload& w, SetupTimes* times, std::string* error) {
  // Threads inherit the CPU of the thread that creates them: the shards
  // and the router start on the fleet's CPU, and the caller (the load
  // generator) moves to its own once they are up (see FleetCpus).
  PinCallingThread(FleetCpus().fleet);
  const Timer open;
  std::vector<eng::VenueRegistry> registries;
  for (size_t s = 0; s < kShards; ++s) {
    std::optional<eng::VenueRegistry> registry =
        eng::VenueRegistry::Open(manifest_, error);
    if (!registry.has_value()) return false;
    registries.push_back(std::move(*registry));
  }
  times->registry_open_ms = open.ElapsedMillis();

  const Timer start;
  std::vector<std::string> endpoints;
  for (size_t s = 0; s < kShards; ++s) {
    shards_.push_back(
        std::make_unique<net::ShardServer>(std::move(registries[s])));
    if (Failed(shards_.back()->Start(), error)) {
      return false;
    }
    endpoints.push_back("127.0.0.1:" +
                        std::to_string(shards_.back()->port()));
  }
  router_ = std::make_unique<net::Router>(endpoints, venue_ids_);
  if (Failed(router_->Start(), error)) return false;
  PinCallingThread(FleetCpus().client);
  const Timer wait;
  while (router_->healthy_shards() < kShards) {
    if (wait.ElapsedSeconds() > 10.0) {
      *error = "router saw no healthy shards within 10 s";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  times->start_ms = start.ElapsedMillis();

  // First touch: one request per venue through the router loads the
  // venue on its shard (registry Acquire + the worker's engine).
  const Timer touch;
  std::unique_ptr<net::Client> client =
      net::Client::Connect(router_endpoint(), error);
  if (client == nullptr) return false;
  for (const VenueInput& v : w.venues) {
    eng::Request request;
    request.venue_id = v.id;
    request.query = eng::Query::Distance(v.objects.front(), v.objects.back());
    net::WireResponse response;
    const viptree::io::Status status =
        client->Call(net::WireRequest::FromRequest(request, 0.0), &response);
    if (!status.ok() || !response.ok()) {
      *error = "first request to " + v.id + " failed: " +
               (status.ok() ? response.error : status.error);
      return false;
    }
  }
  times->first_acquire_ms = touch.ElapsedMillis();
  return true;
}

bool Fleet::Restart(const Workload& w, std::string* error) {
  StopServing();
  SetupTimes ignored;
  return Serve(w, &ignored, error);
}

Fleet::~Fleet() { Stop(); }

void Fleet::StopServing() {
  if (router_ != nullptr) router_->Stop();
  for (auto& shard : shards_) shard->Stop();
  router_.reset();
  shards_.clear();
}

void Fleet::Stop() {
  StopServing();
  for (const std::string& id : venue_ids_) {
    std::remove(SnapshotPath(id).c_str());
  }
  venue_ids_.clear();
  if (!manifest_.empty()) std::remove(manifest_.c_str());
}

std::string Fleet::router_endpoint() const {
  return "127.0.0.1:" + std::to_string(router_->port());
}

std::string Fleet::shard_endpoint(size_t shard) const {
  return "127.0.0.1:" + std::to_string(shards_[shard]->port());
}

size_t Fleet::ShardOf(const std::string& venue_id) const {
  return router_->ShardForVenue(venue_id);
}

std::string Fleet::SnapshotPath(const std::string& venue_id) const {
  return dir_ + "/" + venue_id + ".vipsnap";
}

bool SameAnswer(const eng::Result& a, const eng::Result& b) {
  if (a.type != b.type) return false;
  if (std::memcmp(&a.distance, &b.distance, sizeof(double)) != 0) {
    return false;
  }
  if (a.doors != b.doors || a.objects.size() != b.objects.size()) {
    return false;
  }
  for (size_t i = 0; i < a.objects.size(); ++i) {
    if (a.objects[i].object != b.objects[i].object ||
        std::memcmp(&a.objects[i].distance, &b.objects[i].distance,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

References::References(const Workload& w, const Fleet& fleet) {
  for (size_t i = 0; i < w.venues.size(); ++i) {
    ids_.push_back(w.venues[i].id);
    engines_.push_back(std::make_unique<eng::QueryEngine>(
        std::shared_ptr<const eng::VenueBundle>(fleet.built()[i])));
  }
}

eng::QueryEngine& References::engine(const std::string& venue_id) const {
  const size_t i =
      std::find(ids_.begin(), ids_.end(), venue_id) - ids_.begin();
  return *engines_.at(i);
}

std::vector<eng::Result> References::Answer(
    const std::vector<eng::Request>& requests) const {
  std::vector<eng::Result> out(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const eng::Request& r = requests[i];
    if (r.kind != eng::RequestKind::kQuery) continue;
    out[i] = std::move(engine(r.venue_id)
                           .RunSequential(viptree::Span<const eng::Query>(
                               &r.query, 1))
                           .front());
  }
  return out;
}

namespace {

// Point-to-point distance by multi-source Dijkstra over the door graph:
// the oracle the index must agree with (to float-matrix precision).
double DijkstraDistance(const viptree::Venue& venue,
                        const viptree::D2DGraph& graph,
                        const viptree::IndoorPoint& s,
                        const viptree::IndoorPoint& t) {
  double best = viptree::kInfDistance;
  if (s.partition == t.partition) {
    best = venue.IntraPartitionDistance(s.partition, s.position, t.position);
  }
  std::vector<viptree::DijkstraSource> sources;
  for (const viptree::DoorId u : venue.DoorsOf(s.partition)) {
    sources.push_back({u, venue.DistanceToDoor(s, u)});
  }
  viptree::DijkstraEngine dijkstra(graph);
  dijkstra.Start(viptree::Span<const viptree::DijkstraSource>(
      sources.data(), sources.size()));
  dijkstra.RunAll();
  for (const viptree::DoorId d : venue.DoorsOf(t.partition)) {
    if (!dijkstra.Settled(d)) continue;
    best = std::min(best, dijkstra.DistanceTo(d) + venue.DistanceToDoor(t, d));
  }
  return best;
}

}  // namespace

size_t OracleCheck(const Workload& w, const References& refs, uint64_t seed,
                   size_t per_venue, size_t* mismatches) {
  // A seeded sample of the workload's own distance queries, per venue.
  const std::vector<eng::Request>& distance = w.by_kind[0];
  std::vector<size_t> order(distance.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  viptree::Rng rng(seed ^ 0x0AC1E);
  std::shuffle(order.begin(), order.end(), rng.engine());
  std::map<std::string, size_t> taken;
  size_t checked = 0;
  *mismatches = 0;
  for (const size_t i : order) {
    const eng::Request& r = distance[i];
    if (taken[r.venue_id] >= per_venue) continue;
    ++taken[r.venue_id];
    eng::QueryEngine& engine = refs.engine(r.venue_id);
    const double got = engine.Run(r.query).distance;
    const double want = DijkstraDistance(engine.venue(), engine.graph(),
                                         r.query.source, r.query.target);
    if (!(std::abs(got - want) <= 1e-2 + std::abs(want) * 1e-4)) {
      std::fprintf(stderr, "oracle mismatch on %s: index %.6f, dijkstra %.6f\n",
                   r.venue_id.c_str(), got, want);
      ++*mismatches;
    }
    ++checked;
  }
  return checked;
}

}  // namespace fleetbench
