// Emergency evacuation: "in an emergency, an indoor LBS can guide people to
// the nearby exit doors" (§1.1). Builds a tower, picks occupants on random
// floors, and routes each of them to their nearest building exit. The
// (occupant, exit) distance matrix is streamed through the async
// engine::Service front-end — every distance request is a Submit whose
// callback fills one slot of the matrix as workers complete them — and
// each occupant's full door path comes back through a Ticket. Compares
// against a plain Dijkstra expansion (the DistAw approach).

#include <algorithm>
#include <cstdio>
#include <memory>

#include "baselines/dist_aware.h"
#include "common/stats.h"
#include "engine/service.h"
#include "graph/d2d_graph.h"
#include "synth/building_generator.h"
#include "synth/objects.h"

using namespace viptree;

int main() {
  synth::BuildingConfig config;
  config.name = "tower";
  config.floors = 12;
  config.rooms_per_floor = 60;
  config.staircases = 3;
  config.lifts = 1;
  config.exits = 4;
  const Venue venue = synth::GenerateStandaloneBuilding(config, /*seed=*/99);
  const D2DGraph graph(venue);

  // The serving front-end: resident workers over the shared bundle, fed
  // one Submit per (occupant, exit) pair.
  const auto bundle = std::make_shared<const engine::VenueBundle>(
      engine::VenueBundle::BuildFrom(venue, graph, /*objects=*/{}));
  engine::ServiceOptions service_options;
  service_options.num_threads = 4;
  service_options.queue_capacity = 4096;
  engine::Service service(bundle, service_options);
  service.Start();

  // Exits are the exterior doors of the venue = the access doors of the
  // tree root (exactly the paper's d1/d7/d20 situation in Fig. 1).
  const IPTree& tree = bundle->tree().base();
  const std::vector<DoorId>& exits = tree.node(tree.root()).access_doors;
  std::printf("tower has %zu exits\n", exits.size());

  Rng rng(5);
  const std::vector<IndoorPoint> occupants =
      synth::RandomQueryPoints(venue, 200, rng);
  std::vector<IndoorPoint> exit_points;
  exit_points.reserve(exits.size());
  for (DoorId exit : exits) {
    exit_points.push_back(IndoorPoint{venue.door(exit).partition_a,
                                      venue.door(exit).position});
  }

  // Stream the whole (occupant, exit) matrix through the service into one
  // sink: the tag encodes the slot, each delivery writes its own disjoint
  // cell (Drain's synchronization publishes them to this thread), so no
  // lock is needed.
  const size_t num_exits = exit_points.size();
  std::vector<double> distances(occupants.size() * num_exits, kInfDistance);
  const std::shared_ptr<engine::ResponseSink> sink = engine::MakeCallbackSink(
      [&distances](const engine::Response& response) {
        if (response.ok()) distances[response.tag] = response.result.distance;
      });
  Timer timer;
  for (size_t i = 0; i < occupants.size(); ++i) {
    for (size_t e = 0; e < num_exits; ++e) {
      engine::Request request;
      request.query = engine::Query::Distance(occupants[i], exit_points[e]);
      request.tag = i * num_exits + e;
      service.Submit(std::move(request), sink);
    }
  }
  service.Drain();

  // Pick each occupant's nearest exit and recover the full door path —
  // ticket futures this time, one per occupant.
  std::vector<engine::Ticket> paths;
  paths.reserve(occupants.size());
  double total = 0.0;
  for (size_t i = 0; i < occupants.size(); ++i) {
    double best = kInfDistance;
    size_t best_exit = 0;
    for (size_t e = 0; e < num_exits; ++e) {
      const double d = distances[i * num_exits + e];
      if (d < best) {
        best = d;
        best_exit = e;
      }
    }
    total += best;
    engine::Request request;
    request.query =
        engine::Query::Path(occupants[i], exit_points[best_exit]);
    paths.push_back(service.Submit(std::move(request)));
  }
  size_t total_doors = 0;
  for (engine::Ticket& ticket : paths) {
    const engine::Response& response = ticket.Wait();
    if (response.ok()) total_doors += response.result.doors.size();
  }
  const double vip_ms = timer.ElapsedMillis();
  const engine::ServiceStats stats = service.Stats();
  std::printf(
      "VIP service: routed %zu occupants in %.2f ms (%zu requests, "
      "p99 %.1f us; avg escape %.1f m, avg %zu doors)\n",
      occupants.size(), vip_ms, stats.num_queries,
      stats.latency_micros.p99, total / occupants.size(),
      total_doors / occupants.size());
  service.Stop();

  // The same routing with Dijkstra expansion per occupant.
  DistAwareModel dijkstra_router(venue, graph);
  timer.Reset();
  double check = 0.0;
  for (const IndoorPoint& person : occupants) {
    double best = kInfDistance;
    for (const IndoorPoint& exit_point : exit_points) {
      best = std::min(best, dijkstra_router.Distance(person, exit_point));
    }
    check += best;
  }
  const double dij_ms = timer.ElapsedMillis();
  std::printf("Dijkstra (DistAw): same routing in %.2f ms (%.1fx slower)\n",
              dij_ms, dij_ms / vip_ms);
  std::printf("sanity: total escape distance %.1f vs %.1f\n", total, check);
  return 0;
}
