// In-store navigation in a shopping centre (§1.1): "a disabled person may
// issue a query to find accessible toilets within 100 meters" and "a
// passenger may want to find the shortest path to the boarding gate".
// Demonstrates kNN, range and boolean keyword queries over facility objects
// in a Melbourne Central-like mall — served the way a mall's location
// service actually receives them: through the async engine::Service
// front-end, one Submit per shopper request, answers delivered via Ticket
// futures and streaming callbacks with a per-request deadline budget.

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "engine/service.h"
#include "graph/d2d_graph.h"
#include "synth/objects.h"
#include "synth/presets.h"

using namespace viptree;

int main() {
  // The Melbourne Central analogue of Table 2.
  const Venue venue = synth::MakeDataset(synth::Dataset::kMC);
  const D2DGraph graph(venue);
  std::printf("mall: %zu partitions over 7 levels, %zu doors\n",
              venue.NumPartitions(), venue.NumDoors());

  // Facilities: washrooms, half of them wheelchair-accessible. Keyword
  // lists feed the engine's boolean kNN queries (§1.3).
  Rng rng(12);
  const std::vector<IndoorPoint> washrooms = synth::PlaceObjects(venue, 8, rng);
  engine::EngineOptions options;
  options.object_keywords.resize(washrooms.size());
  for (size_t i = 0; i < washrooms.size(); ++i) {
    options.object_keywords[i] = {"washroom"};
    if (i % 2 == 0) options.object_keywords[i].push_back("accessible");
  }

  // Stand up the serving front-end: a shared immutable bundle behind a
  // resident two-worker service (threads created once, then every shopper
  // request is a Submit).
  const auto bundle = std::make_shared<const engine::VenueBundle>(
      engine::VenueBundle::BuildFrom(venue, graph, washrooms, options));
  engine::ServiceOptions service_options;
  service_options.num_threads = 2;
  engine::Service service(bundle, service_options);
  service.Start();

  // A shopper somewhere on an upper level, with a 100 ms answer budget —
  // past that the app would have re-asked anyway.
  IndoorPoint shopper = synth::RandomIndoorPoint(venue, rng);
  std::printf("shopper is in %s (level %d)\n",
              venue.partition(shopper.partition).name.c_str(),
              venue.partition(shopper.partition).level);

  // Worker callbacks below share stdout; this mutex keeps multi-line
  // blocks whole.
  std::mutex print_mu;

  engine::Request nearest_request;
  nearest_request.query = engine::Query::Knn(shopper, 1);
  nearest_request.deadline = engine::DeadlineAfterMillis(100.0);
  engine::Ticket nearest = service.Submit(std::move(nearest_request));

  // The ticket is a future: Wait() blocks until a worker answered.
  const engine::Response& response = nearest.Wait();
  if (response.ok() && !response.result.objects.empty()) {
    const ObjectResult& hit = response.result.objects[0];
    const IndoorPoint& w = washrooms[hit.object];
    std::printf("nearest washroom: %s (level %d) at %.1f m\n",
                venue.partition(w.partition).name.c_str(),
                venue.partition(w.partition).level, hit.distance);

    // Walkable directions, streamed: the callback runs on a worker thread
    // the moment the door sequence is ready.
    engine::Request path_request;
    path_request.query = engine::Query::Path(shopper, w);
    service.Submit(
        std::move(path_request),
        engine::MakeCallbackSink(
            [&venue, &print_mu](const engine::Response& path_response) {
              if (!path_response.ok()) return;
              const auto& doors = path_response.result.doors;
              int level_changes = 0;
              for (size_t i = 0; i + 1 < doors.size(); ++i) {
                const int la =
                    static_cast<int>(venue.door(doors[i]).position.z);
                const int lb =
                    static_cast<int>(venue.door(doors[i + 1]).position.z);
                if (la != lb) ++level_changes;
              }
              std::lock_guard<std::mutex> lock(print_mu);
              std::printf("route crosses %zu doors with %d level change(s)\n",
                          doors.size(), level_changes);
            }));
  }

  // "accessible toilets within 100 meters": boolean-keyword kNN filtered
  // to the quoted radius, plus the plain range query for comparison —
  // submitted together, delivered as each completes.
  engine::Request accessible_request;
  accessible_request.query =
      engine::Query::BooleanKnn(shopper, 3, {"accessible"});
  service.Submit(
      std::move(accessible_request),
      engine::MakeCallbackSink([&](const engine::Response& r) {
        if (!r.ok()) return;
        auto matches = r.result.objects;
        matches.erase(std::remove_if(matches.begin(), matches.end(),
                                     [](const ObjectResult& m) {
                                       return m.distance > 100.0;
                                     }),
                      matches.end());
        std::lock_guard<std::mutex> lock(print_mu);
        std::printf("%zu accessible washroom(s) within 100 m:\n",
                    matches.size());
        for (const ObjectResult& m : matches) {
          std::printf("  %s at %.1f m\n",
                      venue.partition(washrooms[m.object].partition)
                          .name.c_str(),
                      m.distance);
        }
      }));
  engine::Request range_request;
  range_request.query = engine::Query::Range(shopper, 100.0);
  service.Submit(std::move(range_request),
                 engine::MakeCallbackSink([&](const engine::Response& r) {
                   if (!r.ok()) return;
                   std::lock_guard<std::mutex> lock(print_mu);
                   std::printf("%zu washroom(s) of any kind within 100 m\n",
                               r.result.objects.size());
                 }));

  // Every submitted request (and its delivery) completes before Drain
  // returns; Stop joins the resident workers.
  service.Drain();
  const engine::ServiceStats stats = service.Stats();
  std::printf("service answered %zu requests (p99 %.1f us exec, "
              "%.1f us queued)\n",
              stats.num_queries, stats.latency_micros.p99,
              stats.queue_micros.p99);
  service.Stop();
  return 0;
}
