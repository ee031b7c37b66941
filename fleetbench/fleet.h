// The serving topology one workload runs against, all in this process over
// loopback: a net::Router in front of two net::ShardServers, each shard
// owning a multi-venue engine::Service (one worker, every option at its
// library default) over its own registry of the same snapshot manifest.
// Plus the in-process references every response is checked against.

#ifndef FLEETBENCH_FLEET_H_
#define FLEETBENCH_FLEET_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "engine/venue_bundle.h"
#include "net/router.h"
#include "net/shard_server.h"
#include "workloads.h"

namespace fleetbench {

// Where set-up time went, per stand-up (times summed over venues).
struct SetupTimes {
  double total_s = 0.0;  // everything below: what setup_s reports
  double build_s = 0.0;  // VenueBundle::Build
  double save_ms = 0.0;  // snapshot Save + manifest entry
  double registry_open_ms = 0.0;
  double start_ms = 0.0;  // shard + router Start until both shards healthy
  double first_acquire_ms = 0.0;  // first request per venue (lazy load)
  double snapshot_mb = 0.0;
  double index_mb = 0.0;  // IndexMemoryBytes of the built bundles
};

class Fleet {
 public:
  static constexpr size_t kShards = 2;

  // Builds every venue of `w`, saves the snapshots and manifest under
  // `dir`, opens one registry per shard, starts both shards and the
  // router, and sends one request per venue through the router so each
  // venue's first-touch Acquire has happened. nullptr + *error on failure.
  static std::unique_ptr<Fleet> Start(const Workload& w,
                                      const std::string& dir,
                                      SetupTimes* times, std::string* error);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Stops the router and shards and starts fresh ones over the same
  // snapshots and manifest (no rebuild), first touch included: a new
  // serving session with empty queues and statistics.
  bool Restart(const Workload& w, std::string* error);

  // Router first, then the shards; removes the snapshot files.
  void Stop();

  std::string router_endpoint() const;
  std::string shard_endpoint(size_t shard) const;
  // The shard the router assigns `venue_id` to.
  size_t ShardOf(const std::string& venue_id) const;

  viptree::net::Router& router() { return *router_; }
  viptree::net::ShardServer& shard(size_t i) { return *shards_[i]; }
  const std::string& manifest() const { return manifest_; }
  std::string SnapshotPath(const std::string& venue_id) const;

  // The bundles Build produced (aligned with Workload::venues); the
  // references run on these, the shards on the snapshots saved from them.
  const std::vector<std::shared_ptr<viptree::engine::VenueBundle>>& built()
      const {
    return built_;
  }

 private:
  Fleet() = default;
  // Opens one registry per shard, starts shards and router, waits until
  // both shards are healthy, and sends one request per venue.
  bool Serve(const Workload& w, SetupTimes* times, std::string* error);
  void StopServing();

  std::string dir_;
  std::string manifest_;
  std::vector<std::string> venue_ids_;
  std::vector<std::shared_ptr<viptree::engine::VenueBundle>> built_;
  std::vector<std::unique_ptr<viptree::net::ShardServer>> shards_;
  std::unique_ptr<viptree::net::Router> router_;
};

// Bitwise equality of two answers: distance, door sequence, objects (id
// and distance). Per-query statistics (latency, visited nodes) are not
// part of the answer.
bool SameAnswer(const viptree::engine::Result& a,
                const viptree::engine::Result& b);

// In-process reference answers via QueryEngine::RunSequential over the
// built bundles, one engine per venue.
class References {
 public:
  References(const Workload& w, const Fleet& fleet);

  // Reference results for `requests` (updates get an empty Result).
  std::vector<viptree::engine::Result> Answer(
      const std::vector<viptree::engine::Request>& requests) const;

  viptree::engine::QueryEngine& engine(const std::string& venue_id) const;

 private:
  std::vector<std::string> ids_;
  std::vector<std::unique_ptr<viptree::engine::QueryEngine>> engines_;
};

// Checks a seeded sample of distance answers per venue against a plain
// Dijkstra over the venue's door graph (graph/dijkstra.h). Returns the
// number of samples checked; *mismatches counts those outside tolerance.
size_t OracleCheck(const Workload& w, const References& refs, uint64_t seed,
                   size_t per_venue, size_t* mismatches);

}  // namespace fleetbench

#endif  // FLEETBENCH_FLEET_H_
