// The benchmark's three workloads, generated from a seed. The venues are
// fixed presets (so a seed changes the traffic, not the size of the
// problem); the seed draws query points, targets and updates. Every
// workload sends the serving mix of the repository's throughput benches
// (bench/bench_common.h), with their k and radius; workloads.cc names the
// source of each parameter.
//
//   mall-hotspot  one Men-2 venue with 50 objects; sources Zipf-drawn from
//                 a 16-point hot pool, as in bench_coalesce (shared
//                 ascents and door-pair legs: where a planner or a cache
//                 would pay).
//   city-uniform  one City venue at scale 0.05, three objects per
//                 partition; uniform sources and targets (nothing shared,
//                 working set far beyond any cache).
//   fleet-churn   eight small venues over both shards, 50 objects each;
//                 cheap reads with one request in four an object-move
//                 update (wire, router and registry dominate).
//
// Every response is checked bit for bit against an in-process reference,
// so the answers must not depend on the order in which concurrent updates
// land. fleet-churn arranges that: its updates only move dedicated
// "mobile" objects between parking spots, and a read is kept only when
// every parking spot is provably beyond its answer (farther than its k-th
// neighbour, or than its radius, by a margin). The mobile objects still
// sit in the overlay every read scores, and their moves still drive the
// overlay merges — they just never appear in an answer.

#ifndef FLEETBENCH_WORKLOADS_H_
#define FLEETBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/service.h"
#include "model/venue.h"

namespace fleetbench {

struct VenueInput {
  VenueInput(std::string venue_id, viptree::Venue v)
      : id(std::move(venue_id)), venue(std::move(v)) {}

  std::string id;
  viptree::Venue venue;
  std::vector<viptree::IndoorPoint> objects;
};

// Query kinds the ladder samples, in metric-name order.
inline constexpr std::array<const char*, 4> kQueryKinds = {
    "distance", "path", "knn", "range"};

struct Workload {
  std::string name;
  std::vector<VenueInput> venues;

  // The traffic of every timed phase: the i-th request sent is
  // pool[i % pool.size()]. Reads and (fleet-churn only) updates.
  std::vector<viptree::engine::Request> pool;
  // Object moves: sent one at a time after each round's reads, and applied
  // in-process by the ladder's live-object rung.
  std::vector<viptree::engine::Request> update_pool;

  // Ladder samples: per query kind (kQueryKinds order), drawn with the
  // workload's own source/target distributions.
  std::array<std::vector<viptree::engine::Request>, 4> by_kind;

  // Offered rate of the open loop: about a quarter of the closed-loop
  // throughput this workload reaches.
  double open_rate = 0.0;
};

// Builds the named workload's inputs. Deterministic in (name, seed).
// Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

}  // namespace fleetbench

#endif  // FLEETBENCH_WORKLOADS_H_
