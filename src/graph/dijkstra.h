// Reusable Dijkstra engine over the D2D graph.
//
// One engine instance owns distance / parent / epoch arrays sized to the
// graph, so repeated queries (index construction issues one search per
// access door; DistAw issues one per query) cost O(visited) instead of
// O(|V|) re-initialization. The engine exposes an incremental interface --
// Start() then SettleNext() -- because the DistAw kNN/range algorithms need
// to examine doors in increasing distance order and stop early.
//
// Not thread-safe; use one engine per thread.

#ifndef VIPTREE_GRAPH_DIJKSTRA_H_
#define VIPTREE_GRAPH_DIJKSTRA_H_

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "graph/d2d_graph.h"
#include "model/types.h"
#include "common/span.h"

namespace viptree {

// A source door with an initial distance offset (multi-source searches from
// a query point seed every door of its partition with the intra-partition
// walking distance).
struct DijkstraSource {
  DoorId door = kInvalidId;
  double offset = 0.0;
};

struct SettledDoor {
  DoorId door = kInvalidId;
  double distance = 0.0;
};

class DijkstraEngine {
 public:
  // The graph must outlive the engine.
  explicit DijkstraEngine(const D2DGraph& graph);

  DijkstraEngine(const DijkstraEngine&) = delete;
  DijkstraEngine& operator=(const DijkstraEngine&) = delete;
  // Movable so the query engines holding Dijkstra scratch can themselves be
  // moved into owning containers (engine::VenueBundle).
  DijkstraEngine(DijkstraEngine&&) = default;

  // Begins a new search from the given sources, invalidating all state from
  // the previous search.
  void Start(Span<const DijkstraSource> sources);
  void Start(DoorId source) {
    const DijkstraSource s{source, 0.0};
    Start(Span<const DijkstraSource>(&s, 1));
  }

  // Settles and returns the next-closest door, or a door with
  // id == kInvalidId when the reachable space is exhausted.
  SettledDoor SettleNext();

  // SettleNext over the subgraph of edges for which keep(edge) holds (the
  // same-leaf query rule searches one leaf's interior this way). SettleNext
  // instantiates it with a constant predicate, so the unrestricted loop
  // that index construction runs carries no per-edge test.
  template <typename Keep>
  SettledDoor SettleNextWhere(const Keep& keep);

  // Distance of the door the next SettleNext would settle, kInfDistance
  // when the reachable space is exhausted: a lower bound on the distance of
  // every door not yet settled.
  double NextDistance();

  // Runs until all doors in `targets` are settled (or the graph is
  // exhausted). Returns the number of targets actually reached.
  size_t RunToTargets(Span<const DoorId> targets);

  // Runs until the next door to settle is farther than `radius`.
  void RunWithin(double radius);

  // Runs the search to completion.
  void RunAll();

  // Accessors for the current search. Distance is kInfDistance for doors
  // not yet settled (or unreachable).
  bool Settled(DoorId d) const {
    return epoch_mark_[d] == epoch_ && settled_[d];
  }
  double DistanceTo(DoorId d) const {
    return Settled(d) ? dist_[d] : kInfDistance;
  }
  // Predecessor door on the shortest path from the nearest source
  // (kInvalidId for source doors), and the partition the final edge
  // traverses.
  DoorId ParentOf(DoorId d) const { return Settled(d) ? parent_[d] : kInvalidId; }
  PartitionId ParentVia(DoorId d) const {
    return Settled(d) ? parent_via_[d] : kInvalidId;
  }

  // Reconstructs the door sequence from the source to `d` (source door
  // first, `d` last). `d` must be settled.
  std::vector<DoorId> PathTo(DoorId d) const;

  size_t NumSettledInSearch() const { return settled_count_; }

 private:
  struct AllEdges {
    constexpr bool operator()(const D2DEdge&) const { return true; }
  };

  void Reach(DoorId d, double dist, DoorId parent, PartitionId via);

  const D2DGraph& graph_;
  std::vector<double> dist_;
  std::vector<DoorId> parent_;
  std::vector<PartitionId> parent_via_;
  std::vector<uint8_t> settled_;
  std::vector<uint32_t> epoch_mark_;
  uint32_t epoch_ = 0;
  size_t settled_count_ = 0;

  using HeapEntry = std::pair<double, DoorId>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap_;
};

template <typename Keep>
SettledDoor DijkstraEngine::SettleNextWhere(const Keep& keep) {
  while (!heap_.empty()) {
    const auto [d, u] = heap_.top();
    heap_.pop();
    if (settled_[u] && epoch_mark_[u] == epoch_) continue;  // stale entry
    if (d > dist_[u]) continue;                             // stale entry
    settled_[u] = 1;
    ++settled_count_;
    for (const D2DEdge& e : graph_.EdgesOf(u)) {
      const double cand = d + e.weight;
      // Most edges reach a door already seen at least as close (every
      // settled door is, weights being non-negative): one mark and one
      // distance load reject them before the settled flag is read.
      if (epoch_mark_[e.to] == epoch_ &&
          (!(cand < dist_[e.to]) || settled_[e.to])) {
        continue;
      }
      if (!keep(e)) continue;
      Reach(e.to, cand, u, e.via);
    }
    return SettledDoor{u, d};
  }
  return SettledDoor{kInvalidId, kInfDistance};
}

}  // namespace viptree

#endif  // VIPTREE_GRAPH_DIJKSTRA_H_
