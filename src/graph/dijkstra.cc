#include "graph/dijkstra.h"

#include <algorithm>

#include "common/check.h"
#include "common/span.h"

namespace viptree {

DijkstraEngine::DijkstraEngine(const D2DGraph& graph)
    : graph_(graph),
      dist_(graph.NumVertices(), kInfDistance),
      parent_(graph.NumVertices(), kInvalidId),
      parent_via_(graph.NumVertices(), kInvalidId),
      settled_(graph.NumVertices(), 0),
      epoch_mark_(graph.NumVertices(), 0) {}

void DijkstraEngine::Reach(DoorId d, double dist, DoorId parent,
                           PartitionId via) {
  if (epoch_mark_[d] != epoch_) {
    epoch_mark_[d] = epoch_;
    settled_[d] = 0;
    dist_[d] = kInfDistance;
  }
  if (dist < dist_[d]) {
    dist_[d] = dist;
    parent_[d] = parent;
    parent_via_[d] = via;
    heap_.emplace(dist, d);
  }
}

void DijkstraEngine::Start(Span<const DijkstraSource> sources) {
  ++epoch_;
  settled_count_ = 0;
  // priority_queue has no clear(); rebuild it empty.
  heap_ = decltype(heap_)();
  for (const DijkstraSource& s : sources) {
    VIPTREE_DCHECK(s.door >= 0 &&
                   static_cast<size_t>(s.door) < graph_.NumVertices());
    Reach(s.door, s.offset, kInvalidId, kInvalidId);
  }
}

SettledDoor DijkstraEngine::SettleNext() {
  return SettleNextWhere(AllEdges{});
}

double DijkstraEngine::NextDistance() {
  while (!heap_.empty()) {
    const auto [d, u] = heap_.top();
    const bool stale =
        (settled_[u] && epoch_mark_[u] == epoch_) || d > dist_[u];
    if (!stale) return d;
    heap_.pop();
  }
  return kInfDistance;
}

size_t DijkstraEngine::RunToTargets(Span<const DoorId> targets) {
  size_t wanted = 0;
  for (DoorId t : targets) {
    if (!Settled(t)) ++wanted;
  }
  size_t reached = targets.size() - wanted;
  while (wanted > 0) {
    const SettledDoor s = SettleNext();
    if (s.door == kInvalidId) break;
    // Linear membership check is fine: target sets are small (the doors of
    // one node / partition).
    if (std::find(targets.begin(), targets.end(), s.door) != targets.end()) {
      --wanted;
      ++reached;
    }
  }
  return reached;
}

void DijkstraEngine::RunWithin(double radius) {
  while (!heap_.empty()) {
    if (heap_.top().first > radius) return;
    SettleNext();
  }
}

void DijkstraEngine::RunAll() {
  while (SettleNext().door != kInvalidId) {
  }
}

std::vector<DoorId> DijkstraEngine::PathTo(DoorId d) const {
  VIPTREE_CHECK(Settled(d));
  std::vector<DoorId> path;
  for (DoorId cur = d; cur != kInvalidId; cur = parent_[cur]) {
    path.push_back(cur);
    VIPTREE_DCHECK(path.size() <= graph_.NumVertices());
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace viptree
