// Part of the reproduction of "VIP-Tree: An Effective Index for Indoor
// Spatial Queries" (Shao, Cheema, Taniar, Lu — PVLDB 10(4), 2016); all
// section/algorithm references below point into that paper.
//
// k-nearest-neighbour queries over indexed indoor objects (Algorithm 5):
// best-first search over the tree with the mindist computation of
// Lemmas 8 and 9 (distances to a node's access doors derived from its
// parent's or sibling's, each in O(rho^2)).
//
// The same engine serves IP-Tree and VIP-Tree: the paper observes both
// perform equally for kNN because the Lemma 8/9 optimization makes the
// mindist cost independent of the materialization (§3.4, §4.3.3).

#ifndef VIPTREE_CORE_KNN_QUERY_H_
#define VIPTREE_CORE_KNN_QUERY_H_

#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "core/distance_query.h"
#include "core/object_index.h"

namespace viptree {

struct ObjectResult {
  ObjectId object = kInvalidId;
  double distance = kInfDistance;
};

// Per-query work counters of the branch-and-bound search, filled when the
// caller passes a sink (batch engines aggregate them across a workload).
struct SearchStats {
  size_t nodes_visited = 0;       // heap pops (tree nodes examined)
  size_t leaves_scanned = 0;      // leaves whose objects were scored
  size_t objects_considered = 0;  // candidate objects offered to the heap
};

class KnnQuery {
 public:
  // `cache` as in IPDistanceQuery: memoizes the access-door index maps of
  // the Lemma 8/9 bound derivation (and everything the internal distance
  // engine caches); nullptr disables memoization.
  KnnQuery(const IPTree& tree, const ObjectIndex& objects,
           const DistanceQueryOptions& options = {},
           DistanceCache* cache = nullptr);

  // The k nearest objects to q, ascending by distance.
  std::vector<ObjectResult> Knn(const IndoorPoint& q, size_t k,
                                SearchStats* stats = nullptr) const;

  // Line 2 of Algorithm 5 on its own: the root ascent from q, reusable
  // across several searches for the same query point (the execution
  // planner computes it once per distinct source in a coalesced group).
  // The ascent is a deterministic function of q alone — k never enters
  // it — so Knn(q, k) == KnnWithAscent(q, k, ComputeAscent(q)) bit-for-bit.
  AscentDistances ComputeAscent(const IndoorPoint& q) const;

  // Knn with the root ascent precomputed via ComputeAscent(q).
  std::vector<ObjectResult> KnnWithAscent(const IndoorPoint& q, size_t k,
                                          const AscentDistances& ascent,
                                          SearchStats* stats = nullptr) const {
    return Search(q, k, kInfDistance, nullptr, stats, &ascent);
  }

  // All objects within `radius` of q, ascending by distance (the range
  // query of §3.4, reached through RangeQuery for API symmetry).
  std::vector<ObjectResult> WithinRange(const IndoorPoint& q, double radius,
                                        SearchStats* stats = nullptr) const;

  // Optional pruning hooks for derived query types (e.g. spatial keyword
  // queries, §1.3): subtrees where node_filter returns false are skipped,
  // objects where object_filter returns false are not reported.
  struct Filters {
    std::function<bool(NodeId)> node;
    std::function<bool(ObjectId)> object;
  };

  // The k nearest objects passing the filters.
  std::vector<ObjectResult> KnnFiltered(const IndoorPoint& q, size_t k,
                                        const Filters& filters,
                                        SearchStats* stats = nullptr) const {
    return Search(q, k, kInfDistance, &filters, stats);
  }

  // KnnFiltered with the root ascent precomputed (see KnnWithAscent); the
  // live-object snapshot reader routes coalesced kNN groups through this.
  std::vector<ObjectResult> KnnFilteredWithAscent(
      const IndoorPoint& q, size_t k, const Filters& filters,
      const AscentDistances& ascent, SearchStats* stats = nullptr) const {
    return Search(q, k, kInfDistance, &filters, stats, &ascent);
  }

  // All objects within `radius` passing the filters (the range analogue of
  // KnnFiltered; the live-object snapshot reader excludes overlay and
  // tombstoned ids through this).
  std::vector<ObjectResult> RangeFiltered(const IndoorPoint& q, double radius,
                                          const Filters& filters,
                                          SearchStats* stats = nullptr) const {
    return Search(q, std::numeric_limits<size_t>::max(), radius, &filters,
                  stats);
  }

  // RangeFiltered with the root ascent precomputed (see KnnWithAscent).
  std::vector<ObjectResult> RangeFilteredWithAscent(
      const IndoorPoint& q, double radius, const Filters& filters,
      const AscentDistances& ascent, SearchStats* stats = nullptr) const {
    return Search(q, std::numeric_limits<size_t>::max(), radius, &filters,
                  stats, &ascent);
  }

 private:
  // Shared branch-and-bound: best-first traversal collecting either the k
  // nearest or everything within a fixed radius. `precomputed`, when set,
  // replaces the line-2 root ascent (must be ComputeAscent(q)'s output).
  std::vector<ObjectResult> Search(
      const IndoorPoint& q, size_t k, double radius,
      const Filters* filters = nullptr, SearchStats* stats = nullptr,
      const AscentDistances* precomputed = nullptr) const;

  // Term A of the same-leaf rule (IPDistanceQuery::LocalDistance) for the
  // objects of q's own leaf: folds the interior-route and straight-leg
  // distances into `best`, which already holds the exit-route term.
  void FoldInteriorDistances(const IndoorPoint& q, NodeId leaf,
                             std::vector<double>& best) const;

  const IPTree& tree_;
  const ObjectIndex& objects_;
  IPDistanceQuery query_;
  mutable std::vector<int32_t> bound_rows_, bound_cols_;  // Lemma 8/9
};

}  // namespace viptree

#endif  // VIPTREE_CORE_KNN_QUERY_H_
