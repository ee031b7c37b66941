// Shortest path queries (§3.2 / §3.3): recover the full door sequence of
// the shortest path by decomposing the partial path maintained by the
// distance query (Algorithm 4).
//
// IPPathQuery decomposes partial edges top-down through node distance
// matrices (descending into the deepest node whose matrix represents the
// pair, which subsumes the paper's lowest-common-ancestor rule).
// VIPPathQuery walks next-hop pointers of the materialized matrices and
// achieves the expected O(w) of §3.3. Same-leaf pairs take the winner of
// the same-leaf rule (IPDistanceQuery::LocalDistance): an interior route
// is read off the leaf-interior search, an exit route is expanded through
// the leaf's next-hop matrix, and the reported distance is the rule's, so
// Path(s, t).distance == Distance(s, t) bit for bit.

#ifndef VIPTREE_CORE_PATH_QUERY_H_
#define VIPTREE_CORE_PATH_QUERY_H_

#include <vector>

#include "core/distance_query.h"

namespace viptree {

struct IndoorPath {
  double distance = kInfDistance;
  // Door sequence from s to t; empty when the best route stays inside one
  // partition (s and t see each other directly).
  std::vector<DoorId> doors;
};

class IPPathQuery {
 public:
  // `cache` as in IPDistanceQuery (forwarded to the internal engine);
  // nullptr disables memoization.
  explicit IPPathQuery(const IPTree& tree,
                       const DistanceQueryOptions& options = {},
                       DistanceCache* cache = nullptr);

  IndoorPath Path(const IndoorPoint& s, const IndoorPoint& t) const;
  IndoorPath DoorPath(DoorId s, DoorId t) const;

 private:
  friend class VIPPathQuery;

  IndoorPath CrossLeafPath(const QuerySource& s, const QuerySource& t) const;
  // Same-leaf path for s and t in `leaf`.
  IndoorPath LocalPath(const QuerySource& s, const QuerySource& t,
                       NodeId leaf) const;

  // Appends the doors strictly between x and y on a shortest path found by
  // a Dijkstra from x: recovers the rare segments no node matrix
  // represents.
  void AppendSearchedSegment(DoorId x, DoorId y,
                             std::vector<DoorId>& out) const;

  // Appends the doors strictly between x and y on their shortest path,
  // using the matrices of `ctx` and below. `ctx` must represent the pair.
  void Expand(DoorId x, DoorId y, NodeId ctx, std::vector<DoorId>& out) const;

  // Deepest node under `ctx` (inclusive) whose matrix represents (x, y).
  NodeId Descend(DoorId x, DoorId y, NodeId ctx) const;
  bool Represents(DoorId x, DoorId y, NodeId n) const;

  // Turns an ascent into the partial door path source -> top access door
  // `top_idx` (index into AD(chain.back())). Returns door sequence plus the
  // context node for each edge.
  struct PartialPath {
    std::vector<DoorId> doors;
    std::vector<NodeId> edge_ctx;  // edge i connects doors[i] -> doors[i+1]
  };
  PartialPath Backtrack(const AscentDistances& ascent, size_t top_idx) const;

  const IPTree& tree_;
  IPDistanceQuery query_;
  mutable DijkstraEngine segment_search_;  // AppendSearchedSegment scratch
  mutable std::vector<double> seed_;       // LocalPath scratch
  mutable std::vector<PathBack> seed_back_;
  mutable std::vector<int32_t> row_idx_, col_idx_;  // CrossLeafPath join
};

class VIPPathQuery {
 public:
  explicit VIPPathQuery(const VIPTree& tree,
                        const DistanceQueryOptions& options = {},
                        DistanceCache* cache = nullptr);

  IndoorPath Path(const IndoorPoint& s, const IndoorPoint& t) const;
  IndoorPath DoorPath(DoorId s, DoorId t) const;

 private:
  IndoorPath CrossLeafPath(const QuerySource& s, const QuerySource& t) const;

  // Appends the doors strictly between x and access door index `col` of
  // node A (an ancestor of Leaf(x)), walking materialized next-hops.
  void WalkToAncestorAd(DoorId x, NodeId ancestor, size_t col,
                        std::vector<DoorId>& out) const;

  const VIPTree& vip_;
  VIPDistanceQuery query_;
  IPPathQuery ip_path_;  // leaf-level and fallback expansion
  mutable std::vector<int32_t> row_idx_, col_idx_;
};

}  // namespace viptree

#endif  // VIPTREE_CORE_PATH_QUERY_H_
