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
#include <memory>
#include <string>
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

// An object the search scores as a member of its leaf without it being
// packed into the ObjectIndex: an entry of the live-object overlay
// (core/live_objects.h). door_dists is ObjectIndex::AccessDoorDistances
// over the access doors of the object's leaf, so the object gets the
// distance, bit for bit, that it gets once packed into the CSR. The row is
// immutable and shared by every snapshot that holds the entry.
struct LeafObject {
  ObjectId id = kInvalidId;
  IndoorPoint point;
  std::vector<std::string> keywords;  // empty on keywordless venues
  uint32_t leaf_dfs = 0;              // TreeNode::leaf_begin of its leaf
  std::shared_ptr<const std::vector<double>> door_dists;
};

// LeafObjects scored next to the packed objects of their leaves. `by_leaf`
// indexes `objects` by ascending (leaf_dfs, id); leaf i's entries are
// by_leaf[leaf_offsets[i] .. leaf_offsets[i + 1]). hidden_prefix[i] counts
// the packed objects in leaves below DFS index i that Filters::object
// always rejects (stale copies, tombstones), so a subtree holding nothing
// else is pruned. `filter` (empty admits all) is Filters::object's twin.
struct ExtraObjects {
  const std::vector<LeafObject>* objects = nullptr;
  const std::vector<uint32_t>* by_leaf = nullptr;
  const std::vector<uint32_t>* leaf_offsets = nullptr;
  const std::vector<uint32_t>* hidden_prefix = nullptr;
  std::function<bool(const LeafObject&)> filter;

  // The by_leaf run of entries whose leaf DFS index is in [begin, end).
  Span<const uint32_t> InLeaves(uint32_t begin, uint32_t end) const {
    return {by_leaf->data() + (*leaf_offsets)[begin],
            (*leaf_offsets)[end] - (*leaf_offsets)[begin]};
  }
  // Objects the search can report under `node`: packed minus hidden plus
  // extra.
  size_t CountUnder(const ObjectIndex& packed, const TreeNode& node) const {
    return packed.SubtreeCount(node) -
           ((*hidden_prefix)[node.leaf_end] -
            (*hidden_prefix)[node.leaf_begin]) +
           InLeaves(node.leaf_begin, node.leaf_end).size();
  }
};

class KnnQuery {
 public:
  // `cache` as in IPDistanceQuery: memoizes the access-door index maps of
  // the Lemma 8/9 bound derivation (and everything the internal distance
  // engine caches); nullptr disables memoization.
  KnnQuery(const IPTree& tree, const ObjectIndex& objects,
           const DistanceQueryOptions& options = {},
           DistanceCache* cache = nullptr);

  // The k nearest objects to q, ascending by (distance, id).
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

  // All objects within `radius` of q, ascending by (distance, id): the
  // range query of §3.4, reached through RangeQuery for API symmetry.
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

  // The live-object snapshot reader's searches (core/live_objects.h): the
  // packed objects passing `filters` plus the `extra` objects, scored
  // together leaf by leaf, with the root ascent precomputed (see
  // KnnWithAscent). Either the k nearest or, with Range, everything within
  // `radius`.
  std::vector<ObjectResult> KnnFilteredWithAscent(
      const IndoorPoint& q, size_t k, const Filters& filters,
      const ExtraObjects& extra, const AscentDistances& ascent,
      SearchStats* stats = nullptr) const {
    return Search(q, k, kInfDistance, &filters, stats, &ascent, &extra);
  }
  std::vector<ObjectResult> RangeFilteredWithAscent(
      const IndoorPoint& q, double radius, const Filters& filters,
      const ExtraObjects& extra, const AscentDistances& ascent,
      SearchStats* stats = nullptr) const {
    return Search(q, std::numeric_limits<size_t>::max(), radius, &filters,
                  stats, &ascent, &extra);
  }

  // Re-points the search at another packed index over the same tree,
  // keeping the search scratch (the snapshot reader swaps epochs so).
  void set_objects(const ObjectIndex& objects) { objects_ = &objects; }

 private:
  // Shared branch-and-bound: best-first traversal collecting either the k
  // nearest or everything within a fixed radius, ascending by (distance,
  // id). `precomputed`, when set, replaces the line-2 root ascent (must be
  // ComputeAscent(q)'s output).
  std::vector<ObjectResult> Search(
      const IndoorPoint& q, size_t k, double radius,
      const Filters* filters = nullptr, SearchStats* stats = nullptr,
      const AscentDistances* precomputed = nullptr,
      const ExtraObjects* extra = nullptr) const;

  // Term A of the same-leaf rule (IPDistanceQuery::LocalDistance) for the
  // objects of q's own leaf, at `points`: folds the interior-route and
  // straight-leg distances into `best`, which already holds the exit-route
  // term.
  void FoldInteriorDistances(const IndoorPoint& q, NodeId leaf,
                             const std::vector<const IndoorPoint*>& points,
                             std::vector<double>& best) const;

  const IPTree& tree_;
  const ObjectIndex* objects_;
  IPDistanceQuery query_;
  mutable std::vector<int32_t> bound_rows_, bound_cols_;  // Lemma 8/9
  mutable std::vector<const IndoorPoint*> leaf_points_;   // q's own leaf
};

}  // namespace viptree

#endif  // VIPTREE_CORE_KNN_QUERY_H_
