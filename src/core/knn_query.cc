#include "core/knn_query.h"

#include <algorithm>
#include <queue>

#include "common/check.h"
#include "common/kernels.h"
#include "common/span.h"

namespace viptree {

KnnQuery::KnnQuery(const IPTree& tree, const ObjectIndex& objects,
                   const DistanceQueryOptions& options, DistanceCache* cache)
    : tree_(tree), objects_(objects), query_(tree, options, cache) {}

std::vector<ObjectResult> KnnQuery::Knn(const IndoorPoint& q, size_t k,
                                        SearchStats* stats) const {
  return Search(q, k, kInfDistance, nullptr, stats);
}

AscentDistances KnnQuery::ComputeAscent(const IndoorPoint& q) const {
  return query_.GetDistances(QuerySource::Point(q), tree_.root());
}

std::vector<ObjectResult> KnnQuery::WithinRange(const IndoorPoint& q,
                                                double radius,
                                                SearchStats* stats) const {
  return Search(q, std::numeric_limits<size_t>::max(), radius, nullptr,
                stats);
}

void KnnQuery::FoldInteriorDistances(const IndoorPoint& q, NodeId leaf,
                                     std::vector<double>& best) const {
  const Venue& venue = tree_.venue();
  const Span<const ObjectId> objs = objects_.ObjectsInLeaf(leaf);
  for (size_t i = 0; i < objs.size(); ++i) {
    const IndoorPoint& obj = objects_.object(objs[i]);
    if (obj.partition == q.partition) {
      best[i] = std::min(best[i], venue.IntraPartitionDistance(
                                      q.partition, q.position, obj.position));
    }
  }
  // Settle interior doors only while one could still improve some object.
  LeafInteriorSearch& interior = query_.interior_;
  double worst = *std::max_element(best.begin(), best.end());
  interior.Start(QuerySource::Point(q), leaf);
  while (interior.NextDistance() < worst) {
    const SettledDoor u = interior.SettleNext();
    bool improved = false;
    for (size_t i = 0; i < objs.size(); ++i) {
      const IndoorPoint& obj = objects_.object(objs[i]);
      if (!venue.DoorTouches(u.door, obj.partition)) continue;
      const double cand = u.distance + venue.DistanceToDoor(obj, u.door);
      if (cand < best[i]) {
        best[i] = cand;
        improved = true;
      }
    }
    if (improved) worst = *std::max_element(best.begin(), best.end());
  }
}

std::vector<ObjectResult> KnnQuery::Search(
    const IndoorPoint& q, size_t k, double radius, const Filters* filters,
    SearchStats* stats, const AscentDistances* precomputed) const {
  if (stats != nullptr) *stats = SearchStats{};
  std::vector<ObjectResult> results;
  if (objects_.NumObjects() == 0 || k == 0) return results;
  auto node_allowed = [filters](NodeId n) {
    return filters == nullptr || !filters->node || filters->node(n);
  };
  auto object_allowed = [filters](ObjectId o) {
    return filters == nullptr || !filters->object || filters->object(o);
  };

  // Line 2 of Algorithm 5: distances from q to the access doors of every
  // ancestor of Leaf(q) — or the caller's precomputed copy of exactly
  // that (ComputeAscent), shared across a coalesced group.
  AscentDistances computed;
  if (precomputed == nullptr) {
    computed = query_.GetDistances(QuerySource::Point(q), tree_.root());
  }
  const AscentDistances& ascent =
      precomputed != nullptr ? *precomputed : computed;
  std::unordered_map<NodeId, std::vector<double>> ad_dist;
  std::unordered_map<NodeId, int> chain_pos;  // nodes containing q
  for (size_t i = 0; i < ascent.chain.size(); ++i) {
    ad_dist[ascent.chain[i]] = ascent.ad_dist[i];
    chain_pos[ascent.chain[i]] = static_cast<int>(i);
  }
  const NodeId q_leaf = ascent.chain[0];

  // Range mode (k unbounded): every in-radius object is reported, so the
  // kth-NN heap can never prune — collect into a flat vector and sort
  // once at the end instead of paying O(log n) per insert.
  const bool collect_all = k == std::numeric_limits<size_t>::max();

  // Results as a max-heap so dk (distance to the current kth NN) is O(1).
  auto worse = [](const ObjectResult& a, const ObjectResult& b) {
    return a.distance < b.distance;
  };
  std::priority_queue<ObjectResult, std::vector<ObjectResult>,
                      decltype(worse)>
      best(worse);
  auto dk = [&]() {
    if (radius != kInfDistance) {
      return best.size() >= k ? std::min(radius, best.top().distance) : radius;
    }
    return best.size() >= k ? best.top().distance : kInfDistance;
  };
  auto offer = [&](ObjectId o, double dist) {
    if (stats != nullptr) ++stats->objects_considered;
    if (dist > radius) return;
    if (!object_allowed(o)) return;
    if (collect_all) {
      results.push_back({o, dist});
    } else if (best.size() < k) {
      best.push({o, dist});
    } else if (dist < best.top().distance) {
      best.pop();
      best.push({o, dist});
    }
  };

  // Distance from q to each access door of `n`, deriving missing vectors
  // from the parent (Lemma 9) or the sibling on q's chain (Lemma 8).
  auto ensure_ad_dist =
      [&](NodeId n) -> const std::vector<double>& {
    const auto it = ad_dist.find(n);
    if (it != ad_dist.end()) return it->second;
    const TreeNode& node = tree_.node(n);
    const NodeId parent = node.parent;
    VIPTREE_DCHECK(parent != kInvalidId);
    const TreeNode& pnode = tree_.node(parent);

    const std::vector<double>* source_dist = nullptr;
    const TreeNode* source_node = nullptr;
    NodeId source_id = kInvalidId;
    const auto chain_it = chain_pos.find(parent);
    if (chain_it != chain_pos.end() && chain_it->second > 0) {
      // Parent contains q: use the sibling on q's chain (Lemma 8).
      const NodeId sibling = ascent.chain[chain_it->second - 1];
      source_dist = &ad_dist.at(sibling);
      source_node = &tree_.node(sibling);
      source_id = sibling;
    } else {
      // Parent does not contain q: use the parent itself (Lemma 9).
      source_dist = &ad_dist.at(parent);
      source_node = &pnode;
      source_id = parent;
    }
    // Row/col positions in the parent matrix, resolved once per node (and
    // memoized across queries when a cache is attached) instead of one
    // binary search per matrix cell.
    query_.AccessDoorIndexMap(parent, n, bound_cols_);
    query_.AccessDoorIndexMap(parent, source_id, bound_rows_);
    const size_t nc = node.access_doors.size();
    const size_t nb = source_node->access_doors.size();
    std::vector<double> dist(nc, kInfDistance);
    // Row-outer kernel form: one gather per source door over its parent-
    // matrix row (common/kernels.h); same candidate per output as the
    // historical column-outer loop, folded in the same b order.
    for (size_t b = 0; b < nb; ++b) {
      const double add = (*source_dist)[b];
      if (add == kInfDistance) continue;  // inf + cell never improves
      if (b + 1 < nb) {
        kernels::PrefetchRead(
            pnode.dist.row(static_cast<size_t>(bound_rows_[b + 1])).data());
      }
      kernels::MinPlusGatherF32(
          dist.data(),
          pnode.dist.row(static_cast<size_t>(bound_rows_[b])).data(),
          bound_cols_.data(), add, nc);
    }
    return ad_dist.emplace(n, std::move(dist)).first->second;
  };

  auto mindist = [&](NodeId n) {
    if (chain_pos.count(n) > 0) return 0.0;  // node contains q
    const std::vector<double>& d = ensure_ad_dist(n);
    return kernels::RowMin(d.data(), d.size());
  };

  using HeapEntry = std::pair<double, NodeId>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;
  heap.emplace(0.0, tree_.root());

  // Per-leaf scratch (best distance per object, in-radius indices), reused
  // across leaf scans so the hot loop below stays allocation-free.
  std::vector<double> leaf_best;
  std::vector<int32_t> in_radius;

  while (!heap.empty()) {
    const auto [bound, n] = heap.top();
    heap.pop();
    if (bound > dk()) break;  // line 6-7 of Algorithm 5
    const TreeNode& node = tree_.node(n);
    if (stats != nullptr) {
      ++stats->nodes_visited;
      if (node.is_leaf()) ++stats->leaves_scanned;
    }
    if (!node.is_leaf()) {
      // Pull the child nodes (and their subtree counts) toward the cache
      // before the mindist bound derivations walk them.
      for (NodeId child : node.children) {
        kernels::PrefetchRead(&tree_.node(child));
      }
      for (NodeId child : node.children) {
        if (objects_.SubtreeCount(tree_.node(child)) == 0) continue;
        if (!node_allowed(child)) continue;
        heap.emplace(mindist(child), child);
      }
      continue;
    }
    // Leaf: exact object distances.
    const Span<const ObjectId> objs = objects_.ObjectsInLeaf(n);
    if (objs.empty()) continue;
    // One contiguous distance row per access door (see ObjectIndex layout):
    // column-outer order keeps the kernel scanning sequential rows. In q's
    // own leaf this is the exit-route term of the same-leaf rule (its
    // ad_dist is the rule's seed), and the interior term is folded in.
    const std::vector<double>& q_to_ad = ensure_ad_dist(n);
    leaf_best.assign(objs.size(), kInfDistance);
    for (size_t col = 0; col < node.access_doors.size(); ++col) {
      const double q_to_door = q_to_ad[col];
      if (q_to_door == kInfDistance) continue;  // inf row never improves
      if (col + 1 < node.access_doors.size()) {
        kernels::PrefetchRead(objects_.DoorDistances(n, col + 1).data());
      }
      kernels::MinPlusRow(leaf_best.data(),
                          objects_.DoorDistances(n, col).data(), q_to_door,
                          objs.size());
    }
    if (n == q_leaf) FoldInteriorDistances(q, n, leaf_best);
    if (collect_all) {
      // Range mode: batch-filter the leaf against the radius instead of
      // offering objects one by one.
      if (stats != nullptr) stats->objects_considered += objs.size();
      in_radius.resize(objs.size());
      const size_t hits = kernels::FilterLeq(leaf_best.data(), objs.size(),
                                             radius, in_radius.data());
      for (size_t h = 0; h < hits; ++h) {
        const size_t i = static_cast<size_t>(in_radius[h]);
        if (!object_allowed(objs[i])) continue;
        results.push_back({objs[i], leaf_best[i]});
      }
      continue;
    }
    for (size_t i = 0; i < objs.size(); ++i) offer(objs[i], leaf_best[i]);
  }

  if (collect_all) {
    std::sort(results.begin(), results.end(),
              [](const ObjectResult& a, const ObjectResult& b) {
                return a.distance != b.distance ? a.distance < b.distance
                                                : a.object < b.object;
              });
    return results;
  }
  results.reserve(best.size());
  while (!best.empty()) {
    results.push_back(best.top());
    best.pop();
  }
  std::reverse(results.begin(), results.end());
  return results;
}

}  // namespace viptree
