#include "core/knn_query.h"

#include <algorithm>
#include <queue>

#include "common/check.h"
#include "common/kernels.h"
#include "common/span.h"

namespace viptree {

namespace {

// The total order of every answer and of the k-th-place cut.
bool ResultLess(const ObjectResult& a, const ObjectResult& b) {
  return a.distance != b.distance ? a.distance < b.distance
                                  : a.object < b.object;
}

}  // namespace

KnnQuery::KnnQuery(const IPTree& tree, const ObjectIndex& objects,
                   const DistanceQueryOptions& options, DistanceCache* cache)
    : tree_(tree), objects_(&objects), query_(tree, options, cache) {}

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

void KnnQuery::FoldInteriorDistances(
    const IndoorPoint& q, NodeId leaf,
    const std::vector<const IndoorPoint*>& points,
    std::vector<double>& best) const {
  const Venue& venue = tree_.venue();
  for (size_t i = 0; i < points.size(); ++i) {
    const IndoorPoint& obj = *points[i];
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
    for (size_t i = 0; i < points.size(); ++i) {
      const IndoorPoint& obj = *points[i];
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
    SearchStats* stats, const AscentDistances* precomputed,
    const ExtraObjects* extra) const {
  if (stats != nullptr) *stats = SearchStats{};
  std::vector<ObjectResult> results;
  if (k == 0 || (objects_->NumObjects() == 0 &&
                 (extra == nullptr || extra->by_leaf->empty()))) {
    return results;
  }
  auto node_allowed = [filters](NodeId n) {
    return filters == nullptr || !filters->node || filters->node(n);
  };
  auto object_allowed = [filters](ObjectId o) {
    return filters == nullptr || !filters->object || filters->object(o);
  };
  auto extra_allowed = [extra](const LeafObject& e) {
    return !extra->filter || extra->filter(e);
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

  // Results as a max-heap under (distance, id) so dk (distance to the
  // current kth NN) is O(1) and the k-th-place cut breaks ties by id.
  std::priority_queue<ObjectResult, std::vector<ObjectResult>,
                      decltype(&ResultLess)>
      best(&ResultLess);
  auto dk = [&]() {
    if (radius != kInfDistance) {
      return best.size() >= k ? std::min(radius, best.top().distance) : radius;
    }
    return best.size() >= k ? best.top().distance : kInfDistance;
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
        const TreeNode& c = tree_.node(child);
        const bool empty = extra != nullptr
                               ? extra->CountUnder(*objects_, c) == 0
                               : objects_->SubtreeCount(c) == 0;
        if (empty || !node_allowed(child)) continue;
        heap.emplace(mindist(child), child);
      }
      continue;
    }
    // Leaf: exact object distances, packed objects first, then the extra
    // objects of this leaf scored from their own door rows.
    const Span<const ObjectId> objs = objects_->ObjectsInLeaf(n);
    const Span<const uint32_t> hot =
        extra != nullptr
            ? extra->InLeaves(node.leaf_begin, node.leaf_begin + 1)
            : Span<const uint32_t>();
    const size_t count = objs.size() + hot.size();
    if (count == 0) continue;
    const auto extra_at = [&](size_t i) -> const LeafObject& {
      return (*extra->objects)[hot[i - objs.size()]];
    };
    // One contiguous distance row per access door (see ObjectIndex layout):
    // column-outer order keeps the kernel scanning sequential rows. In q's
    // own leaf this is the exit-route term of the same-leaf rule (its
    // ad_dist is the rule's seed), and the interior term is folded in.
    const std::vector<double>& q_to_ad = ensure_ad_dist(n);
    leaf_best.assign(count, kInfDistance);
    for (size_t col = 0; col < node.access_doors.size(); ++col) {
      const double q_to_door = q_to_ad[col];
      if (q_to_door == kInfDistance) continue;  // inf row never improves
      if (col + 1 < node.access_doors.size()) {
        kernels::PrefetchRead(objects_->DoorDistances(n, col + 1).data());
      }
      kernels::MinPlusRow(leaf_best.data(),
                          objects_->DoorDistances(n, col).data(), q_to_door,
                          objs.size());
      // The same candidate, in the same operand order, as MinPlusRow's.
      for (size_t i = objs.size(); i < count; ++i) {
        const double cand = q_to_door + (*extra_at(i).door_dists)[col];
        if (cand < leaf_best[i]) leaf_best[i] = cand;
      }
    }
    if (n == q_leaf) {
      leaf_points_.clear();
      for (const ObjectId o : objs) {
        leaf_points_.push_back(&objects_->object(o));
      }
      for (size_t i = objs.size(); i < count; ++i) {
        leaf_points_.push_back(&extra_at(i).point);
      }
      FoldInteriorDistances(q, n, leaf_points_, leaf_best);
    }
    if (stats != nullptr) stats->objects_considered += count;
    const auto report = [&](size_t i) {
      ObjectId id = kInvalidId;
      if (i < objs.size()) {
        id = objs[i];
        if (!object_allowed(id)) return;
      } else {
        const LeafObject& e = extra_at(i);
        if (!extra_allowed(e)) return;
        id = e.id;
      }
      const ObjectResult r{id, leaf_best[i]};
      if (collect_all) {
        results.push_back(r);
      } else if (best.size() < k) {
        best.push(r);
      } else if (ResultLess(r, best.top())) {
        best.pop();
        best.push(r);
      }
    };
    if (collect_all) {
      // Range mode: batch-filter the leaf against the radius instead of
      // testing objects one by one.
      in_radius.resize(count);
      const size_t hits = kernels::FilterLeq(leaf_best.data(), count, radius,
                                             in_radius.data());
      for (size_t h = 0; h < hits; ++h) {
        report(static_cast<size_t>(in_radius[h]));
      }
      continue;
    }
    for (size_t i = 0; i < count; ++i) {
      if (leaf_best[i] <= radius) report(i);
    }
  }

  if (collect_all) {
    std::sort(results.begin(), results.end(), ResultLess);
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
