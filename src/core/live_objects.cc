#include "core/live_objects.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

namespace viptree {

namespace {

bool HasAllStrings(const std::vector<std::string>& have,
                   const std::vector<std::string>& wanted) {
  for (const std::string& word : wanted) {
    if (std::find(have.begin(), have.end(), word) == have.end()) return false;
  }
  return true;
}

bool ResultLess(const ObjectResult& a, const ObjectResult& b) {
  return a.distance != b.distance ? a.distance < b.distance
                                  : a.object < b.object;
}

}  // namespace

bool ObjectSnapshot::IsRemoved(ObjectId o) const {
  return std::binary_search(removed.begin(), removed.end(), o);
}

const ObjectSnapshot::OverlayEntry* ObjectSnapshot::FindOverlay(
    ObjectId o) const {
  const auto it = std::lower_bound(
      overlay.begin(), overlay.end(), o,
      [](const OverlayEntry& e, ObjectId id) { return e.id < id; });
  return (it != overlay.end() && it->id == o) ? &*it : nullptr;
}

LiveObjectIndex::LiveObjectIndex(
    const IPTree& tree, std::vector<IndoorPoint> objects,
    std::vector<std::vector<std::string>> keywords, const Options& options)
    : tree_(tree), options_(options) {
  VIPTREE_CHECK_MSG(keywords.empty() || keywords.size() == objects.size(),
                    "object keywords must align with the object list");
  std::lock_guard<std::mutex> lock(write_mu_);
  positions_ = std::move(objects);
  has_keywords_ = !keywords.empty();
  keyword_strings_ = std::move(keywords);
  keyword_strings_.resize(positions_.size());
  removed_flags_.assign(positions_.size(), 0);
  MergeLocked();
  PublishLocked();
}

LiveObjectIndex::LiveObjectIndex(const IPTree& tree,
                                 std::shared_ptr<const ObjectIndex> base,
                                 std::shared_ptr<const KeywordIndex> keywords,
                                 const Options& options)
    : tree_(tree), options_(options) {
  VIPTREE_CHECK_MSG(base != nullptr,
                    "LiveObjectIndex adopted a null ObjectIndex");
  std::lock_guard<std::mutex> lock(write_mu_);
  positions_ = base->objects();
  has_keywords_ = keywords != nullptr;
  keyword_strings_.assign(positions_.size(), {});
  if (keywords != nullptr) {
    // Recover the per-object keyword strings so later merges can rebuild
    // the keyword index from the canonical writer state.
    const KeywordIndex::Parts parts = keywords->ToParts();
    for (size_t o = 0; o < parts.object_keywords.size(); ++o) {
      for (const KeywordIndex::KeywordId id : parts.object_keywords[o]) {
        keyword_strings_[o].push_back(parts.keywords_by_id[id]);
      }
    }
  }
  removed_flags_.assign(positions_.size(), 0);
  base_ = std::move(base);
  base_keywords_ = std::move(keywords);
  PublishLocked();
}

std::shared_ptr<const ObjectSnapshot> LiveObjectIndex::Acquire() const {
  if (options_.adaptive_watermark) {
    queries_seen_.fetch_add(1, std::memory_order_relaxed);
  }
  return std::atomic_load(&snapshot_);
}

size_t LiveObjectIndex::EffectiveMergeWatermark() const {
  if (!options_.adaptive_watermark) return options_.merge_watermark;
  const uint64_t queries = queries_seen_.load(std::memory_order_relaxed);
  const uint64_t updates = updates_seen_.load(std::memory_order_relaxed);
  if (queries == 0 || updates == 0) return options_.merge_watermark;
  const double scaled = static_cast<double>(options_.merge_watermark) *
                        std::sqrt(static_cast<double>(updates) /
                                  static_cast<double>(queries));
  const double lo = static_cast<double>(options_.min_watermark);
  const double hi = static_cast<double>(options_.max_watermark);
  return static_cast<size_t>(std::min(hi, std::max(lo, scaled)));
}

void LiveObjectIndex::SetObjects(
    std::vector<IndoorPoint> objects,
    std::vector<std::vector<std::string>> keywords) {
  VIPTREE_CHECK_MSG(keywords.empty() || keywords.size() == objects.size(),
                    "object keywords must align with the object list");
  std::lock_guard<std::mutex> lock(write_mu_);
  positions_ = std::move(objects);
  has_keywords_ = !keywords.empty();
  keyword_strings_ = std::move(keywords);
  keyword_strings_.resize(positions_.size());
  removed_flags_.assign(positions_.size(), 0);
  removed_ids_.clear();
  MergeLocked();
  PublishLocked();
}

std::optional<std::string> LiveObjectIndex::ApplyDelta(
    const ObjectDelta& delta) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const size_t num_ids = positions_.size();
  const size_t num_partitions = tree_.venue().NumPartitions();

  // Validate everything before touching any state: a rejected delta must
  // leave the published snapshot (and the writer state) untouched.
  const auto valid_partition = [num_partitions](const IndoorPoint& p) {
    return p.partition >= 0 &&
           static_cast<size_t>(p.partition) < num_partitions;
  };
  std::vector<ObjectId> touched;
  touched.reserve(delta.moves.size() + delta.removes.size());
  for (const ObjectDelta::Move& move : delta.moves) {
    if (move.id < 0 || static_cast<size_t>(move.id) >= num_ids) {
      return "move targets unknown object id " + std::to_string(move.id);
    }
    if (removed_flags_[move.id] != 0) {
      return "move targets removed object id " + std::to_string(move.id);
    }
    if (!valid_partition(move.to)) {
      return "move of object " + std::to_string(move.id) +
             " targets out-of-range partition " +
             std::to_string(move.to.partition);
    }
    touched.push_back(move.id);
  }
  for (const ObjectId id : delta.removes) {
    if (id < 0 || static_cast<size_t>(id) >= num_ids) {
      return "remove targets unknown object id " + std::to_string(id);
    }
    if (removed_flags_[id] != 0) {
      return "remove targets already-removed object id " + std::to_string(id);
    }
    touched.push_back(id);
  }
  std::sort(touched.begin(), touched.end());
  if (std::adjacent_find(touched.begin(), touched.end()) != touched.end()) {
    return "delta touches one object id twice";
  }
  for (const ObjectDelta::Add& add : delta.adds) {
    if (!valid_partition(add.at)) {
      return "add targets out-of-range partition " +
             std::to_string(add.at.partition);
    }
    if (!has_keywords_ && !add.keywords.empty()) {
      return "venue has no keyword index; adds cannot carry keywords";
    }
  }

  // Apply to the canonical writer state and to the overlay.
  const auto upsert_overlay = [this](ObjectId id) {
    const auto it = std::lower_bound(
        overlay_.begin(), overlay_.end(), id,
        [](const ObjectSnapshot::OverlayEntry& e, ObjectId want) {
          return e.id < want;
        });
    if (it != overlay_.end() && it->id == id) {
      it->point = positions_[id];
      it->keywords = keyword_strings_[id];
    } else {
      overlay_.insert(it, {id, positions_[id], keyword_strings_[id]});
    }
  };
  for (const ObjectDelta::Move& move : delta.moves) {
    positions_[move.id] = move.to;
    upsert_overlay(move.id);
  }
  for (const ObjectId id : delta.removes) {
    removed_flags_[id] = 1;
    removed_ids_.insert(
        std::lower_bound(removed_ids_.begin(), removed_ids_.end(), id), id);
    const auto it = std::lower_bound(
        overlay_.begin(), overlay_.end(), id,
        [](const ObjectSnapshot::OverlayEntry& e, ObjectId want) {
          return e.id < want;
        });
    if (it != overlay_.end() && it->id == id) overlay_.erase(it);
  }
  for (const ObjectDelta::Add& add : delta.adds) {
    const ObjectId id = static_cast<ObjectId>(positions_.size());
    positions_.push_back(add.at);
    keyword_strings_.push_back(add.keywords);
    removed_flags_.push_back(0);
    upsert_overlay(id);
  }

  updates_seen_.fetch_add(delta.size(), std::memory_order_relaxed);

  // Velocity partitioning's cold path: once the hot overlay outgrows the
  // watermark (workload-scaled under adaptive_watermark), fold everything
  // back into a packed CSR built aside.
  if (overlay_.size() > EffectiveMergeWatermark()) MergeLocked();
  PublishLocked();
  return std::nullopt;
}

void LiveObjectIndex::MergeLocked() {
  base_ = std::make_shared<const ObjectIndex>(tree_, positions_);
  base_keywords_.reset();
  if (has_keywords_) {
    base_keywords_ = std::make_shared<const KeywordIndex>(tree_, *base_,
                                                          keyword_strings_);
  }
  overlay_.clear();
}

void LiveObjectIndex::PublishLocked() {
  auto next = std::make_shared<ObjectSnapshot>();
  next->epoch = next_epoch_++;
  next->base = base_;
  next->keywords = base_keywords_;
  next->overlay = overlay_;
  next->removed = removed_ids_;
  next->num_live = positions_.size() - removed_ids_.size();
  std::atomic_store(&snapshot_,
                    std::shared_ptr<const ObjectSnapshot>(std::move(next)));
}

LiveObjectIndex::PackedState LiveObjectIndex::PackedParts() const {
  std::lock_guard<std::mutex> lock(write_mu_);
  PackedState state;
  if (overlay_.empty() && removed_ids_.empty()) {
    state.objects = base_->ToParts();
    if (base_keywords_ != nullptr) state.keywords = base_keywords_->ToParts();
    return state;
  }
  // Compact to the live objects with dense renumbered ids (ascending old
  // id order) so the on-disk format never sees overlays or tombstones.
  std::vector<IndoorPoint> live;
  std::vector<std::vector<std::string>> live_keywords;
  live.reserve(positions_.size() - removed_ids_.size());
  for (size_t id = 0; id < positions_.size(); ++id) {
    if (removed_flags_[id] != 0) continue;
    live.push_back(positions_[id]);
    live_keywords.push_back(keyword_strings_[id]);
  }
  const ObjectIndex packed(tree_, std::move(live));
  state.objects = packed.ToParts();
  if (has_keywords_) {
    state.keywords = KeywordIndex(tree_, packed, live_keywords).ToParts();
  }
  return state;
}

uint64_t LiveObjectIndex::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(write_mu_);
  uint64_t bytes = base_->MemoryBytes();
  if (base_keywords_ != nullptr) bytes += base_keywords_->MemoryBytes();
  for (const ObjectSnapshot::OverlayEntry& entry : overlay_) {
    bytes += sizeof(entry);
    for (const std::string& word : entry.keywords) bytes += word.size();
  }
  bytes += removed_ids_.size() * sizeof(ObjectId);
  return bytes;
}

SnapshotQuery::SnapshotQuery(const IPTree& tree,
                             std::shared_ptr<const ObjectSnapshot> snapshot,
                             const DistanceQueryOptions& options,
                             DistanceCache* cache)
    : snapshot_(std::move(snapshot)),
      knn_(tree, *snapshot_->base, options, cache),
      exact_(tree, options, cache) {
  VIPTREE_CHECK_MSG(snapshot_ != nullptr,
                    "SnapshotQuery over a null ObjectSnapshot");
}

std::vector<ObjectResult> SnapshotQuery::Knn(const IndoorPoint& q, size_t k,
                                             SearchStats* stats) const {
  return KnnWithAscent(q, k, knn_.ComputeAscent(q), stats);
}

std::vector<ObjectResult> SnapshotQuery::KnnWithAscent(
    const IndoorPoint& q, size_t k, const AscentDistances& ascent,
    SearchStats* stats) const {
  SearchStats local;
  KnnQuery::Filters filters;
  const ObjectSnapshot* snap = snapshot_.get();
  filters.object = [snap](ObjectId o) { return !snap->Diverged(o); };
  std::vector<ObjectResult> base =
      knn_.KnnFilteredWithAscent(q, k, filters, ascent, &local);
  std::vector<ObjectResult> out = MergeOverlay(
      std::move(base), q, ascent, k, kInfDistance, nullptr, &local);
  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<ObjectResult> SnapshotQuery::Range(const IndoorPoint& q,
                                               double radius,
                                               SearchStats* stats) const {
  SearchStats local;
  KnnQuery::Filters filters;
  const ObjectSnapshot* snap = snapshot_.get();
  filters.object = [snap](ObjectId o) { return !snap->Diverged(o); };
  const AscentDistances ascent = knn_.ComputeAscent(q);
  std::vector<ObjectResult> base =
      knn_.RangeFilteredWithAscent(q, radius, filters, ascent, &local);
  std::vector<ObjectResult> out = MergeOverlay(
      std::move(base), q, ascent, std::numeric_limits<size_t>::max(), radius,
      nullptr, &local);
  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<ObjectResult> SnapshotQuery::BooleanKnn(
    const IndoorPoint& q, size_t k, const std::vector<std::string>& query,
    SearchStats* stats) const {
  if (stats != nullptr) *stats = SearchStats{};
  if (snapshot_->keywords == nullptr) return {};
  SearchStats local;
  std::vector<ObjectResult> base;
  const AscentDistances ascent = knn_.ComputeAscent(q);
  const std::optional<std::vector<KeywordIndex::KeywordId>> wanted =
      snapshot_->keywords->ResolveKeywords(query);
  // A keyword missing from the base dictionary matches no *base* object,
  // but overlay adds may have introduced it — so the overlay is still
  // string-matched below.
  if (wanted.has_value()) {
    const KeywordIndex& kw = *snapshot_->keywords;
    const ObjectSnapshot* snap = snapshot_.get();
    KnnQuery::Filters filters;
    filters.node = [&kw, &wanted](NodeId n) {
      return kw.NodeHasAll(n, *wanted);
    };
    filters.object = [&kw, &wanted, snap](ObjectId o) {
      return !snap->Diverged(o) && kw.ObjectHasAll(o, *wanted);
    };
    base = knn_.KnnFilteredWithAscent(q, k, filters, ascent, &local);
  }
  std::vector<ObjectResult> out = MergeOverlay(
      std::move(base), q, ascent, k, kInfDistance, &query, &local);
  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<ObjectResult> SnapshotQuery::MergeOverlay(
    std::vector<ObjectResult> base_results, const IndoorPoint& q,
    const AscentDistances& ascent, size_t k, double radius,
    const std::vector<std::string>* required_keywords,
    SearchStats* stats) const {
  std::vector<ObjectResult> hot;
  for (const ObjectSnapshot::OverlayEntry& entry : snapshot_->overlay) {
    if (required_keywords != nullptr &&
        !HasAllStrings(entry.keywords, *required_keywords)) {
      continue;
    }
    ++stats->objects_considered;
    // Bit-identical to exact_.Distance(q, entry.point), without redoing
    // q's ascent per entry.
    const double distance =
        exact_.DistanceWithAscent(q, ascent, entry.point);
    if (distance > radius) continue;
    hot.push_back({entry.id, distance});
  }
  if (hot.empty()) {
    if (base_results.size() > k) base_results.resize(k);
    return base_results;
  }
  base_results.insert(base_results.end(), hot.begin(), hot.end());
  std::sort(base_results.begin(), base_results.end(), ResultLess);
  if (base_results.size() > k) base_results.resize(k);
  return base_results;
}

}  // namespace viptree
