// Overlay/merge invariance of the live-object layer (core/live_objects.h).
// An overlay entry is scored inside the kNN/range leaf scan from its own
// access-door row, so kNN, range and boolean-kNN answers over a snapshot
// with a populated overlay must equal, bit for bit (ids and distances),
// the answers after the same positions are packed into a rebuilt CSR.
// Covers overlay entries in the query's own leaf, in leaves without base
// objects, keyworded entries under nodes whose base objects lack the
// keyword, exact-distance ties (broken by id), tombstones, and the
// pruning of entries in subtrees beyond the k-th distance.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/ip_tree.h"
#include "core/live_objects.h"
#include "ground_truth.h"
#include "synth/objects.h"

namespace viptree {
namespace {

struct Env {
  Venue venue;
  D2DGraph graph;
  IPTree tree;

  explicit Env(uint64_t seed)
      : venue(testing::RandomSynthVenue(seed)),
        graph(venue),
        tree(IPTree::Build(venue, graph)) {}

  NodeId LeafOf(const IndoorPoint& p) const {
    return tree.LeafOfPartition(p.partition);
  }

  // A random point whose partition lies in `leaf` (rejection sampling).
  IndoorPoint PointInLeaf(NodeId leaf, Rng& rng) const {
    for (int tries = 0; tries < 10000; ++tries) {
      const IndoorPoint p = synth::RandomIndoorPoint(venue, rng);
      if (LeafOf(p) == leaf) return p;
    }
    ADD_FAILURE() << "no point found in leaf " << leaf;
    return synth::RandomIndoorPoint(venue, rng);
  }
};

void ExpectSame(const std::vector<ObjectResult>& overlaid,
                const std::vector<ObjectResult>& packed, const char* what,
                uint64_t seed, size_t query) {
  ASSERT_EQ(overlaid.size(), packed.size())
      << what << " seed " << seed << " query " << query;
  for (size_t j = 0; j < overlaid.size(); ++j) {
    EXPECT_EQ(overlaid[j].object, packed[j].object)
        << what << " seed " << seed << " query " << query << " j=" << j;
    // Bitwise, not approximate: the overlay row and the packed row come
    // from the same formula.
    EXPECT_EQ(overlaid[j].distance, packed[j].distance)
        << what << " seed " << seed << " query " << query << " j=" << j;
  }
}

// Every kNN / range / boolean-kNN answer of `a` equals `b`'s, and the
// planner's shared-ascent path equals the per-query one.
void ExpectSameAnswers(const SnapshotQuery& a, const SnapshotQuery& b,
                       const std::vector<IndoorPoint>& queries,
                       uint64_t seed) {
  const std::vector<std::vector<std::string>> keyword_queries = {
      {"red"}, {"rare"}, {"facility", "red"}, {"absent"}};
  for (size_t i = 0; i < queries.size(); ++i) {
    const IndoorPoint& q = queries[i];
    const AscentDistances ascent = a.ComputeAscent(q);
    for (const size_t k : {size_t{1}, size_t{3}, size_t{8}, size_t{1000}}) {
      const std::vector<ObjectResult> knn = a.Knn(q, k);
      ExpectSame(knn, b.Knn(q, k), "knn", seed, i);
      ExpectSame(a.KnnWithAscent(q, k, ascent), knn, "knn-with-ascent", seed,
                 i);
    }
    for (const double radius : {0.0, 20.0, 60.0, 1e9}) {
      ExpectSame(a.Range(q, radius), b.Range(q, radius), "range", seed, i);
    }
    for (const auto& words : keyword_queries) {
      for (const size_t k : {size_t{1}, size_t{4}}) {
        ExpectSame(a.BooleanKnn(q, k, words), b.BooleanKnn(q, k, words),
                   "boolean-knn", seed, i);
      }
    }
  }
}

class OverlayMergeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OverlayMergeTest, OverlayAnswersEqualRebuiltCsrAnswers) {
  const uint64_t seed = GetParam();
  const Env env(seed);
  Rng rng(seed ^ 0x0E7A11);

  std::vector<IndoorPoint> positions =
      synth::PlaceObjects(env.venue, 12, rng);
  std::vector<std::vector<std::string>> keywords(positions.size());
  for (size_t i = 0; i < positions.size(); ++i) {
    keywords[i] = {"facility"};
    if (i % 2 == 0) keywords[i].push_back("red");
  }
  LiveObjectOptions no_merge;
  no_merge.merge_watermark = 1 << 20;
  LiveObjectIndex live(env.tree, positions, keywords, no_merge);

  std::vector<size_t> base_in_leaf(env.tree.nodes().size(), 0);
  std::vector<bool> red_in_leaf(env.tree.nodes().size(), false);
  for (size_t i = 0; i < positions.size(); ++i) {
    ++base_in_leaf[env.LeafOf(positions[i])];
    if (i % 2 == 0) red_in_leaf[env.LeafOf(positions[i])] = true;
  }
  const auto add = [&](const IndoorPoint& at,
                       std::vector<std::string> words) {
    ObjectDelta delta;
    delta.adds.push_back({at, words});
    ASSERT_FALSE(live.ApplyDelta(delta).has_value());
    positions.push_back(at);
    keywords.push_back(std::move(words));
  };

  // An entry in a leaf without base objects, holding a keyword the base
  // dictionary lacks; a "red" entry in a leaf whose base objects lack it.
  std::vector<IndoorPoint> queries;
  for (const TreeNode& node : env.tree.nodes()) {
    if (!node.is_leaf()) continue;
    if (base_in_leaf[node.id] == 0) {
      add(env.PointInLeaf(node.id, rng), {"facility", "rare"});
      queries.push_back(env.PointInLeaf(node.id, rng));
      break;
    }
  }
  for (const TreeNode& node : env.tree.nodes()) {
    if (node.is_leaf() && base_in_leaf[node.id] > 0 &&
        !red_in_leaf[node.id]) {
      add(env.PointInLeaf(node.id, rng), {"red"});
      break;
    }
  }

  // Random moves and adds; some adds duplicate a live position exactly,
  // so equal distances must be ordered by id on both sides.
  for (int round = 0; round < 16; ++round) {
    ObjectDelta delta;
    const ObjectId mover = static_cast<ObjectId>(rng.UniformIndex(12));
    delta.moves.push_back({mover, synth::RandomIndoorPoint(env.venue, rng)});
    const IndoorPoint at =
        rng.Chance(0.3) ? positions[rng.UniformIndex(positions.size())]
                        : synth::RandomIndoorPoint(env.venue, rng);
    ObjectDelta::Add added{at, {"facility"}};
    if (rng.Chance(0.5)) added.keywords.push_back("red");
    delta.adds.push_back(added);
    ASSERT_FALSE(live.ApplyDelta(delta).has_value());
    positions[mover] = delta.moves[0].to;
    positions.push_back(added.at);
    keywords.push_back(added.keywords);
  }
  const std::shared_ptr<const ObjectSnapshot> snap = live.Acquire();
  ASSERT_GE(snap->overlay.size(), 16u) << "seed " << seed;

  // Queries in each overlay entry's own leaf (one at the entry's exact
  // point), plus uniform ones.
  for (size_t i = 0; i < snap->overlay.size(); i += 3) {
    queries.push_back(snap->overlay[i].point);
    queries.push_back(
        env.PointInLeaf(env.LeafOf(snap->overlay[i].point), rng));
  }
  for (int i = 0; i < 12; ++i) {
    queries.push_back(synth::RandomIndoorPoint(env.venue, rng));
  }

  live.SetObjects(positions, keywords);
  ASSERT_TRUE(live.Acquire()->overlay.empty());
  const SnapshotQuery overlaid_query(env.tree, snap);
  const SnapshotQuery packed_query(env.tree, live.Acquire());
  ExpectSameAnswers(overlaid_query, packed_query, queries, seed);

  // Tombstones and repeated moves: the same delta stream against a twin
  // that merges on every publish keeps its overlay empty.
  LiveObjectOptions eager;
  eager.merge_watermark = 0;
  LiveObjectIndex twin(env.tree, positions, keywords, eager);
  LiveObjectIndex churned(env.tree, positions, keywords, no_merge);
  for (int round = 0; round < 10; ++round) {
    ObjectDelta delta;
    const ObjectId a = static_cast<ObjectId>(2 * round);
    const ObjectId b = static_cast<ObjectId>(2 * round + 1);
    delta.moves.push_back({a, synth::RandomIndoorPoint(env.venue, rng)});
    delta.removes.push_back(b);
    ASSERT_FALSE(churned.ApplyDelta(delta).has_value());
    ASSERT_FALSE(twin.ApplyDelta(delta).has_value());
  }
  ASSERT_TRUE(twin.Acquire()->overlay.empty());
  ASSERT_FALSE(churned.Acquire()->overlay.empty());
  ASSERT_FALSE(churned.Acquire()->removed.empty());
  ExpectSameAnswers(SnapshotQuery(env.tree, churned.Acquire()),
                    SnapshotQuery(env.tree, twin.Acquire()), queries, seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlayMergeTest,
                         ::testing::Range<uint64_t>(1, 25));

// An overlay entry parked in a leaf beyond the k-th distance is never
// scored: the search counts exactly the objects of q's own leaf.
TEST(OverlayPruningTest, EntriesInPrunedLeavesAreNotScored) {
  const Env env(3);
  Rng rng(77);
  const std::vector<IndoorPoint> positions =
      synth::PlaceObjects(env.venue, 12, rng);
  LiveObjectIndex live(env.tree, positions);
  // q sits on object 0, so the 1-NN distance is 0 and every leaf but q's
  // own has a positive mindist.
  const IndoorPoint q = positions[0];
  const NodeId q_leaf = env.LeafOf(q);
  size_t in_q_leaf = 0;
  for (const IndoorPoint& p : positions) {
    if (env.LeafOf(p) == q_leaf) ++in_q_leaf;
  }

  IndoorPoint far;
  bool found = false;
  for (int tries = 0; tries < 10000 && !found; ++tries) {
    far = synth::RandomIndoorPoint(env.venue, rng);
    found = env.LeafOf(far) != q_leaf;
  }
  ASSERT_TRUE(found);
  ObjectDelta park;
  park.adds.push_back({far, {}});
  ASSERT_FALSE(live.ApplyDelta(park).has_value());
  ASSERT_EQ(live.Acquire()->overlay.size(), 1u);

  SearchStats stats;
  const SnapshotQuery query(env.tree, live.Acquire());
  const std::vector<ObjectResult> nearest = query.Knn(q, 1, &stats);
  ASSERT_EQ(nearest.size(), 1u);
  EXPECT_EQ(nearest[0].object, 0);
  EXPECT_EQ(nearest[0].distance, 0.0);
  EXPECT_EQ(stats.leaves_scanned, 1u);
  EXPECT_EQ(stats.objects_considered, in_q_leaf);

  // The same entry moved into q's leaf is scored with that leaf.
  ObjectDelta near;
  near.moves.push_back(
      {static_cast<ObjectId>(positions.size()), env.PointInLeaf(q_leaf, rng)});
  ASSERT_FALSE(live.ApplyDelta(near).has_value());
  const SnapshotQuery requery(env.tree, live.Acquire());
  (void)requery.Knn(q, 1, &stats);
  EXPECT_EQ(stats.objects_considered, in_q_leaf + 1);
}

// A tombstone beside a live object in one leaf discounts only itself:
// the leaf still counts its live object and is scanned.
TEST(OverlayPruningTest, TombstonesDiscountOnlyThemselves) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Env env(seed);
    Rng rng(seed);
    const std::vector<IndoorPoint> positions =
        synth::PlaceObjects(env.venue, 12, rng);
    ObjectId live_id = kInvalidId, removed_id = kInvalidId;
    for (ObjectId a = 0; a < 12 && live_id == kInvalidId; ++a) {
      for (ObjectId b = a + 1; b < 12; ++b) {
        if (env.LeafOf(positions[a]) != env.LeafOf(positions[b])) continue;
        size_t in_leaf = 0;
        for (const IndoorPoint& p : positions) {
          if (env.LeafOf(p) == env.LeafOf(positions[a])) ++in_leaf;
        }
        if (in_leaf != 2) continue;
        live_id = a;
        removed_id = b;
        break;
      }
    }
    if (live_id == kInvalidId) continue;
    LiveObjectIndex live(env.tree, positions);
    ObjectDelta remove;
    remove.removes.push_back(removed_id);
    ASSERT_FALSE(live.ApplyDelta(remove).has_value());
    const SnapshotQuery query(env.tree, live.Acquire());
    const std::vector<ObjectResult> nearest = query.Knn(positions[live_id], 1);
    ASSERT_EQ(nearest.size(), 1u);
    EXPECT_EQ(nearest[0].object, live_id) << "seed " << seed;
    EXPECT_EQ(nearest[0].distance, 0.0) << "seed " << seed;
    return;
  }
  GTEST_SKIP() << "no leaf with exactly two objects";
}

// Objects at one exact point tie; the k-th-place cut keeps the smaller
// id, overlaid or packed alike.
TEST(OverlayTieTest, KthPlaceCutBreaksTiesById) {
  const Env env(5);
  Rng rng(11);
  std::vector<IndoorPoint> positions = synth::PlaceObjects(env.venue, 8, rng);
  const IndoorPoint spot = positions[5];
  positions[6] = spot;  // ids 5 and 6 tie everywhere
  LiveObjectIndex live(env.tree, positions);
  const IndoorPoint q = synth::RandomIndoorPoint(env.venue, rng);
  const SnapshotQuery packed(env.tree, live.Acquire());
  const std::vector<ObjectResult> all = packed.Knn(q, positions.size());
  size_t rank = 0;
  while (all[rank].object != 5 && all[rank].object != 6) ++rank;
  ASSERT_EQ(all[rank].object, 5);
  ASSERT_EQ(all[rank + 1].object, 6);
  EXPECT_EQ(packed.Knn(q, rank + 1).back().object, 5);

  // Move id 2 onto the same spot: it now leads the tie and wins the cut.
  ObjectDelta delta;
  delta.moves.push_back({2, spot});
  ASSERT_FALSE(live.ApplyDelta(delta).has_value());
  const SnapshotQuery overlaid(env.tree, live.Acquire());
  const std::vector<ObjectResult> full = overlaid.Knn(q, positions.size());
  size_t first = 0;
  while (full[first].distance != all[rank].distance) ++first;
  ASSERT_LT(first + 2, full.size());
  EXPECT_EQ(full[first].object, 2);
  EXPECT_EQ(full[first + 1].object, 5);
  EXPECT_EQ(full[first + 2].object, 6);
  EXPECT_EQ(overlaid.Knn(q, first + 1).back().object, 2);
  EXPECT_EQ(overlaid.Range(q, all[rank].distance).back().object, 6);
}

}  // namespace
}  // namespace viptree
