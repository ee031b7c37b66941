// The same-leaf rule (IPDistanceQuery::LocalDistance): for s and t in one
// leaf N, dist(s, t) = min(interior search over N's partitions, best exit
// through an access door of N via N's matrix). Checked on a hand-built
// venue whose shortest same-leaf route leaves the leaf and comes back, and
// on sampled same-leaf queries over the MC and Men-2 presets against
// brute-force Dijkstra — plus the bit-identity contracts that ride on the
// rule: the multi-target entry points equal per-query calls, Path reports
// exactly Distance, and a kNN scan of the source's leaf reports exactly
// Distance.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "core/distance_query.h"
#include "core/knn_query.h"
#include "core/object_index.h"
#include "core/path_query.h"
#include "core/vip_tree.h"
#include "graph/d2d_graph.h"
#include "graph/dijkstra.h"
#include "ground_truth.h"
#include "model/venue_builder.h"
#include "synth/objects.h"
#include "synth/presets.h"

namespace viptree {
namespace {

// differential_test's tolerance: leaf/ext matrices store float, queries
// accumulate in double.
double Tol(double reference) {
  return 1e-2 + std::abs(reference) * 1e-4;
}

// Two leaves. N1 = {P0, P1, P2}: s's room P0 and t's room P2 are joined
// inside N1 only by the long corridor P1 (d2 -> d3, 50 m). N2 = {P3}: a
// 4 m passage from d0 (on P0) to d1 (on P2), so the shortest s -> t route
// leaves N1 through d0 and re-enters through d1.
//
//   s in P0 --d2-- P1 (50 m) --d3-- P2 with t
//      \d0---------- P3 (4 m) ---------d1/
class ExitRouteTest : public ::testing::Test {
 protected:
  static constexpr DoorId kD0 = 0, kD1 = 1, kD2 = 2, kD3 = 3;

  ExitRouteTest() : venue_(MakeVenue()), graph_(4, Edges()) {
    const IPTreeOptions options{.min_degree = 2,
                                .forced_leaf_assignment =
                                    std::vector<int>{0, 0, 0, 1}};
    vip_ = std::make_unique<VIPTree>(VIPTree::Build(venue_, graph_, options));
    s_ = IndoorPoint{0, Point{0.5, 0.0, 0.0}};
    t_ = IndoorPoint{2, Point{2.5, 0.0, 0.0}};
  }

  static Venue MakeVenue() {
    VenueBuilder builder;
    for (int i = 0; i < 4; ++i) {
      builder.AddPartition(/*level=*/0, PartitionUse::kRoom,
                           Point{static_cast<double>(i), 0.0, 0.0},
                           "P" + std::to_string(i));
    }
    builder.AddDoor(0, 3, Point{0.0, 0.0, 0.0});  // d0
    builder.AddDoor(3, 2, Point{3.0, 0.0, 0.0});  // d1
    builder.AddDoor(0, 1, Point{1.0, 0.0, 0.0});  // d2
    builder.AddDoor(1, 2, Point{2.0, 0.0, 0.0});  // d3
    return std::move(builder).Build();
  }

  static std::vector<ExplicitD2DEdge> Edges() {
    return {
        {kD0, kD2, 1.0f, 0},   // across s's room
        {kD2, kD3, 50.0f, 1},  // the long corridor inside N1
        {kD1, kD3, 1.0f, 2},   // across t's room
        {kD0, kD1, 4.0f, 3},   // the short way through N2
    };
  }

  const IPTree& tree() const { return vip_->base(); }

  Venue venue_;
  D2DGraph graph_;
  std::unique_ptr<VIPTree> vip_;
  IndoorPoint s_, t_;
};

TEST_F(ExitRouteTest, VenueHasTheIntendedShape) {
  const NodeId n1 = tree().LeafOfPartition(0);
  EXPECT_EQ(tree().LeafOfPartition(1), n1);
  EXPECT_EQ(tree().LeafOfPartition(2), n1);
  EXPECT_NE(tree().LeafOfPartition(3), n1);
  EXPECT_EQ(tree().node(n1).access_doors, (std::vector<DoorId>{kD0, kD1}));
}

TEST_F(ExitRouteTest, ExitTermWinsAndMatchesDijkstra) {
  // Inside N1 alone the best route is 0.5 + 1 + 50 + 0.5 = 52 (via d0, d2,
  // d3); leaving through N2 it is 0.5 + 4 + 0.5 = 5.
  const double expected = testing::BruteDistance(venue_, graph_, s_, t_);
  EXPECT_DOUBLE_EQ(expected, 5.0);
  const IPDistanceQuery ip(tree());
  const VIPDistanceQuery vip(*vip_);
  EXPECT_DOUBLE_EQ(ip.Distance(s_, t_), expected);
  EXPECT_DOUBLE_EQ(vip.Distance(s_, t_), expected);
  EXPECT_DOUBLE_EQ(ip.LocalDistance(s_, t_), expected);

  const IPPathQuery ip_path(tree());
  const VIPPathQuery vip_path(*vip_);
  for (const IndoorPath& path : {ip_path.Path(s_, t_), vip_path.Path(s_, t_)}) {
    EXPECT_EQ(path.distance, ip.Distance(s_, t_));
    EXPECT_EQ(path.doors, (std::vector<DoorId>{kD0, kD1}));
  }
}

TEST_F(ExitRouteTest, DoorPairsUseTheExitTermToo) {
  // d2 -> d3: 50 m down the corridor, or 1 + 4 + 1 = 6 m through N2.
  DijkstraEngine dijkstra(graph_);
  dijkstra.Start(kD2);
  dijkstra.RunAll();
  const double expected = dijkstra.DistanceTo(kD3);
  EXPECT_DOUBLE_EQ(expected, 6.0);
  const IPDistanceQuery ip(tree());
  const VIPDistanceQuery vip(*vip_);
  EXPECT_DOUBLE_EQ(ip.DoorDistance(kD2, kD3), expected);
  EXPECT_DOUBLE_EQ(vip.DoorDistance(kD2, kD3), expected);
  const IPPathQuery ip_path(tree());
  const IndoorPath path = ip_path.DoorPath(kD2, kD3);
  EXPECT_EQ(path.distance, ip.DoorDistance(kD2, kD3));
  EXPECT_EQ(path.doors, (std::vector<DoorId>{kD2, kD0, kD1, kD3}));
}

TEST_F(ExitRouteTest, ObjectQueriesSeeTheExitRoute) {
  const ObjectIndex objects(tree(), {t_});
  const KnnQuery knn(tree(), objects);
  const std::vector<ObjectResult> nearest = knn.Knn(s_, 1);
  ASSERT_EQ(nearest.size(), 1u);
  EXPECT_DOUBLE_EQ(nearest[0].distance, 5.0);
  EXPECT_EQ(knn.WithinRange(s_, 6.0).size(), 1u);
  EXPECT_TRUE(knn.WithinRange(s_, 4.9).empty());
}

// ---------------------------------------------------------------------------
// Paper presets.
// ---------------------------------------------------------------------------

struct PresetFixture {
  explicit PresetFixture(synth::Dataset dataset)
      : venue(synth::MakeDataset(dataset, 1.0)),
        graph(venue),
        vip(VIPTree::Build(venue, graph)) {
    Rng rng(0x5A4E1EAF);
    objects = synth::PlaceObjects(venue, 50, rng);
    index = std::make_unique<ObjectIndex>(vip.base(), objects);
  }

  Venue venue;
  D2DGraph graph;
  VIPTree vip;
  std::vector<IndoorPoint> objects;
  std::unique_ptr<ObjectIndex> index;
};

class SameLeafPresetTest : public ::testing::TestWithParam<synth::Dataset> {
 protected:
  // One fixture per preset for the whole suite: Men-2 takes a quarter
  // second to index.
  const PresetFixture& Fixture() const {
    static std::map<synth::Dataset, std::unique_ptr<PresetFixture>>* cache =
        new std::map<synth::Dataset, std::unique_ptr<PresetFixture>>();
    std::unique_ptr<PresetFixture>& slot = (*cache)[GetParam()];
    if (slot == nullptr) slot = std::make_unique<PresetFixture>(GetParam());
    return *slot;
  }

  const IPTree& tree() const { return Fixture().vip.base(); }

  // A random point in `leaf` (rejection over uniform points).
  IndoorPoint PointInLeaf(NodeId leaf, Rng& rng) const {
    while (true) {
      const IndoorPoint p = synth::RandomIndoorPoint(Fixture().venue, rng);
      if (tree().LeafOfPartition(p.partition) == leaf) return p;
    }
  }

  // A random point whose leaf holds at least one object.
  IndoorPoint PointInObjectLeaf(Rng& rng) const {
    while (true) {
      const IndoorPoint p = synth::RandomIndoorPoint(Fixture().venue, rng);
      const NodeId leaf = tree().LeafOfPartition(p.partition);
      if (!Fixture().index->ObjectsInLeaf(leaf).empty()) return p;
    }
  }
};

TEST_P(SameLeafPresetTest, PointPairsMatchDijkstra) {
  const PresetFixture& f = Fixture();
  const IPDistanceQuery ip(tree());
  const VIPDistanceQuery vip(f.vip);
  const IPPathQuery ip_path(tree());
  const VIPPathQuery vip_path(f.vip);
  Rng rng(0xD15);
  for (int i = 0; i < 40; ++i) {
    const IndoorPoint s = synth::RandomIndoorPoint(f.venue, rng);
    const IndoorPoint t = PointInLeaf(tree().LeafOfPartition(s.partition), rng);
    const double expected = testing::BruteDistance(f.venue, f.graph, s, t);
    const double d = ip.Distance(s, t);
    EXPECT_NEAR(d, expected, Tol(expected)) << "pair " << i;
    EXPECT_EQ(vip.Distance(s, t), d) << "pair " << i;

    // Path reports exactly Distance, over a walkable door sequence.
    for (const IndoorPath& path : {ip_path.Path(s, t), vip_path.Path(s, t)}) {
      EXPECT_EQ(path.distance, d) << "pair " << i;
      EXPECT_NEAR(
          testing::PointPathLength(f.venue, f.graph, s, t, path.doors),
          path.distance, Tol(path.distance))
          << "pair " << i;
    }
  }
}

TEST_P(SameLeafPresetTest, DoorPairsMatchDijkstra) {
  const PresetFixture& f = Fixture();
  const IPDistanceQuery ip(tree());
  const VIPDistanceQuery vip(f.vip);
  const IPPathQuery ip_path(tree());
  DijkstraEngine dijkstra(f.graph);
  Rng rng(0xD00);
  for (int i = 0; i < 40; ++i) {
    const TreeNode& leaf =
        tree().node(tree().LeafOfPartition(static_cast<PartitionId>(
            rng.UniformIndex(f.venue.NumPartitions()))));
    const DoorId a = leaf.doors[rng.UniformIndex(leaf.doors.size())];
    const DoorId b = leaf.doors[rng.UniformIndex(leaf.doors.size())];
    dijkstra.Start(a);
    dijkstra.RunToTargets(Span<const DoorId>(&b, 1));
    const double expected = dijkstra.DistanceTo(b);
    const double d = ip.DoorDistance(a, b);
    EXPECT_NEAR(d, expected, Tol(expected)) << "pair " << i;
    EXPECT_EQ(vip.DoorDistance(a, b), d) << "pair " << i;
    const IndoorPath path = ip_path.DoorPath(a, b);
    EXPECT_EQ(path.distance, d) << "pair " << i;
    EXPECT_NEAR(testing::DoorPathLength(f.graph, path.doors), d, Tol(d))
        << "pair " << i;
  }
}

TEST_P(SameLeafPresetTest, KnnAndRangeFromObjectLeavesMatchBruteForce) {
  const PresetFixture& f = Fixture();
  const KnnQuery knn(tree(), *f.index);
  Rng rng(0x0B7);
  for (int i = 0; i < 8; ++i) {
    const IndoorPoint q = PointInObjectLeaf(rng);
    const auto all =
        testing::BruteAllObjectDistances(f.venue, f.graph, q, f.objects);

    // kNN: the distance sequence must match (ids may differ under ties).
    const std::vector<ObjectResult> nearest = knn.Knn(q, 5);
    ASSERT_EQ(nearest.size(), 5u);
    for (size_t j = 0; j < nearest.size(); ++j) {
      EXPECT_NEAR(nearest[j].distance, all[j].distance, Tol(all[j].distance))
          << "query " << i << " j=" << j;
    }

    // Range at 100 m: every strictly-inside object, matching distances.
    const double radius = 100.0;
    const auto expected =
        testing::BruteRange(f.venue, f.graph, q, f.objects, radius);
    const std::vector<ObjectResult> in_range = knn.WithinRange(q, radius);
    size_t strict = 0;
    for (const auto& r : expected) {
      if (r.distance < radius - Tol(radius)) ++strict;
    }
    ASSERT_GE(in_range.size(), strict) << "query " << i;
    for (size_t j = 0; j < in_range.size(); ++j) {
      EXPECT_LE(in_range[j].distance, radius + Tol(radius));
      EXPECT_NEAR(in_range[j].distance, all[j].distance, Tol(all[j].distance))
          << "query " << i << " j=" << j;
    }
  }
}

TEST_P(SameLeafPresetTest, LeafScanReportsExactlyDistance) {
  const PresetFixture& f = Fixture();
  const KnnQuery knn(tree(), *f.index);
  const IPDistanceQuery ip(tree());
  Rng rng(0x5CA);
  for (int i = 0; i < 20; ++i) {
    const IndoorPoint q = PointInObjectLeaf(rng);
    const NodeId leaf = tree().LeafOfPartition(q.partition);
    for (const ObjectResult& r : knn.WithinRange(q, kInfDistance)) {
      const IndoorPoint& obj = f.objects[r.object];
      if (tree().LeafOfPartition(obj.partition) != leaf) continue;
      EXPECT_EQ(r.distance, ip.Distance(q, obj))
          << "query " << i << " object " << r.object;
    }
  }
}

TEST_P(SameLeafPresetTest, MultiTargetCallsMatchPerQueryBitForBit) {
  const PresetFixture& f = Fixture();
  const IPDistanceQuery ip(tree());
  const VIPDistanceQuery vip(f.vip);
  Rng rng(0x3017);
  for (int group = 0; group < 6; ++group) {
    const IndoorPoint s = synth::RandomIndoorPoint(f.venue, rng);
    const NodeId leaf = tree().LeafOfPartition(s.partition);
    // Same-leaf targets (one repeated, one in s's own partition) ...
    std::vector<IndoorPoint> local;
    for (int k = 0; k < 6; ++k) local.push_back(PointInLeaf(leaf, rng));
    local.push_back(local[2]);
    local.push_back(IndoorPoint{s.partition, s.position});
    std::vector<double> out(local.size());
    ip.LocalDistanceMulti(
        s, Span<const IndoorPoint>(local.data(), local.size()), out.data());
    for (size_t k = 0; k < local.size(); ++k) {
      EXPECT_EQ(out[k], ip.LocalDistance(s, local[k]))
          << "group " << group << " target " << k;
    }

    // ... and a mixed batch through DistanceMulti.
    std::vector<IndoorPoint> targets = local;
    for (int k = 0; k < 4; ++k) {
      targets.push_back(synth::RandomIndoorPoint(f.venue, rng));
    }
    const std::vector<IndoorPoint> sources(targets.size(), s);
    std::vector<double> multi(targets.size());
    vip.DistanceMulti(Span<const IndoorPoint>(sources.data(), sources.size()),
                      Span<const IndoorPoint>(targets.data(), targets.size()),
                      multi.data());
    for (size_t k = 0; k < targets.size(); ++k) {
      EXPECT_EQ(multi[k], vip.Distance(s, targets[k]))
          << "group " << group << " target " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Presets, SameLeafPresetTest,
                         ::testing::Values(synth::Dataset::kMC,
                                           synth::Dataset::kMen2),
                         [](const ::testing::TestParamInfo<synth::Dataset>&
                                info) {
                           return info.param == synth::Dataset::kMC
                                      ? std::string("MC")
                                      : std::string("Men2");
                         });

}  // namespace
}  // namespace viptree
