// Unit tests for the engine façade: typed Query/Result dispatch, batch
// scheduling (thread counts, shard sizes, empty/small batches), statistics
// aggregation, and object-set swapping.

#include "engine/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/d2d_graph.h"
#include "ground_truth.h"
#include "synth/building_generator.h"
#include "synth/objects.h"

namespace viptree {
namespace {

namespace eng = ::viptree::engine;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : venue_(MakeVenue()), graph_(venue_) {}

  static Venue MakeVenue() {
    synth::BuildingConfig cfg;
    cfg.floors = 3;
    cfg.rooms_per_floor = 18;
    cfg.staircases = 2;
    return synth::GenerateStandaloneBuilding(cfg, /*seed=*/77);
  }

  eng::QueryEngine MakeEngine(size_t num_objects) {
    Rng rng(5);
    std::vector<IndoorPoint> objects =
        synth::PlaceObjects(venue_, num_objects, rng);
    eng::EngineOptions options;
    options.object_keywords.resize(objects.size());
    for (size_t i = 0; i < objects.size(); ++i) {
      options.object_keywords[i] = {i % 2 == 0 ? "even" : "odd"};
    }
    return eng::QueryEngine(venue_, graph_, std::move(objects), options);
  }

  Venue venue_;
  D2DGraph graph_;
};

TEST_F(EngineTest, TypedResultsCarryTheRightFields) {
  const eng::QueryEngine engine = MakeEngine(6);
  Rng rng(9);
  const IndoorPoint a = synth::RandomIndoorPoint(venue_, rng);
  const IndoorPoint b = synth::RandomIndoorPoint(venue_, rng);

  const eng::Result d = engine.Run(eng::Query::Distance(a, b));
  EXPECT_EQ(d.type, eng::QueryType::kDistance);
  EXPECT_LT(d.distance, kInfDistance);
  EXPECT_TRUE(d.doors.empty());
  EXPECT_TRUE(d.objects.empty());
  EXPECT_GT(d.visited_nodes, 0u);
  EXPECT_GE(d.latency_micros, 0.0);

  const eng::Result p = engine.Run(eng::Query::Path(a, b));
  EXPECT_EQ(p.type, eng::QueryType::kPath);
  EXPECT_DOUBLE_EQ(p.distance, d.distance);
  EXPECT_NEAR(testing::PointPathLength(venue_, graph_, a, b, p.doors),
              p.distance, 1e-2 + p.distance * 1e-4);

  const eng::Result knn = engine.Run(eng::Query::Knn(a, 3));
  EXPECT_EQ(knn.type, eng::QueryType::kKnn);
  ASSERT_EQ(knn.objects.size(), 3u);
  EXPECT_LE(knn.objects[0].distance, knn.objects[1].distance);
  EXPECT_LE(knn.objects[1].distance, knn.objects[2].distance);

  const eng::Result range = engine.Run(eng::Query::Range(a, 60.0));
  EXPECT_EQ(range.type, eng::QueryType::kRange);
  for (const ObjectResult& r : range.objects) {
    EXPECT_LE(r.distance, 60.0);
  }

  const eng::Result kw = engine.Run(eng::Query::BooleanKnn(a, 2, {"even"}));
  EXPECT_EQ(kw.type, eng::QueryType::kBooleanKnn);
  for (const ObjectResult& r : kw.objects) {
    EXPECT_EQ(r.object % 2, 0) << "only even-tagged objects may match";
  }
  // Unknown keyword: empty result, not an error.
  EXPECT_TRUE(
      engine.Run(eng::Query::BooleanKnn(a, 2, {"nonexistent"})).objects
          .empty());
}

TEST_F(EngineTest, BatchSchedulingIsIndependentOfThreadCount) {
  const eng::QueryEngine engine = MakeEngine(6);
  Rng rng(11);
  std::vector<eng::Query> batch;
  for (int i = 0; i < 37; ++i) {  // deliberately not a multiple of any T
    const IndoorPoint a = synth::RandomIndoorPoint(venue_, rng);
    const IndoorPoint b = synth::RandomIndoorPoint(venue_, rng);
    batch.push_back(i % 2 == 0 ? eng::Query::Distance(a, b)
                               : eng::Query::Knn(a, 2));
  }
  const std::vector<eng::Result> reference = engine.RunSequential(batch);

  for (const size_t threads : {1u, 2u, 3u, 8u, 64u}) {
    eng::BatchOptions options;
    options.num_threads = threads;
    const eng::BatchResult run = engine.RunBatch(batch, options);
    ASSERT_EQ(run.results.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(run.results[i].distance, reference[i].distance)
          << "threads=" << threads << " i=" << i;
      ASSERT_EQ(run.results[i].objects.size(), reference[i].objects.size());
    }
  }
}

TEST_F(EngineTest, EmptyAndTinyBatches) {
  const eng::QueryEngine engine = MakeEngine(4);
  const eng::BatchResult empty =
      engine.RunBatch(Span<const eng::Query>(), {/*num_threads=*/4});
  EXPECT_TRUE(empty.results.empty());
  EXPECT_EQ(empty.stats.num_queries, 0u);
  EXPECT_EQ(empty.stats.latency_micros.count, 0u);

  Rng rng(3);
  const IndoorPoint a = synth::RandomIndoorPoint(venue_, rng);
  const std::vector<eng::Query> one{eng::Query::Knn(a, 1)};
  // More threads than queries must clamp, not spawn idle workers.
  const eng::BatchResult single = engine.RunBatch(one, {/*num_threads=*/16});
  ASSERT_EQ(single.results.size(), 1u);
  EXPECT_EQ(single.stats.num_threads, 1u);
}

TEST_F(EngineTest, ZeroThreadsMeansHardwareConcurrencyClampedToOne) {
  // BatchOptions::num_threads == 0 resolves to hardware_concurrency(),
  // clamped to >= 1 — the documented contract, which must hold even on
  // hosts where hardware_concurrency() reports 0 or 1 (single-core CI).
  const eng::QueryEngine engine = MakeEngine(5);
  Rng rng(17);
  std::vector<eng::Query> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(eng::Query::Distance(
        synth::RandomIndoorPoint(venue_, rng),
        synth::RandomIndoorPoint(venue_, rng)));
  }
  const std::vector<eng::Result> reference = engine.RunSequential(batch);

  const eng::BatchResult run = engine.RunBatch(batch, {/*num_threads=*/0});
  const size_t expected_threads = std::min(
      batch.size(),
      std::max<size_t>(1, std::thread::hardware_concurrency()));
  EXPECT_EQ(run.stats.num_threads, expected_threads);
  EXPECT_GE(run.stats.num_threads, 1u);
  ASSERT_EQ(run.results.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(run.results[i].distance, reference[i].distance) << "i=" << i;
  }
}

TEST_F(EngineTest, AggregateStatsAreConsistent) {
  const eng::QueryEngine engine = MakeEngine(8);
  Rng rng(21);
  std::vector<eng::Query> batch;
  for (int i = 0; i < 50; ++i) {
    batch.push_back(eng::Query::Distance(
        synth::RandomIndoorPoint(venue_, rng),
        synth::RandomIndoorPoint(venue_, rng)));
  }
  const eng::BatchResult run = engine.RunBatch(batch, {/*num_threads=*/2});
  EXPECT_EQ(run.stats.num_queries, 50u);
  EXPECT_EQ(run.stats.latency_micros.count, 50u);
  EXPECT_GT(run.stats.wall_millis, 0.0);
  EXPECT_GT(run.stats.queries_per_second, 0.0);
  EXPECT_GT(run.stats.visited_nodes, 0u);
  EXPECT_LE(run.stats.latency_micros.min, run.stats.latency_micros.p50);
  EXPECT_LE(run.stats.latency_micros.p50, run.stats.latency_micros.p95);
  EXPECT_LE(run.stats.latency_micros.p95, run.stats.latency_micros.max);
}

TEST_F(EngineTest, SetObjectsSwapsTheWorkloadWithoutRebuildingTheTree) {
  eng::QueryEngine engine = MakeEngine(4);
  const VIPTree* tree_before = &engine.tree();
  Rng rng(31);
  const IndoorPoint q = synth::RandomIndoorPoint(venue_, rng);

  // Swap to a single object co-located with the query point: it must be the
  // unique kNN answer.
  engine.SetObjects({q});
  EXPECT_EQ(&engine.tree(), tree_before);
  const auto nearest = engine.Run(eng::Query::Knn(q, 3)).objects;
  ASSERT_EQ(nearest.size(), 1u);
  EXPECT_EQ(nearest[0].object, 0);
  EXPECT_NEAR(nearest[0].distance, 0.0, 1e-9);

  // Keywords are rebuilt with the objects.
  EXPECT_FALSE(engine.has_keywords());
  engine.SetObjects({q}, {{"tag"}});
  EXPECT_TRUE(engine.has_keywords());
  EXPECT_EQ(engine.Run(eng::Query::BooleanKnn(q, 1, {"tag"})).objects.size(),
            1u);
}

TEST_F(EngineTest, EngineIsSelfContainedAfterConstruction) {
  // The engine owns its bundle: the venue/graph/objects it was built from
  // may die first, and the engine keeps serving. (Under ASan this test
  // would catch any lingering reference into the caller's storage.)
  std::unique_ptr<eng::QueryEngine> engine;
  {
    Venue venue = MakeVenue();
    Rng rng(5);
    std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 6, rng);
    engine = std::make_unique<eng::QueryEngine>(std::move(venue),
                                                std::move(objects));
  }
  Rng rng(13);
  const IndoorPoint a = synth::RandomIndoorPoint(engine->venue(), rng);
  const IndoorPoint b = synth::RandomIndoorPoint(engine->venue(), rng);
  EXPECT_LT(engine->Run(eng::Query::Distance(a, b)).distance, kInfDistance);
  EXPECT_EQ(engine->Run(eng::Query::Knn(a, 3)).objects.size(), 3u);
}

TEST_F(EngineTest, ObjectReplacementThroughTheBundle) {
  // Build through an explicit VenueBundle, adopt it, and swap the object
  // set: the bundle the engine exposes must reflect the replacement while
  // the tree (and the venue behind it) stays the same instance.
  eng::VenueBundle bundle =
      eng::VenueBundle::BuildFrom(venue_, graph_, /*objects=*/{});
  EXPECT_EQ(bundle.objects().NumObjects(), 0u);
  eng::QueryEngine engine(std::move(bundle));

  const Venue* venue_before = &engine.venue();
  const VIPTree* tree_before = &engine.tree();
  Rng rng(23);
  const std::vector<IndoorPoint> objects =
      synth::PlaceObjects(engine.venue(), 5, rng);
  engine.SetObjects(objects, {{"a"}, {"b"}, {"a"}, {"b"}, {"a"}});

  EXPECT_EQ(&engine.venue(), venue_before);
  EXPECT_EQ(&engine.tree(), tree_before);
  EXPECT_EQ(engine.bundle().objects().NumObjects(), 5u);
  EXPECT_TRUE(engine.bundle().has_keywords());

  const IndoorPoint q = objects[0];
  const auto nearest = engine.Run(eng::Query::Knn(q, 1)).objects;
  ASSERT_EQ(nearest.size(), 1u);
  EXPECT_EQ(nearest[0].object, 0);
  EXPECT_NEAR(nearest[0].distance, 0.0, 1e-9);

  // Replacement also drops the keyword index when none is supplied.
  engine.SetObjects(objects);
  EXPECT_FALSE(engine.has_keywords());
}

TEST_F(EngineTest, SetObjectsBetweenBatchesIsWellDefined) {
  // The documented contract: SetObjects must never overlap RunBatch (the
  // engine CHECK-aborts on that misuse — an in-flight batch counter guards
  // it). The well-defined sequence batch -> swap -> batch must keep
  // working, with the second batch seeing exactly the new object set.
  eng::QueryEngine engine = MakeEngine(6);
  Rng rng(41);
  const IndoorPoint a = synth::RandomIndoorPoint(venue_, rng);
  const std::vector<eng::Query> batch{eng::Query::Knn(a, 100)};

  const eng::BatchResult before = engine.RunBatch(batch, {/*threads=*/2});
  ASSERT_EQ(before.results[0].objects.size(), 6u);

  engine.SetObjects({a});
  const eng::BatchResult after = engine.RunBatch(batch, {/*threads=*/2});
  ASSERT_EQ(after.results[0].objects.size(), 1u);
  EXPECT_NEAR(after.results[0].objects[0].distance, 0.0, 1e-9);
}

TEST_F(EngineTest, QueryTypeNames) {
  EXPECT_STREQ(eng::QueryTypeName(eng::QueryType::kDistance), "distance");
  EXPECT_STREQ(eng::QueryTypeName(eng::QueryType::kPath), "path");
  EXPECT_STREQ(eng::QueryTypeName(eng::QueryType::kKnn), "knn");
  EXPECT_STREQ(eng::QueryTypeName(eng::QueryType::kRange), "range");
  EXPECT_STREQ(eng::QueryTypeName(eng::QueryType::kBooleanKnn),
               "boolean-knn");
}

}  // namespace
}  // namespace viptree
