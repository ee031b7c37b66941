// Cost of live object updates (core/live_objects.h) and their effect on
// query latency.
//
// Not a paper figure — VIP-Tree's object index is static in the paper;
// this measures the epoch-published mutable layer added on top. Four
// phases:
//
//   1. Publish cost: single-move ApplyDelta publishes on the Men-2
//      analogue, split into overlay patches (below the merge watermark)
//      and merge rebuilds (overlay folded into a fresh packed CSR), with
//      a SetObjects full replacement for comparison — the "patch vs
//      rebuild" gap is the point of the overlay.
//   2. Watermark sweep: mean publish cost at merge watermarks 8..256 —
//      small watermarks rebuild often, large ones copy a bigger overlay
//      on every publish.
//   3. Overlay read cost: serial kNN and range p50/p99 over the same
//      object positions, once packed (overlay 0) and once with a full
//      watermark of them in the overlay. Overlay entries are scored with
//      the objects of their leaf, so the two rows should match; the
//      answers are checked to be identical.
//   4. Query p99 under churn: reader threads run a closed kNN loop over a
//      shared bundle, quiescent vs with a writer publishing moves at full
//      rate; reports reader p50/p99 both ways and the sustained update
//      rate.
//
//   VIPTREE_SCALE= / VIPTREE_QUERIES= shrink or grow the workload as with
//   the figure benchmarks.

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/live_objects.h"
#include "engine/venue_bundle.h"

namespace viptree {
namespace bench {
namespace {

namespace eng = ::viptree::engine;

constexpr size_t kNumObjects = 200;

// One single-move delta against a random object.
ObjectDelta RandomMove(const Venue& venue, size_t num_objects, Rng& rng) {
  ObjectDelta delta;
  delta.moves.push_back(
      {static_cast<ObjectId>(rng.UniformIndex(num_objects)),
       synth::RandomIndoorPoint(venue, rng)});
  return delta;
}

bool SameAnswers(const std::vector<ObjectResult>& a,
                 const std::vector<ObjectResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].object != b[i].object || a[i].distance != b[i].distance) {
      return false;
    }
  }
  return true;
}

struct PublishCosts {
  Summary patch;  // overlay-patch publishes
  Summary merge;  // watermark-triggered rebuild publishes
};

PublishCosts MeasurePublishes(LiveObjectIndex& live, const Venue& venue,
                              size_t publishes, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> patch_micros;
  std::vector<double> merge_micros;
  for (size_t i = 0; i < publishes; ++i) {
    const ObjectDelta delta = RandomMove(venue, kNumObjects, rng);
    const Timer timer;
    const std::optional<std::string> error = live.ApplyDelta(delta);
    const double micros = timer.ElapsedMicros();
    if (error.has_value()) {
      std::fprintf(stderr, "publish failed: %s\n", error->c_str());
      continue;
    }
    // A publish that left the overlay empty folded it into the CSR.
    if (live.Acquire()->overlay.empty()) {
      merge_micros.push_back(micros);
    } else {
      patch_micros.push_back(micros);
    }
  }
  return {Summarize(patch_micros), Summarize(merge_micros)};
}

int Main() {
  const synth::Dataset dataset = synth::Dataset::kMen2;
  DatasetBundle& data = GetDataset(dataset);
  std::printf("venue %s: %zu partitions, %zu doors, %zu objects\n",
              data.info.name.c_str(), data.venue.NumPartitions(),
              data.venue.NumDoors(), kNumObjects);

  const std::vector<IndoorPoint> objects = Objects(dataset, kNumObjects);

  // -------------------------------------------------------------------
  // Phase 1: patch vs merge vs full replacement, default watermark.
  // -------------------------------------------------------------------
  const auto bundle = std::make_shared<const eng::VenueBundle>(
      eng::VenueBundle::BuildFrom(data.venue, data.graph, objects));
  LiveObjectIndex& live = bundle->live_objects();

  const size_t publishes = 20 * NumQueries() / 5;
  const PublishCosts costs =
      MeasurePublishes(live, data.venue, publishes, 0xFADE);
  std::printf("\npublish cost over %zu single-move deltas (watermark %zu):\n",
              publishes, LiveObjectIndex::Options().merge_watermark);
  std::printf(
      "  overlay patch  %7zu publishes  mean %8.1f us  p99 %8.1f us\n",
      costs.patch.count, costs.patch.mean, costs.patch.p99);
  std::printf(
      "  merge rebuild  %7zu publishes  mean %8.1f us  p99 %8.1f us\n",
      costs.merge.count, costs.merge.mean, costs.merge.p99);

  {
    std::vector<double> replace_micros;
    Rng rng(0xF11);
    for (int i = 0; i < 20; ++i) {
      std::vector<IndoorPoint> replacement = objects;
      for (IndoorPoint& p : replacement) {
        p = synth::RandomIndoorPoint(data.venue, rng);
      }
      const Timer timer;
      live.SetObjects(std::move(replacement));
      replace_micros.push_back(timer.ElapsedMicros());
    }
    const Summary s = Summarize(replace_micros);
    std::printf(
        "  SetObjects     %7zu publishes  mean %8.1f us  p99 %8.1f us\n",
        s.count, s.mean, s.p99);
  }

  // -------------------------------------------------------------------
  // Phase 2: watermark sweep.
  // -------------------------------------------------------------------
  std::printf("\nwatermark sweep (%zu single-move publishes each):\n",
              publishes);
  for (const size_t watermark : {size_t{8}, size_t{32}, size_t{64},
                                 size_t{128}, size_t{256}}) {
    LiveObjectIndex::Options options;
    options.merge_watermark = watermark;
    LiveObjectIndex swept(bundle->tree().base(), objects, {}, options);
    const PublishCosts swept_costs =
        MeasurePublishes(swept, data.venue, publishes, 0xFADE);
    const size_t total = swept_costs.patch.count + swept_costs.merge.count;
    const double mean_all =
        total > 0 ? (swept_costs.patch.mean * swept_costs.patch.count +
                     swept_costs.merge.mean * swept_costs.merge.count) /
                        total
                  : 0.0;
    std::printf(
        "  watermark %4zu: mean %8.1f us/publish, %5zu merges, "
        "merge p99 %8.1f us\n",
        watermark, mean_all, swept_costs.merge.count,
        swept_costs.merge.p99);
  }

  // -------------------------------------------------------------------
  // Phase 3: overlay read cost — the same positions packed vs overlaid.
  // -------------------------------------------------------------------
  {
    const size_t watermark = LiveObjectIndex::Options().merge_watermark;
    const IPTree& tree = bundle->tree().base();
    LiveObjectIndex overlaid(tree, objects);
    std::vector<IndoorPoint> moved = objects;
    Rng rng(0x0E7A);
    for (size_t i = 0; i < watermark; ++i) {
      ObjectDelta delta;
      delta.moves.push_back({static_cast<ObjectId>(i),
                             synth::RandomIndoorPoint(data.venue, rng)});
      moved[i] = delta.moves[0].to;
      if (overlaid.ApplyDelta(delta).has_value()) std::abort();
    }
    const LiveObjectIndex packed(tree, moved);
    const std::vector<IndoorPoint> points =
        QueryPoints(dataset, 4 * NumQueries());
    std::printf("\nserial reads over the same %zu positions (k=5, range "
                "radius 100):\n",
                kNumObjects);
    // The two sides alternate query by query, in alternating order, so a
    // host speed phase or a warm cache favours neither; the first pass is
    // a warm-up. Answers must agree bit for bit.
    const SnapshotQuery readers[2] = {SnapshotQuery(tree, packed.Acquire()),
                                      SnapshotQuery(tree, overlaid.Acquire())};
    std::vector<double> knn_micros[2], range_micros[2];
    size_t differing = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < points.size(); ++i) {
        std::vector<ObjectResult> knn[2], range[2];
        for (size_t turn = 0; turn < 2; ++turn) {
          const size_t side = (i + turn) % 2;
          Timer timer;
          knn[side] = readers[side].Knn(points[i], 5);
          const double knn_us = timer.ElapsedMicros();
          timer.Reset();
          range[side] = readers[side].Range(points[i], 100.0);
          if (pass == 0) continue;
          range_micros[side].push_back(timer.ElapsedMicros());
          knn_micros[side].push_back(knn_us);
        }
        if (pass == 1 && (!SameAnswers(knn[0], knn[1]) ||
                          !SameAnswers(range[0], range[1]))) {
          ++differing;
        }
      }
    }
    for (size_t side = 0; side < 2; ++side) {
      const Summary knn = Summarize(knn_micros[side]);
      const Summary range = Summarize(range_micros[side]);
      std::printf("  overlay %4zu: kNN p50 %6.1f us  p99 %6.1f us  |  "
                  "range p50 %6.1f us  p99 %6.1f us\n",
                  readers[side].snapshot().overlay.size(), knn.p50, knn.p99,
                  range.p50, range.p99);
    }
    if (differing > 0) {
      std::fprintf(stderr, "%zu of %zu overlaid answers differ from packed\n",
                   differing, points.size());
      return 1;
    }
  }

  // -------------------------------------------------------------------
  // Phase 4: reader latency, quiescent vs full-rate churn.
  // -------------------------------------------------------------------
  const size_t num_readers = 2;
  const size_t reads_per_thread = 4 * NumQueries();
  for (const bool churn : {false, true}) {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> published{0};
    std::thread writer;
    if (churn) {
      writer = std::thread([&] {
        Rng rng(0xC0FFEE);
        while (!stop.load(std::memory_order_acquire)) {
          if (!bundle->live_objects()
                   .ApplyDelta(RandomMove(data.venue, kNumObjects, rng))
                   .has_value()) {
            published.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }

    std::vector<std::vector<double>> latencies(num_readers);
    std::vector<std::thread> readers;
    const Timer wall;
    for (size_t r = 0; r < num_readers; ++r) {
      readers.emplace_back([&, r] {
        const eng::QueryEngine engine(bundle);
        Rng rng(0x5EED + r);
        latencies[r].reserve(reads_per_thread);
        for (size_t i = 0; i < reads_per_thread; ++i) {
          const eng::Query query = eng::Query::Knn(
              synth::RandomIndoorPoint(data.venue, rng), 5);
          const Timer timer;
          const eng::Result result = engine.Run(query);
          latencies[r].push_back(timer.ElapsedMicros());
          if (result.objects.empty()) std::abort();  // impossible
        }
      });
    }
    for (std::thread& t : readers) t.join();
    const double wall_s = wall.ElapsedSeconds();
    stop.store(true, std::memory_order_release);
    if (writer.joinable()) writer.join();

    std::vector<double> all;
    for (const std::vector<double>& per_thread : latencies) {
      all.insert(all.end(), per_thread.begin(), per_thread.end());
    }
    const Summary s = Summarize(all);
    std::printf("\nkNN x%zu readers, %s: p50 %7.1f us  p99 %7.1f us  "
                "(%.0f reads/s",
                num_readers, churn ? "writer at full rate" : "quiescent",
                s.p50, s.p99, wall_s > 0.0 ? all.size() / wall_s : 0.0);
    if (churn) {
      std::printf(", %.0f updates/s",
                  wall_s > 0.0 ? published.load() / wall_s : 0.0);
    }
    std::printf(")\n");
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace viptree

int main() { return viptree::bench::Main(); }
