#include "workloads.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "engine/query_engine.h"
#include "synth/objects.h"
#include "synth/presets.h"
#include "synth/random_venue.h"

namespace fleetbench {
namespace {

namespace eng = viptree::engine;
using viptree::IndoorPoint;
using viptree::ObjectDelta;
using viptree::ObjectId;
using viptree::Rng;
using viptree::Venue;

constexpr size_t kPoolSize = 4096;
constexpr size_t kPerKind = 1000;  // ladder sample per query kind
// Object moves: the serial passes of the first eight rounds (8 x 1100)
// draw fresh ones; later rounds send them again.
constexpr size_t kUpdatePool = 8800;
// Seed of everything that belongs to the venues rather than the traffic.
constexpr uint64_t kVenueSeed = 0x5EED;

// Traffic parameters taken from the repository's own benches, so the
// numbers here stay comparable with theirs:
//   objects per venue     50, the paper default of bench_fig11_objects
//                         and the object count of bench_coalesce;
//   hot source pool       16 points, Zipf-drawn (bench_coalesce);
//   query mix, k, radius  bench_common.h's MixedEngineWorkload, the
//                         serving mix of the throughput benches (see
//                         MixedQuery); its k = 5 and r = 100 m are also
//                         bench_fig11's defaults.
constexpr size_t kObjects = 50;
constexpr size_t kHotSources = 16;
constexpr size_t kKnnK = 5;
constexpr double kRadius = 100.0;

// Zipf over ranks 0..n-1, P(r) proportional to 1/(r+1): the "everyone
// routes from the entrance" skew.
class Zipf {
 public:
  explicit Zipf(size_t n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cumulative_.push_back(total);
    }
  }
  size_t Next(Rng& rng) const {
    const double u = rng.UniformReal(0.0, cumulative_.back());
    const auto it =
        std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
    return std::min<size_t>(it - cumulative_.begin(), cumulative_.size() - 1);
  }

 private:
  std::vector<double> cumulative_;
};

eng::Request QueryRequest(const std::string& venue, eng::Query query) {
  eng::Request request;
  request.venue_id = venue;
  request.query = std::move(query);
  return request;
}

eng::Request MoveRequest(const std::string& venue, ObjectId id,
                         const IndoorPoint& to) {
  ObjectDelta delta;
  delta.moves.push_back({id, to});
  return eng::Request::Update(venue, std::move(delta));
}

// One query of `kind` (kQueryKinds index) from `source`; distance and
// path targets are uniform.
eng::Query MakeQuery(size_t kind, const IndoorPoint& source,
                     const Venue& venue, double radius, Rng& rng) {
  switch (kind) {
    case 0:
      return eng::Query::Distance(source,
                                  viptree::synth::RandomIndoorPoint(venue, rng));
    case 1:
      return eng::Query::Path(source,
                              viptree::synth::RandomIndoorPoint(venue, rng));
    case 2:
      return eng::Query::Knn(source, kKnnK);
    default:
      return eng::Query::Range(source, radius);
  }
}

// One query of MixedEngineWorkload's mix without keywords, drawn at random
// instead of round-robin: 40% distance, 20% path, 20% kNN with k = 5, 10%
// range and 10% kNN with k = 3 (that bench's boolean-keyword share, which
// falls back to kNN when the venue has no keyword index, as here).
eng::Query MixedQuery(const IndoorPoint& source, const Venue& venue,
                      double radius, Rng& rng) {
  const size_t slot = rng.UniformIndex(10);
  if (slot < 4) return MakeQuery(0, source, venue, radius, rng);
  if (slot < 6) return MakeQuery(1, source, venue, radius, rng);
  if (slot < 8) return MakeQuery(2, source, venue, radius, rng);
  if (slot < 9) return MakeQuery(3, source, venue, radius, rng);
  return eng::Query::Knn(source, 3);
}

// Random moves of existing objects to random points: the update stream of
// the single-venue workloads (timed only after their reads).
std::vector<eng::Request> RandomMoves(const VenueInput& v, size_t n,
                                      Rng& rng) {
  std::vector<eng::Request> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const ObjectId id = static_cast<ObjectId>(rng.UniformIndex(v.objects.size()));
    out.push_back(
        MoveRequest(v.id, id, viptree::synth::RandomIndoorPoint(v.venue, rng)));
  }
  return out;
}

// A single-venue read workload (mall-hotspot, city-uniform).
// Sources are Zipf-drawn from `hot_sources` fixed points, or uniform when
// it is 0; targets are uniform.
void SingleVenue(Workload* w, const std::string& id, Venue venue,
                 size_t objects, size_t hot_sources, uint64_t seed) {
  // The venue's own furniture (objects, the hot source points) is fixed;
  // the seed draws the traffic.
  Rng venue_rng(kVenueSeed);
  VenueInput v(id, std::move(venue));
  v.objects = viptree::synth::PlaceObjects(v.venue, objects, venue_rng);
  std::vector<IndoorPoint> hot;
  for (size_t i = 0; i < hot_sources; ++i) {
    hot.push_back(viptree::synth::RandomIndoorPoint(v.venue, venue_rng));
  }

  Rng rng(seed);
  const Zipf zipf(std::max<size_t>(hot_sources, 1));
  const auto source = [&]() {
    return hot.empty() ? viptree::synth::RandomIndoorPoint(v.venue, rng)
                       : hot[zipf.Next(rng)];
  };

  for (size_t i = 0; i < kPoolSize; ++i) {
    w->pool.push_back(
        QueryRequest(id, MixedQuery(source(), v.venue, kRadius, rng)));
  }
  for (size_t kind = 0; kind < kQueryKinds.size(); ++kind) {
    for (size_t i = 0; i < kPerKind; ++i) {
      w->by_kind[kind].push_back(
          QueryRequest(id, MakeQuery(kind, source(), v.venue, kRadius, rng)));
    }
  }
  w->update_pool = RandomMoves(v, kUpdatePool, rng);
  w->venues.push_back(std::move(v));
}

// --- fleet-churn ---------------------------------------------------------

// Parking spots per venue. Each spot a read's answer could reach throws
// the read away, so fewer spots keep the kept reads closer to uniform: of
// uniform sources, 4 spots keep 40-64% of k = 5 reads per venue and 16
// spots only 6-29% (measured over 400 sources per venue).
constexpr size_t kChurnParking = 4;
// Mobile objects per venue: twice the 64-entry default overlay watermark
// (LiveObjectOptions::merge_watermark), so that cycling through them
// crosses it.
constexpr size_t kChurnMobile = 128;
// Range radius of the churn reads. bench_common's 100 m does not fit these
// venues: with 4 parking spots it keeps 0-21% of range reads per venue,
// and none at all on MC and syn-32. 20 m keeps 45-94%, and it is of the
// order of the venues' mean 5th-neighbour distance (18-48 m). Measured
// over 400 uniform sources per venue.
constexpr double kChurnRadius = 20.0;

struct ChurnVenue {
  const VenueInput* input = nullptr;
  std::vector<IndoorPoint> parking;
  ObjectId first_mobile = 0;
  // Initial-state engine used only to filter reads at generation time.
  std::unique_ptr<eng::QueryEngine> engine;
};

// Distance margin separating a kept read's answer from every parking
// spot: generous against float matrix vs exact overlay rounding.
double Margin(double d) { return 0.5 + 1e-3 * d; }

// True when no parking spot can enter the answer of `query`.
bool ParkingOutside(const ChurnVenue& cv, const eng::Query& query) {
  double bound = 0.0;
  if (query.type == eng::QueryType::kKnn) {
    const eng::Result r = cv.engine->Run(query);
    if (r.objects.size() != query.k) return false;
    bound = r.objects.back().distance;
  } else if (query.type == eng::QueryType::kRange) {
    bound = query.radius;
  } else {
    return true;
  }
  for (const IndoorPoint& p : cv.parking) {
    const double d =
        cv.engine->Run(eng::Query::Distance(query.source, p)).distance;
    if (!(d > bound + Margin(bound))) return false;
  }
  return true;
}

void FleetChurn(Workload* w, uint64_t seed) {
  // Venues, objects and parking spots are fixed; the seed draws the
  // traffic.
  Rng venue_rng(kVenueSeed);
  std::vector<std::pair<std::string, Venue>> venues;
  venues.emplace_back("mc", viptree::synth::MakeDataset(
                                viptree::synth::Dataset::kMC, 1.0));
  venues.emplace_back("mc-2", viptree::synth::MakeDataset(
                                  viptree::synth::Dataset::kMC2, 1.0));
  // Fixed synthetic venues of 190-290 partitions each.
  for (const uint64_t s : {2, 4, 22, 32, 33, 37}) {
    venues.emplace_back("syn-" + std::to_string(s),
                        viptree::synth::RandomVenue(s));
  }

  std::vector<ChurnVenue> churn(venues.size());
  w->venues.reserve(venues.size());
  for (size_t i = 0; i < venues.size(); ++i) {
    VenueInput v(venues[i].first, std::move(venues[i].second));
    v.objects = viptree::synth::PlaceObjects(v.venue, kObjects, venue_rng);
    ChurnVenue& cv = churn[i];
    for (size_t p = 0; p < kChurnParking; ++p) {
      cv.parking.push_back(
          viptree::synth::RandomIndoorPoint(v.venue, venue_rng));
    }
    cv.first_mobile = static_cast<ObjectId>(v.objects.size());
    for (size_t m = 0; m < kChurnMobile; ++m) {
      v.objects.push_back(cv.parking[m % kChurnParking]);
    }
    w->venues.push_back(std::move(v));
  }
  for (size_t i = 0; i < churn.size(); ++i) {
    churn[i].input = &w->venues[i];
    churn[i].engine = std::make_unique<eng::QueryEngine>(
        w->venues[i].venue, viptree::D2DGraph(w->venues[i].venue),
        w->venues[i].objects);
  }

  Rng rng(seed);
  const auto move = [&](size_t vi) {
    const ChurnVenue& cv = churn[vi];
    const ObjectId id =
        cv.first_mobile + static_cast<ObjectId>(rng.UniformIndex(kChurnMobile));
    return MoveRequest(cv.input->id, id,
                       cv.parking[rng.UniformIndex(kChurnParking)]);
  };
  // A read on venue vi, made by `make` from a uniform source, whose answer
  // no parking spot can reach.
  const auto read = [&](size_t vi, const auto& make) {
    const ChurnVenue& cv = churn[vi];
    while (true) {
      const IndoorPoint s = viptree::synth::RandomIndoorPoint(cv.input->venue, rng);
      eng::Query q = make(s, cv.input->venue);
      if (ParkingOutside(cv, q)) return QueryRequest(cv.input->id, std::move(q));
    }
  };
  const auto mixed = [&](const IndoorPoint& s, const Venue& venue) {
    return MixedQuery(s, venue, kChurnRadius, rng);
  };

  // Reads in the shared serving mix; one request in four is an update.
  for (size_t i = 0; i < kPoolSize; ++i) {
    const size_t vi = rng.UniformIndex(churn.size());
    w->pool.push_back(rng.Chance(0.25) ? move(vi) : read(vi, mixed));
  }
  for (size_t kind = 0; kind < kQueryKinds.size(); ++kind) {
    const auto of_kind = [&](const IndoorPoint& s, const Venue& venue) {
      return MakeQuery(kind, s, venue, kChurnRadius, rng);
    };
    for (size_t i = 0; i < kPerKind; ++i) {
      w->by_kind[kind].push_back(read(rng.UniformIndex(churn.size()), of_kind));
    }
  }
  // The serial update passes visit the venues in turn and cycle through
  // each venue's mobile objects, so every 65th move of a venue (overlay
  // watermark 64) triggers a merge, and every round's 1100 moves merge
  // each venue twice whatever the seed: its p99 falls among the merges.
  std::vector<size_t> next_mobile(churn.size(), 0);
  for (size_t i = 0; i < kUpdatePool; ++i) {
    const size_t vi = i % churn.size();
    const ChurnVenue& cv = churn[vi];
    const ObjectId id = cv.first_mobile + static_cast<ObjectId>(
                                              next_mobile[vi]++ % kChurnMobile);
    w->update_pool.push_back(MoveRequest(
        cv.input->id, id, cv.parking[rng.UniformIndex(kChurnParking)]));
  }
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "mall-hotspot") {
    SingleVenue(&w, "men-2",
                viptree::synth::MakeDataset(viptree::synth::Dataset::kMen2, 1.0),
                kObjects, kHotSources, seed);
    w.open_rate = 1250.0;
  } else if (name == "city-uniform") {
    // bench_common's City scale (0.05) and bench_city_scale's object load
    // of three per partition.
    Venue city = viptree::synth::MakeDataset(viptree::synth::Dataset::kCity,
                                             0.05);
    const size_t objects = 3 * city.NumPartitions();
    SingleVenue(&w, "city", std::move(city), objects, /*hot_sources=*/0,
                seed);
    w.open_rate = 2000.0;
  } else if (name == "fleet-churn") {
    FleetChurn(&w, seed);
    w.open_rate = 3000.0;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

}  // namespace fleetbench
