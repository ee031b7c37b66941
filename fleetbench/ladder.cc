// The traced run: the workload's traffic timed at each rung of the layer
// ladder, bottom to top, with a span recorded around every call into a
// layer (from this file, never inside the program):
//
//   kernels   common/kernels.h row scans at the venue's node-matrix width
//   core      VIPDistanceQuery / VIPPathQuery / SnapshotQuery Knn, Range
//   engine    QueryEngine::Run
//   cache     QueryEngine::Run on a side engine with a distance cache
//   plan      QueryEngine::RunCoalesced over queue-sized spans
//   service   engine::Service Submit -> Wait (in-process, same manifest)
//   wire      request encode / response decode
//   shard     one request at a time straight to the owning shard
//   router    one request at a time through the router (the end-to-end
//             serial phase's client and path)
//   live      LiveObjectIndex::ApplyDelta on a side bundle
//   io        snapshot Save / Load, registry first Acquire (from set-up)
//
// The run is serial, one request in flight, so a rung's p50 minus the
// rung below it is that layer's self time. Every answer is still checked
// against the in-process reference. Spans go to <work-dir>/spans-*.jsonl
// when the run ends.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/kernels.h"
#include "common/rng.h"
#include "core/distance_query.h"
#include "core/path_query.h"
#include "loadgen.h"
#include "engine/service.h"
#include "engine/venue_registry.h"
#include "fleet.h"
#include "harness.h"

namespace fleetbench {

namespace eng = viptree::engine;
namespace net = viptree::net;

namespace {

constexpr size_t kPlanWindow = 64;     // CoalesceOptions::window default
constexpr size_t kQueueWindow = 32;    // in flight, as the throughput phase
constexpr size_t kDeltas = 2000;       // object moves of the live rung
constexpr size_t kOverheadBlock = 256;  // requests per tracing-overhead block

class Ladder {
 public:
  Ladder(const Options& options, const Workload& w)
      : options_(options), w_(w) {}

  int Run();

 private:
  // Times `fn` under a span named `name` (child of the current rung).
  template <typename Fn>
  double Timed(const std::string& name, uint64_t request, Fn&& fn) {
    const size_t span = tracer_.Begin(name, rung_, request);
    fn();
    tracer_.End(span);
    return tracer_.DurationMicros(span);
  }
  void BeginRung(const std::string& name) {
    rung_ = static_cast<int64_t>(tracer_.Begin("rung." + name, -1, 0));
  }
  void EndRung() { tracer_.End(static_cast<size_t>(rung_)); }

  void Check(const eng::Result& want, const eng::Result& got) {
    ++checked_;
    if (!SameAnswer(want, got)) ++mismatched_;
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void AddDistribution(const std::string& name,
                       const std::vector<double>& samples, bool p99 = true) {
    const Distribution d = Summarize(samples);
    std::fprintf(stderr, "  %-28s %s\n", name.c_str(), Describe(d).c_str());
    Add(name + ".p50", d.p50, "us");
    if (p99) Add(name + ".p99", d.p99, "us");
  }

  void Kernels();
  void Core();
  void Engine();
  void Cache();
  void Plan();
  void ServiceRung();
  void Wire();
  bool Network(std::string* error);
  void Live();

  const Options& options_;
  const Workload& w_;
  Tracer tracer_;
  int64_t rung_ = -1;
  std::vector<Metric> metrics_;
  uint64_t checked_ = 0;
  uint64_t mismatched_ = 0;
  uint64_t failed_ = 0;

  std::unique_ptr<Fleet> fleet_;
  std::unique_ptr<References> refs_;
  std::array<std::vector<eng::Result>, 4> kind_refs_;
  // The workload's pool (the end-to-end run's traffic) with its
  // references: the requests of every rung above engine.
  std::unique_ptr<Traffic> traffic_;
};

// --- kernels -------------------------------------------------------------

// Mean matrix width (columns of the non-leaf node matrices) of the widest
// venue: the row length the ascent and join kernels actually scan.
size_t NodeMatrixWidth(const Workload& w, const Fleet& fleet) {
  size_t best = 0;
  for (size_t v = 0; v < w.venues.size(); ++v) {
    const viptree::IPTree& tree = fleet.built()[v]->tree().base();
    size_t sum = 0, count = 0;
    for (const viptree::TreeNode& node : tree.nodes()) {
      if (node.is_leaf()) continue;
      sum += node.matrix_doors.size();
      ++count;
    }
    if (count > 0) best = std::max(best, (sum + count - 1) / count);
  }
  return std::max<size_t>(best, 8);
}

void Ladder::Kernels() {
  BeginRung("kernels");
  const size_t n = NodeMatrixWidth(w_, *fleet_);
  viptree::Rng rng(options_.seed);
  std::vector<double> best(n), row(n), addend(n), v(n);
  std::vector<float> row_f32(n);
  std::vector<int32_t> idx(n), out(n);
  for (size_t i = 0; i < n; ++i) {
    row[i] = rng.UniformReal(1.0, 100.0);
    row_f32[i] = static_cast<float>(rng.UniformReal(1.0, 100.0));
    addend[i] = rng.UniformReal(1.0, 100.0);
    v[i] = rng.UniformReal(0.0, 100.0);
    idx[i] = static_cast<int32_t>(i);
  }
  std::shuffle(idx.begin(), idx.end(), rng.engine());
  const size_t reps = std::max<size_t>(1, (4u << 20) / n);
  double sink = 0.0;
  const auto reset = [&] { std::fill(best.begin(), best.end(), 1e9); };
  const auto measure = [&](const std::string& name, const auto& body) {
    std::vector<double> ns;
    for (int batch = 0; batch < 5; ++batch) {
      reset();
      const double us = Timed("kernels." + name, batch, [&] {
        for (size_t r = 0; r < reps; ++r) body(r);
      });
      ns.push_back(us * 1000.0 / static_cast<double>(reps * n));
    }
    std::sort(ns.begin(), ns.end());
    Add("kernels." + name + "_ns_per_el", ns[ns.size() / 2], "ns/el");
  };
  measure("minplus_row", [&](size_t r) {
    viptree::kernels::MinPlusRow(best.data(), row.data(),
                                 static_cast<double>(r & 7), n);
  });
  measure("gather_f32", [&](size_t r) {
    viptree::kernels::MinPlusGatherF32(best.data(), row_f32.data(), idx.data(),
                                       static_cast<double>(r & 7), n);
  });
  measure("join_min", [&](size_t r) {
    sink += viptree::kernels::JoinMinIndexedF32(
        static_cast<double>(r & 7), row_f32.data(), idx.data(), addend.data(),
        n);
  });
  measure("filter_leq", [&](size_t r) {
    sink += static_cast<double>(viptree::kernels::FilterLeq(
        v.data(), n, 50.0 + static_cast<double>(r & 7), out.data()));
  });
  sink += best[0];
  std::fprintf(stderr, "  kernels at width %zu (%s path), checksum %.1f\n", n,
               viptree::kernels::ActivePathName(), sink);
  EndRung();
}

// --- core ---------------------------------------------------------------

void Ladder::Core() {
  BeginRung("core");
  // One set of core engines per venue, over the built bundles.
  struct VenueCore {
    std::unique_ptr<viptree::VIPDistanceQuery> distance;
    std::unique_ptr<viptree::VIPPathQuery> path;
    std::unique_ptr<viptree::SnapshotQuery> objects;
  };
  std::map<std::string, VenueCore> cores;
  for (size_t v = 0; v < w_.venues.size(); ++v) {
    const eng::VenueBundle& b = *fleet_->built()[v];
    VenueCore& c = cores[w_.venues[v].id];
    c.distance = std::make_unique<viptree::VIPDistanceQuery>(
        b.tree(), b.query_options());
    c.path = std::make_unique<viptree::VIPPathQuery>(b.tree(),
                                                     b.query_options());
    c.objects = std::make_unique<viptree::SnapshotQuery>(
        b.tree().base(), b.live_objects().Acquire(), b.query_options());
  }
  double nodes = 0.0, considered = 0.0;
  for (size_t kind = 0; kind < kQueryKinds.size(); ++kind) {
    std::vector<double> us;
    const auto& requests = w_.by_kind[kind];
    for (size_t i = 0; i < requests.size(); ++i) {
      const eng::Query& q = requests[i].query;
      VenueCore& c = cores[requests[i].venue_id];
      eng::Result got;
      got.type = q.type;
      viptree::SearchStats stats;
      us.push_back(Timed(std::string("core.") + kQueryKinds[kind], i, [&] {
        switch (q.type) {
          case eng::QueryType::kDistance:
            got.distance = c.distance->Distance(q.source, q.target);
            break;
          case eng::QueryType::kPath: {
            viptree::IndoorPath p = c.path->Path(q.source, q.target);
            got.distance = p.distance;
            got.doors = std::move(p.doors);
            break;
          }
          case eng::QueryType::kKnn:
            got.objects = c.objects->Knn(q.source, q.k, &stats);
            break;
          default:
            got.objects = c.objects->Range(q.source, q.radius, &stats);
            break;
        }
      }));
      if (q.type == eng::QueryType::kKnn) {
        nodes += static_cast<double>(stats.nodes_visited);
        considered += static_cast<double>(stats.objects_considered);
      }
      Check(kind_refs_[kind][i], got);
    }
    AddDistribution(std::string("core.") + kQueryKinds[kind] + "_us", us);
  }
  const double knn = static_cast<double>(std::max<size_t>(w_.by_kind[2].size(), 1));
  Add("core.knn_nodes_visited", nodes / knn, "count");
  Add("core.knn_objects_considered", considered / knn, "count");
  EndRung();
}

// --- engine -------------------------------------------------------------

void Ladder::Engine() {
  BeginRung("engine");
  for (size_t kind = 0; kind < kQueryKinds.size(); ++kind) {
    std::vector<double> us;
    const auto& requests = w_.by_kind[kind];
    for (size_t i = 0; i < requests.size(); ++i) {
      eng::QueryEngine& engine = refs_->engine(requests[i].venue_id);
      eng::Result got;
      us.push_back(Timed(std::string("engine.") + kQueryKinds[kind], i,
                         [&] { got = engine.Run(requests[i].query); }));
      Check(kind_refs_[kind][i], got);
    }
    AddDistribution(std::string("engine.run_us.") + kQueryKinds[kind], us);
  }
  EndRung();
}

// --- cache --------------------------------------------------------------

void Ladder::Cache() {
  BeginRung("cache");
  std::map<std::string, std::unique_ptr<eng::QueryEngine>> side;
  for (size_t v = 0; v < w_.venues.size(); ++v) {
    auto engine = std::make_unique<eng::QueryEngine>(
        std::shared_ptr<const eng::VenueBundle>(fleet_->built()[v]));
    engine->EnableDistanceCache();
    side[w_.venues[v].id] = std::move(engine);
  }
  std::vector<double> us;
  for (size_t i = 0; i < w_.pool.size(); ++i) {
    if (traffic_->is_update(i)) continue;
    eng::QueryEngine& engine = *side[w_.pool[i].venue_id];
    eng::Result got;
    us.push_back(Timed("cache.run", i, [&] { got = engine.Run(w_.pool[i].query); }));
    Check(traffic_->references[i], got);
  }
  viptree::CacheCounters counters;
  for (const auto& entry : side) counters += entry.second->distance_cache()->Counters();
  Add("cache.hit_ratio", counters.hit_rate(), "ratio");
  AddDistribution("cache.run_us", us, /*p99=*/false);
  EndRung();
}

// --- plan ---------------------------------------------------------------

void Ladder::Plan() {
  BeginRung("plan");
  // Per venue, the pool's queries in arrival order, cut into
  // queue-sized spans (what a coalescing worker would pull).
  std::map<std::string, std::vector<size_t>> by_venue;
  for (size_t i = 0; i < w_.pool.size(); ++i) {
    if (!traffic_->is_update(i)) by_venue[w_.pool[i].venue_id].push_back(i);
  }
  eng::PlanStats stats;
  double total_us = 0.0;
  size_t queries = 0;
  uint64_t span_id = 0;
  for (const auto& entry : by_venue) {
    eng::QueryEngine& engine = refs_->engine(entry.first);
    const std::vector<size_t>& ids = entry.second;
    for (size_t at = 0; at < ids.size(); at += kPlanWindow) {
      const size_t end = std::min(ids.size(), at + kPlanWindow);
      std::vector<eng::Query> group;
      for (size_t j = at; j < end; ++j) group.push_back(w_.pool[ids[j]].query);
      std::vector<eng::Result> got;
      total_us += Timed("plan.group", span_id++, [&] {
        got = engine.RunCoalesced(
            viptree::Span<const eng::Query>(group.data(), group.size()),
            &stats);
      });
      for (size_t j = at; j < end; ++j) {
        Check(traffic_->references[ids[j]], got[j - at]);
      }
      queries += group.size();
    }
  }
  const double work =
      static_cast<double>(stats.ascents_computed + stats.ascents_reused);
  Add("plan.us_per_query", total_us / static_cast<double>(std::max<size_t>(queries, 1)),
      "us");
  Add("plan.reuse_ratio",
      work > 0.0 ? static_cast<double>(stats.ascents_reused) / work : 0.0,
      "ratio");
  // Queries per group, singletons counted as groups of one.
  const double singletons =
      static_cast<double>(queries - stats.coalesced_queries);
  Add("plan.mean_group_size",
      static_cast<double>(queries) /
          std::max(1.0, static_cast<double>(stats.groups) + singletons),
      "count");
  EndRung();
}

// --- service ------------------------------------------------------------

void Ladder::ServiceRung() {
  BeginRung("service");
  std::string error;
  std::optional<eng::VenueRegistry> registry =
      eng::VenueRegistry::Open(fleet_->manifest(), &error);
  if (!registry.has_value()) {
    std::fprintf(stderr, "service rung: %s\n", error.c_str());
    ++failed_;
    EndRung();
    return;
  }
  // The worker runs on the fleet's CPU; the caller stays on the load
  // generator's.
  PinCallingThread(FleetCpus().fleet);
  eng::Service service(std::move(*registry));
  service.Start();
  PinCallingThread(FleetCpus().client);
  const auto check = [&](size_t i, const eng::Response& r) {
    if (!r.ok()) {
      ++failed_;
    } else if (!traffic_->is_update(i)) {
      Check(traffic_->references[i], r.result);
    }
  };
  // Warm the worker's engines, then serial Submit -> Wait.
  for (const VenueInput& v : w_.venues) {
    eng::Request r;
    r.venue_id = v.id;
    r.query = eng::Query::Distance(v.objects.front(), v.objects.back());
    service.Submit(std::move(r)).Wait();
  }
  std::vector<double> rtt, exec, queue;
  for (size_t i = 0; i < w_.pool.size(); ++i) {
    eng::Response response;
    rtt.push_back(Timed("service.call", i, [&] {
      response = service.Submit(w_.pool[i]).Take();
    }));
    if (response.ok() && !traffic_->is_update(i)) {
      exec.push_back(response.result.latency_micros);
    }
    check(i, response);
  }
  // Closed loop at the throughput phase's in-flight depth: queue waits.
  std::vector<eng::Ticket> window;
  std::vector<size_t> ids;
  size_t head = 0;
  for (size_t i = 0; i < w_.pool.size(); ++i) {
    window.push_back(service.Submit(w_.pool[i]));
    ids.push_back(i);
    if (window.size() - head >= kQueueWindow) {
      const eng::Response r = window[head].Take();
      queue.push_back(r.queue_micros);
      check(ids[head++], r);
    }
  }
  for (; head < window.size(); ++head) {
    const eng::Response r = window[head].Take();
    queue.push_back(r.queue_micros);
    check(ids[head], r);
  }
  // Counters only once the phase is over.
  const eng::ServiceStats stats = service.Stats();
  service.Stop();
  AddDistribution("service.rtt_us", rtt);
  AddDistribution("service.queue_us", queue);
  AddDistribution("service.exec_us", exec, /*p99=*/false);
  Add("service.rejected", static_cast<double>(stats.rejected), "count");
  Add("service.expired", static_cast<double>(stats.expired), "count");
  EndRung();
}

// --- wire ---------------------------------------------------------------

void Ladder::Wire() {
  BeginRung("wire");
  std::vector<net::WireRequest> requests;
  std::vector<uint8_t> responses;
  size_t request_bytes = 0;
  for (size_t i = 0; i < w_.pool.size(); ++i) {
    requests.push_back(net::WireRequest::FromRequest(w_.pool[i], 0.0));
    eng::Response r;
    r.kind = w_.pool[i].kind;
    r.venue_id = w_.pool[i].venue_id;
    r.result = traffic_->references[i];
    const std::vector<uint8_t> frame =
        net::EncodeResponseFrame(net::WireResponse::FromResponse(r), i + 1);
    responses.insert(responses.end(), frame.begin(), frame.end());
    request_bytes += traffic_->frames[i].size();
  }
  const size_t n = w_.pool.size();
  constexpr int kReps = 20;
  std::vector<double> encode_ns, decode_ns;
  size_t sink = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const double enc = Timed("wire.encode", rep, [&] {
      for (size_t i = 0; i < n; ++i) {
        sink += net::EncodeRequestFrame(requests[i], i + 1).size();
      }
    });
    encode_ns.push_back(enc * 1000.0 / static_cast<double>(n));
    size_t decoded = 0;
    const double dec = Timed("wire.decode", rep, [&] {
      net::FrameDecoder decoder;
      decoder.Feed(responses.data(), responses.size());
      while (std::optional<net::Frame> frame = decoder.Next()) {
        net::WireResponse response;
        viptree::io::Reader reader(viptree::Span<const uint8_t>(
            frame->payload.data(), frame->payload.size()));
        std::string error;
        if (net::DecodeResponsePayload(&reader, &response, &error)) ++decoded;
      }
    });
    decode_ns.push_back(dec * 1000.0 / static_cast<double>(n));
    // A response that does not decode is a wrong answer.
    mismatched_ += n - decoded;
  }
  std::sort(encode_ns.begin(), encode_ns.end());
  std::sort(decode_ns.begin(), decode_ns.end());
  Add("wire.encode_ns", encode_ns[kReps / 2], "ns");
  Add("wire.decode_ns", decode_ns[kReps / 2], "ns");
  Add("wire.request_bytes",
      static_cast<double>(request_bytes) / static_cast<double>(n), "bytes");
  Add("wire.response_bytes",
      static_cast<double>(responses.size()) / static_cast<double>(n), "bytes");
  std::fprintf(stderr, "  wire checksum %zu\n", sink);
  EndRung();
}

// --- shard and router ---------------------------------------------------

bool Ladder::Network(std::string* error) {
  // One request at a time through `gen` under a span named `name`.
  // Answers are checked into *phase.
  const auto call = [&](LoadGen& gen, size_t i, const std::string& name,
                        PhaseResult* phase, std::vector<double>* us) {
    bool ok = true;
    us->push_back(Timed(name, i, [&] { ok = gen.Call(*traffic_, i, phase); }));
    if (!ok) *error = gen.error();
    return ok;
  };
  PhaseResult phase;

  BeginRung("shard");
  uint64_t frames_before = 0, errors_before = 0;
  for (size_t s = 0; s < Fleet::kShards; ++s) {
    frames_before += fleet_->shard(s).frames_received();
    errors_before += fleet_->shard(s).protocol_errors();
  }
  std::vector<double> shard_us;
  for (size_t s = 0; s < Fleet::kShards; ++s) {
    std::unique_ptr<LoadGen> gen =
        LoadGen::Connect(fleet_->shard_endpoint(s), 1, error);
    if (gen == nullptr) return false;
    for (size_t i = 0; i < w_.pool.size(); ++i) {
      if (fleet_->ShardOf(w_.pool[i].venue_id) != s) continue;
      if (!call(*gen, i, "shard.call", &phase, &shard_us)) return false;
    }
  }
  uint64_t frames = 0, errors = 0;
  for (size_t s = 0; s < Fleet::kShards; ++s) {
    frames += fleet_->shard(s).frames_received();
    errors += fleet_->shard(s).protocol_errors();
  }
  AddDistribution("shard.rtt_us", shard_us);
  Add("shard.frames_received", static_cast<double>(frames - frames_before),
      "count");
  Add("shard.protocol_errors", static_cast<double>(errors - errors_before),
      "count");
  EndRung();

  std::unique_ptr<LoadGen> gen =
      LoadGen::Connect(fleet_->router_endpoint(), 1, error);
  if (gen == nullptr) return false;
  // The tracing-overhead baseline is the end-to-end serial phase itself:
  // the same ClosedLoop call, one request in flight on one connection,
  // untraced. Baseline and traced rung alternate over blocks of the pool,
  // each block sent once each way in the same order, so both see the same
  // requests under the same host conditions.
  std::vector<double> baseline_us, router_us;
  BeginRung("router");
  for (size_t at = 0; at < w_.pool.size(); at += kOverheadBlock) {
    const size_t end = std::min(w_.pool.size(), at + kOverheadBlock);
    size_t cursor = at;
    const PhaseResult block =
        gen->ClosedLoop(*traffic_, 1, 0.0, end - at, &cursor);
    if (!gen->error().empty()) {
      *error = gen->error();
      return false;
    }
    phase.ok += block.ok;
    phase.mismatched += block.mismatched;
    phase.failed += block.failed;
    baseline_us.insert(baseline_us.end(), block.latency_us.begin(),
                       block.latency_us.end());
    for (size_t i = at; i < end; ++i) {
      if (!call(*gen, i, "router.call", &phase, &router_us)) return false;
    }
  }
  checked_ += phase.ok + phase.mismatched;
  mismatched_ += phase.mismatched;
  failed_ += phase.failed;
  const viptree::net::RouterCounters counters = fleet_->router().counters();
  const Distribution traced = Summarize(router_us);
  const Distribution plain = Summarize(std::move(baseline_us));
  AddDistribution("router.rtt_us", router_us);
  Add("router.requests_forwarded", static_cast<double>(counters.requests_forwarded),
      "count");
  Add("router.failovers", static_cast<double>(counters.failovers), "count");
  Add("router.no_shard_rejections",
      static_cast<double>(counters.no_shard_rejections), "count");
  Add("trace.router_vs_untraced_p50", traced.p50 / plain.p50, "ratio");
  std::fprintf(stderr, "  untraced serial phase: %s (traced/untraced p50 %.3f)\n",
               Describe(plain).c_str(), traced.p50 / plain.p50);
  EndRung();
  return true;
}

// --- live objects -------------------------------------------------------

void Ladder::Live() {
  BeginRung("live");
  std::map<std::string, std::unique_ptr<eng::VenueBundle>> side;
  double load_ms = 0.0;
  for (const VenueInput& v : w_.venues) {
    std::string error;
    std::optional<eng::VenueBundle> bundle;
    load_ms += Timed("io.snapshot_load", 0, [&] {
                 bundle = eng::VenueBundle::TryLoad(fleet_->SnapshotPath(v.id),
                                                    &error);
               }) /
               1000.0;
    if (!bundle.has_value()) {
      std::fprintf(stderr, "live rung: %s\n", error.c_str());
      ++failed_;
      EndRung();
      return;
    }
    side[v.id] = std::make_unique<eng::VenueBundle>(std::move(*bundle));
  }
  Add("io.snapshot_load_ms", load_ms, "ms");

  std::vector<double> us;
  std::map<std::string, size_t> last_overlay;
  double overlay_sum = 0.0;
  size_t merges = 0;
  const size_t deltas = std::min(kDeltas, w_.update_pool.size());
  for (size_t i = 0; i < deltas; ++i) {
    const eng::Request& r = w_.update_pool[i];
    viptree::LiveObjectIndex& live = side[r.venue_id]->live_objects();
    std::optional<std::string> bad;
    us.push_back(Timed("live.apply_delta", i, [&] { bad = live.ApplyDelta(r.delta); }));
    if (bad.has_value()) ++failed_;
    const size_t overlay = live.Acquire()->overlay.size();
    if (overlay < last_overlay[r.venue_id]) ++merges;
    last_overlay[r.venue_id] = overlay;
    overlay_sum += static_cast<double>(overlay);
  }
  const double n = static_cast<double>(std::max<size_t>(deltas, 1));
  AddDistribution("live.apply_delta_us", us);
  Add("live.overlay_mean", overlay_sum / n, "count");
  Add("live.merges_per_1k_deltas", 1000.0 * static_cast<double>(merges) / n,
      "count");
  EndRung();
}

int Ladder::Run() {
  SetupTimes times;
  std::string error;
  fleet_ = Fleet::Start(w_, options_.work_dir, &times, &error);
  if (fleet_ == nullptr) {
    std::fprintf(stderr, "fleet set-up failed: %s\n", error.c_str());
    return 1;
  }
  refs_ = std::make_unique<References>(w_, *fleet_);
  for (size_t kind = 0; kind < kQueryKinds.size(); ++kind) {
    kind_refs_[kind] = refs_->Answer(w_.by_kind[kind]);
  }
  traffic_ = std::make_unique<Traffic>(w_.pool, refs_->Answer(w_.pool));

  std::fprintf(stderr, "ladder (serial, one request in flight):\n");
  Kernels();
  Core();
  Add("core.build_s", times.build_s, "s");
  Add("core.index_mb", times.index_mb, "MiB");
  Engine();
  Cache();
  Plan();
  ServiceRung();
  Wire();
  const bool network_ok = Network(&error);
  if (!network_ok) std::fprintf(stderr, "network rung: %s\n", error.c_str());
  Live();
  Add("io.snapshot_save_ms", times.save_ms, "ms");
  Add("io.snapshot_mb", times.snapshot_mb, "MiB");
  Add("registry.first_acquire_ms", times.first_acquire_ms, "ms");
  fleet_->Stop();

  const std::string spans = options_.work_dir + "/spans-" + w_.name + "-" +
                            std::to_string(options_.seed) + ".jsonl";
  if (tracer_.WriteJsonLines(spans)) {
    std::fprintf(stderr, "%zu spans written to %s\n", tracer_.spans().size(),
                 spans.c_str());
  }
  // Nothing in the ladder may fail: a refused request, a rejected delta or
  // a snapshot that does not load fails the run like a wrong answer.
  const bool correct = network_ok && mismatched_ == 0 && failed_ == 0;
  std::fprintf(stderr, "ladder checked %llu answers, %llu mismatched, %llu failed\n",
               static_cast<unsigned long long>(checked_),
               static_cast<unsigned long long>(mismatched_),
               static_cast<unsigned long long>(failed_));
  std::printf("%s\n", ResultJson(correct, std::max<uint64_t>(checked_ + failed_, 1),
                                 failed_ + mismatched_, metrics_)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int RunLadder(const Options& options, const Workload& workload) {
  return Ladder(options, workload).Run();
}

}  // namespace fleetbench
