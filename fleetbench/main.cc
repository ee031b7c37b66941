// fleet_bench: the repository benchmark. One process stands up a router in
// front of two shard servers over loopback, drives one workload through it
// and checks every answer. See README.md beside this file.
//
//   fleet_bench --workload mall-hotspot --seed 7 --seconds 10 --trace 0
//               --work-dir .bench_build/work
//
// The last stdout line is the JSON result; progress goes to stderr. Exit
// code 0 only when every answer matched its reference.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "loadgen.h"
#include "fleet.h"
#include "harness.h"

namespace fleetbench {


namespace {

constexpr int kSetups = 5;  // stand-ups per run; setup_s is their median
// Target length of one measurement round; a run has seconds / 2.5 rounds.
constexpr double kRoundSeconds = 2.5;
// Serial object moves per round: enough for a supported p99 in every round.
constexpr size_t kUpdatesPerRound = 1100;

// Median of a small sample (the lower middle for even sizes).
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[(v.size() - 1) / 2];
}

}  // namespace

int RunEndToEnd(const Options& options, const Workload& w) {
  // --- Set-up, repeated; the last fleet stays up. ----------------------
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (int k = 0; k < kSetups; ++k) {
    if (fleet != nullptr) fleet->Stop();
    fleet.reset();
    SetupTimes times;
    std::string error;
    fleet = Fleet::Start(w, options.work_dir, &times, &error);
    if (fleet == nullptr) {
      std::fprintf(stderr, "fleet set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(times.total_s);
    std::fprintf(stderr,
                 "setup %d: %.3f s (build %.3f s, save %.1f ms, registry "
                 "%.1f ms, start %.1f ms, first acquire %.1f ms)\n",
                 k + 1, times.total_s, times.build_s, times.save_ms,
                 times.registry_open_ms, times.start_ms,
                 times.first_acquire_ms);
  }

  // --- References and oracle, outside every timed window. --------------
  std::unique_ptr<Traffic> traffic, updates;
  size_t oracle_bad = 0;
  {
    const References refs(w, *fleet);
    traffic = std::make_unique<Traffic>(w.pool, refs.Answer(w.pool));
    updates =
        std::make_unique<Traffic>(w.update_pool, refs.Answer(w.update_pool));
    const size_t oracle_n = OracleCheck(
        w, refs, options.seed, w.venues.size() > 1 ? 8 : 24, &oracle_bad);
    std::fprintf(stderr, "oracle: %zu distance answers checked, %zu off\n",
                 oracle_n, oracle_bad);
  }

  // --- Measurement: rounds of the three phases. ------------------------
  // Every round serves a fresh session: the shards and the router are
  // restarted over the same snapshots, so each round starts with empty
  // queues, statistics and live-object overlays and serves a fixed amount
  // of open-loop traffic before its closed-loop windows. A metric is the
  // median of its per-round values over the quieter half of that phase's
  // windows (see QuietRounds in harness.h).
  const double t = options.seconds;
  const size_t rounds =
      std::max<size_t>(1, static_cast<size_t>(std::lround(t / kRoundSeconds)));
  const double round_s = t / static_cast<double>(rounds);
  const std::vector<int> watched = FleetCpus().used();
  std::string error;
  std::vector<PhaseResult> phases;
  // Per round: the phase's value and the steal time of its window.
  std::vector<double> serial_p50, serial_steal, qps, closed_steal, open_steal,
      update_p99, update_steal;
  size_t cursor = 0, update_cursor = 0;
  for (size_t r = 0; r < rounds && error.empty(); ++r) {
    if (r > 0 && !fleet->Restart(w, &error)) break;
    // Serial: 1 connection, 1 in flight. Open loop: 2 connections,
    // round-robin. Closed loop: 2 connections x 16 in flight, well under
    // the 1024-deep service queue.
    std::unique_ptr<LoadGen> serial =
        LoadGen::Connect(fleet->router_endpoint(), 1, &error);
    std::unique_ptr<LoadGen> open =
        serial ? LoadGen::Connect(fleet->router_endpoint(), 2, &error)
               : nullptr;
    std::unique_ptr<LoadGen> closed =
        open ? LoadGen::Connect(fleet->router_endpoint(), 2, &error) : nullptr;
    if (closed == nullptr) break;
    // Warm-up: lazy state (per-worker engines, snapshot pages) settles.
    phases.push_back(serial->ClosedLoop(*traffic, 1, 0.0, 100, &cursor));

    double steal = StealMillis(watched);
    const auto steal_since = [&](std::vector<double>* out) {
      const double now = StealMillis(watched);
      out->push_back(now - steal);
      steal = now;
    };
    const PhaseResult o =
        open->OpenLoop(*traffic, w.open_rate, 0.35 * round_s, &cursor);
    steal_since(&open_steal);
    const PhaseResult s =
        serial->ClosedLoop(*traffic, 1, 0.25 * round_s, 1000, &cursor);
    steal_since(&serial_steal);
    const PhaseResult c =
        closed->ClosedLoop(*traffic, 16, 0.25 * round_s, 1000, &cursor);
    steal_since(&closed_steal);
    // Object moves last, one at a time, after the round's reads (the next
    // round restarts from the saved objects).
    const PhaseResult u =
        serial->ClosedLoop(*updates, 1, 0.0, kUpdatesPerRound, &update_cursor);
    steal_since(&update_steal);
    for (const LoadGen* d : {serial.get(), open.get(), closed.get()}) {
      if (error.empty() && !d->error().empty()) error = d->error();
    }

    const Distribution od = Summarize(o.latency_us);
    const Distribution sd = Summarize(s.latency_us);
    serial_p50.push_back(sd.p50);
    qps.push_back(static_cast<double>(c.ok_in_window) / c.window_s);
    update_p99.push_back(Summarize(u.latency_us).p99);
    const Distribution lag = Summarize(o.lag_us);
    std::fprintf(stderr,
                 "round %zu: open %s, generator lag p99 %.1f us, steal %.0f "
                 "ms | serial %s, steal %.0f ms | closed %.0f/s, steal %.0f "
                 "ms | updates p99 %.1f us, steal %.0f ms\n",
                 r + 1, Describe(od).c_str(), lag.p99, open_steal.back(),
                 Describe(sd).c_str(), serial_steal.back(), qps.back(),
                 closed_steal.back(), update_p99.back(), update_steal.back());
    phases.push_back(o);
    phases.push_back(s);
    phases.push_back(c);
    phases.push_back(u);
  }

  fleet->Stop();

  uint64_t attempted = 0, ok = 0, failed = 0, mismatched = 0;
  for (const PhaseResult& p : phases) {
    attempted += p.sent;
    ok += p.ok;
    failed += p.failed;
    mismatched += p.mismatched;
  }
  if (!error.empty()) std::fprintf(stderr, "load generator error: %s\n", error.c_str());
  // A healthy run refuses nothing: requests carry no deadline and the
  // in-flight windows stay far below the service queue bound. So any
  // non-kOk response (rejected, expired, failed, no shard) fails the run,
  // like a wrong answer.
  const bool correct =
      error.empty() && mismatched == 0 && failed == 0 && oracle_bad == 0;
  std::fprintf(stderr,
               "requests: %llu attempted, %llu ok, %llu failed, %llu wrong\n",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(ok),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(mismatched));

  const auto over_quiet = [](const std::vector<double>& per_round,
                              const std::vector<double>& steal) {
    std::vector<double> kept;
    for (const size_t r : QuietRounds(steal)) {
      if (r < per_round.size()) kept.push_back(per_round[r]);
    }
    return Median(kept);
  };
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"serial_p50_us", over_quiet(serial_p50, serial_steal), "us"},
      {"throughput_qps", over_quiet(qps, closed_steal), "1/s"},
      {"update_p99_us", over_quiet(update_p99, update_steal), "us"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
  };
  std::printf("%s\n", ResultJson(correct, attempted, failed + mismatched,
                                 metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace fleetbench

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: fleet_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n");
}

}  // namespace

int main(int argc, char** argv) {
  fleetbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (options.work_dir.empty() || options.seconds <= 0.0) {
    Usage();
    return 2;
  }
  ::mkdir(options.work_dir.c_str(), 0755);

  fleetbench::Workload workload;
  if (!fleetbench::MakeWorkload(options.workload, options.seed, &workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    Usage();
    return 2;
  }
  std::fprintf(stderr, "workload %s seed %llu: %zu venues, %zu pooled requests\n",
               workload.name.c_str(),
               static_cast<unsigned long long>(options.seed),
               workload.venues.size(), workload.pool.size());
  return options.trace ? fleetbench::RunLadder(options, workload)
                       : fleetbench::RunEndToEnd(options, workload);
}
