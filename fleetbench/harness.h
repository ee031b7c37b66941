// Measurement plumbing of the fleet benchmark, kept free of any serving
// code so harness_test.cc can pin its rules down:
//
//   * the percentile rule: a timing is reported as its median plus the
//     highest percentile that still has at least ten samples beyond it,
//     always together with the sample count;
//   * the open-loop schedule: request i is due at start + i / rate, and
//     every latency is measured from that due time, not from the moment
//     the generator got round to sending it;
//   * the result line: one JSON object, the last line of standard output;
//   * in-memory spans for the traced run, written out when it ends.

#ifndef FLEETBENCH_HARNESS_H_
#define FLEETBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fleetbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// --- Percentile rule -----------------------------------------------------

// Nearest-rank quantile of an ascending sample: the value at index
// ceil(q * n) - 1. Requires a non-empty sample and 0 < q <= 1.
double NearestRank(const std::vector<double>& sorted, double q);

// How many samples lie strictly beyond the nearest-rank q-quantile.
size_t SamplesBeyond(size_t n, double q);

// The highest of {0.999, 0.99, 0.95, 0.9, 0.5} with at least ten samples
// beyond it, or 0 when even the median has fewer (n < 20).
double SupportedTail(size_t n);

// A timing distribution as the benchmark reports it.
struct Distribution {
  size_t n = 0;
  double p50 = 0.0;
  // The 99th percentile when the sample supports it (n >= 1000), else the
  // highest supported percentile (tail_q says which); 0 for n < 20.
  double p99 = 0.0;
  double tail_q = 0.0;
  double max = 0.0;
};

// Sorts `samples` and summarizes it by the rule above.
Distribution Summarize(std::vector<double> samples);

// "n=1234 p50=12.3 p99=45.6" (or "p95=..." when p99 is unsupported).
std::string Describe(const Distribution& d);

// Indices of the windows (rounds of one phase) whose hypervisor steal time
// (see StealMillis) is at most the median over all of them: the quieter
// half, ties included, so every window is kept when none was disturbed.
// Windows during which other machines' work took this machine's CPUs
// measure the host, not the program.
std::vector<size_t> QuietRounds(const std::vector<double>& steal_ms);

// --- Open-loop schedule --------------------------------------------------

// Fixed-rate arrivals: request i is due at start + i / rate. The schedule
// never looks at completions, so a stalled server builds a queue instead
// of slowing the generator down.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double rate_per_second, Clock::time_point start);

  Clock::time_point Due(size_t i) const;
  // Requests whose due time is <= now (i.e. the next index to send once
  // every earlier one has been sent).
  size_t DueBy(Clock::time_point now) const;
  double rate() const { return rate_; }

 private:
  double rate_;
  Clock::time_point start_;
};

// --- Result line ---------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The benchmark's last stdout line:
// {"correct": true, "attempted": N, "failed": F, "metrics": {"name":
// {"value": v, "unit": "u"}, ...}}. Values keep all their digits (%.17g);
// non-finite values are written as null.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

// JSON string literal with the mandatory escapes.
std::string JsonQuote(const std::string& s);

// --- Spans ---------------------------------------------------------------

struct Span {
  std::string name;
  int64_t start_ns = 0;  // since the tracer's epoch
  int64_t end_ns = 0;
  int64_t parent = -1;  // index of the causing span, -1 for a root
  uint64_t request = 0;
};

// Keeps every span in memory; written out once, when the run ends.
class Tracer {
 public:
  Tracer();

  // Opens a span and returns its index.
  size_t Begin(const std::string& name, int64_t parent, uint64_t request);
  void End(size_t span);
  double DurationMicros(size_t span) const;

  const std::vector<Span>& spans() const { return spans_; }
  // One JSON object per line: {"name", "start_ns", "end_ns", "parent",
  // "request"}. False if the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t Now() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// --- Process ------------------------------------------------------------

// High-water resident set size of this process (getrusage), in MiB.
double PeakRssMiB();

// Where the fleet and the load generator run when this process may use at
// least two CPUs: both shards and the router share the first, the
// generator gets the second (CPUs as seen at the first call, before any
// pinning). Empty when fewer are available, and then nothing is pinned.
struct CpuLayout {
  int fleet = -1;   // both shards and the router
  int client = -1;  // the load generator
  // The CPUs a run uses (empty when nothing is pinned).
  std::vector<int> used() const {
    return client >= 0 ? std::vector<int>{fleet, client} : std::vector<int>{};
  }
};
const CpuLayout& FleetCpus();

// Confines the calling thread (and the threads it creates afterwards) to
// one CPU; a no-op for cpu < 0.
void PinCallingThread(int cpu);

// CPU time the hypervisor took from `cpus` ("steal" in /proc/stat), in
// milliseconds since boot, summed over those CPUs (over all CPUs when
// `cpus` is empty); 0 where the kernel does not report it. Differences
// bracket a measurement window.
double StealMillis(const std::vector<int>& cpus);

}  // namespace fleetbench

#endif  // FLEETBENCH_HARNESS_H_
