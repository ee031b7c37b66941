// Self-tests of the measurement rules in harness.h. Run with
// `ctest --test-dir <build>` or the fleet_harness_test binary directly;
// exits non-zero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "harness_test.cc:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestNearestRank() {
  const std::vector<double> v = OneTo(100);
  EXPECT(fleetbench::NearestRank(v, 0.5) == 50.0);
  EXPECT(fleetbench::NearestRank(v, 0.99) == 99.0);
  EXPECT(fleetbench::NearestRank(v, 1.0) == 100.0);
  EXPECT(fleetbench::NearestRank({7.0}, 0.99) == 7.0);
}

void TestPercentileRule() {
  // Ten samples beyond the 99th percentile need n >= 1000.
  EXPECT(fleetbench::SamplesBeyond(1000, 0.99) == 10);
  EXPECT(fleetbench::SamplesBeyond(999, 0.99) == 9);
  EXPECT(fleetbench::SupportedTail(1000) == 0.99);
  EXPECT(fleetbench::SupportedTail(999) == 0.95);
  EXPECT(fleetbench::SupportedTail(10000) == 0.999);
  EXPECT(fleetbench::SupportedTail(200) == 0.95);
  EXPECT(fleetbench::SupportedTail(100) == 0.9);
  EXPECT(fleetbench::SupportedTail(20) == 0.5);
  EXPECT(fleetbench::SupportedTail(19) == 0.0);

  // The reported "p99" is the 99th percentile when supported...
  fleetbench::Distribution d = fleetbench::Summarize(OneTo(1000));
  EXPECT(d.n == 1000);
  EXPECT(d.p50 == 500.0);
  EXPECT(d.tail_q == 0.99);
  EXPECT(d.p99 == 990.0);
  // ...and never more than 0.99 even when the sample supports p99.9.
  d = fleetbench::Summarize(OneTo(20000));
  EXPECT(d.tail_q == 0.99);
  EXPECT(d.p99 == 19800.0);
  // ...else the highest supported percentile, with n stated.
  d = fleetbench::Summarize(OneTo(500));
  EXPECT(d.tail_q == 0.95);
  EXPECT(d.p99 == 475.0);
  EXPECT(fleetbench::Describe(d).find("n=500") != std::string::npos);
  EXPECT(fleetbench::Describe(d).find("p99 unsupported") != std::string::npos);
  // Order of the input does not matter.
  std::vector<double> shuffled = {5, 3, 9, 1, 7, 2, 8, 4, 6, 10,
                                  15, 13, 19, 11, 17, 12, 18, 14, 16, 20};
  d = fleetbench::Summarize(shuffled);
  EXPECT(d.p50 == 10.0);
  EXPECT(d.tail_q == 0.5);
  EXPECT(fleetbench::Summarize({}).n == 0);
}

void TestQuietRounds() {
  using V = std::vector<size_t>;
  EXPECT(fleetbench::QuietRounds({}).empty());
  // Undisturbed runs keep every round.
  EXPECT(fleetbench::QuietRounds({0, 0, 0, 0}) == (V{0, 1, 2, 3}));
  // The quieter half, in round order, ties at the median included.
  EXPECT(fleetbench::QuietRounds({50, 900, 10, 1200, 30, 40}) == (V{2, 4, 5}));
  EXPECT(fleetbench::QuietRounds({20, 20, 500, 20, 700}) == (V{0, 1, 3}));
  EXPECT(fleetbench::QuietRounds({5}) == (V{0}));
}

void TestOpenLoopSchedule() {
  using fleetbench::Clock;
  const Clock::time_point t0 = Clock::now();
  const fleetbench::OpenLoopSchedule s(1000.0, t0);  // one per millisecond
  EXPECT(s.Due(0) == t0);
  EXPECT(s.Due(1) - t0 == std::chrono::milliseconds(1));
  EXPECT(s.Due(2500) - t0 == std::chrono::milliseconds(2500));
  // Nothing is due before the start; request 0 is due at it.
  EXPECT(s.DueBy(t0 - std::chrono::microseconds(1)) == 0);
  EXPECT(s.DueBy(t0) == 1);
  EXPECT(s.DueBy(t0 + std::chrono::microseconds(999)) == 1);
  EXPECT(s.DueBy(t0 + std::chrono::milliseconds(1)) == 2);
  EXPECT(s.DueBy(t0 + std::chrono::microseconds(10500)) == 11);
  // A stalled generator owes every request due meanwhile, and the
  // schedule does not move: lateness is measured from Due(i).
  const Clock::time_point late = t0 + std::chrono::milliseconds(50);
  EXPECT(s.DueBy(late) == 51);
  EXPECT(fleetbench::MicrosBetween(s.Due(10), late) == 40000.0);
  // Non-integral periods stay consistent with Due().
  const fleetbench::OpenLoopSchedule odd(3333.0, t0);
  for (size_t i = 0; i < 5000; i += 7) {
    EXPECT(odd.DueBy(odd.Due(i)) == i + 1);
  }
}

void TestResultJson() {
  const std::string json = fleetbench::ResultJson(
      true, 1000, 2,
      {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.1, "s"}});
  EXPECT(json ==
         "{\"correct\": true, \"attempted\": 1000, \"failed\": 2, "
         "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
         "\"setup_s\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}}}");
  // All digits survive a round trip.
  const double v = 123.456789012345678;
  const std::string one =
      fleetbench::ResultJson(false, 1, 0, {{"x", v, "us"}});
  const size_t at = one.find("\"value\": ") + 9;
  EXPECT(std::strtod(one.c_str() + at, nullptr) == v);
  EXPECT(one.rfind("{\"correct\": false", 0) == 0);
  EXPECT(fleetbench::ResultJson(true, 1, 0, {{"nan", std::nan(""), "s"}})
             .find("\"value\": null") != std::string::npos);
  EXPECT(fleetbench::JsonQuote("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"");
}

void TestTracer() {
  fleetbench::Tracer tracer;
  const size_t root = tracer.Begin("rung.core", -1, 0);
  const size_t child = tracer.Begin("core.distance", root, 42);
  tracer.End(child);
  tracer.End(root);
  EXPECT(tracer.spans().size() == 2);
  EXPECT(tracer.spans()[1].parent == 0);
  EXPECT(tracer.spans()[1].request == 42);
  EXPECT(tracer.spans()[0].start_ns <= tracer.spans()[1].start_ns);
  EXPECT(tracer.spans()[1].end_ns <= tracer.spans()[0].end_ns);
  EXPECT(tracer.DurationMicros(child) >= 0.0);
}

}  // namespace

int main() {
  TestNearestRank();
  TestPercentileRule();
  TestQuietRounds();
  TestOpenLoopSchedule();
  TestResultJson();
  TestTracer();
  if (failures == 0) std::printf("fleet_harness_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
