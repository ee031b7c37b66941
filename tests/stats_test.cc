#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"

namespace viptree {
namespace {

TEST(HistogramTest, MatchesExactSummaryWithinBucketWidth) {
  Rng rng(5);
  Histogram histogram;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over eight decades, plus exact zeros.
    const double v =
        i % 97 == 0 ? 0.0 : std::pow(10.0, rng.UniformReal(-3.0, 5.0));
    samples.push_back(v);
    histogram.Record(v);
  }
  const Summary exact = Summarize(samples);
  const Summary approx = histogram.Summarize();
  EXPECT_EQ(approx.count, exact.count);
  EXPECT_EQ(approx.min, exact.min);
  EXPECT_EQ(approx.max, exact.max);
  EXPECT_NEAR(approx.mean, exact.mean, exact.mean * 1e-9);
  for (const auto& [a, e] : {std::pair{approx.p50, exact.p50},
                             std::pair{approx.p95, exact.p95},
                             std::pair{approx.p99, exact.p99}}) {
    EXPECT_NEAR(a, e, e / 64.0);
  }
}

TEST(HistogramTest, EmptyAndConstantStreams) {
  Histogram histogram;
  EXPECT_EQ(histogram.Summarize().count, 0u);
  for (int i = 0; i < 10; ++i) histogram.Record(42.5);
  const Summary s = histogram.Summarize();
  EXPECT_EQ(s.count, 10u);
  // Clamped into [min, max], so a constant stream reads back exactly.
  EXPECT_EQ(s.p50, 42.5);
  EXPECT_EQ(s.p99, 42.5);
  EXPECT_EQ(s.mean, 42.5);
}

}  // namespace
}  // namespace viptree
