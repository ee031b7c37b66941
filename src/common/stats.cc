#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

namespace viptree {

double Timer::ElapsedMicros() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start_)
             .count() /
         1000.0;
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  if (samples.empty()) return s;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.count = sorted.size();
  double total = 0.0;
  for (double v : sorted) total += v;
  s.mean = total / static_cast<double>(sorted.size());
  s.min = sorted.front();
  s.max = sorted.back();
  auto pct = [&sorted](double p) {
    size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
  };
  s.p50 = pct(0.50);
  s.p95 = pct(0.95);
  s.p99 = pct(0.99);
  return s;
}

void Histogram::Record(double value) {
  value = std::max(value, 0.0);
  size_t index = 0;  // bucket 0 holds zeros
  if (value > 0.0) {
    int exp = 0;
    const double mantissa = std::frexp(value, &exp);  // in [0.5, 1)
    const int sub = static_cast<int>((mantissa - 0.5) * 2 * kSubBuckets);
    exp = std::min(std::max(exp, kMinExp), kMaxExp);
    index = 1 + static_cast<size_t>((exp - kMinExp) * kSubBuckets + sub);
  }
  ++buckets_[index];
  exact_.min = exact_.count == 0 ? value : std::min(exact_.min, value);
  exact_.max = std::max(exact_.max, value);
  exact_.mean += value;
  ++exact_.count;
}

Summary Histogram::Summarize() const {
  Summary s = exact_;
  if (s.count == 0) return s;
  s.mean /= static_cast<double>(s.count);
  // The bucket holding Summarize's sample index, at its midpoint.
  const auto pct = [this, &s](double p) {
    const auto rank =
        static_cast<uint64_t>(p * static_cast<double>(s.count - 1));
    uint64_t seen = 0;
    size_t index = 0;
    while ((seen += buckets_[index]) <= rank) ++index;
    if (index == 0) return 0.0;
    const int exp = kMinExp + static_cast<int>((index - 1) / kSubBuckets);
    const int sub = static_cast<int>((index - 1) % kSubBuckets);
    const double mid =
        std::ldexp(0.5 + (sub + 0.5) / (2.0 * kSubBuckets), exp);
    return std::min(std::max(mid, s.min), s.max);
  };
  s.p50 = pct(0.50);
  s.p95 = pct(0.95);
  s.p99 = pct(0.99);
  return s;
}

std::string HumanBytes(uint64_t bytes) {
  char buf[64];
  const double b = static_cast<double>(bytes);
  if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2f MB", b / (1024.0 * 1024.0));
  } else if (bytes >= (1ull << 10)) {
    std::snprintf(buf, sizeof(buf), "%.2f KB", b / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return std::string(buf);
}

}  // namespace viptree
