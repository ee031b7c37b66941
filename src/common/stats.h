// Small helpers shared by benchmarks and index-size reporting: a wall-clock
// timer and summary statistics over latency samples.

#ifndef VIPTREE_COMMON_STATS_H_
#define VIPTREE_COMMON_STATS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace viptree {

// Wall-clock stopwatch with microsecond resolution.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  // Elapsed time since construction or the last Reset, in microseconds.
  double ElapsedMicros() const;
  double ElapsedMillis() const { return ElapsedMicros() / 1000.0; }
  double ElapsedSeconds() const { return ElapsedMicros() / 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Summary statistics over a sample of doubles (latencies, sizes, counts).
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

// Computes a Summary; the input vector is copied and sorted internally.
Summary Summarize(const std::vector<double>& samples);

// Fixed-size log-linear histogram of non-negative samples, for streams
// without a bound (a serving process's latencies): O(1) Record, constant
// memory, and a Summary whose count, mean, min and max are exact and whose
// percentiles are within 1/64 (relative) of the sample Summarize picks.
class Histogram {
 public:
  void Record(double value);
  Summary Summarize() const;

 private:
  static constexpr int kSubBuckets = 32;  // per power of two
  static constexpr int kMinExp = -20, kMaxExp = 44;
  static constexpr size_t kBuckets = 1 + (kMaxExp - kMinExp + 1) * kSubBuckets;
  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kBuckets, 0);
  Summary exact_;  // count, min, max; mean holds the running sum
};

// Hit/miss/evict counters of a memoization cache (core/distance_cache.h),
// aggregatable across shards and caches (ServiceStats sums one per venue).
struct CacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;

  uint64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    return lookups() == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups());
  }
  CacheCounters& operator+=(const CacheCounters& other) {
    hits += other.hits;
    misses += other.misses;
    insertions += other.insertions;
    evictions += other.evictions;
    return *this;
  }
};

// Pretty-prints a byte count as B / KB / MB with two decimals.
// Returns e.g. "612.34 MB".
std::string HumanBytes(uint64_t bytes);

}  // namespace viptree

#endif  // VIPTREE_COMMON_STATS_H_
