#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

namespace fleetbench {

double NearestRank(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(std::max<size_t>(rank, 1), n);
  return sorted[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return rank >= n ? 0 : n - std::max<size_t>(rank, 1);
}

double SupportedTail(size_t n) {
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.5}) {
    if (SamplesBeyond(n, q) >= 10) return q;
  }
  return 0.0;
}

Distribution Summarize(std::vector<double> samples) {
  Distribution d;
  d.n = samples.size();
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  d.max = samples.back();
  d.p50 = NearestRank(samples, 0.5);
  const double tail = SupportedTail(d.n);
  d.tail_q = std::min(tail, 0.99);
  d.p99 = d.tail_q > 0.0 ? NearestRank(samples, d.tail_q) : 0.0;
  return d;
}

std::string Describe(const Distribution& d) {
  char buf[160];
  if (d.tail_q >= 0.99) {
    std::snprintf(buf, sizeof(buf), "n=%zu p50=%.1f p99=%.1f max=%.1f", d.n,
                  d.p50, d.p99, d.max);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "n=%zu p50=%.1f p%g=%.1f (p99 unsupported) max=%.1f", d.n,
                  d.p50, d.tail_q * 100.0, d.p99, d.max);
  }
  return buf;
}

std::vector<size_t> QuietRounds(const std::vector<double>& steal_ms) {
  std::vector<double> sorted = steal_ms;
  std::sort(sorted.begin(), sorted.end());
  std::vector<size_t> out;
  if (sorted.empty()) return out;
  const double median = sorted[(sorted.size() - 1) / 2];
  for (size_t r = 0; r < steal_ms.size(); ++r) {
    if (steal_ms[r] <= median) out.push_back(r);
  }
  return out;
}

OpenLoopSchedule::OpenLoopSchedule(double rate_per_second,
                                   Clock::time_point start)
    : rate_(rate_per_second), start_(start) {}

Clock::time_point OpenLoopSchedule::Due(size_t i) const {
  return start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(i) /
                                                    rate_));
}

size_t OpenLoopSchedule::DueBy(Clock::time_point now) const {
  if (now < start_) return 0;
  const double elapsed = std::chrono::duration<double>(now - start_).count();
  size_t n = static_cast<size_t>(std::floor(elapsed * rate_)) + 1;
  // Guard the floating-point edge: never report a request due whose Due()
  // is still in the future, nor miss one whose Due() has passed.
  while (n > 0 && Due(n - 1) > now) --n;
  while (Due(n) <= now) ++n;
  return n;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonQuote(metrics[i].unit) + "}";
  }
  return out + "}}";
}

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

size_t Tracer::Begin(const std::string& name, int64_t parent,
                     uint64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  spans_.push_back(std::move(span));
  spans_.back().start_ns = Now();
  return spans_.size() - 1;
}

void Tracer::End(size_t span) { spans_[span].end_ns = Now(); }

double Tracer::DurationMicros(size_t span) const {
  return static_cast<double>(spans_[span].end_ns - spans_[span].start_ns) /
         1000.0;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": %s, \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %lld, \"request\": %llu}\n",
                 JsonQuote(s.name).c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

const CpuLayout& FleetCpus() {
  static const CpuLayout layout = [] {
    CpuLayout out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
    if (cpus.size() < 2) return out;
    out.fleet = cpus[0];
    out.client = cpus[1];
    return out;
  }();
  return layout;
}

void PinCallingThread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double StealMillis(const std::vector<int>& cpus) {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  double jiffies = 0.0;
  char name[32];
  unsigned long long v[8] = {};
  while (std::fscanf(f, "%31s %llu %llu %llu %llu %llu %llu %llu %llu", name,
                     &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                     &v[7]) == 9) {
    const std::string cpu = name;
    const bool wanted =
        cpus.empty() ? cpu == "cpu"
                     : std::any_of(cpus.begin(), cpus.end(), [&](int c) {
                         return cpu == "cpu" + std::to_string(c);
                       });
    if (wanted) jiffies += static_cast<double>(v[7]);
    if (cpu.rfind("cpu", 0) != 0) break;
    // Skip the rest of the line (newer kernels print more columns).
    int c = 0;
    while ((c = std::fgetc(f)) != '\n' && c != EOF) {
    }
  }
  std::fclose(f);
  const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return ticks > 0.0 ? jiffies * 1000.0 / ticks : 0.0;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace fleetbench
