// Entry points of the two run modes of fleet_bench.

#ifndef FLEETBENCH_BENCH_H_
#define FLEETBENCH_BENCH_H_

#include <cstdint>
#include <string>

#include "workloads.h"

namespace fleetbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for snapshots, manifest and the span file.
  std::string work_dir;
};

// Untraced run: stands the fleet up five times, then drives rounds of
// the open-loop, serial, closed-loop and object-move phases. Prints the
// end-to-end metrics as the last stdout line; returns the exit code.
int RunEndToEnd(const Options& options, const Workload& workload);

// Traced run: one stand-up, then the same traffic timed at every rung of
// the layer ladder with spans recorded around each call. Prints the
// per-layer metrics as the last stdout line; returns the exit code.
int RunLadder(const Options& options, const Workload& workload);

}  // namespace fleetbench

#endif  // FLEETBENCH_BENCH_H_
