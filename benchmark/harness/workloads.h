// The benchmark's workloads: whitebox-diva and edge-blackbox.
// Each one builds its models from scratch in a private model cache,
// measures for a fixed time, checks its outputs, and reports metrics by
// name (see benchmark/README.md for what each metric means).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace bench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Private scratch directory of this run (model caches, socket);
  /// created and removed by the caller.
  std::string run_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunOutput {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;
  /// Facts about the run that are not metrics: machine, budget, flags.
  std::map<std::string, std::string> record;
  std::vector<SpanRecord> spans;
};

const std::vector<std::string>& workload_names();

/// Runs one workload. Failed operations and failed checks are counted
/// in `out` rather than thrown.
void run_workload(const RunOptions& opts, RunOutput* out);

/// Harness self-tests; returns the number of failed checks.
int run_selftest();

}  // namespace bench
