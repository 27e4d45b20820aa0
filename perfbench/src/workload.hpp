// What every workload receives and reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gate.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;     ///< length of the measured phase
  bool trace = false;        ///< traced per-layer run instead of timing
  std::string work_dir;      ///< scratch for telemetry and checkpoints
  std::string out_dir;       ///< where a traced run writes its spans
  DigestTable digests;
};

struct Outcome {
  Gate gate;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (timing run) or per-layer metrics (traced run):
  /// exactly the names BENCHMARK.json lists for that mode.
  std::vector<Metric> metrics;
  /// Printed for people, never parsed: sample counts, the stream-only
  /// latency figures, failure breakdowns.
  std::vector<std::string> notes;
};

/// Result digest of the workload's deterministic outputs for `seed`,
/// computed without timing anything — the entry used to record the
/// digest table.
std::string batch_digest(const std::string& workload, std::uint64_t seed);
std::string stream_digest(std::uint64_t seed, const std::string& work_dir);

Outcome run_batch(const RunArgs& args);
Outcome run_stream(const RunArgs& args);

bool is_batch_workload(const std::string& name);

}  // namespace perfbench
