// The benchmark's correctness gate.
//
// A wrong answer is never a fast one, so every run checks its outputs and
// any mismatch marks the run incorrect.  Results are compared on their
// deterministic fields only: StepRecord::compute_time_s and the runtime
// aggregates derived from it are wall-clock measurements and differ from
// run to run by design.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace perfbench {

/// True when both results agree bit for bit on every deterministic field.
bool same_decisions(const tegrec::sim::SimulationResult& a,
                    const tegrec::sim::SimulationResult& b);

/// 16-hex-digit FNV-1a digest over the deterministic fields of `results`
/// and the bytes of `lines` (decision logs), in order.
std::string result_digest(const std::vector<tegrec::sim::SimulationResult>& results,
                          const std::vector<std::string>& lines = {});

/// Digests recorded at the commit that defined the benchmark, keyed by
/// (workload, seed).  File format: one `workload seed digest` per line;
/// blank lines and `#` comments are ignored.
using DigestTable = std::map<std::pair<std::string, std::uint64_t>, std::string>;
DigestTable parse_digest_table(const std::string& text);
DigestTable load_digest_table(const std::string& path);

/// A seed the table records for `workload`, checked in place of a run's
/// unrecorded `seed` so that every run checks at least one recorded
/// digest.  Different seeds pick different entries.  Empty when the
/// workload has none.
std::optional<std::uint64_t> recorded_seed(const DigestTable& table,
                                           const std::string& workload,
                                           std::uint64_t seed);

/// Collects failed checks; a run is correct while none has failed.
class Gate {
 public:
  /// Records `what` as a failure unless `ok`.
  void check(bool ok, const std::string& what) {
    if (!ok) problems_.push_back(what);
  }
  /// Compares `digest` with the table's entry for (workload, seed): a
  /// mismatch fails, an unrecorded seed does not (the caller then checks
  /// a recorded_seed()).
  void check_digest(const DigestTable& table, const std::string& workload,
                    std::uint64_t seed, const std::string& digest);

  bool correct() const { return problems_.empty(); }
  const std::vector<std::string>& problems() const { return problems_; }
  /// "match", "mismatch" or "unrecorded" for the last digest checked.
  const std::string& digest_status() const { return digest_status_; }

 private:
  std::vector<std::string> problems_;
  std::string digest_status_ = "none";
};

}  // namespace perfbench
