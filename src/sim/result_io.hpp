// Disk codec for cached experiment results.
//
// The ExperimentService's on-disk cache stores one artifact per spec
// fingerprint: a line-structured text file embedding (1) the spec's
// fingerprint text verbatim — decode_result() refuses to return a payload
// whose embedded text differs from the expected spec, so a fingerprint
// collision degrades to a cache miss, never a wrong result — and (2) the
// result itself as sections of util::csv tables serialised at
// kCsvExactPrecision, so every double round-trips bit-exactly and a
// disk-cache hit is bit-identical to the execution that produced it.
// Monte-Carlo summary statistics are not stored: they are refolded from
// the samples on load through the same seed-order fold the engine uses.
//
// Artifacts in this format are published exclusively through the
// ArtifactStore, whose writes go through the atomic
// temp+fsync+rename door (util/atomic_file.hpp) — a reader can never
// observe a torn artifact, and decode_result()'s nullopt on truncation is
// a defence for stores written by older builds or damaged media, with the
// store removing such artifacts on detection (self-healing).
#pragma once

#include <cstddef>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "sim/spec.hpp"
#include "util/csv.hpp"

namespace tegrec::sim {

/// Serialises a result into the artifact text.  `fingerprint_text` is the
/// spec's ExperimentSpec::fingerprint_text() — stored for the collision
/// guard above.
std::string encode_result(const ExperimentResult& result,
                          const std::string& fingerprint_text);

/// Parses an artifact.  Returns nullopt when the payload belongs to a
/// different spec (collision / stale schema) or the text is malformed or
/// truncated — every failure mode is a cache miss, never an exception, so
/// a corrupt artifact can only cost a re-simulation.
std::optional<ExperimentResult> decode_result(
    const std::string& text, const std::string& expected_fingerprint_text);

namespace detail {

// The line dialect shared with the checkpoint codec (sim/checkpoint.cpp):
// `# table rows = N` headed CSV tables at exact precision, and the
// SimulationResult summary + step tables built from them.

/// Line reader over an artifact.  Every error is a std::runtime_error
/// whose message starts with `what` ("result artifact" / "checkpoint").
class ArtifactReader {
 public:
  ArtifactReader(const std::string& text, std::string what)
      : is_(text), what_(std::move(what)) {}

  /// The next line (a trailing '\r' stripped); throws when none is left.
  std::string next();
  /// True once every line has been consumed.
  bool exhausted();
  /// Consumes a "<prefix><suffix>" line and returns the suffix.
  std::string expect_prefix(const std::string& prefix);
  /// Reads one table written by emit_table.
  util::CsvTable read_table();
  /// Index of the named column; throws when `table` has no such column.
  /// Decoders resolve each column once per table, not once per cell.
  std::size_t column(const util::CsvTable& table,
                     const std::string& name) const;
  /// Throws std::runtime_error("<what>: <detail>").
  [[noreturn]] void fail(const std::string& detail) const;

 private:
  std::istringstream is_;
  std::string what_;
};

/// Appends `v` at exact precision: the text of printf("%.17g"), which
/// round-trips every double bit-exactly.
void append_exact(std::string& out, double v);

/// Appends `# table rows = N` and the table in csv_to_string's dialect.
void emit_table(std::string& out, const util::CsvTable& table);

/// Appends one row of the step table emit_run_tables writes.  The
/// checkpoint encoder (sim/checkpoint.hpp) memoises these rows, so this is
/// the one spelling of a StepRecord on disk.
void append_step_row(std::string& out, const StepRecord& step);

/// Appends everything emit_run_tables writes before the first step row:
/// the summary table, then the step table's `# table rows = N` line and
/// header, with N = `step_rows`.
void emit_run_tables_head(std::string& out, const SimulationResult& run,
                          std::size_t step_rows);

/// Appends a run's summary table, then its step table (every field of
/// SimulationResult but `algorithm`, which the caller frames itself).
void emit_run_tables(std::string& out, const SimulationResult& run);

/// Reads the two tables emit_run_tables wrote into `run`.
void read_run_tables(ArtifactReader& reader, SimulationResult& run);

}  // namespace detail

}  // namespace tegrec::sim
