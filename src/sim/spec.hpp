// Declarative experiment specification — the unit of work of the
// experiment service.
//
// Every study the library knows how to run (the paper's Table I scheme
// comparison, the Monte-Carlo seed study behind its headline numbers, and
// scalar parameter sweeps) is described by one ExperimentSpec value: a
// trace source, a kind, and the existing option structs.  A spec has a
// stable canonical serialisation (`canonical_text`, a key = value dialect
// that `from_text` parses back, so spec files on disk and fingerprints in
// the cache share one format) and a `fingerprint()` — a content hash over
// the canonical text plus the library schema version, which the
// ExperimentService uses as the cache key and for coalescing duplicate
// in-flight submissions.
//
// Fingerprint contract:
//  - equal specs produce equal fingerprints;
//  - changing any field that can affect the result changes the
//    fingerprint (fields of an inactive trace source are not serialised,
//    and a Monte-Carlo spec's base seed is pinned to zero because the
//    engine overwrites it per sample);
//  - a CSV trace source is addressed by the file's *content* (its bytes
//    are hashed into the fingerprint), so editing the file invalidates
//    cached results even though the path is unchanged;
//  - bumping kSpecSchemaVersion (do this whenever the meaning of any
//    serialised field changes) invalidates every existing fingerprint.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/montecarlo.hpp"
#include "sim/sweep.hpp"
#include "thermal/trace.hpp"

namespace tegrec::sim {

/// Bump when the canonical serialisation (or the semantics of any field in
/// it) changes; stale cache artifacts then miss instead of mismatching.
/// v2: named workload scenarios (trace.scenario) and the process-load /
/// stop-start / cold-start segment fields.
/// v3: the two EHTR warm-start knobs (warm on/off and its width).
/// v4: those knobs removed — the certified warm search is EHTR's only path.
inline constexpr int kSpecSchemaVersion = 4;

enum class ExperimentKind { kComparison, kMonteCarlo, kSweep };

/// All (kind, canonical name) pairs — the one table the spec's `kind` key,
/// the result artifact's header and the CLI's batch summary read.
inline const std::vector<std::pair<ExperimentKind, const char*>>
    kExperimentKindNames = {{ExperimentKind::kComparison, "comparison"},
                            {ExperimentKind::kMonteCarlo, "montecarlo"},
                            {ExperimentKind::kSweep, "sweep"}};

/// Canonical name of an experiment kind ("comparison", "montecarlo", ...).
const char* to_string(ExperimentKind kind);

/// Where the temperature trace comes from.
struct TraceSource {
  enum class Kind {
    kGenerated,  ///< synthesised from `generator` (drive cycle + thermal)
    kCsvFile,    ///< loaded from `csv_path` via TemperatureTrace::load_csv
    kInline,     ///< an in-memory trace (content-hashed; not file-loadable)
  };
  Kind kind = Kind::kGenerated;

  thermal::TraceGeneratorConfig generator;  ///< kGenerated only
  /// kGenerated only: name of the registered workload scenario
  /// (thermal/scenario.hpp) `generator` was resolved from; empty for
  /// hand-assembled configs.  Serialised into the canonical text alongside
  /// the full resolved generator config, so the fingerprint tracks both the
  /// name and the physics it expanded to — editing a registry entry
  /// invalidates cached results instead of serving stale ones.  Parsing
  /// applies the scenario first and any `trace.gen.*` keys as overrides on
  /// top; unknown names throw.  Use scenario_source() to build one
  /// programmatically (it keeps name and generator consistent).
  std::string scenario_name;
  std::string csv_path;                     ///< kCsvFile only
  double csv_dt_s = 0.0;  ///< optional explicit dt for load_csv (0 = derive)
  /// kInline only.  Serialises as its content hash, so specs built around
  /// an in-memory trace still coalesce and cache; from_text() rejects it
  /// because the samples are not in the text.
  std::shared_ptr<const thermal::TemperatureTrace> inline_trace;
};

/// The result-affecting fields of one SimulationOptions in the canonical
/// `key = value` dialect (doubles at %.17g, execution hints excluded) —
/// the same bindings the experiment-spec fingerprint uses.  Streaming
/// checkpoints (sim/checkpoint.hpp) embed this text in their
/// configuration stamp so a checkpoint written under one physics spec can
/// never silently resume under another.
std::string simulation_options_fingerprint_text(
    const SimulationOptions& options);

/// A generated trace source resolved from a named workload scenario:
/// `kind = kGenerated`, `generator = thermal::scenario(name)`, and
/// `scenario_name = name` so the canonical text records the provenance.
/// Throws std::invalid_argument for unknown names (listing the registry).
TraceSource scenario_source(const std::string& name);

struct ExperimentSpec {
  ExperimentKind kind = ExperimentKind::kComparison;
  TraceSource trace;
  /// Scheme selection and per-run simulation options, for every kind.
  ComparisonOptions comparison;

  // Monte-Carlo only (kind == kMonteCarlo; requires a generated source).
  std::size_t mc_num_seeds = 10;
  std::uint64_t mc_first_seed = 1;
  std::size_t mc_num_threads = 0;  ///< worker threads inside the study

  // Sweep only (kind == kSweep; requires a generated source).
  std::string sweep_parameter_name;   ///< registry name, see sim/sweep.hpp
  std::vector<double> sweep_values;
  std::size_t sweep_num_threads = 0;

  /// Stable canonical serialisation: every result-affecting field, one
  /// `key = value` line each, doubles at full (%.17g) precision.
  std::string canonical_text() const;

  /// 32-hex-digit content hash over canonical text + schema version (+ the
  /// CSV file's bytes for kCsvFile sources).  Throws std::runtime_error if
  /// a CSV source's file cannot be read.
  std::string fingerprint() const;

  /// The exact text fingerprint() hashes (canonical text minus execution
  /// hints).  The cache compares this alongside the hash so a collision can
  /// never serve a wrong result.
  std::string fingerprint_text() const;

  /// fingerprint() for a fingerprint_text() already in hand — one emission
  /// instead of two when both are needed (the service's submit path).
  /// Equals fingerprint() for every source kind except kCsvFile, whose
  /// fingerprint() additionally hashes the file bytes (the service never
  /// sees that kind: submit materialises CSV sources into inline traces so
  /// the bytes hashed are exactly the bytes executed).
  static std::string fingerprint_of_text(const std::string& fingerprint_text);

  /// Parses the canonical dialect.  Unknown keys throw (typos must not
  /// silently run a different study); missing keys keep their defaults, so
  /// hand-written spec files only state what differs from the defaults.
  static ExperimentSpec from_text(const std::string& text);
  static ExperimentSpec from_file(const std::string& path);
};

/// A completed study: exactly one of the payloads is filled, per `kind`.
struct ExperimentResult {
  ExperimentKind kind = ExperimentKind::kComparison;
  ComparisonResult comparison;
  MonteCarloSummary monte_carlo;
  std::vector<SweepPoint> sweep;
};

/// Materialises the spec's trace: generates it, loads the CSV, or returns
/// the inline trace.  Throws std::invalid_argument on an unusable source.
std::shared_ptr<const thermal::TemperatureTrace> materialize_trace(
    const TraceSource& source);

/// Executes a spec synchronously on the calling thread — the direct,
/// uncached reference path the service's results are bit-identical to.
ExperimentResult run_experiment(const ExperimentSpec& spec);

}  // namespace tegrec::sim
