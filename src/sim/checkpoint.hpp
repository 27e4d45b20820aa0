// Versioned, fingerprint-stamped on-disk checkpoints for streaming runs.
//
// A streamed simulation (sim/stepper.hpp, sim/stream_server.hpp) is only
// as durable as its checkpoint: the codec here serialises one
// StepperState — plus the caller's carry-along lines, e.g. a server's
// decision log — into a line-structured text artifact in the result_io
// dialect (magic line, `key = value` scalars, `# table rows = N` CSV
// tables at exact precision), published exclusively through
// util::atomic_write_file so a reader can never observe a torn file.
//
// Cost: the file holds the whole step table and log, so it is
// O(history).  Both only grow while a stepper runs, so CheckpointEncoder
// keeps the text of the step rows and lines it has already written and
// formats only those added since its previous encode(); the rest of the
// file (stamp, scalars, controller blob, summary, counts) is small and
// rebuilt each time.  encode_checkpoint is a fresh encoder, so there is
// one serialiser and its bytes do not depend on the memo.
//
// Every checkpoint embeds the *configuration stamp* of the run that wrote
// it: the StreamConfig's canonical fingerprint text, verbatim.  decode
// compares that text (not just a hash) against the resuming run's stamp
// and throws on any difference, so a checkpoint can never resume against
// a different scheme, cadence, array size, or physics spec — changing any
// result-affecting field invalidates old checkpoints loudly instead of
// splicing two incompatible histories.  Unlike the result cache (where a
// decode failure is just a miss), every decode failure here throws
// std::runtime_error: silently restarting from scratch would discard the
// operator's history, so corrupt, truncated, or mismatched checkpoints
// must be loud.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/reconfigurer.hpp"
#include "sim/stepper.hpp"

namespace tegrec::sim {

/// Reconfiguration scheme of one streamed array.
enum class StreamScheme { kDnor, kInor, kEhtr, kBaseline };

/// Scheme name as spelled on the CLI and in the fingerprint text
/// ("dnor" / "inor" / "ehtr" / "baseline"); parse is the exact inverse
/// and throws std::invalid_argument on unknown names.
std::string stream_scheme_name(StreamScheme scheme);
StreamScheme parse_stream_scheme(const std::string& name);

/// Everything that pins down one streamed simulation: which controller,
/// on what cadence, over what array, under which physics options.  The
/// canonical fingerprint text below covers every result-affecting field
/// (sim's execution hints excluded), so two StreamConfigs with equal
/// stamps produce bit-identical decision streams from equal telemetry.
struct StreamConfig {
  StreamScheme scheme = StreamScheme::kDnor;
  double control_period_s = 0.5;  ///< controller cadence (paper: 0.5 s)
  double dt_s = 0.5;              ///< telemetry grid the stepper runs on
  std::size_t num_modules = 0;
  SimulationOptions sim;
};

/// The one controller factory: the batch comparison harness
/// (sim/experiment.cpp) builds its controllers here too, so a streamed run
/// over a trace's samples is bit-identical to the batch run over the trace.
std::unique_ptr<core::Reconfigurer> make_stream_controller(
    const StreamConfig& config);

/// Canonical `key = value` stamp of every result-affecting StreamConfig
/// field (doubles at %.17g; sim.* lines via
/// simulation_options_fingerprint_text).
std::string stream_config_fingerprint_text(const StreamConfig& config);

/// A decoded checkpoint: the stepper snapshot plus the caller's
/// carry-along lines, byte-preserved in order.
struct DecodedCheckpoint {
  StepperState state;
  std::vector<std::string> extra_lines;
};

/// Serialises state + extras under the given configuration stamp.
/// `extra_lines` must not contain embedded newlines (throws
/// std::invalid_argument) — each entry is one line of the artifact.
std::string encode_checkpoint(const StepperState& state,
                              const std::string& fingerprint_text,
                              const std::vector<std::string>& extra_lines = {});

/// encode_checkpoint for a series of checkpoints of one stepper: each
/// encode() returns the same bytes, but formats only the step rows and
/// extra lines added since the previous call.  The memo is valid while
/// the stepper has only stepped and the lines have only been appended to
/// between calls; build a fresh encoder when the stepper is rebuilt or
/// restored.  As a guard, a shrunk table or log, or a last memoised row
/// or line that no longer matches, re-encodes from scratch.  Only the new
/// lines are checked for newlines.
class CheckpointEncoder {
 public:
  std::string encode(const StepperState& state,
                     const std::string& fingerprint_text,
                     const std::vector<std::string>& extra_lines = {});

 private:
  /// The encoded text of items [0, done) of an append-only sequence.
  struct Memo {
    std::string text;
    std::size_t done = 0;
    std::size_t last_at = 0;  ///< offset of item done - 1 in text

    /// Catches `items` up; `format` appends one item's text.
    template <typename T, typename Format>
    void sync(const std::vector<T>& items, Format format);
  };

  Memo rows_;
  Memo lines_;
};

/// Parses a checkpoint and verifies its embedded stamp equals
/// `expected_fingerprint_text`.  Throws std::runtime_error on bad magic,
/// truncation, malformed fields, internal inconsistency, or a stamp
/// mismatch — every failure is loud (see the header comment for why).
DecodedCheckpoint decode_checkpoint(const std::string& text,
                                    const std::string& expected_fingerprint_text);

}  // namespace tegrec::sim
