#include "sim/checkpoint.hpp"

#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/dnor.hpp"
#include "core/ehtr.hpp"
#include "core/fixed_baseline.hpp"
#include "core/inor.hpp"
#include "sim/result_io.hpp"
#include "sim/spec.hpp"
#include "util/atomic_file.hpp"
#include "util/hash.hpp"
#include "util/parse.hpp"

namespace tegrec::sim {

namespace {

constexpr const char* kMagic = "# tegrec-checkpoint v1";

// Same line dialect as sim/result_io.cpp, whose table codec this file
// shares: `key = value` scalars plus `# table rows = N` CSV tables at
// exact precision, so every double round-trips bit-exactly and a restored
// run continues the original stream bit for bit.

void emit_kv(std::ostringstream& os, const std::string& key,
             const std::string& value) {
  os << key << " = " << value << '\n';
}

void emit_double(std::ostringstream& os, const std::string& key, double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  emit_kv(os, key, buffer);
}

std::string expect_kv(detail::ArtifactReader& reader, const std::string& key) {
  return reader.expect_prefix(key + " = ");
}

}  // namespace

std::string stream_scheme_name(StreamScheme scheme) {
  switch (scheme) {
    case StreamScheme::kDnor:
      return "dnor";
    case StreamScheme::kInor:
      return "inor";
    case StreamScheme::kEhtr:
      return "ehtr";
    case StreamScheme::kBaseline:
      return "baseline";
  }
  throw std::logic_error("stream_scheme_name: unmapped scheme");
}

StreamScheme parse_stream_scheme(const std::string& name) {
  if (name == "dnor") return StreamScheme::kDnor;
  if (name == "inor") return StreamScheme::kInor;
  if (name == "ehtr") return StreamScheme::kEhtr;
  if (name == "baseline") return StreamScheme::kBaseline;
  throw std::invalid_argument(
      "unknown stream scheme '" + name +
      "' (expected dnor, inor, ehtr, or baseline)");
}

std::unique_ptr<core::Reconfigurer> make_stream_controller(
    const StreamConfig& config) {
  if (config.num_modules == 0) {
    throw std::invalid_argument("make_stream_controller: num_modules == 0");
  }
  // Mirrors detail::run_comparison_direct (sim/experiment.cpp) so the
  // streamed decision sequence is bit-identical to the batch harness.
  const teg::DeviceParams& device = config.sim.device;
  const power::ConverterParams& charger = config.sim.converter;
  switch (config.scheme) {
    case StreamScheme::kDnor: {
      core::DnorParams p;
      p.control_period_s = config.control_period_s;
      return std::make_unique<core::DnorReconfigurer>(device, charger, p);
    }
    case StreamScheme::kInor:
      return std::make_unique<core::InorReconfigurer>(device, charger,
                                                      config.control_period_s);
    case StreamScheme::kEhtr:
      return std::make_unique<core::EhtrReconfigurer>(
          device, charger, config.control_period_s, config.sim.num_threads,
          config.sim.ehtr_max_groups);
    case StreamScheme::kBaseline:
      return std::make_unique<core::FixedBaselineReconfigurer>(
          core::FixedBaselineReconfigurer::square_grid(config.num_modules));
  }
  throw std::logic_error("make_stream_controller: unmapped scheme");
}

std::string stream_config_fingerprint_text(const StreamConfig& config) {
  std::ostringstream os;
  emit_kv(os, "scheme", stream_scheme_name(config.scheme));
  emit_double(os, "control_period_s", config.control_period_s);
  emit_double(os, "dt_s", config.dt_s);
  emit_kv(os, "num_modules", std::to_string(config.num_modules));
  // The physics options reuse the experiment-spec bindings (execution
  // hints excluded there), one "sim." prefix per line.
  std::istringstream sim_lines(simulation_options_fingerprint_text(config.sim));
  std::string line;
  while (std::getline(sim_lines, line)) {
    os << "sim." << line << '\n';
  }
  return os.str();
}

std::string stream_config_fingerprint(const StreamConfig& config) {
  std::string text = stream_config_fingerprint_text(config);
  text += "checkpoint_schema_version = " +
          std::to_string(kCheckpointSchemaVersion) + "\n";
  const std::uint64_t a = util::fnv1a64(text, util::kFnv1aOffsetBasis);
  const std::uint64_t b = util::fnv1a64(text, util::kFnv1aAltBasis);
  return util::hex64(a) + util::hex64(b);
}

// Field-complete serialisation of StepperState — the tegrec_lint
// cache-key rule cross-checks it (and StreamConfig) against this file.
std::string encode_checkpoint(const StepperState& state,
                              const std::string& fingerprint_text,
                              const std::vector<std::string>& extra_lines) {
  for (const std::string& line : extra_lines) {
    if (line.find('\n') != std::string::npos) {
      throw std::invalid_argument(
          "encode_checkpoint: extra line contains a newline");
    }
  }
  std::ostringstream os;
  os << kMagic << '\n';
  std::size_t fp_lines = 0;
  for (const char c : fingerprint_text) fp_lines += c == '\n' ? 1 : 0;
  os << "# config lines = " << fp_lines << '\n' << fingerprint_text;

  emit_kv(os, "steps_consumed", std::to_string(state.steps_consumed));
  emit_double(os, "total_compute_s", state.total_compute_s);
  emit_kv(os, "has_fabric", state.has_fabric ? "1" : "0");
  std::string starts;
  for (std::size_t i = 0; i < state.fabric_group_starts.size(); ++i) {
    if (i > 0) starts += ',';
    starts += std::to_string(state.fabric_group_starts[i]);
  }
  emit_kv(os, "fabric_group_starts", starts);
  emit_double(os, "battery_soc", state.battery_soc);
  emit_double(os, "battery_energy_j", state.battery_energy_j);

  std::size_t blob_lines = 0;
  for (const char c : state.controller_state) blob_lines += c == '\n' ? 1 : 0;
  os << "# controller lines = " << blob_lines << '\n'
     << state.controller_state;

  emit_kv(os, "algorithm", state.partial.algorithm);
  detail::emit_run_tables(os, state.partial);

  os << "# extra lines = " << extra_lines.size() << '\n';
  for (const std::string& line : extra_lines) os << line << '\n';
  os << "# end\n";
  return os.str();
}

namespace {

DecodedCheckpoint decode_checkpoint_impl(
    const std::string& text, const std::string& expected_fingerprint_text) {
  if (text.empty() || text.back() != '\n') {
    throw std::runtime_error(
        "checkpoint: missing final newline (truncated?)");
  }
  detail::ArtifactReader reader(text, "checkpoint");
  if (reader.next() != kMagic) {
    reader.fail(
        "bad magic (not a checkpoint, or written by an incompatible schema "
        "version)");
  }
  const std::size_t fp_lines = static_cast<std::size_t>(
      util::parse_u64(reader.expect_prefix("# config lines = ")));
  std::string fp_text;
  for (std::size_t i = 0; i < fp_lines; ++i) {
    fp_text += reader.next();
    fp_text += '\n';
  }
  if (fp_text != expected_fingerprint_text) {
    reader.fail(
        "configuration stamp mismatch — this checkpoint was written under a "
        "different stream configuration and cannot resume here");
  }

  DecodedCheckpoint out;
  out.state.steps_consumed = static_cast<std::size_t>(
      util::parse_u64(expect_kv(reader, "steps_consumed")));
  out.state.total_compute_s =
      util::parse_double(expect_kv(reader, "total_compute_s"));
  out.state.has_fabric = util::parse_bool(expect_kv(reader, "has_fabric"));
  const std::string starts = expect_kv(reader, "fabric_group_starts");
  if (!starts.empty()) {
    std::istringstream is(starts);
    std::string token;
    while (std::getline(is, token, ',')) {
      out.state.fabric_group_starts.push_back(
          static_cast<std::size_t>(util::parse_u64(token)));
    }
  }
  out.state.battery_soc = util::parse_double(expect_kv(reader, "battery_soc"));
  out.state.battery_energy_j =
      util::parse_double(expect_kv(reader, "battery_energy_j"));

  const std::size_t blob_lines = static_cast<std::size_t>(
      util::parse_u64(reader.expect_prefix("# controller lines = ")));
  for (std::size_t i = 0; i < blob_lines; ++i) {
    out.state.controller_state += reader.next();
    out.state.controller_state += '\n';
  }

  out.state.partial.algorithm = expect_kv(reader, "algorithm");
  detail::read_run_tables(reader, out.state.partial);
  if (out.state.partial.steps.size() != out.state.steps_consumed) {
    reader.fail("steps_consumed does not match the step table");
  }

  const std::size_t extra = static_cast<std::size_t>(
      util::parse_u64(reader.expect_prefix("# extra lines = ")));
  out.extra_lines.reserve(extra);
  for (std::size_t i = 0; i < extra; ++i) {
    out.extra_lines.push_back(reader.next());
  }
  if (reader.next() != "# end") reader.fail("missing terminator (truncated?)");
  if (!reader.exhausted()) reader.fail("trailing data after terminator");
  return out;
}

}  // namespace

DecodedCheckpoint decode_checkpoint(
    const std::string& text, const std::string& expected_fingerprint_text) {
  try {
    return decode_checkpoint_impl(text, expected_fingerprint_text);
  } catch (const std::invalid_argument& e) {
    // Field parsers (parse_u64 and friends) throw invalid_argument on a
    // malformed value; from the caller's view that is a corrupt artifact,
    // same as any other decode failure.
    throw std::runtime_error(std::string("checkpoint: malformed value: ") +
                             e.what());
  }
}

// SimStepper's disk door lives here with the codec (stepper.cpp stays
// pure simulation).

void SimStepper::save(const std::string& path,
                      const std::string& fingerprint_text,
                      const util::AtomicWriteOptions& write_options) const {
  const std::string content =
      encode_checkpoint(state(), fingerprint_text, /*extra_lines=*/{});
  util::AtomicWriteOptions options = write_options;
  if (options.fault_site.empty()) options.fault_site = "stream.checkpoint";
  util::atomic_write_file(path, content, options);
}

void SimStepper::restore(const std::string& path,
                         const std::string& fingerprint_text) {
  const std::optional<std::string> text = util::read_file_if_exists(path);
  if (!text) {
    throw std::runtime_error("SimStepper::restore: cannot read checkpoint '" +
                             path + "'");
  }
  const DecodedCheckpoint decoded = decode_checkpoint(*text, fingerprint_text);
  restore_state(decoded.state);
}

}  // namespace tegrec::sim
