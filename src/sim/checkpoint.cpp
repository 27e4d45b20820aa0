#include "sim/checkpoint.hpp"

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/dnor.hpp"
#include "core/ehtr.hpp"
#include "core/fixed_baseline.hpp"
#include "core/inor.hpp"
#include "sim/result_io.hpp"
#include "sim/spec.hpp"
#include "util/parse.hpp"

namespace tegrec::sim {

namespace {

// Bump the version when the serialisation (or the semantics of any field
// in it) changes; old checkpoints then fail the magic check loudly instead
// of mis-restoring.
constexpr const char* kMagic = "# tegrec-checkpoint v1";

// Same line dialect as sim/result_io.cpp, whose table codec this file
// shares: `key = value` scalars plus `# table rows = N` CSV tables at
// exact precision, so every double round-trips bit-exactly and a restored
// run continues the original stream bit for bit.

void emit_kv(std::string& out, const std::string& key,
             const std::string& value) {
  out += key;
  out += " = ";
  out += value;
  out += '\n';
}

void emit_double(std::string& out, const std::string& key, double v) {
  out += key;
  out += " = ";
  detail::append_exact(out, v);
  out += '\n';
}

std::size_t count_lines(const std::string& text) {
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n' ? 1 : 0;
  return lines;
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
  std::string out;
  emit_kv(out, "scheme", stream_scheme_name(config.scheme));
  emit_double(out, "control_period_s", config.control_period_s);
  emit_double(out, "dt_s", config.dt_s);
  emit_kv(out, "num_modules", std::to_string(config.num_modules));
  // The physics options reuse the experiment-spec bindings (execution
  // hints excluded there), one "sim." prefix per line.
  std::istringstream sim_lines(simulation_options_fingerprint_text(config.sim));
  std::string line;
  while (std::getline(sim_lines, line)) {
    out += "sim." + line + '\n';
  }
  return out;
}

template <typename T, typename Format>
void CheckpointEncoder::Memo::sync(const std::vector<T>& items,
                                   Format format) {
  bool stale = items.size() < done;
  if (!stale && done > 0) {
    std::string last;
    format(last, items[done - 1]);
    stale = text.compare(last_at, std::string::npos, last) != 0;
  }
  if (stale) *this = Memo{};
  for (std::size_t i = done; i < items.size(); ++i) {
    const std::size_t at = text.size();
    format(text, items[i]);  // throws before appending, if at all
    last_at = at;
    done = i + 1;
  }
}

// Field-complete serialisation of StepperState — the tegrec_lint
// cache-key rule cross-checks it (and StreamConfig) against this file.
std::string CheckpointEncoder::encode(
    const StepperState& state, const std::string& fingerprint_text,
    const std::vector<std::string>& extra_lines) {
  rows_.sync(state.partial.steps, detail::append_step_row);
  lines_.sync(extra_lines, [](std::string& out, const std::string& line) {
    if (line.find('\n') != std::string::npos) {
      throw std::invalid_argument(
          "encode_checkpoint: extra line contains a newline");
    }
    out += line;
    out += '\n';
  });

  std::string head = kMagic;
  head += "\n# config lines = " + std::to_string(count_lines(fingerprint_text)) +
          '\n';
  head += fingerprint_text;
  emit_kv(head, "steps_consumed", std::to_string(state.steps_consumed));
  emit_double(head, "total_compute_s", state.total_compute_s);
  emit_kv(head, "has_fabric", state.has_fabric ? "1" : "0");
  std::string starts;
  for (std::size_t i = 0; i < state.fabric_group_starts.size(); ++i) {
    if (i > 0) starts += ',';
    starts += std::to_string(state.fabric_group_starts[i]);
  }
  emit_kv(head, "fabric_group_starts", starts);
  emit_double(head, "battery_soc", state.battery_soc);
  emit_double(head, "battery_energy_j", state.battery_energy_j);
  head += "# controller lines = " +
          std::to_string(count_lines(state.controller_state)) + '\n';
  head += state.controller_state;
  emit_kv(head, "algorithm", state.partial.algorithm);
  detail::emit_run_tables_head(head, state.partial, rows_.done);
  const std::string extra_head =
      "# extra lines = " + std::to_string(lines_.done) + '\n';
  constexpr std::string_view kEnd = "# end\n";

  std::string out;
  out.reserve(head.size() + rows_.text.size() + extra_head.size() +
              lines_.text.size() + kEnd.size());
  out += head;
  out += rows_.text;
  out += extra_head;
  out += lines_.text;
  out += kEnd;
  return out;
}

std::string encode_checkpoint(const StepperState& state,
                              const std::string& fingerprint_text,
                              const std::vector<std::string>& extra_lines) {
  return CheckpointEncoder{}.encode(state, fingerprint_text, extra_lines);
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

}  // namespace tegrec::sim
