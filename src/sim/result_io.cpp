#include "sim/result_io.hpp"

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/csv.hpp"
#include "util/float_cmp.hpp"
#include "util/parse.hpp"

namespace tegrec::sim {

namespace detail {

std::string ArtifactReader::next() {
  std::string line;
  if (!std::getline(is_, line)) throw std::runtime_error(what_ + " truncated");
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

bool ArtifactReader::exhausted() {
  return is_.peek() == std::istringstream::traits_type::eof();
}

std::string ArtifactReader::expect_prefix(const std::string& prefix) {
  const std::string line = next();
  if (line.rfind(prefix, 0) != 0) {
    fail("expected '" + prefix + "', got '" + line + "'");
  }
  return line.substr(prefix.size());
}

util::CsvTable ArtifactReader::read_table() {
  const std::size_t rows = static_cast<std::size_t>(
      util::parse_u64(expect_prefix("# table rows = ")));
  std::string csv = next();  // header
  csv += '\n';
  for (std::size_t i = 0; i < rows; ++i) {
    csv += next();
    csv += '\n';
  }
  util::CsvTable table = util::csv_from_string(csv);
  if (table.rows.size() != rows) fail("table row count mismatch");
  return table;
}

double ArtifactReader::cell(const util::CsvTable& table, std::size_t row,
                            const std::string& name) const {
  for (std::size_t c = 0; c < table.header.size(); ++c) {
    if (table.header[c] == name) return table.rows.at(row).at(c);
  }
  fail("missing column " + name);
}

void ArtifactReader::fail(const std::string& detail) const {
  throw std::runtime_error(what_ + ": " + detail);
}

void emit_table(std::ostream& os, const util::CsvTable& table) {
  os << "# table rows = " << table.rows.size() << '\n'
     << util::csv_to_string(table, util::kCsvExactPrecision);
}

// Field-complete serialisation of SimulationResult and StepRecord — the
// tegrec_lint cache-key rule cross-checks both structs against this file,
// so growing either without extending the codec fails the lint gate.
void emit_run_tables(std::ostream& os, const SimulationResult& run) {
  util::CsvTable summary;
  summary.header = {"energy_output_j",   "switch_overhead_j",
                    "avg_runtime_ms",    "runtime_per_invocation_ms",
                    "ideal_energy_j",    "num_invocations",
                    "num_switch_events", "total_switch_actuations",
                    "battery_energy_j",  "final_soc"};
  summary.rows.push_back(
      {run.energy_output_j, run.switch_overhead_j, run.avg_runtime_ms,
       run.runtime_per_invocation_ms, run.ideal_energy_j,
       static_cast<double>(run.num_invocations),
       static_cast<double>(run.num_switch_events),
       static_cast<double>(run.total_switch_actuations), run.battery_energy_j,
       run.final_soc});
  emit_table(os, summary);

  util::CsvTable steps;
  steps.header = {"time_s",  "gross_power_w",     "net_power_w",
                  "ideal_power_w", "invoked",     "switched",
                  "switch_actuations", "overhead_energy_j", "compute_time_s"};
  for (const StepRecord& s : run.steps) {
    steps.rows.push_back({s.time_s, s.gross_power_w, s.net_power_w,
                          s.ideal_power_w, s.invoked ? 1.0 : 0.0,
                          s.switched ? 1.0 : 0.0,
                          static_cast<double>(s.switch_actuations),
                          s.overhead_energy_j, s.compute_time_s});
  }
  emit_table(os, steps);
}

void read_run_tables(ArtifactReader& reader, SimulationResult& run) {
  const util::CsvTable summary = reader.read_table();
  if (summary.rows.size() != 1) reader.fail("bad summary table");
  const auto sum = [&](const std::string& name) {
    return reader.cell(summary, 0, name);
  };
  run.energy_output_j = sum("energy_output_j");
  run.switch_overhead_j = sum("switch_overhead_j");
  run.avg_runtime_ms = sum("avg_runtime_ms");
  run.runtime_per_invocation_ms = sum("runtime_per_invocation_ms");
  run.ideal_energy_j = sum("ideal_energy_j");
  run.num_invocations = static_cast<std::size_t>(sum("num_invocations"));
  run.num_switch_events = static_cast<std::size_t>(sum("num_switch_events"));
  run.total_switch_actuations =
      static_cast<std::size_t>(sum("total_switch_actuations"));
  run.battery_energy_j = sum("battery_energy_j");
  run.final_soc = sum("final_soc");

  const util::CsvTable steps = reader.read_table();
  run.steps.resize(steps.rows.size());
  for (std::size_t i = 0; i < steps.rows.size(); ++i) {
    const auto col = [&](const std::string& name) {
      return reader.cell(steps, i, name);
    };
    StepRecord& s = run.steps[i];
    s.time_s = col("time_s");
    s.gross_power_w = col("gross_power_w");
    s.net_power_w = col("net_power_w");
    s.ideal_power_w = col("ideal_power_w");
    // 0/1 flags round-tripped at exact precision: bit-value compare.
    s.invoked = !util::is_exactly_zero(col("invoked"));
    s.switched = !util::is_exactly_zero(col("switched"));
    s.switch_actuations = static_cast<std::size_t>(col("switch_actuations"));
    s.overhead_energy_j = col("overhead_energy_j");
    s.compute_time_s = col("compute_time_s");
  }
}

}  // namespace detail

namespace {

constexpr const char* kMagic = "# tegrec-result v1";

// Internal failures throw std::runtime_error; decode_result() converts
// every throw into nullopt (a cache miss).

ExperimentResult decode_or_throw(const std::string& text,
                                 const std::string& expected_fp_text) {
  detail::ArtifactReader reader(text, "result artifact");
  if (reader.next() != kMagic) reader.fail("bad magic");
  const std::string kind = reader.expect_prefix("# kind = ");
  const std::size_t fp_lines = static_cast<std::size_t>(
      util::parse_u64(reader.expect_prefix("# fingerprint-lines = ")));
  std::string fp_text;
  for (std::size_t i = 0; i < fp_lines; ++i) {
    fp_text += reader.next();
    fp_text += '\n';
  }
  if (fp_text != expected_fp_text) {
    // A different spec hashed to this fingerprint (or the schema moved
    // under the artifact): miss, never a wrong result.
    reader.fail("fingerprint text mismatch");
  }

  ExperimentResult out;
  if (kind == "comparison") {
    out.kind = ExperimentKind::kComparison;
    const std::size_t num_runs = static_cast<std::size_t>(
        util::parse_u64(reader.expect_prefix("# runs = ")));
    for (std::size_t i = 0; i < num_runs; ++i) {
      SimulationResult& run = out.comparison.runs.emplace_back();
      run.algorithm = reader.expect_prefix("# run algorithm = ");
      detail::read_run_tables(reader, run);
    }
  } else if (kind == "montecarlo") {
    out.kind = ExperimentKind::kMonteCarlo;
    const util::CsvTable samples = reader.read_table();
    out.monte_carlo.samples.resize(samples.rows.size());
    for (std::size_t i = 0; i < samples.rows.size(); ++i) {
      MonteCarloSample& s = out.monte_carlo.samples[i];
      const auto half = [&](const char* name) {
        return static_cast<std::uint64_t>(reader.cell(samples, i, name));
      };
      s.seed = (half("seed_hi") << 32) | half("seed_lo");
      s.dnor_energy_j = reader.cell(samples, i, "dnor_energy_j");
      s.baseline_energy_j = reader.cell(samples, i, "baseline_energy_j");
      s.gain = reader.cell(samples, i, "gain");
      s.dnor_overhead_j = reader.cell(samples, i, "dnor_overhead_j");
      s.dnor_switches = reader.cell(samples, i, "dnor_switches");
    }
    detail::fold_monte_carlo_stats(out.monte_carlo);
  } else if (kind == "sweep") {
    out.kind = ExperimentKind::kSweep;
    const util::CsvTable points = reader.read_table();
    out.sweep.resize(points.rows.size());
    for (std::size_t i = 0; i < points.rows.size(); ++i) {
      SweepPoint& p = out.sweep[i];
      p.value = reader.cell(points, i, "value");
      p.dnor_energy_j = reader.cell(points, i, "dnor_energy_j");
      p.baseline_energy_j = reader.cell(points, i, "baseline_energy_j");
      p.gain = reader.cell(points, i, "gain");
      p.dnor_ratio_to_ideal = reader.cell(points, i, "dnor_ratio_to_ideal");
    }
  } else {
    reader.fail("unknown kind " + kind);
  }
  if (reader.next() != "# end") reader.fail("missing terminator");
  return out;
}

}  // namespace

std::string encode_result(const ExperimentResult& result,
                          const std::string& fingerprint_text) {
  std::ostringstream os;
  os << kMagic << '\n';
  std::size_t fp_lines = 0;
  for (const char c : fingerprint_text) fp_lines += c == '\n' ? 1 : 0;
  switch (result.kind) {
    case ExperimentKind::kComparison: {
      os << "# kind = comparison\n"
         << "# fingerprint-lines = " << fp_lines << '\n'
         << fingerprint_text;
      os << "# runs = " << result.comparison.runs.size() << '\n';
      for (const SimulationResult& run : result.comparison.runs) {
        os << "# run algorithm = " << run.algorithm << '\n';
        detail::emit_run_tables(os, run);
      }
      break;
    }
    case ExperimentKind::kMonteCarlo: {
      os << "# kind = montecarlo\n"
         << "# fingerprint-lines = " << fp_lines << '\n'
         << fingerprint_text;
      util::CsvTable samples;
      // Seeds are u64; CSV cells are doubles, which are only exact to
      // 2^53, so the seed travels as two 32-bit halves.
      samples.header = {"seed_hi",         "seed_lo",
                        "dnor_energy_j",   "baseline_energy_j",
                        "gain",            "dnor_overhead_j",
                        "dnor_switches"};
      for (const MonteCarloSample& s : result.monte_carlo.samples) {
        samples.rows.push_back({static_cast<double>(s.seed >> 32),
                                static_cast<double>(s.seed & 0xffffffffULL),
                                s.dnor_energy_j, s.baseline_energy_j, s.gain,
                                s.dnor_overhead_j, s.dnor_switches});
      }
      detail::emit_table(os, samples);
      break;
    }
    case ExperimentKind::kSweep: {
      os << "# kind = sweep\n"
         << "# fingerprint-lines = " << fp_lines << '\n'
         << fingerprint_text;
      util::CsvTable points;
      points.header = {"value", "dnor_energy_j", "baseline_energy_j", "gain",
                       "dnor_ratio_to_ideal"};
      for (const SweepPoint& p : result.sweep) {
        points.rows.push_back({p.value, p.dnor_energy_j, p.baseline_energy_j,
                               p.gain, p.dnor_ratio_to_ideal});
      }
      detail::emit_table(os, points);
      break;
    }
  }
  os << "# end\n";
  return os.str();
}

std::optional<ExperimentResult> decode_result(
    const std::string& text, const std::string& expected_fingerprint_text) {
  try {
    return decode_or_throw(text, expected_fingerprint_text);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace tegrec::sim
