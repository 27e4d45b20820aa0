#include "sim/result_io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <span>
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

std::size_t ArtifactReader::column(const util::CsvTable& table,
                                   const std::string& name) const {
  for (std::size_t c = 0; c < table.header.size(); ++c) {
    if (table.header[c] == name) return c;
  }
  fail("missing column " + name);
}

void ArtifactReader::fail(const std::string& detail) const {
  throw std::runtime_error(what_ + ": " + detail);
}

void append_exact(std::string& out, double v) {
  // to_chars(general, 17) is defined as printf("%.17g") in the C locale.
  char buffer[32];
  const std::to_chars_result r = std::to_chars(
      buffer, buffer + sizeof(buffer), v, std::chars_format::general,
      util::kCsvExactPrecision);
  out.append(buffer, r.ptr);
}

namespace {

// One comma-separated, newline-ended row at exact precision, NaN as an
// empty cell: csv_to_string's spelling of a multi-column row.
void append_row(std::string& out, std::span<const double> cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += ',';
    if (!std::isnan(cells[i])) append_exact(out, cells[i]);
  }
  out += '\n';
}

}  // namespace

void emit_table(std::string& out, const util::CsvTable& table) {
  out += "# table rows = " + std::to_string(table.rows.size()) + '\n';
  out += util::csv_to_string(table, util::kCsvExactPrecision);
}

// Field-complete serialisation of SimulationResult and StepRecord — the
// tegrec_lint cache-key rule cross-checks both structs against this file,
// so growing either without extending the codec fails the lint gate.
void append_step_row(std::string& out, const StepRecord& step) {
  const double cells[] = {step.time_s, step.gross_power_w, step.net_power_w,
                          step.ideal_power_w, step.invoked ? 1.0 : 0.0,
                          step.switched ? 1.0 : 0.0,
                          static_cast<double>(step.switch_actuations),
                          step.overhead_energy_j, step.compute_time_s};
  append_row(out, cells);
}

void emit_run_tables_head(std::string& out, const SimulationResult& run,
                          std::size_t step_rows) {
  out +=
      "# table rows = 1\n"
      "energy_output_j,switch_overhead_j,avg_runtime_ms,"
      "runtime_per_invocation_ms,ideal_energy_j,num_invocations,"
      "num_switch_events,total_switch_actuations,battery_energy_j,"
      "final_soc\n";
  const double summary[] = {
      run.energy_output_j, run.switch_overhead_j, run.avg_runtime_ms,
      run.runtime_per_invocation_ms, run.ideal_energy_j,
      static_cast<double>(run.num_invocations),
      static_cast<double>(run.num_switch_events),
      static_cast<double>(run.total_switch_actuations), run.battery_energy_j,
      run.final_soc};
  append_row(out, summary);
  out += "# table rows = " + std::to_string(step_rows) +
         "\n"
         "time_s,gross_power_w,net_power_w,ideal_power_w,invoked,switched,"
         "switch_actuations,overhead_energy_j,compute_time_s\n";
}

void emit_run_tables(std::string& out, const SimulationResult& run) {
  emit_run_tables_head(out, run, run.steps.size());
  for (const StepRecord& step : run.steps) append_step_row(out, step);
}

void read_run_tables(ArtifactReader& reader, SimulationResult& run) {
  const util::CsvTable summary = reader.read_table();
  if (summary.rows.size() != 1) reader.fail("bad summary table");
  const auto sum = [&](const std::string& name) {
    return summary.rows[0][reader.column(summary, name)];
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
  const auto col = [&](const std::string& name) {
    return reader.column(steps, name);
  };
  const std::size_t time = col("time_s");
  const std::size_t gross = col("gross_power_w");
  const std::size_t net = col("net_power_w");
  const std::size_t ideal = col("ideal_power_w");
  const std::size_t invoked = col("invoked");
  const std::size_t switched = col("switched");
  const std::size_t actuations = col("switch_actuations");
  const std::size_t overhead = col("overhead_energy_j");
  const std::size_t compute = col("compute_time_s");
  run.steps.resize(steps.rows.size());
  for (std::size_t i = 0; i < steps.rows.size(); ++i) {
    const std::vector<double>& row = steps.rows[i];
    StepRecord& s = run.steps[i];
    s.time_s = row[time];
    s.gross_power_w = row[gross];
    s.net_power_w = row[net];
    s.ideal_power_w = row[ideal];
    // 0/1 flags round-tripped at exact precision: bit-value compare.
    s.invoked = !util::is_exactly_zero(row[invoked]);
    s.switched = !util::is_exactly_zero(row[switched]);
    s.switch_actuations = static_cast<std::size_t>(row[actuations]);
    s.overhead_energy_j = row[overhead];
    s.compute_time_s = row[compute];
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
  const auto named = std::find_if(
      kExperimentKindNames.begin(), kExperimentKindNames.end(),
      [&](const auto& entry) { return kind == entry.second; });
  if (named == kExperimentKindNames.end()) reader.fail("unknown kind " + kind);
  out.kind = named->first;
  if (out.kind == ExperimentKind::kComparison) {
    const std::size_t num_runs = static_cast<std::size_t>(
        util::parse_u64(reader.expect_prefix("# runs = ")));
    for (std::size_t i = 0; i < num_runs; ++i) {
      SimulationResult& run = out.comparison.runs.emplace_back();
      run.algorithm = reader.expect_prefix("# run algorithm = ");
      detail::read_run_tables(reader, run);
    }
  } else if (out.kind == ExperimentKind::kMonteCarlo) {
    const util::CsvTable samples = reader.read_table();
    const auto col = [&](const char* name) {
      return reader.column(samples, name);
    };
    const std::size_t seed_hi = col("seed_hi");
    const std::size_t seed_lo = col("seed_lo");
    const std::size_t dnor = col("dnor_energy_j");
    const std::size_t baseline = col("baseline_energy_j");
    const std::size_t gain = col("gain");
    const std::size_t overhead = col("dnor_overhead_j");
    const std::size_t switches = col("dnor_switches");
    out.monte_carlo.samples.resize(samples.rows.size());
    for (std::size_t i = 0; i < samples.rows.size(); ++i) {
      const std::vector<double>& row = samples.rows[i];
      MonteCarloSample& s = out.monte_carlo.samples[i];
      s.seed = (static_cast<std::uint64_t>(row[seed_hi]) << 32) |
               static_cast<std::uint64_t>(row[seed_lo]);
      s.dnor_energy_j = row[dnor];
      s.baseline_energy_j = row[baseline];
      s.gain = row[gain];
      s.dnor_overhead_j = row[overhead];
      s.dnor_switches = row[switches];
    }
    detail::fold_monte_carlo_stats(out.monte_carlo);
  } else {
    const util::CsvTable points = reader.read_table();
    const auto col = [&](const char* name) {
      return reader.column(points, name);
    };
    const std::size_t value = col("value");
    const std::size_t dnor = col("dnor_energy_j");
    const std::size_t baseline = col("baseline_energy_j");
    const std::size_t gain = col("gain");
    const std::size_t ratio = col("dnor_ratio_to_ideal");
    out.sweep.resize(points.rows.size());
    for (std::size_t i = 0; i < points.rows.size(); ++i) {
      const std::vector<double>& row = points.rows[i];
      SweepPoint& p = out.sweep[i];
      p.value = row[value];
      p.dnor_energy_j = row[dnor];
      p.baseline_energy_j = row[baseline];
      p.gain = row[gain];
      p.dnor_ratio_to_ideal = row[ratio];
    }
  }
  if (reader.next() != "# end") reader.fail("missing terminator");
  return out;
}

}  // namespace

std::string encode_result(const ExperimentResult& result,
                          const std::string& fingerprint_text) {
  std::string out = kMagic;
  std::size_t fp_lines = 0;
  for (const char c : fingerprint_text) fp_lines += c == '\n' ? 1 : 0;
  out += "\n# kind = ";
  out += to_string(result.kind);
  out += "\n# fingerprint-lines = " + std::to_string(fp_lines) + '\n';
  out += fingerprint_text;
  switch (result.kind) {
    case ExperimentKind::kComparison: {
      out += "# runs = " + std::to_string(result.comparison.runs.size()) + '\n';
      for (const SimulationResult& run : result.comparison.runs) {
        out += "# run algorithm = " + run.algorithm + '\n';
        detail::emit_run_tables(out, run);
      }
      break;
    }
    case ExperimentKind::kMonteCarlo: {
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
      detail::emit_table(out, samples);
      break;
    }
    case ExperimentKind::kSweep: {
      util::CsvTable points;
      points.header = {"value", "dnor_energy_j", "baseline_energy_j", "gain",
                       "dnor_ratio_to_ideal"};
      for (const SweepPoint& p : result.sweep) {
        points.rows.push_back({p.value, p.dnor_energy_j, p.baseline_energy_j,
                               p.gain, p.dnor_ratio_to_ideal});
      }
      detail::emit_table(out, points);
      break;
    }
  }
  out += "# end\n";
  return out;
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
