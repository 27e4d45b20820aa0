#include "thermal/trace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/csv.hpp"

namespace tegrec::thermal {

TemperatureTrace::TemperatureTrace(double dt_s, std::size_t num_modules)
    : dt_s_(dt_s), num_modules_(num_modules) {
  if (dt_s <= 0.0) throw std::invalid_argument("TemperatureTrace: dt <= 0");
  if (num_modules == 0) throw std::invalid_argument("TemperatureTrace: N == 0");
}

void TemperatureTrace::append(const std::vector<double>& module_temps_c,
                              double ambient_c) {
  if (module_temps_c.size() != num_modules_) {
    throw std::invalid_argument("TemperatureTrace::append: wrong module count");
  }
  temps_c_.insert(temps_c_.end(), module_temps_c.begin(), module_temps_c.end());
  ambient_c_.push_back(ambient_c);
}

double TemperatureTrace::temperature_c(std::size_t step, std::size_t module) const {
  if (step >= num_steps() || module >= num_modules_) {
    throw std::out_of_range("TemperatureTrace::temperature_c");
  }
  return temps_c_[step * num_modules_ + module];
}

std::vector<double> TemperatureTrace::step_temperatures(std::size_t step) const {
  if (step >= num_steps()) throw std::out_of_range("TemperatureTrace::step_temperatures");
  const auto begin = temps_c_.begin() + static_cast<std::ptrdiff_t>(step * num_modules_);
  return {begin, begin + static_cast<std::ptrdiff_t>(num_modules_)};
}

std::vector<double> TemperatureTrace::step_delta_t(std::size_t step) const {
  std::vector<double> out = step_temperatures(step);
  const double amb = ambient_c(step);
  for (double& t : out) t = std::max(0.0, t - amb);
  return out;
}

double TemperatureTrace::ambient_c(std::size_t step) const {
  if (step >= num_steps()) throw std::out_of_range("TemperatureTrace::ambient_c");
  return ambient_c_[step];
}

std::size_t TemperatureTrace::step_at_time(double time_s) const {
  if (time_s <= 0.0) return 0;
  const auto idx = static_cast<std::size_t>(time_s / dt_s_);
  return std::min(idx, num_steps() == 0 ? 0 : num_steps() - 1);
}

TemperatureTrace TemperatureTrace::slice(double t0_s, double t1_s) const {
  if (t1_s < t0_s) throw std::invalid_argument("TemperatureTrace::slice: t1 < t0");
  TemperatureTrace out(dt_s_, num_modules_);
  const std::size_t first = step_at_time(t0_s);
  const std::size_t last = std::min(
      num_steps(), static_cast<std::size_t>(std::ceil(t1_s / dt_s_)));
  for (std::size_t t = first; t < last; ++t) {
    out.append(step_temperatures(t), ambient_c_[t]);
  }
  return out;
}

void TemperatureTrace::save_csv(const std::string& path) const {
  util::CsvTable table;
  table.header.push_back("time_s");
  table.header.push_back("ambient_c");
  for (std::size_t m = 0; m < num_modules_; ++m) {
    // Built with += rather than operator+ to dodge a GCC 12 -Wrestrict
    // false positive (PR 105329) that the extra inlining in this TU
    // otherwise surfaces under -O3.
    std::string name("t");
    name += std::to_string(m);
    table.header.push_back(std::move(name));
  }
  for (std::size_t t = 0; t < num_steps(); ++t) {
    std::vector<double> row;
    row.reserve(num_modules_ + 2);
    row.push_back(static_cast<double>(t) * dt_s_);
    row.push_back(ambient_c_[t]);
    const auto temps = step_temperatures(t);
    row.insert(row.end(), temps.begin(), temps.end());
    table.rows.push_back(std::move(row));
  }
  util::write_csv(path, table);
}

TemperatureTrace TemperatureTrace::load_csv(const std::string& path,
                                            double dt_s) {
  const util::CsvTable table = util::read_csv(path);
  if (table.header.size() < 3) {
    throw std::runtime_error("TemperatureTrace::load_csv: too few columns");
  }
  const std::size_t n = table.header.size() - 2;
  if (table.rows.empty()) {
    throw std::runtime_error("TemperatureTrace::load_csv: no data rows");
  }
  double dt = dt_s;
  if (dt <= 0.0) {
    // Deriving dt from the first two timestamps used to silently assume
    // 1.0 s for single-row files — a wrong time base imported without a
    // whisper.  Demand either two rows or an explicit dt.
    if (table.rows.size() < 2) {
      throw std::runtime_error(
          "TemperatureTrace::load_csv: single-row file has no time base; "
          "pass an explicit dt");
    }
    dt = table.rows[1][0] - table.rows[0][0];
  }
  if (!std::isfinite(dt) || dt <= 0.0) {
    throw std::runtime_error("TemperatureTrace::load_csv: bad time base");
  }
  // Every timestamp must sit on the uniform grid t0 + i * dt: the whole
  // library indexes steps by time / dt, so an irregular (or mismatched,
  // when dt was passed explicitly) time column would silently stretch or
  // compress the trace.  For self-written files the tolerance only has to
  // absorb the writer's 12-significant-digit rounding; an explicit dt is
  // the caller vouching for the grid, so real-world files with coarsely
  // rounded timestamps (e.g. a 30 Hz log quantised to milliseconds) are
  // accepted as long as each stamp stays nearest its own grid point
  // (within half a step).
  const double t0 = table.rows[0][0];
  const double slack = dt_s > 0.0 ? 0.5 * dt : 0.0;
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const double expected = t0 + static_cast<double>(i) * dt;
    const double tol =
        std::max(slack, 1e-6 * std::max({1.0, dt, std::abs(expected)}));
    if (!std::isfinite(table.rows[i][0]) ||
        std::abs(table.rows[i][0] - expected) > tol) {
      std::string message =
          "TemperatureTrace::load_csv: irregular time base at row ";
      message += std::to_string(i);
      message += " (expected t = ";
      message += std::to_string(expected);
      message += ", got ";
      message += std::to_string(table.rows[i][0]);
      message += ")";
      throw std::runtime_error(message);
    }
  }
  TemperatureTrace trace(dt, n);
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const auto& row = table.rows[i];
    // Empty CSV cells parse as NaN (the bench writers' unmeasured-value
    // convention) — but in a temperature log a blank cell means the row was
    // truncated mid-write, and a NaN temperature would silently poison
    // every simulation downstream.  Reject it at the door, naming the file
    // line (row i sits at source line row_lines[i]; header is line 1).
    for (std::size_t c = 1; c < row.size(); ++c) {
      if (!std::isfinite(row[c])) {
        const std::size_t line =
            i < table.row_lines.size() ? table.row_lines[i] : i + 2;
        std::string message =
            "TemperatureTrace::load_csv: blank or non-finite value in "
            "column '";
        message += table.header[c];
        message += "' at line ";
        message += std::to_string(line);
        message += " (truncated row?)";
        throw std::runtime_error(message);
      }
    }
    std::vector<double> temps(row.begin() + 2, row.end());
    trace.append(temps, row[1]);
  }
  return trace;
}

TemperatureTrace generate_trace(const TraceGeneratorConfig& config) {
  if (config.sample_dt_s < config.sim_dt_s) {
    throw std::invalid_argument("generate_trace: sample_dt must be >= sim_dt");
  }
  // The sampler walks the simulation grid with an integer stride; rounding
  // a non-integral ratio would silently resample at a different rate than
  // requested (e.g. 0.25 s asked, 0.2 s delivered from a 0.1 s sim step).
  constexpr double kStrideRoundoffTolerance = 1e-6;  // relative, ppm scale
  const double ratio = config.sample_dt_s / config.sim_dt_s;
  const auto stride = static_cast<std::size_t>(std::llround(ratio));
  if (stride < 1 || std::abs(ratio - static_cast<double>(stride)) >
                        kStrideRoundoffTolerance * ratio) {
    throw std::invalid_argument(
        "generate_trace: sample_dt must be an integer multiple of sim_dt");
  }
  const DriveCycle cycle = generate_drive_cycle(config.segments, config.vehicle,
                                                config.sim_dt_s, config.seed);
  const std::vector<double> ambient =
      ambient_series(config.ambient, cycle.num_steps(), config.sim_dt_s,
                     config.seed ^ 0xa5a5a5a5ULL);
  const CoolantTrace coolant = simulate_cooling_loop(
      config.engine, config.layout.exchanger, config.vehicle, cycle,
      config.seed ^ 0x9e3779b9ULL, &ambient);

  const FluidProperties coolant_props = coolant_glycol50();
  const FluidProperties air_props = ambient_air();

  TemperatureTrace trace(config.sample_dt_s, config.layout.num_modules);
  // Low-pass from the quasi-static solution: the fin/module stack cannot
  // follow airflow transients instantaneously.
  const double alpha =
      config.surface_time_constant_s <= 0.0
          ? 1.0
          : 1.0 - std::exp(-config.sample_dt_s / config.surface_time_constant_s);
  std::vector<double> surface;
  for (std::size_t k = 0; k < coolant.num_steps(); k += stride) {
    const CoolantSample& s = coolant.samples[k];
    StreamConditions cond;
    cond.hot_inlet_c = s.coolant_inlet_c;
    cond.cold_inlet_c = s.ambient_c;
    cond.hot_capacity_w_k =
        coolant_props.capacity_rate_w_k(lpm_to_m3s(s.coolant_flow_lpm));
    cond.cold_capacity_w_k = air_props.capacity_rate_w_k(
        s.air_speed_ms * config.engine.radiator_face_area_m2);
    // A cold-soaked loop (kColdStart scenarios) can start at — or, with
    // measurement noise, a hair below — ambient, where the exchanger model
    // is undefined (it would reject heat the wrong way).  There is simply
    // no temperature difference to harvest yet: the whole surface sits at
    // ambient.
    const std::vector<double> target =
        cond.hot_inlet_c > cond.cold_inlet_c
            ? module_hot_side_temperatures(config.layout, cond)
            : std::vector<double>(config.layout.num_modules, cond.cold_inlet_c);
    if (surface.empty()) {
      surface = target;  // start settled at the first operating point
    } else {
      for (std::size_t i = 0; i < surface.size(); ++i) {
        surface[i] += alpha * (target[i] - surface[i]);
      }
    }
    trace.append(surface, s.ambient_c);
  }
  return trace;
}

TemperatureTrace default_experiment_trace(std::uint64_t seed) {
  TraceGeneratorConfig config;
  config.seed = seed;
  return generate_trace(config);
}

}  // namespace tegrec::thermal
