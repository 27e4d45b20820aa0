// Stream workload: sim::StreamServer tracking two DNOR arrays of 100
// modules, each fed a distinct 2-hour drive (14,400 samples at 0.5 s) at
// full speed, with a checkpoint every 200 steps.
//
// The telemetry is generated and serialised before anything is timed: it
// is the load generator's work, not the server's.  A bench-side ByteFeed
// hands the server one CSV line per poll() and stamps every hand-over, so
// the interval between two hand-overs is the service time of one sample:
// parse, step, decision emit and any checkpoint that sample triggered.
// The server's real feed rate is 2 Hz per array, where latency says
// nothing; full-speed replay measures capacity, and the tail of the
// service times shows how long a sample waits behind a checkpoint.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/stream_server.hpp"
#include "stats.hpp"
#include "thermal/drive_cycle.hpp"
#include "tracing.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/runtime_clock.hpp"
#include "workload.hpp"

namespace perfbench {

namespace sim = tegrec::sim;
namespace thermal = tegrec::thermal;
namespace util = tegrec::util;

namespace {

constexpr std::size_t kArrays = 2;
constexpr std::size_t kModules = 100;
constexpr std::size_t kDriveRepeats = 9;  // 9 x 800 s default cycle = 2 h
constexpr std::size_t kCheckpointEvery = 200;
constexpr std::size_t kSetupsPerRun = 50;
constexpr std::size_t kResumeRuns = 3;
constexpr std::size_t kMinRuns = 2;
// At most this many measured server runs, so the buffer for their
// service-time samples can be sized and touched before memory is measured.
constexpr std::size_t kMaxRuns = 48;
// Untraced/traced pass pairs behind trace.overhead_ratio.
constexpr std::size_t kOverheadPairs = 3;

/// What the server must produce for one array: a batch run_simulation
/// over the same trace, and its decision log.
struct Reference {
  sim::SimulationResult result;
  std::vector<std::string> lines;
};

/// One array's telemetry: the CSV bytes the server reads, the offsets of
/// its line ends, and the batch reference over the trace parsed back from
/// those same bytes (it must see exactly what the stream sees).
struct Telemetry {
  std::string name;
  std::string bytes;
  std::vector<std::size_t> line_ends;  ///< one past each '\n'; [0] = header
  Reference ref;

  std::size_t data_lines() const { return line_ends.size() - 1; }
};

Reference reference_for(const std::string& name,
                        const thermal::TemperatureTrace& trace, Gate& gate);

std::uint64_t drive_seed(std::uint64_t seed, std::size_t array) {
  return seed * 1000003ULL + 17 * array + 5;
}

Telemetry make_telemetry(std::uint64_t seed, std::size_t array,
                         const std::string& work_dir, SpanRecorder* recorder,
                         Gate& gate) {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = kModules;
  config.segments.clear();
  for (std::size_t r = 0; r < kDriveRepeats; ++r) {
    for (const auto& segment : thermal::default_porter_cycle()) {
      config.segments.push_back(segment);
    }
  }
  config.seed = drive_seed(seed, array);
  thermal::TemperatureTrace generated;
  if (recorder != nullptr) {
    const ScopedSpan span(*recorder, span::kTrace, -1);
    generated = thermal::generate_trace(config);
  } else {
    generated = thermal::generate_trace(config);
  }
  if (recorder != nullptr) {
    recorder->count("thermal.samples", static_cast<double>(generated.num_steps()));
  }

  Telemetry t;
  t.name = "a" + std::to_string(array);
  const std::string path = work_dir + "/telemetry-" + t.name + ".csv";
  generated.save_csv(path);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  t.bytes = bytes.str();
  for (std::size_t i = 0; i < t.bytes.size(); ++i) {
    if (t.bytes[i] == '\n') t.line_ends.push_back(i + 1);
  }
  if (t.line_ends.size() < 2 || t.line_ends.back() != t.bytes.size()) {
    throw std::runtime_error("telemetry for " + t.name + " is not whole lines");
  }
  t.ref = reference_for(t.name, thermal::TemperatureTrace::load_csv(path), gate);
  return t;
}

constexpr std::size_t kAllLines = SIZE_MAX;

/// Hands over the header and then up to `data_lines` data lines, one line
/// per poll(), and stamps every poll.  stamps[0] is the header's
/// hand-over, stamps[k] data line k's, and the last stamp the poll that
/// found the end.
class LineFeed final : public sim::ByteFeed {
 public:
  LineFeed(const Telemetry& telemetry, std::size_t data_lines,
           const util::MonotonicTimer& epoch, std::vector<double>& stamps)
      : telemetry_(telemetry),
        limit_(std::min(data_lines, telemetry.data_lines()) + 1),
        epoch_(epoch),
        stamps_(stamps) {
    stamps_.clear();
    stamps_.reserve(limit_ + 1);
  }

  Status poll(std::string& chunk) override {
    stamps_.push_back(epoch_.seconds());
    if (next_ == limit_) return Status::kEnd;
    const std::size_t begin = next_ == 0 ? 0 : telemetry_.line_ends[next_ - 1];
    chunk.append(telemetry_.bytes, begin, telemetry_.line_ends[next_] - begin);
    ++next_;
    return Status::kData;
  }
  std::string describe() const override { return "perfbench:" + telemetry_.name; }

 private:
  const Telemetry& telemetry_;
  std::size_t limit_;
  std::size_t next_ = 0;
  const util::MonotonicTimer& epoch_;
  std::vector<double>& stamps_;
};

sim::StreamConfig array_config() {
  sim::StreamConfig config;  // DNOR at 0.5 s, every physics knob default
  config.dt_s = 0.5;
  config.num_modules = kModules;
  return config;
}

/// The server's decision line for one switched step (sim/stream_server's
/// documented JSONL shape), for the batch reference log.
std::string decision_line(const std::string& array, const sim::StepRecord& rec,
                          const std::vector<std::size_t>& group_starts) {
  util::json::Object obj;
  obj.emplace_back("array", array);
  obj.emplace_back("event", "decision");
  obj.emplace_back("time_s", rec.time_s);
  util::json::Array groups;
  for (std::size_t s : group_starts) groups.emplace_back(s);
  obj.emplace_back("group_starts", std::move(groups));
  obj.emplace_back("switch_actuations", rec.switch_actuations);
  obj.emplace_back("gross_power_w", rec.gross_power_w);
  obj.emplace_back("net_power_w", rec.net_power_w);
  return util::json::dump(util::json::Value(std::move(obj)));
}

Reference reference_for(const std::string& name,
                        const thermal::TemperatureTrace& trace, Gate& gate) {
  const sim::StreamConfig config = array_config();
  Reference ref;
  const auto batch_controller = sim::make_stream_controller(config);
  ref.result = sim::run_simulation(*batch_controller, trace, config.sim);

  // The log needs each decision's wiring, which only the stepper shows.
  const auto controller = sim::make_stream_controller(config);
  sim::SimStepper stepper(*controller, trace.dt_s(), trace.num_modules(), config.sim);
  sim::TraceSample sample;
  for (std::size_t k = 0; k < trace.num_steps(); ++k) {
    sample.time_s = static_cast<double>(k) * trace.dt_s();
    sample.module_temps_c = trace.step_temperatures(k);
    sample.ambient_c = trace.ambient_c(k);
    const sim::StepRecord rec = stepper.step(sample);
    if (rec.switched) {
      ref.lines.push_back(decision_line(name, rec, stepper.current_group_starts()));
    }
  }
  gate.check(same_decisions(stepper.result(), ref.result),
             "stepper loop and run_simulation disagree for " + name);
  return ref;
}

/// One StreamServer run over every array's telemetry.
struct ArrayRun {
  std::vector<double> stamps;
  sim::StreamArrayReport report;
  std::vector<std::string> lines;     ///< decision lines emitted this run
  std::vector<std::string> restored;  ///< lines handed to on_resume
};

struct ServerRun {
  std::vector<ArrayRun> arrays;
  double started_s = 0.0;  ///< epoch time before the server was built
  double wall_s = 0.0;     ///< construction to run() returning
  std::size_t warnings = 0;
};

/// Runs a fresh server over the first `arrays` of `telemetry`, each fed at
/// most `data_lines` data lines.  `resume` restores from the checkpoints
/// first.
ServerRun serve(const std::vector<Telemetry>& telemetry, std::size_t arrays,
                std::size_t data_lines, const std::string& ckpt_prefix,
                bool resume, const util::MonotonicTimer& epoch) {
  ServerRun out;
  out.arrays.resize(arrays);
  std::vector<std::string> emitted;
  out.started_s = epoch.seconds();
  {
    sim::StreamServerOptions options;
    options.warn = [&out](const std::string&) { ++out.warnings; };
    sim::StreamServer server(
        [&emitted](const std::string& line) { emitted.push_back(line); }, options);
    for (std::size_t a = 0; a < arrays; ++a) {
      sim::StreamArrayOptions array;
      array.name = telemetry[a].name;
      array.config = array_config();
      array.feed = std::make_unique<LineFeed>(telemetry[a], data_lines, epoch,
                                              out.arrays[a].stamps);
      array.checkpoint_path = ckpt_prefix + telemetry[a].name + ".ckpt";
      array.checkpoint_every_steps = kCheckpointEvery;
      array.resume = resume;
      array.on_resume = [&out, a](const std::vector<std::string>& lines) {
        out.arrays[a].restored = lines;
      };
      server.add_array(std::move(array));
    }
    std::vector<sim::StreamArrayReport> reports = server.run();
    for (std::size_t a = 0; a < arrays; ++a) {
      out.arrays[a].report = std::move(reports[a]);
    }
  }
  out.wall_s = epoch.seconds() - out.started_s;
  for (std::string& line : emitted) {
    for (ArrayRun& run : out.arrays) {
      const std::string prefix = "{\"array\":\"" + run.report.name + "\",";
      if (line.compare(0, prefix.size(), prefix) == 0) {
        run.lines.push_back(std::move(line));
        break;
      }
    }
  }
  return out;
}

std::vector<Telemetry> make_all_telemetry(std::uint64_t seed, const std::string& work_dir,
                                          SpanRecorder* recorder, Gate& gate) {
  std::vector<Telemetry> telemetry;
  for (std::size_t a = 0; a < kArrays; ++a) {
    telemetry.push_back(make_telemetry(seed, a, work_dir, recorder, gate));
  }
  return telemetry;
}

std::string digest_of(const std::vector<const sim::SimulationResult*>& results,
                      const std::vector<const std::vector<std::string>*>& logs) {
  std::vector<sim::SimulationResult> copies;
  for (const auto* r : results) copies.push_back(*r);
  std::vector<std::string> lines;
  for (const auto* log : logs) lines.insert(lines.end(), log->begin(), log->end());
  return result_digest(copies, lines);
}

/// Checks one full server run against the batch references and counts
/// its failed operations.
void audit_run(const ServerRun& run, const std::vector<Telemetry>& telemetry, Outcome& out,
               std::uint64_t& lines_attempted, std::uint64_t& lines_failed,
               std::uint64_t& runs_failed) {
  for (std::size_t a = 0; a < run.arrays.size(); ++a) {
    const ArrayRun& ar = run.arrays[a];
    const sim::StreamArrayReport& r = ar.report;
    const std::size_t handed = telemetry[a].data_lines();
    const std::size_t consumed = r.result.steps.size();
    lines_attempted += handed;
    lines_failed += (handed > consumed ? handed - consumed : 0) + r.gaps + r.out_of_order;
    const bool run_failed = !r.error.empty() || r.checkpointing_disabled;
    runs_failed += run_failed ? 1 : 0;
    out.gate.check(r.error.empty(), "array " + r.name + " failed: " + r.error);
    out.gate.check(same_decisions(r.result, telemetry[a].ref.result),
                   "streamed result of " + r.name + " differs from run_simulation");
    out.gate.check(ar.lines == telemetry[a].ref.lines,
                   "decision log of " + r.name + " differs from the batch reference");
  }
  out.gate.check(run.warnings == 0, "the server warned (a degraded run)");
}

Outcome timing_run(const RunArgs& args) {
  Outcome out;
  const util::MonotonicTimer epoch;
  const std::vector<Telemetry> telemetry =
      make_all_telemetry(args.seed, args.work_dir, nullptr, out.gate);

  // Every buffer the benchmark fills while measuring is sized and touched
  // here, so the peak-RSS growth below is the server's memory.
  std::size_t samples_per_run = 0;
  for (const Telemetry& t : telemetry) samples_per_run += t.data_lines();
  std::vector<double> service_ms(kMaxRuns * samples_per_run, 0.0);
  std::size_t service_samples = 0;
  std::vector<double> run_rates;  // samples consumed per second, per server run
  run_rates.reserve(kMaxRuns);
  std::vector<double> setup_s;
  setup_s.reserve(kMaxRuns * kSetupsPerRun);

  const bool peak_reset = reset_peak_rss();
  const double rss_baseline_mb = current_rss_mb();

  // Set-up: server and arrays built, up to the first sample consumed by
  // every array (its feed is then polled for the next line).  One set-up
  // takes well under a millisecond and thread start-up jitters it, so the
  // figure is the median of many, taken in bursts after every measured
  // server run so that they span the run like the throughput figure.  The
  // process's first server run also pays one-off costs (first thread,
  // first checkpoint file); it is a warm-up and is not counted.
  const auto set_up = [&](std::size_t count, bool counted) {
    for (std::size_t i = 0; i < count; ++i) {
      const ServerRun run = serve(telemetry, kArrays, 1, args.work_dir + "/setup-",
                                  false, epoch);
      double ready = 0.0;
      for (const ArrayRun& ar : run.arrays) {
        out.gate.check(ar.report.result.steps.size() == 1 && ar.stamps.size() == 3,
                       "a set-up run did not consume exactly one sample");
        if (ar.stamps.size() == 3) ready = std::max(ready, ar.stamps[2]);
      }
      if (counted) setup_s.push_back(ready - run.started_s);
    }
  };
  set_up(1, false);

  double measured_s = 0.0;
  std::uint64_t lines_attempted = 0, lines_failed = 0, runs_attempted = 0, runs_failed = 0;
  double harvest = 0.0;
  for (std::size_t runs = 0;
       (measured_s < args.seconds || runs < kMinRuns) && runs < kMaxRuns; ++runs) {
    const ServerRun run = serve(telemetry, kArrays, kAllLines,
                                args.work_dir + "/", false, epoch);
    measured_s += run.wall_s;
    runs_attempted += kArrays;
    audit_run(run, telemetry, out, lines_attempted, lines_failed, runs_failed);
    std::size_t steps = 0;
    for (const ArrayRun& ar : run.arrays) {
      steps += ar.report.result.steps.size();
      for (std::size_t k = 1; k + 1 < ar.stamps.size(); ++k) {
        if (service_samples == service_ms.size()) break;
        service_ms[service_samples++] = (ar.stamps[k + 1] - ar.stamps[k]) * 1e3;
      }
    }
    run_rates.push_back(static_cast<double>(steps) / run.wall_s);
    set_up(kSetupsPerRun, true);
    if (runs == 0) {
      double net = 0.0, ideal = 0.0;
      for (const ArrayRun& ar : run.arrays) {
        net += ar.report.result.energy_output_j;
        ideal += ar.report.result.ideal_energy_j;
      }
      harvest = ideal > 0.0 ? net / ideal : 0.0;
      out.gate.check_digest(
          args.digests, args.workload, args.seed,
          digest_of({&run.arrays[0].report.result, &run.arrays[1].report.result},
                    {&run.arrays[0].lines, &run.arrays[1].lines}));
    }
  }

  // Resume: a fresh server restores array a0 from its final checkpoint
  // and skips the whole replayed stream.
  std::vector<double> resume_s;
  for (std::size_t i = 0; i < kResumeRuns; ++i) {
    const ServerRun run = serve(telemetry, 1, kAllLines,
                                args.work_dir + "/", true, epoch);
    resume_s.push_back(run.wall_s);
    ++runs_attempted;
    const ArrayRun& ar = run.arrays[0];
    const bool failed = !ar.report.error.empty() || ar.report.checkpointing_disabled;
    runs_failed += failed ? 1 : 0;
    std::vector<std::string> log = ar.restored;
    log.insert(log.end(), ar.lines.begin(), ar.lines.end());
    out.gate.check(ar.report.resumed && ar.report.replayed == telemetry[0].data_lines(),
                   "the resumed array did not restore and skip the replayed stream");
    out.gate.check(log == telemetry[0].ref.lines,
                   "the resumed array's log differs from the uninterrupted one");
  }

  out.attempted = lines_attempted + runs_attempted;
  out.failed = lines_failed + runs_failed;
  out.metrics = {
      {"steps_per_s", median(run_rates), "steps/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb() - rss_baseline_mb, "MB"},
      {"harvest_ratio", harvest, "fraction"},
  };
  service_ms.resize(service_samples);
  const std::size_t n = service_ms.size();
  const double top = highest_supported_percentile(n);
  std::stringstream notes;
  notes.precision(6);
  const auto q = quartiles(run_rates);
  const auto qs = quartiles(setup_s);
  notes << "setup_s over " << setup_s.size() << " set-ups: q1 " << qs[0] << ", median "
        << qs[1] << ", q3 " << qs[2] << "\n";
  notes << "steps/s per server run (" << run_rates.size() << " runs): q1 " << q[0]
        << ", median " << q[1] << ", q3 " << q[2] << "\n"
        << "step_p50_ms: " << percentile(service_ms, 50.0) << " ms\n"
        << "step_p99_ms: " << percentile(service_ms, 99.0) << " ms\n"
        << "step_p999_ms: " << percentile(service_ms, 99.9) << " ms\n"
        << "step_samples: " << n << " (highest percentile with 10 samples beyond: p"
        << top << " = " << percentile(service_ms, top) << " ms)\n"
        << "resume_s: " << median(resume_s) << " s (median of " << resume_s.size() << ")\n"
        << "failed lines: " << lines_failed << " / " << lines_attempted
        << " telemetry lines; failed array runs: " << runs_failed << " / "
        << runs_attempted;
  notes << "\nRSS baseline: " << rss_baseline_mb << " MB (peak_rss_mb is the growth above it)";
  if (!peak_reset) notes << "\npeak RSS covers the whole process";
  for (std::string line; std::getline(notes, line);) out.notes.push_back(line);
  return out;
}

/// The server loop, mirrored with spans: poll -> step -> emit ->
/// encode_checkpoint -> atomic_write_file, then decode/restore_state.
struct Mirror {
  explicit Mirror(const util::MonotonicTimer& epoch) : recorder(epoch) {}
  SpanRecorder recorder;
  Gate gate;
  sim::SimulationResult result;
  std::vector<std::string> lines;
  double bytes_last = 0.0;
};

/// Mirrors one array's server loop.  A `full` pass also restores the
/// final checkpoint and replays the controller's calls into the layers.
void mirror_array(const Telemetry& t, std::int32_t run_id, const std::string& ckpt_path,
                  const util::MonotonicTimer& epoch, bool full, Mirror& m) {
  SpanRecorder& rec = m.recorder;
  const sim::StreamConfig config = array_config();
  const std::string stamp = sim::stream_config_fingerprint_text(config);
  const auto controller = sim::make_stream_controller(config);
  TracingReconfigurer traced(*controller, rec, run_id);
  sim::SimStepper stepper(traced, config.dt_s, config.num_modules, config.sim);
  sim::TelemetryOptions options;
  options.dt_s = config.dt_s;
  options.num_modules = config.num_modules;
  std::vector<double> stamps;
  sim::LineTelemetrySource source(
      std::make_unique<LineFeed>(t, kAllLines, epoch, stamps), options);

  std::size_t at_checkpoint = 0;
  const auto save = [&] {
    std::string content;
    {
      const ScopedSpan span(rec, span::kEncode, run_id);
      content = sim::encode_checkpoint(stepper.state(), stamp, m.lines);
    }
    {
      const ScopedSpan span(rec, span::kWrite, run_id);
      util::AtomicWriteOptions write_options;
      write_options.fault_site = "stream.checkpoint";
      util::atomic_write_file(ckpt_path, content, write_options);
    }
    rec.count("sim.checkpoint.saves");
    rec.count("sim.checkpoint.bytes_total", static_cast<double>(content.size()));
    m.bytes_last = static_cast<double>(content.size());
    at_checkpoint = stepper.steps_consumed();
  };
  {
    const ScopedSpan run(rec, span::kRun, run_id);
    while (true) {
      sim::TelemetryEvent event;
      {
        const ScopedSpan span(rec, span::kPoll, run_id);
        event = source.poll();
      }
      m.gate.check(event.issues.empty(), "telemetry incident on " + t.name);
      if (event.kind == sim::TelemetryEvent::Kind::kEnd) break;
      if (event.kind == sim::TelemetryEvent::Kind::kIdle) continue;
      sim::StepRecord step;
      {
        const ScopedSpan span(rec, span::kStep, run_id);
        step = stepper.step(event.sample);
      }
      if (step.switched) {
        const ScopedSpan span(rec, span::kEmit, run_id);
        m.lines.push_back(decision_line(t.name, step, stepper.current_group_starts()));
      }
      if (stepper.steps_consumed() - at_checkpoint >= kCheckpointEvery) save();
    }
    save();
  }
  m.result = stepper.result();
  rec.count("sim.telemetry.lines", static_cast<double>(t.data_lines()));
  rec.count("sim.stream.decision_lines", static_cast<double>(m.lines.size()));
  double log_bytes = 0.0;
  for (const std::string& line : m.lines) log_bytes += static_cast<double>(line.size() + 1);
  rec.count("sim.stream.log_bytes", log_bytes);
  if (!full) return;

  {
    const ScopedSpan span(rec, span::kRestore, run_id);
    const auto text = util::read_file_if_exists(ckpt_path);
    m.gate.check(text.has_value(), "checkpoint of " + t.name + " is missing");
    if (text) {
      const sim::DecodedCheckpoint decoded = sim::decode_checkpoint(*text, stamp);
      const auto restored_controller = sim::make_stream_controller(config);
      sim::SimStepper restored(*restored_controller, config.dt_s, config.num_modules,
                               config.sim);
      restored.restore_state(decoded.state);
      m.gate.check(decoded.extra_lines == m.lines &&
                       same_decisions(restored.result(), m.result),
                   "restored checkpoint of " + t.name + " differs from the live run");
    }
  }
  replay_layers(m.result.algorithm, traced.calls(), config.sim, config.num_modules,
                run_id, rec, m.gate);
}

/// One traced pass: the mirrored server loop on one thread per array,
/// like the server.
std::vector<std::unique_ptr<Mirror>> traced_pass(const std::vector<Telemetry>& telemetry,
                                                 const RunArgs& args,
                                                 const util::MonotonicTimer& epoch,
                                                 bool full) {
  std::vector<std::unique_ptr<Mirror>> mirrors;
  for (std::size_t a = 0; a < kArrays; ++a) mirrors.push_back(std::make_unique<Mirror>(epoch));
  std::vector<std::thread> threads;
  for (std::size_t a = 0; a < kArrays; ++a) {
    threads.emplace_back([&, a] {
      try {
        mirror_array(telemetry[a], static_cast<std::int32_t>(a),
                     args.work_dir + "/traced-" + telemetry[a].name + ".ckpt", epoch,
                     full, *mirrors[a]);
      } catch (const std::exception& e) {
        mirrors[a]->gate.check(false, std::string("traced mirror failed: ") + e.what());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return mirrors;
}

/// Samples consumed per second of a traced pass: from the first live
/// loop's start to the last one's end.
double traced_rate(const std::vector<std::unique_ptr<Mirror>>& mirrors) {
  double first = 0.0, last = 0.0, steps = 0.0;
  bool any = false;
  for (const auto& m : mirrors) {
    steps += static_cast<double>(m->result.steps.size());
    for (const Span& s : m->recorder.spans()) {
      if (std::string_view(s.name) != span::kRun) continue;
      first = any ? std::min(first, s.start_s) : s.start_s;
      last = any ? std::max(last, s.end_s) : s.end_s;
      any = true;
    }
  }
  return last > first ? steps / (last - first) : 0.0;
}

Outcome traced_run(const RunArgs& args) {
  Outcome out;
  const util::MonotonicTimer epoch;
  SpanRecorder recorder(epoch);
  const std::vector<Telemetry> telemetry =
      make_all_telemetry(args.seed, args.work_dir, &recorder, out.gate);
  out.gate.check_digest(args.digests, args.workload, args.seed,
                        digest_of({&telemetry[0].ref.result, &telemetry[1].ref.result},
                                  {&telemetry[0].ref.lines, &telemetry[1].ref.lines}));

  // Untraced runs of the real server alternate with traced passes; the
  // overhead is the median of the pairs' rate ratios, and the order
  // within a pair alternates so a drift in host speed favours neither.
  // The first traced pass is the one whose spans are reported.
  std::uint64_t lines_attempted = 0, lines_failed = 0, runs_failed = 0;
  std::vector<double> ratios;
  for (std::size_t pair = 0; pair < kOverheadPairs; ++pair) {
    double untraced = 0.0, traced = 0.0;
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (pair % 2 == 0)) {
        const ServerRun run = serve(telemetry, kArrays, kAllLines, args.work_dir + "/",
                                    false, epoch);
        audit_run(run, telemetry, out, lines_attempted, lines_failed, runs_failed);
        double steps = 0.0;
        for (const ArrayRun& ar : run.arrays) {
          steps += static_cast<double>(ar.report.result.steps.size());
        }
        untraced = steps / run.wall_s;
        continue;
      }
      const auto mirrors = traced_pass(telemetry, args, epoch, pair == 0);
      traced = traced_rate(mirrors);
      for (std::size_t a = 0; a < kArrays; ++a) {
        const Mirror& m = *mirrors[a];
        for (const std::string& problem : m.gate.problems()) out.gate.check(false, problem);
        out.gate.check(same_decisions(m.result, telemetry[a].ref.result) &&
                           m.lines == telemetry[a].ref.lines,
                       "traced decisions of " + telemetry[a].name +
                           " differ from the untraced ones");
      }
      if (pair != 0) continue;
      double bytes_last = 0.0;
      for (const auto& m : mirrors) {
        recorder.merge(m->recorder);
        bytes_last = std::max(bytes_last, m->bytes_last);
      }
      recorder.count("sim.checkpoint.bytes_last", bytes_last);
    }
    ratios.push_back(traced / untraced);
  }
  out.attempted = lines_attempted + kArrays * kOverheadPairs;
  out.failed = lines_failed + runs_failed;
  out.metrics = layer_metrics(recorder, median(ratios));
  write_spans_csv(args.out_dir + "/spans-" + args.workload + ".csv", recorder.spans());
  return out;
}

}  // namespace

std::string stream_digest(std::uint64_t seed, const std::string& work_dir) {
  Gate gate;
  const std::vector<Telemetry> t = make_all_telemetry(seed, work_dir, nullptr, gate);
  if (!gate.correct()) throw std::runtime_error(gate.problems().front());
  return digest_of({&t[0].ref.result, &t[1].ref.result}, {&t[0].ref.lines, &t[1].ref.lines});
}

Outcome run_stream(const RunArgs& args) {
  return args.trace ? traced_run(args) : timing_run(args);
}

}  // namespace perfbench
