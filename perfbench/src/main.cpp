// perfbench: runs one workload of the repository benchmark and prints its
// metrics, ending with one JSON line:
//   {"correct": ..., "attempted": N, "failed": M, "metrics": {name: {value, unit}}}
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--digests FILE]
//   perfbench --workload NAME --seed FIRST --record-digests LAST
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// per-layer pass instead and writes its spans under .bench_out/.
// --record-digests prints the digest-table lines for seeds FIRST..LAST
// without timing anything.  Scratch files live in .bench_run/ while a run
// lasts.

#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "workload.hpp"

namespace {

namespace fs = std::filesystem;
using perfbench::Outcome;
using perfbench::RunArgs;

constexpr const char* kStreamWorkload = "stream_drive_ckpt";

std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_result(const Outcome& out) {
  std::string json = "{\"correct\": ";
  json += out.gate.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + format_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  return json + "}}";
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--digests FILE]\n"
               "       perfbench --workload NAME --seed FIRST --record-digests LAST\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return usage("bad argument " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  const auto flag = [&](const std::string& key, const std::string& fallback) {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  };
  for (const auto& [key, value] : flags) {
    if (key != "workload" && key != "seed" && key != "seconds" && key != "trace" &&
        key != "digests" && key != "record-digests") {
      return usage("unknown flag --" + key);
    }
  }

  RunArgs args;
  args.workload = flag("workload", "");
  const bool stream = args.workload == kStreamWorkload;
  if (!stream && !perfbench::is_batch_workload(args.workload)) {
    return usage("unknown workload '" + args.workload + "'");
  }
  try {
    args.seed = std::stoull(flag("seed", "0"));
    args.seconds = std::stod(flag("seconds", "10"));
    args.trace = flag("trace", "0") == "1";
    args.work_dir = ".bench_run/" + args.workload + "-" + std::to_string(::getpid());
    args.out_dir = ".bench_out";
    fs::create_directories(args.work_dir);
    fs::create_directories(args.out_dir);

    const auto digest_of = [&](std::uint64_t seed) {
      return stream ? perfbench::stream_digest(seed, args.work_dir)
                    : perfbench::batch_digest(args.workload, seed);
    };
    if (flags.count("record-digests") != 0) {
      const std::uint64_t last = std::stoull(flags["record-digests"]);
      for (std::uint64_t seed = args.seed; seed <= last; ++seed) {
        std::cout << args.workload << ' ' << seed << ' ' << digest_of(seed) << std::endl;
      }
      fs::remove_all(args.work_dir);
      return 0;
    }

    args.digests = perfbench::load_digest_table(flag("digests", "perfbench/digests.txt"));
    Outcome out = stream ? perfbench::run_stream(args) : perfbench::run_batch(args);
    std::string digest_status = out.gate.digest_status();
    if (digest_status == "unrecorded") {
      // Outside anything timed: check a recorded seed instead, so a
      // change of results cannot pass on an unrecorded seed.
      const auto recorded = perfbench::recorded_seed(args.digests, args.workload, args.seed);
      out.gate.check(recorded.has_value(), "no result digest is recorded for " + args.workload);
      if (recorded) {
        out.gate.check_digest(args.digests, args.workload, *recorded, digest_of(*recorded));
        digest_status = out.gate.digest_status() + " (seed " + std::to_string(*recorded) +
                        ", checked because seed " + std::to_string(args.seed) +
                        " is unrecorded)";
      }
    }
    fs::remove_all(args.work_dir);

    std::cout << "workload: " << args.workload << "  seed: " << args.seed
              << "  trace: " << (args.trace ? 1 : 0) << '\n';
    for (const std::string& note : out.notes) std::cout << note << '\n';
    for (const auto& m : out.metrics) {
      std::cout << m.name << ": " << format_number(m.value) << ' ' << m.unit << '\n';
    }
    std::cout << "result digest: " << digest_status << '\n';
    std::cout << "failed_frac: " << out.failed << " / " << out.attempted << '\n';
    for (const std::string& problem : out.gate.problems()) {
      std::cout << "INCORRECT: " << problem << '\n';
    }
    std::cout << "correct: " << (out.gate.correct() ? "yes" : "NO") << '\n';
    std::cout << json_result(out) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::error_code ignored;
    fs::remove_all(args.work_dir, ignored);
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
