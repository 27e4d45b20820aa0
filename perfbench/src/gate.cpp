#include "gate.hpp"

#include <bit>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/hash.hpp"

namespace perfbench {

namespace {

using tegrec::sim::SimulationResult;
using tegrec::sim::StepRecord;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_step(const StepRecord& a, const StepRecord& b) {
  return same_bits(a.time_s, b.time_s) &&
         same_bits(a.gross_power_w, b.gross_power_w) &&
         same_bits(a.net_power_w, b.net_power_w) &&
         same_bits(a.ideal_power_w, b.ideal_power_w) &&
         a.invoked == b.invoked && a.switched == b.switched &&
         a.switch_actuations == b.switch_actuations &&
         same_bits(a.overhead_energy_j, b.overhead_energy_j);
}

std::uint64_t mix(std::uint64_t state, double value) {
  return tegrec::util::fnv1a64_double(value, state);
}

std::uint64_t mix(std::uint64_t state, std::uint64_t value) {
  return tegrec::util::fnv1a64(&value, sizeof value, state);
}

}  // namespace

bool same_decisions(const SimulationResult& a, const SimulationResult& b) {
  if (a.algorithm != b.algorithm || a.steps.size() != b.steps.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    if (!same_step(a.steps[i], b.steps[i])) return false;
  }
  return same_bits(a.energy_output_j, b.energy_output_j) &&
         same_bits(a.switch_overhead_j, b.switch_overhead_j) &&
         same_bits(a.ideal_energy_j, b.ideal_energy_j) &&
         a.num_invocations == b.num_invocations &&
         a.num_switch_events == b.num_switch_events &&
         a.total_switch_actuations == b.total_switch_actuations &&
         same_bits(a.battery_energy_j, b.battery_energy_j) &&
         same_bits(a.final_soc, b.final_soc);
}

std::string result_digest(const std::vector<SimulationResult>& results,
                          const std::vector<std::string>& lines) {
  std::uint64_t h = tegrec::util::kFnv1aOffsetBasis;
  for (const SimulationResult& r : results) {
    h = tegrec::util::fnv1a64(std::string_view(r.algorithm), h);
    h = mix(h, static_cast<std::uint64_t>(r.steps.size()));
    for (const StepRecord& s : r.steps) {
      h = mix(h, s.time_s);
      h = mix(h, s.gross_power_w);
      h = mix(h, s.net_power_w);
      h = mix(h, s.ideal_power_w);
      h = mix(h, static_cast<std::uint64_t>(s.invoked) * 2 +
                     static_cast<std::uint64_t>(s.switched));
      h = mix(h, static_cast<std::uint64_t>(s.switch_actuations));
      h = mix(h, s.overhead_energy_j);
    }
    h = mix(h, r.energy_output_j);
    h = mix(h, r.switch_overhead_j);
    h = mix(h, r.ideal_energy_j);
    h = mix(h, static_cast<std::uint64_t>(r.num_invocations));
    h = mix(h, static_cast<std::uint64_t>(r.num_switch_events));
    h = mix(h, static_cast<std::uint64_t>(r.total_switch_actuations));
    h = mix(h, r.battery_energy_j);
    h = mix(h, r.final_soc);
  }
  for (const std::string& line : lines) {
    h = tegrec::util::fnv1a64(std::string_view(line), h);
    h = tegrec::util::fnv1a64(std::string_view("\n"), h);
  }
  return tegrec::util::hex64(h);
}

DigestTable parse_digest_table(const std::string& text) {
  DigestTable table;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string workload;
    std::uint64_t seed = 0;
    std::string digest;
    if (!(fields >> workload)) continue;  // blank or comment-only
    std::string extra;
    if (!(fields >> seed >> digest) || (fields >> extra)) {
      throw std::runtime_error("digest table line " + std::to_string(line_no) +
                               ": expected `workload seed digest`");
    }
    table[{workload, seed}] = digest;
  }
  return table;
}

DigestTable load_digest_table(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest table " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_digest_table(text.str());
}

std::optional<std::uint64_t> recorded_seed(const DigestTable& table,
                                           const std::string& workload,
                                           std::uint64_t seed) {
  std::vector<std::uint64_t> seeds;
  for (const auto& entry : table) {
    if (entry.first.first == workload) seeds.push_back(entry.first.second);
  }
  if (seeds.empty()) return std::nullopt;
  return seeds[seed % seeds.size()];
}

void Gate::check_digest(const DigestTable& table, const std::string& workload,
                        std::uint64_t seed, const std::string& digest) {
  const auto it = table.find({workload, seed});
  if (it == table.end()) {
    digest_status_ = "unrecorded";
  } else if (it->second == digest) {
    digest_status_ = "match";
  } else {
    digest_status_ = "mismatch";
    check(false, "result digest " + digest + " differs from the one recorded for " +
                     workload + " seed " + std::to_string(seed));
  }
}

}  // namespace perfbench
