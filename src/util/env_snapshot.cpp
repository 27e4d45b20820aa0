#include "util/env_snapshot.hpp"

#include <cstdlib>
#include <map>
#include <stdexcept>

namespace tegrec::util {

namespace {

/// Every environment variable the process reads.  Closed list: a raw
/// getenv anywhere else has no excuse to exist.
constexpr const char* kKnownVariables[] = {
    "TEGREC_FAULTS",  // process-wide fault-injection plan
};

const std::map<std::string, std::string>& snapshot() {
  // The one getenv site in the repo.  It runs once, under this
  // static-local initialisation guard, and its consumer
  // (process_faults()) calls through here before spawning any thread —
  // so the read can never race a setenv from another thread.
  static const std::map<std::string, std::string> values = [] {
    std::map<std::string, std::string> snap;
    for (const char* name : kKnownVariables) {
      // NOLINTNEXTLINE(concurrency-mt-unsafe) -- one-shot, pre-thread read
      if (const char* value = std::getenv(name)) snap.emplace(name, value);
    }
    return snap;
  }();
  return values;
}

}  // namespace

std::optional<std::string> env_snapshot(const std::string& name) {
  bool known = false;
  for (const char* candidate : kKnownVariables) {
    if (name == candidate) {
      known = true;
      break;
    }
  }
  if (!known) {
    throw std::logic_error("env_snapshot: '" + name +
                           "' is not in the known-variable table "
                           "(util/env_snapshot.cpp); add it there so the "
                           "one-shot snapshot keeps covering every read");
  }
  const auto& values = snapshot();
  const auto it = values.find(name);
  if (it == values.end()) return std::nullopt;
  return it->second;
}

}  // namespace tegrec::util
