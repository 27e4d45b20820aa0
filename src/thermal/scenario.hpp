// Named workload scenarios — the library's scenario vocabulary.
//
// A scenario is a complete, ready-to-run TraceGeneratorConfig under a
// stable name: the paper's 800 s pickup drive, signalised stop-start
// traffic, a winter cold start, and the industrial duty cycles (boiler
// economiser, batch kiln) the paper's conclusion points at.  Names are the
// unit of reuse across the whole stack: `ExperimentSpec` serialises
// `trace.scenario = <name>` (sim/spec.hpp) alongside the resolved
// generator config, `tegrec_cli simulate|trace|montecarlo --scenario`
// resolves them, and bench_scenarios runs the comparison table across the
// entire catalog.  Because a scenario spec is content-addressed like any
// other, every named workload can be cached, swept and batch-run for
// free.
//
// Editing a scenario's definition changes the canonical text of every spec
// built from it, so stale cached results miss instead of lying.
#pragma once

#include <string>
#include <vector>

#include "thermal/trace.hpp"

namespace tegrec::thermal {

/// Catalog entry: the name `scenario()` resolves plus a one-line summary
/// for docs, CLI listings and bench output.
struct ScenarioInfo {
  std::string name;
  std::string description;
};

/// Resolves a scenario name to its full generator config.  Throws
/// std::invalid_argument for unknown names, listing what exists.
TraceGeneratorConfig scenario(const std::string& name);

/// True if `name` is a registered scenario.
bool has_scenario(const std::string& name);

/// All registered scenario names, sorted.
std::vector<std::string> scenario_names();

/// The full catalog (sorted by name) for docs/bench/CLI listings.
const std::vector<ScenarioInfo>& scenario_catalog();

}  // namespace tegrec::thermal
