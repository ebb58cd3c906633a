// The chaos runner: execute one (scenario, seed) deterministically, fan a
// scenario across many seeds on a thread pool, and shrink a failing fault
// schedule to a minimal one.
//
// Determinism contract: a run is a pure function of (scenario, seed) —
// every simulation owns its Simulator/Rng/Network, nothing is shared, so
// re-running any failing pair reproduces the identical event stream and
// trace hash. That also makes the seed sweep embarrassingly parallel.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "chaos/observer.h"
#include "chaos/scenario.h"
#include "sim/trace.h"

namespace soda::chaos {

/// Extra checkers appended to InvariantSet::standard() for each run. A
/// factory (not a set) because every run needs fresh checker state.
using InvariantFactory =
    std::function<std::vector<std::unique_ptr<Invariant>>()>;

struct RunOptions {
  /// Retain the full event vector in RunResult (single-seed debugging;
  /// sweeps leave it off and rely on the streaming observer).
  bool keep_events = false;
};

struct RunResult {
  std::uint64_t seed = 0;
  std::uint64_t trace_hash = 0;
  /// Cross-partition schedules closer than a window's lookahead. The
  /// single wheel has no windows, so this is always 0; it stays for
  /// readers of earlier rows (perfbench gates on it).
  std::uint64_t lookahead_violations = 0;
  RunStats stats;
  std::vector<Violation> violations;
  /// Non-fatal configuration diagnostics — e.g. a timer-skew pair outside
  /// the Delta-t at-most-once envelope (doc/OVERLOAD.md). The run still
  /// executes; an at-most-once violation that follows is expected.
  std::vector<std::string> warnings;
  std::vector<sim::TraceEvent> events;  // populated iff keep_events

  bool ok() const { return violations.empty(); }
};

/// Execute one deterministic run.
RunResult run_scenario(const Scenario& scenario, std::uint64_t seed,
                       const InvariantFactory& extra = nullptr,
                       const RunOptions& options = {});

struct SweepOptions {
  std::uint64_t first_seed = 1;
  int seeds = 100;
  int jobs = 0;           // 0 = hardware_concurrency
  int max_failures = 16;  // stop launching new runs once collected
  /// Called (serialized) as each failure surfaces — lets the CLI stream.
  std::function<void(const RunResult&)> on_failure;
};

struct SweepResult {
  int ran = 0;
  std::vector<RunResult> failures;  // sorted by seed
  bool ok() const { return failures.empty(); }
};

/// Fan `scenario` across seeds [first_seed, first_seed + seeds) on a
/// thread pool. Each run is independent; results are deterministic per
/// (scenario, seed) regardless of thread count.
SweepResult sweep_scenario(const Scenario& scenario,
                           const SweepOptions& options,
                           const InvariantFactory& extra = nullptr);

/// Greedily remove faults from a failing (scenario, seed) while the run
/// keeps violating at least one of the originally-violated invariants.
/// Returns the scenario unchanged when the pair doesn't fail. `runs_used`
/// (optional) reports how many candidate runs the search spent.
Scenario shrink_failure(const Scenario& scenario, std::uint64_t seed,
                        const InvariantFactory& extra = nullptr,
                        int* runs_used = nullptr);

}  // namespace soda::chaos
