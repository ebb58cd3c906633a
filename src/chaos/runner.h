// The chaos runner: execute one (scenario, seed) deterministically, fan a
// scenario across many seeds on a thread pool, and shrink a failing fault
// schedule to a minimal one.
//
// Determinism contract: a run is a pure function of (scenario, seed) —
// every simulation owns its Simulator/Rng/Network, nothing is shared, so
// re-running any failing pair reproduces the identical event stream and
// trace hash. That also makes the seed sweep embarrassingly parallel.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "chaos/invariants.h"
#include "chaos/scenario.h"
#include "sim/trace.h"

namespace soda::chaos {

/// Extra checkers appended to InvariantSet::standard() for each run. A
/// factory (not a set) because every run needs fresh checker state.
using InvariantFactory =
    std::function<std::vector<std::unique_ptr<Invariant>>()>;

struct RunStats {
  std::uint64_t requests_issued = 0;
  std::uint64_t requests_completed = 0;  // terminal events, any status
  std::uint64_t ok_completions = 0;      // terminal status kCompleted
  std::uint64_t crashed_completions = 0;
  std::uint64_t timedout_completions = 0;  // retry budget exhausted
  /// Sequenced frames the Delta-t machinery re-answered from connection
  /// state instead of redelivering (stats::Counter::kDuplicatesSuppressed
  /// summed over all nodes) — one of the protocol statistics the fleet
  /// harness cross-checks between real and simulated runs.
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t frames_duplicated = 0;
  std::uint64_t events = 0;  // trace events recorded
};

/// Pinned-trace-hash epoch. Every chaos run partitions the simulator (by
/// segment, or by node on a single bus) on the single wheel: events pop
/// in global (time, seq) order, each partition draws from its own RNG
/// stream split from the root seed, bus fault draws happen at the
/// receiver, unique ids come from per-serial sequences, and the trace is
/// folded word-wise by hash_event. Epoch 1 was the shared-stream serial
/// engine; epoch 2 walked lookahead windows one partition at a time and
/// folded bytes with FNV-1a. Hashes of different epochs are not
/// comparable, which is why chaos/bench JSONL rows carry this number.
inline constexpr int kHashEpoch = 3;

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

/// Fold one trace event into the running hash `h`; fold events in order
/// starting from kTraceHashSeed to fingerprint a whole run. Inline: this
/// runs once per trace event inside the observer.
inline constexpr std::uint64_t kTraceHashSeed = 1469598103934665603ull;

namespace detail {

/// One odd multiplier per field, so each field's product is a bijection
/// of the field and equal values in different fields weigh differently.
inline constexpr std::array<std::uint64_t, 10> kFieldMul = {
    0x9E3779B97F4A7C15ull, 0xBF58476D1CE4E5B9ull, 0x94D049BB133111EBull,
    0xC2B2AE3D27D4EB4Full, 0x165667B19E3779F9ull, 0x85EBCA77C2B2AE63ull,
    0x27D4EB2F165667C5ull, 0x9E3779B185EBCA87ull, 0xD6E8FEB86659FD93ull,
    0xFF51AFD7ED558CCDull};
inline constexpr std::uint64_t kChainMul = 0xC4CEB9FE1A85EC53ull;
static_assert(
    [] {
      for (std::uint64_t m : kFieldMul) {
        if ((m & 1) == 0) return false;
      }
      return (kChainMul & 1) == 1;
    }(),
    "every multiplier must be odd, or a step stops being a bijection");

}  // namespace detail

/// Word-wise fold (hash epoch 3): one multiply per 64-bit field. The ten
/// products do not depend on `h`, so they issue in parallel; their sum
/// enters the chain through one xor-multiply-xorshift. Every step is a
/// bijection in each single input, so changing any one field of an event
/// always changes the result, and the non-linear chain makes the result
/// depend on event order.
inline std::uint64_t hash_event(std::uint64_t h, const sim::TraceEvent& e) {
  const std::array<std::uint64_t, 10> fields = {
      static_cast<std::uint64_t>(e.at),
      static_cast<std::uint64_t>(e.category),
      static_cast<std::uint64_t>(static_cast<std::int64_t>(e.node)),
      static_cast<std::uint64_t>(static_cast<std::int64_t>(e.peer)),
      static_cast<std::uint64_t>(static_cast<std::int64_t>(e.tid)),
      static_cast<std::uint64_t>(static_cast<std::int64_t>(e.pattern)),
      static_cast<std::uint64_t>(static_cast<std::int64_t>(e.size)),
      static_cast<std::uint64_t>(e.sections),
      static_cast<std::uint64_t>(e.status),
      static_cast<std::uint64_t>(e.detail_i64(-1))};
  std::uint64_t d = 0;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    d += fields[i] * detail::kFieldMul[i];
  }
  h = (h ^ d) * detail::kChainMul;
  return h ^ (h >> 32);
}

}  // namespace soda::chaos
