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
#include <bit>
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
/// segment, or by node on a single bus) and executes the epoch-2 window
/// protocol: partition-local RNG streams split from the root seed,
/// receiver-side bus fault draws, per-serial unique-id sequences, and
/// barrier-merged traces. Epoch 1 was the shared-stream serial engine;
/// its pinned hashes are not comparable to epoch-2 ones, which is why
/// chaos/bench JSONL rows carry this number.
inline constexpr int kHashEpoch = 2;

/// Which engine drives the run. Both execute the identical epoch-2
/// window protocol over the identical window boundaries and produce
/// bit-identical event, RNG, and trace order (proven by
/// tests/test_parallel_sim.cc and the pinned hashes in
/// tests/test_determinism.cc). kSerial walks the windows one partition
/// at a time and is the reference; kParallel executes each window's
/// partitions concurrently on a worker pool and moves the observer path
/// onto an async in-order pipeline (sim::ParallelEngine /
/// sim::AsyncTraceSink).
enum class EngineMode { kSerial, kParallel };

struct RunOptions {
  /// Retain the full event vector in RunResult (single-seed debugging;
  /// sweeps leave it off and rely on the streaming observer).
  bool keep_events = false;
  EngineMode engine = EngineMode::kSerial;
  /// Parallel-engine worker pool size (prefetch + fold); 0 = hardware.
  int workers = 0;
  /// Replace the serial FNV trace chain with the commutative
  /// sim::TraceFold digest (parallel-reducible, order-checked against the
  /// serial engine by compare_engines). trace_hash is 0 in this mode.
  bool sampled_fold = false;
};

struct RunResult {
  std::uint64_t seed = 0;
  std::uint64_t trace_hash = 0;
  /// sim::TraceFold digest over the same ten fields (set when
  /// sampled_fold, or always under the parallel engine's fold workers).
  std::uint64_t sampled_digest = 0;
  /// Cross-partition schedules closer than the declared lookahead window
  /// (counted identically by both engines; stays 0 for every shipped
  /// topology).
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
  /// Per-run options (engine, workers, sampled fold) applied to every
  /// seed in the sweep.
  RunOptions run;
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

/// Differential serial-vs-parallel check for one (scenario, seed). Fast
/// pass: both engines run in sampled-fold mode and their commutative
/// digests are compared. On mismatch a replay pass reruns both with the
/// full ordered FNV fold and retained events to localize the first
/// divergent event index — the sampled mode's safety net.
struct EngineComparison {
  std::uint64_t serial_digest = 0;
  std::uint64_t parallel_digest = 0;
  bool digests_match = false;
  std::uint64_t parallel_lookahead_violations = 0;
  bool replayed = false;  // digest mismatch triggered the full-fold replay
  std::uint64_t serial_hash = 0;    // replay pass only
  std::uint64_t parallel_hash = 0;  // replay pass only
  /// Index of the first differing trace event (replay pass; SIZE_MAX when
  /// the replayed streams agree after all — a fold collision).
  std::size_t first_divergence = static_cast<std::size_t>(-1);
  bool ok() const { return digests_match; }
};

EngineComparison compare_engines(const Scenario& scenario, std::uint64_t seed,
                                 int workers = 0,
                                 const InvariantFactory& extra = nullptr);

/// Greedily remove faults from a failing (scenario, seed) while the run
/// keeps violating at least one of the originally-violated invariants.
/// Returns the scenario unchanged when the pair doesn't fail. `runs_used`
/// (optional) reports how many candidate runs the search spent.
Scenario shrink_failure(const Scenario& scenario, std::uint64_t seed,
                        const InvariantFactory& extra = nullptr,
                        int* runs_used = nullptr);

/// FNV-1a accumulation of one trace event into `h`; fold events in order
/// starting from kTraceHashSeed to fingerprint a whole run. Inline: this
/// runs once per trace event inside the observer.
inline constexpr std::uint64_t kTraceHashSeed = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

namespace detail {

/// kFnvPowers[k] = P^k mod 2^64. A zero byte's step is a bare multiply
/// by P, so k trailing zero bytes fold into one multiply by P^k.
inline constexpr auto kFnvPowers = [] {
  std::array<std::uint64_t, 9> p{};
  p[0] = 1;
  for (std::size_t k = 1; k < p.size(); ++k) p[k] = p[k - 1] * kFnvPrime;
  return p;
}();

/// kFnvAllOnes[l] = fnv_u64(l, ~0) - l * P^8 for every low byte l. XOR
/// with 0xff adds 255 - 2 * (h & 0xff) to h, and the low byte of a
/// product mod 2^64 depends only on the low bytes of its factors, so
/// every step's addend is a function of the starting low byte alone.
inline constexpr auto kFnvAllOnes = [] {
  std::array<std::uint64_t, 256> t{};
  for (std::uint64_t l = 0; l < t.size(); ++l) {
    std::uint64_t h = l;
    for (int i = 0; i < 8; ++i) h = (h ^ 0xff) * kFnvPrime;
    t[l] = h - l * kFnvPowers[8];
  }
  return t;
}();

}  // namespace detail

/// FNV-1a over the eight little-endian bytes of `v`, bit-identical to one
/// xor-multiply per byte but with a shorter dependent chain: the zero high
/// bytes of a small field fold into one multiply by P^k, and the "n/a"
/// value -1 (all ones) is one multiply plus a table lookup.
inline std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  if (v == ~0ull) {
    return h * detail::kFnvPowers[8] + detail::kFnvAllOnes[h & 0xff];
  }
  const int bytes = (71 - std::countl_zero(v)) / 8;  // significant low bytes
  for (int i = 0; i < bytes; ++i) {
    h = (h ^ (v & 0xff)) * kFnvPrime;
    v >>= 8;
  }
  return h * detail::kFnvPowers[8 - bytes];
}

inline std::uint64_t hash_event(std::uint64_t h, const sim::TraceEvent& e) {
  h = fnv_u64(h, static_cast<std::uint64_t>(e.at));
  h = fnv_u64(h, static_cast<std::uint64_t>(e.category));
  h = fnv_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.node)));
  h = fnv_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.peer)));
  h = fnv_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.tid)));
  h = fnv_u64(h,
              static_cast<std::uint64_t>(static_cast<std::int64_t>(e.pattern)));
  h = fnv_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.size)));
  h = fnv_u64(h, static_cast<std::uint64_t>(e.sections));
  h = fnv_u64(h, static_cast<std::uint64_t>(e.status));
  h = fnv_u64(h, static_cast<std::uint64_t>(e.detail_i64(-1)));
  return h;
}

}  // namespace soda::chaos
