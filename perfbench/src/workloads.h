// The benchmark's five workloads, each driven through the simulator's
// public assembly API by the benchmark's own clients, so every call into a
// layer can be timed from outside the program.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ledger.h"

namespace perfbench {

enum class WorkloadId : std::uint8_t {
  kRpcInet1024,    // star RPC, 1024 nodes, 2 segments, classic engine
  kPoolOpen128,    // open-loop Poisson load on an anycast pool of 8
  kDirectory64,    // name-server bind + list storm, 64 nodes
  kChaosSweep,     // overload / pool_failover / gateway_flap seed sweep
  kParInet1024x4,  // star RPC, 1024 nodes, 4 segments, concurrent engine
};

std::optional<WorkloadId> parse_workload(std::string_view name);
const char* workload_name(WorkloadId w);
std::vector<WorkloadId> all_workloads();

struct RepOptions {
  std::uint64_t seed = 1;
  SpanLog* spans = nullptr;  // a disabled log makes an untraced rep
  int parent_span = -1;
};

/// What one repetition of a workload measured. Host times vary from rep to
/// rep; everything else is a pure function of (workload, seed).
struct Rep {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;

  // Operation outcomes. attempted == ok + timedout + crashed + other +
  // unfinished is part of the correctness gate.
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t timedout = 0;
  std::uint64_t crashed = 0;
  std::uint64_t other = 0;
  std::uint64_t unfinished = 0;
  std::uint64_t wrong = 0;       // finished OK with a wrong result
  std::uint64_t parity_ops = 0;  // successes as scale::run_harness counts them
  std::vector<double> latency_us;  // every finished op, simulated time
  double sim_s = 0;                // simulated seconds the ops ran over
  double gen_lag_us_max = 0;       // open loop: latest issue past due time

  // Determinism and correctness.
  std::uint64_t hash = 0;
  std::uint64_t events = 0;  // engine events executed
  std::uint64_t frames = 0;  // bus frames sent
  std::uint64_t violations = 0;
  std::uint64_t lookahead_violations = 0;
  std::string error;  // non-empty: this rep failed the correctness gate

  /// Per-layer values, filled by traced reps.
  std::map<std::string, double> layer;
  std::vector<OpSplit> splits;  // traced reps: one per finished op
};

Rep run_rep(WorkloadId w, const RepOptions& o);

/// par_inet_1024x4 only: the serial windowed replay of the same run, which
/// every concurrent rep must reproduce bit-identically (trace hash).
Rep run_windowed_reference(const RepOptions& o);

/// rpc_inet_1024 and directory_64: run scale::run_harness with the same
/// options and compare its event, frame and op counts and trace hash with
/// `mine`. Returns an error message, or "" when they agree (or the
/// workload has no harness twin).
std::string crosscheck_harness(WorkloadId w, std::uint64_t seed,
                               const Rep& mine);

}  // namespace perfbench
