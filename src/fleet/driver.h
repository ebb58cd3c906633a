// The soda_fleet driver: forks/execs one soda_node worker process per
// scenario node, assembles the membership map (MID -> UDP port), runs the
// scale-harness workload over real sockets, injects process-level chaos
// (SIGKILL / SIGSTOP / SIGCONT on the fault schedule), reboots killed
// workers through the §3.5 BOOT/LOAD network-boot path via an in-driver
// boot-parent node, and merges every worker's trace stream into the
// chaos::InvariantSet (doc/FLEET.md, incl. the merge-order caveat).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "chaos/scenario.h"
#include "sim/trace.h"

namespace soda::fleet {

struct FleetOptions {
  chaos::Scenario scenario;
  std::uint64_t seed = 1;
  /// Simulated microseconds per wall microsecond, every process alike.
  double speedup = 10.0;
  /// Extra uniform receive-drop probability injected at every worker (on
  /// top of the scenario's scheduled loss windows).
  double drop = 0.0;
  /// Path to the soda_node worker binary.
  std::string worker_path = "soda_node";
  /// Wall budget = scenario.end_time()/speedup * wall_factor + 5 s.
  double wall_factor = 2.0;
  bool verbose = false;
};

struct FleetResult {
  /// The environment forbids fork/sockets: not a protocol result at all.
  bool skipped = false;
  std::string skip_reason;

  bool ran = false;       // workers launched and the scenario executed
  bool finished = true;   // every surviving worker reached scenario end
  int wedged = 0;         // live workers that never finished/reported
  int unexpected_exits = 0;  // deaths we did not schedule
  int reboots = 0;           // re-exec'd workers that rejoined (hello)
  int boots_completed = 0;   // §3.5 LOAD cycles the boot parent finished
  int boots_failed = 0;

  // Merged-trace accounting (authoritative: survives worker death).
  std::uint64_t events = 0;
  std::uint64_t issued = 0;
  std::uint64_t terminal = 0;   // kRequestCompleted, any status
  std::uint64_t completed = 0;  // ... with status kCompleted
  std::uint64_t crashed = 0;
  std::uint64_t timedout = 0;
  std::uint64_t deliveries = 0;

  // Summed worker-side medium counters (live workers' final stat lines).
  std::uint64_t datagrams_out = 0, datagrams_in = 0;
  std::uint64_t dropped = 0, send_drops = 0, decode_failures = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t events_shed = 0;  // worker outbuf overflow (should be 0)

  std::vector<chaos::Violation> violations;
  sim::Time sim_end = 0;

  bool ok() const {
    return ran && finished && wedged == 0 && unexpected_exits == 0 &&
           violations.empty();
  }
};

/// The merge step of run_fleet: order the workers' streamed events on the
/// shared timeline (by time, arrival order on ties), fold them through
/// chaos::RunObserver, finish the invariants at the later of the last
/// event and `end`, and fill `r`'s merged-trace fields, violations and
/// sim_end.
void merge_trace(std::vector<sim::TraceEvent> events, sim::Time end,
                 FleetResult& r);

/// Execute the scenario across real OS processes. Never throws; every
/// environment failure lands in `skipped` / `skip_reason`.
FleetResult run_fleet(const FleetOptions& options);

}  // namespace soda::fleet
