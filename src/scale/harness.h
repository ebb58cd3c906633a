// N-node scaling harness: stand up star-RPC, all-to-all DISCOVER-storm,
// replicated-store and name-service topologies of 8..64 nodes under the
// sim engine and measure where the per-operation cost stops being flat.
// Every run uses the fast presets (TimingModel::fast(), BusConfig::fast(),
// GatewayConfig::fast()): the 1984 constants cannot run 1024 nodes.
//
// A harness run is a pure function of its options (same determinism
// contract as soda::chaos): the invariant checkers ride along on the
// trace stream, so the scaling bench doubles as a correctness sweep.
// Every node runs the three O(N) fixes this harness exposed — NIC
// broadcast interest filtering (net::Bus), batched timer bookkeeping
// (proto/core) and the indexed name-server table — plus adaptive BUSY
// backoff and kernel admission control: one configuration, the one
// perfbench's workloads reproduce event for event.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace soda::scale {

enum class Workload : std::uint8_t {
  kStarRpc,          // clients exchange with a few echo servers
  kDiscoverStorm,    // every client repeatedly broadcasts DISCOVER
  kReplicatedStore,  // multicast SET + read-any against replicas
  kNameStorm,        // bind fan-out + directory LISTs at one name server
  kContention,       // every client hammers ONE slow server back-to-back:
                     //   the 64-node overload case (doc/OVERLOAD.md).
};

const char* to_string(Workload w);

/// Which engine drives the run:
///  - kClassic: the unpartitioned single-queue serial engine that every
///    baseline row and bench_scale run uses.
///  - kWindowed: the simulator walks the conservative window protocol one
///    partition at a time on the calling thread (partition-local RNG
///    streams, receiver-side bus draws, barrier-merged traces). It stays
///    for one test, InetScale.TwoSegmentThousandNodeStarRpcCompletes:
///    classic leaves one op of that run TIMEDOUT on the BUSY count
///    budget. It goes once ROADMAP's BUSY item lets classic complete it.
enum class ExecMode : std::uint8_t { kClassic, kWindowed };

const char* to_string(ExecMode m);

struct HarnessOptions {
  Workload workload = Workload::kStarRpc;
  int nodes = 8;
  int servers = 1;          // stations running the server side
  /// Contention only: size of the anycast server pool. 0 keeps the legacy
  /// shape (one server, clients address it by MID). N > 0 boots N servers
  /// all advertising kScalePattern, turns on load-adaptive admission at
  /// every node, and the storm clients address the *pool*
  /// ({kAnycastMid, kScalePattern}) so each request goes to the member
  /// the client's kernel currently rates least shed (doc/OVERLOAD.md §4).
  int pool_size = 0;
  int ops_per_client = 20;  // blocking operations per load client
  /// Bus segments. 1 = the classic single broadcast bus (core::Network,
  /// the configuration every committed baseline row was recorded under).
  /// > 1 = an inet::Internet: node MID i lives on segment i % segments
  /// and one hub gateway bridges them, so servers and clients spread
  /// across segments and a share of all operations crosses the
  /// store-and-forward relay (doc/INTERNET.md).
  int segments = 1;
  std::uint32_t payload = 64;
  double loss = 0.0;        // uniform frame-loss probability
  std::uint64_t seed = 1;
  /// Exponential retransmit backoff (TimingModel knob). Off by default —
  /// the fixed 1984 interval — so existing rows and pinned hashes stand;
  /// the 128/256-node tiers turn it on (the crash detector's constant
  /// silence window is what collapses there, EXPERIMENTS.md).
  bool retransmit_backoff = false;
  /// Engine selection; kWindowed partitions the event queue (one
  /// partition per segment, or per node on a single bus).
  ExecMode exec_mode = ExecMode::kClassic;
  sim::Duration max_sim_time = 120 * sim::kSecond;  // hard stop
};

struct HarnessResult {
  sim::Time sim_elapsed = 0;       // simulated time to quiescence
  double wall_ms = 0;              // host wall-clock for the run
  double events_per_wall_s = 0;    // engine throughput: executed / wall
  std::uint64_t peak_rss_kb = 0;   // VmHWM after the run (0 off-Linux)
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;  // timer-churn proxy (deterministic)
  std::uint64_t events_cancelled = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_filtered = 0;   // broadcast deliveries skipped by NIC
  std::uint64_t frames_relayed = 0;    // gateway store-and-forward copies
  std::uint64_t relay_drops = 0;       // TTL + egress-queue-overflow drops
  std::uint64_t requests_issued = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t ops_done = 0;      // workload-level successes
  std::uint64_t ops_expected = 0;
  std::uint64_t ops_min = 0;       // fewest successes by any one client
  std::uint64_t ops_max = 0;       // most successes by any one client
  double goodput_ops_per_s = 0;    // ops_done per simulated second
  std::uint64_t requests_timedout = 0;  // BUSY retry budget exhaustions
  std::uint64_t shed_offers = 0;        // admission-control early NACKs
  std::uint64_t cpu_busy_micros = 0;   // summed over all node CPUs
  std::uint64_t violations = 0;
  std::uint64_t trace_hash = 0;
  /// Cross-partition schedules under the lookahead window (kWindowed
  /// only; 0 for every shipped topology).
  std::uint64_t lookahead_violations = 0;
  std::string first_violation;     // empty when clean
};

/// Execute one deterministic scaling run.
HarnessResult run_harness(const HarnessOptions& opts);

}  // namespace soda::scale
