// soda::chaos scenario DSL — a declarative fault schedule against a
// simulated SODA network, in the FoundationDB/TigerBeetle deterministic-
// simulation style.
//
// A Scenario names a topology (N nodes, the first `servers` of which run
// the echo workload's server side), a workload intensity, and a list of
// Faults. Faults are either *windowed link faults* (loss / corruption /
// duplication / delay between `at` and `until`, optionally restricted to
// one directed link), *events* (crash at `at`, optional reboot after
// `reboot_after`), *partitions* (frames crossing the `group` bitmask
// boundary are dropped during the window), or *setup-time skews*
// (a node's protocol timers scaled by `factor` before the run starts).
//
// Scenarios serialize to JSONL (one header line + one line per fault) via
// to_jsonl()/scenario_from_jsonl(), reusing the stats:: flat JSON support,
// so a failing (scenario, seed) pair is a two-token reproduction recipe.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "proto/timing.h"
#include "sim/time.h"

namespace soda::chaos {

enum class FaultKind : std::uint8_t {
  kLoss,       // windowed link fault: drop with `probability`
  kCorrupt,    // windowed link fault: CRC-damage with `probability`
  kDuplicate,  // windowed link fault: deliver twice with `probability`
  kDelay,      // windowed link fault: add uniform extra latency [0, delay]
  kPartition,  // windowed: drop frames crossing the `group` boundary
  kCrash,      // event: hard-fail `node` at `at`; reboot after `reboot_after`
  kTimerSkew,  // setup: scale `node`'s protocol timers by `factor`
  // multi-segment faults (scenario.segments > 1, doc/INTERNET.md):
  kGatewayCrash,      // event: gateway index `node` crashes / reboots
  kSegmentPartition,  // windowed: gateways drop relays from segment `node`
                      // to segment `peer` (one direction — add the mirror
                      // fault for a symmetric partition)
};

const char* to_string(FaultKind k);
std::optional<FaultKind> fault_kind_from_string(std::string_view s);

struct Fault {
  FaultKind kind = FaultKind::kLoss;
  sim::Time at = 0;     // window start / event time
  sim::Time until = 0;  // window end; 0 = scenario duration (open window)
  int node = -1;        // link faults: sender (-1 = any); crash/skew: target
  int peer = -1;        // link faults: receiver (-1 = any)
  double probability = 1.0;      // loss / corrupt / duplicate
  sim::Duration delay = 0;       // kDelay: max extra latency (keep < MPL)
  double factor = 1.0;           // kTimerSkew
  std::uint64_t group = 0;       // kPartition: bitmask of MIDs in group A
  sim::Duration reboot_after = 0;  // kCrash / kGatewayCrash: 0 = stays down
  /// Link faults: restrict the fault to one segment's bus (-1 = every
  /// segment). kTimerSkew with node == -1: skew every node on the segment
  /// (cross-segment clock drift), or every node when it is -1. Ignored by
  /// other kinds.
  int segment = -1;

  bool operator==(const Fault&) const = default;
};

struct Scenario {
  std::string name = "unnamed";
  int nodes = 4;
  int servers = 1;  // MIDs [0, servers) run echo servers, the rest load
  /// Bus segments. 1 = the classic single broadcast bus (core::Network).
  /// > 1 = an inet::Internet: node MID i lives on segment i % segments and
  /// one hub gateway (MID `nodes`) bridges every segment — so servers and
  /// clients spread across segments and a share of all traffic crosses
  /// the relay (doc/INTERNET.md).
  int segments = 1;
  sim::Duration duration = 10 * sim::kSecond;  // load-generation phase
  sim::Duration drain = 10 * sim::kSecond;     // quiesce phase (no new load)
  sim::Duration request_interval = 50 * sim::kMillisecond;  // per client
  std::uint32_t payload = 64;        // bytes exchanged per request
  sim::Duration accept_delay = 0;    // server dawdle before ACCEPT (holds
                                     // requests in flight across faults)
  /// Run under TimingModel::fast() + BusConfig::fast() instead of the
  /// 1984 calibration — dozens-of-node scenarios stay affordable.
  bool fast = false;
  /// Load clients address the echo *pool* ({kAnycastMid, kEchoPattern})
  /// instead of picking a server MID per request: each request goes to the
  /// member the client's kernel currently rates least shed, and crashed
  /// members are dropped from the pool on the CRASHED completion
  /// (doc/OVERLOAD.md §4). This is the pool_failover scenario's switch.
  bool anycast = false;
  std::vector<Fault> faults;

  bool operator==(const Scenario&) const = default;

  // --- builder (each returns *this for chaining) ---
  Scenario& lose(double p, sim::Time at = 0, sim::Time until = 0,
                 int node = -1, int peer = -1, int segment = -1);
  Scenario& corrupt(double p, sim::Time at = 0, sim::Time until = 0,
                    int node = -1, int peer = -1, int segment = -1);
  Scenario& duplicate(double p, sim::Time at = 0, sim::Time until = 0,
                      int node = -1, int peer = -1, int segment = -1);
  Scenario& delay_frames(sim::Duration max_extra, sim::Time at = 0,
                         sim::Time until = 0, int node = -1, int peer = -1,
                         int segment = -1);
  Scenario& partition(std::uint64_t group_mask, sim::Time at, sim::Time until);
  Scenario& crash(int node, sim::Time at, sim::Duration reboot_after = 0);
  Scenario& skew_timers(int node, double factor);
  Scenario& fast_timing();
  Scenario& anycast_pool();
  // multi-segment builders
  Scenario& segment_count(int n);
  Scenario& gateway_crash(int gateway, sim::Time at,
                          sim::Duration reboot_after = 0);
  /// Cut relaying between two segments in both directions for a window.
  Scenario& segment_partition(int seg_a, int seg_b, sim::Time at,
                              sim::Time until);
  /// Cut relaying in ONE direction (from -> to): requests still cross,
  /// replies vanish (or vice versa) — the asymmetric-route case.
  Scenario& asymmetric_route(int from_seg, int to_seg, sim::Time at,
                             sim::Time until);
  /// Skew the protocol timers of every node on a segment (clock drift
  /// between machine rooms rather than one bad oscillator).
  Scenario& skew_segment(int segment, double factor);

  /// End of the simulated run (load + quiesce).
  sim::Time end_time() const { return duration + drain; }
  /// A fault window's effective end (`until` == 0 means `duration`).
  sim::Time window_end(const Fault& f) const {
    return f.until > 0 ? f.until : duration;
  }
};

/// Station `mid`'s configuration: the fast preset when the scenario asks
/// for it, with the protocol timers scaled by every timer skew that covers
/// the station (Delta-t skew: its clock runs fast or slow relative to its
/// peers'). A skew with node >= 0 covers that MID; one with node == -1
/// covers every station on its `segment` (MID i lives on segment
/// i % segments), or every station when `segment` is -1.
NodeConfig node_config(const Scenario& s, int mid);

/// Serialize to JSONL: a `{"kind":"scenario",...}` header line followed by
/// one `{"kind":"fault",...}` line per fault. Times are microseconds.
std::string to_jsonl(const Scenario& s);

/// Parse the output of to_jsonl() (blank lines and `#` comments allowed).
/// Returns nullopt on malformed input.
std::optional<Scenario> scenario_from_jsonl(std::string_view text);

/// Named bundled scenarios: "regression" (loss + corruption + duplication
/// + jitter + crash/reboot + partition + skew — the CI sweep), "smoke"
/// (small and fast, for tests), "loss_storm" (heavy uniform loss),
/// "asymmetric_partition" (one-way link blackouts), "crash_during_boot"
/// (a node crashes again right after its reboot lands), "skew_extreme"
/// (3x fast and 3x slow Delta-t clocks side by side), "scale_32"
/// (32 nodes under the fast timing preset — the scaling regression gate),
/// "pool_failover" (clients target a 4-server anycast pool while two
/// members crash mid-run — the pool must route around them), "fleet_smoke"
/// (8 nodes, SIGKILL + network-boot reboot of a server and a client — the
/// schedule soda_fleet executes as real OS processes and soda_chaos as its
/// simulated twin, doc/FLEET.md), and the
/// two-segment internetwork family "inet_smoke" / "inet_partition" /
/// "gateway_flap" / "inet_asymmetric" / "inet_skew" (doc/INTERNET.md).
std::optional<Scenario> builtin_scenario(std::string_view name);
std::vector<std::string> builtin_scenario_names();

/// The scenario a tool's argument names: the builtin of that name first,
/// else the JSONL file at that path. On failure returns nullopt and, when
/// `error` is set, says why (no such builtin or file, or malformed file);
/// each tool prints it after its own prefix.
std::optional<Scenario> load_scenario(const std::string& name_or_path,
                                      std::string* error);

}  // namespace soda::chaos
