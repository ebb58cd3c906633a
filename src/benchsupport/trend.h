// Cross-bench trend report: ingest every BENCH_*.jsonl a bench or tool
// run left behind (paper tables, chaos sweeps, scaling matrix) and boil
// them down to one comparable summary — the place to look when deciding
// whether a change moved any number that matters.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace soda::bench {

/// One parsed JSONL row: file it came from + flat key/value map.
struct TrendRow {
  std::string file;
  std::map<std::string, std::string> fields;

  const std::string* get(const std::string& key) const {
    auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
  }
  std::optional<double> num(const std::string& key) const;
  std::string str(const std::string& key) const;
};

/// Paired base/optimized scaling measurements for one (workload, nodes).
struct ScaleTrend {
  std::string workload;
  int nodes = 0;
  double loss = 0;
  // 128/256-node tiers run twice with exponential retransmit backoff
  // off/on; the flag is part of the aggregation key so they don't merge.
  bool backoff = false;
  // Anycast pool size for the contention workload (0 = the legacy single
  // server). Part of the aggregation key: the pool sweep emits one row
  // per size and the CI gate compares goodput across them.
  int pool_size = 0;
  // Bus segments (1 = the classic single broadcast bus). Part of the
  // aggregation key so the internetwork tiers (doc/INTERNET.md) never
  // merge with the single-segment rows they're compared against.
  int segments = 1;
  double opt_relayed = 0;  // gateway store-and-forward copies (segments > 1)
  double base_events = 0, opt_events = 0;        // events executed
  double base_scheduled = 0, opt_scheduled = 0;  // timer churn
  double base_frames = 0, opt_frames = 0;
  double opt_filtered = 0;  // broadcast deliveries the NIC filter skipped
  double base_ops = 0, opt_ops = 0, ops_expected = 0;
  // Overload columns (contention workload, doc/OVERLOAD.md): goodput in
  // ops per simulated second, per-client min/max ops (fairness), retry-
  // budget exhaustions, admission-control sheds.
  double base_goodput = 0, opt_goodput = 0;
  double base_ops_min = 0, opt_ops_min = 0;
  double base_ops_max = 0, opt_ops_max = 0;
  double base_timedout = 0, opt_timedout = 0;
  double base_shed = 0, opt_shed = 0;
  // Host-dependent engine-throughput columns (events / wall-second and
  // VmHWM). Informational in reports; the diff gate only flags a >3x
  // collapse so machine noise never fails CI.
  double base_ev_wall = 0, opt_ev_wall = 0;
  double opt_rss_kb = 0;
  double violations = 0;  // summed over both modes — should stay 0

  /// Percent reduction of `base` -> `opt` (0 when base is 0).
  static double win(double base, double opt) {
    return base > 0 ? 100.0 * (base - opt) / base : 0.0;
  }
};

struct TrendReport {
  std::vector<std::string> files;  // BENCH files ingested, sorted
  std::vector<TrendRow> rows;      // all parsed rows

  // chaos: per scenario, sweep totals
  struct ChaosLine {
    std::string scenario;
    long runs = 0;
    long seeds_swept = 0;
    long failures = 0;
  };
  std::vector<ChaosLine> chaos;

  // paper streams: worst relative retransmit-free ms_per_op per op kind
  struct StreamLine {
    std::string op;
    long rows = 0;
    double best_ms = 0, worst_ms = 0;
    long unfinished = 0;
  };
  std::vector<StreamLine> streams;

  std::vector<ScaleTrend> scale;

  // fleet: real-process harness runs (BENCH_fleet.jsonl, doc/FLEET.md)
  struct FleetLine {
    std::string scenario;
    long runs = 0;     // fleet_run rows that actually executed
    long skipped = 0;  // fleet_run rows skipped (no fork/sockets)
    long violations = 0;
    long wedged = 0;
    long unexpected_exits = 0;
    long twin_mismatches = 0;  // fleet_compare rows with match=false
  };
  std::vector<FleetLine> fleet;
};

/// Parse the given JSONL files (unreadable files are skipped and recorded
/// with a trailing '!' in `files`) and aggregate the known row kinds.
TrendReport build_trend_report(const std::vector<std::string>& paths);

/// Find BENCH_*.jsonl files directly under `dir`, sorted by name.
std::vector<std::string> find_bench_files(const std::string& dir);

/// Render the report as the human-readable summary the CLI prints.
std::string format_trend_report(const TrendReport& r);

/// Render a before/after comparison of two snapshots (e.g. the BENCH
/// files from the base branch vs. this PR): chaos failure deltas, paper-
/// stream ms/op drift, and scaling/goodput deltas per (workload, nodes,
/// loss). Keys present in only one snapshot are flagged.
std::string format_trend_diff(const TrendReport& before,
                              const TrendReport& after);

}  // namespace soda::bench
