// soda_trend: summarize every BENCH_*.jsonl in a directory into one
// trend report — paper-table stream ranges, chaos sweep pass/fail, and
// the scaling matrix (ops done/expected, cost counters, goodput and
// fairness) from BENCH_scale.jsonl.
//
// Usage:
//   soda_trend [dir]          ingest BENCH_*.jsonl under dir (default .)
//   soda_trend --files f...   ingest exactly the listed files
//   soda_trend --diff OLD NEW compare two snapshot directories
//                             (before/after a PR) and flag regressions
//
// Exit status is 1 when any chaos sweep recorded failures, any scale row
// recorded an invariant violation, a client of the 64-node single-server
// contention storm starved (ops_min 0), the 128-node anycast pool sweep
// lost its scaling headline (8-server pool goodput below 4x the
// single-server pool), or a fleet run (BENCH_fleet.jsonl) recorded
// violations / wedged workers / a real-vs-sim twin mismatch, so CI can
// gate on it. --diff exits 1 when any [WORSE] line is printed; run
// against the committed baseline it also catches a goodput drop of more
// than 5%.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "benchsupport/trend.h"

namespace {

int run_diff(const char* old_dir, const char* new_dir) {
  using namespace soda::bench;
  const auto old_paths = find_bench_files(old_dir);
  const auto new_paths = find_bench_files(new_dir);
  if (old_paths.empty() || new_paths.empty()) {
    std::fprintf(stderr, "soda_trend: no BENCH_*.jsonl files under %s\n",
                 old_paths.empty() ? old_dir : new_dir);
    return 2;
  }
  const TrendReport before = build_trend_report(old_paths);
  const TrendReport after = build_trend_report(new_paths);
  const std::string diff = format_trend_diff(before, after);
  std::fputs(diff.c_str(), stdout);
  return diff.find("[WORSE]") != std::string::npos ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace soda::bench;

  if (argc > 1 && std::strcmp(argv[1], "--diff") == 0) {
    if (argc != 4) {
      std::fprintf(stderr, "usage: soda_trend --diff OLD_DIR NEW_DIR\n");
      return 2;
    }
    return run_diff(argv[2], argv[3]);
  }

  std::vector<std::string> paths;
  if (argc > 1 && std::strcmp(argv[1], "--files") == 0) {
    for (int i = 2; i < argc; ++i) paths.emplace_back(argv[i]);
  } else {
    paths = find_bench_files(argc > 1 ? argv[1] : ".");
  }
  if (paths.empty()) {
    std::fprintf(stderr, "soda_trend: no BENCH_*.jsonl files found\n");
    return 2;
  }

  const TrendReport report = build_trend_report(paths);
  std::fputs(format_trend_report(report).c_str(), stdout);

  bool failing = false;
  for (const auto& c : report.chaos) failing |= c.failures > 0;
  // Fleet gate (doc/FLEET.md): any invariant violation over the merged
  // real-process trace, a wedged or unexpectedly-dead worker, or a
  // real-vs-simulated twin mismatch fails the snapshot. Skipped runs
  // (environments without fork/sockets) never do.
  for (const auto& f : report.fleet) {
    if (f.violations > 0 || f.wedged > 0 || f.unexpected_exits > 0 ||
        f.twin_mismatches > 0) {
      std::fprintf(stderr,
                   "soda_trend: fleet %s failing: violations=%ld wedged=%ld "
                   "unexpected=%ld twin_mismatch=%ld\n",
                   f.scenario.c_str(), f.violations, f.wedged,
                   f.unexpected_exits, f.twin_mismatches);
      failing = true;
    }
  }
  // Anycast pool gate (doc/OVERLOAD.md §4): the 128-node contention storm
  // against an 8-server pool must deliver at least 4x the goodput of the
  // same storm against a single server. Checked whenever both rows are in
  // the snapshot.
  double pool1_goodput = -1, pool8_goodput = -1;
  int pool_nodes = 0;
  for (const auto& t : report.scale) {
    if (t.workload != "contention" || t.nodes < 128) continue;
    if (t.pool_size == 1) pool1_goodput = t.goodput;
    if (t.pool_size == 8) {
      pool8_goodput = t.goodput;
      pool_nodes = t.nodes;
    }
  }
  if (pool1_goodput >= 0 && pool8_goodput >= 0 &&
      pool8_goodput < 4.0 * pool1_goodput) {
    std::fprintf(stderr,
                 "soda_trend: contention@%d pool scaling regression: "
                 "pool8 goodput %.0f < 4x pool1 goodput %.0f ops/s\n",
                 pool_nodes, pool8_goodput, pool1_goodput);
    failing = true;
  }
  for (const auto& t : report.scale) {
    failing |= t.violations > 0;
    // Starvation gate: every client of the 64-node storm against one
    // server must finish at least one op.
    if (t.workload == "contention" && t.nodes == 64 && t.pool_size == 0 &&
        t.segments == 1 && t.ops_min <= 0) {
      std::fprintf(stderr,
                   "soda_trend: contention@%d fairness regression: "
                   "a client starved (ops_min %.0f)\n",
                   t.nodes, t.ops_min);
      failing = true;
    }
  }
  return failing ? 1 : 0;
}
