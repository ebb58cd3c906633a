#include "benchsupport/trend.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "stats/json.h"

namespace soda::bench {

std::optional<double> TrendRow::num(const std::string& key) const {
  const std::string* v = get(key);
  if (!v) return std::nullopt;
  char* end = nullptr;
  const double d = std::strtod(v->c_str(), &end);
  if (end == v->c_str()) return std::nullopt;
  return d;
}

std::string TrendRow::str(const std::string& key) const {
  const std::string* v = get(key);
  return v ? *v : std::string();
}

std::vector<std::string> find_bench_files(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (!e.is_regular_file()) continue;
    const std::string name = e.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 &&
        name.size() > 6 + 6 &&  // "BENCH_" + ".jsonl"
        name.compare(name.size() - 6, 6, ".jsonl") == 0) {
      out.push_back(e.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

void aggregate_chaos(TrendReport& r) {
  std::map<std::string, TrendReport::ChaosLine> by_scenario;
  for (const TrendRow& row : r.rows) {
    const std::string kind = row.str("kind");
    if (kind != "chaos_run" && kind != "chaos_sweep") continue;
    TrendReport::ChaosLine& line = by_scenario[row.str("scenario")];
    line.scenario = row.str("scenario");
    if (kind == "chaos_run") {
      ++line.runs;
      if (row.num("ok").value_or(1) == 0) ++line.failures;
    } else {
      line.seeds_swept += static_cast<long>(row.num("ran").value_or(0));
      line.failures += static_cast<long>(row.num("failures").value_or(0));
    }
  }
  for (auto& [name, line] : by_scenario) r.chaos.push_back(line);
}

void aggregate_fleet(TrendReport& r) {
  std::map<std::string, TrendReport::FleetLine> by_scenario;
  for (const TrendRow& row : r.rows) {
    const std::string kind = row.str("kind");
    if (kind != "fleet_run" && kind != "fleet_compare") continue;
    TrendReport::FleetLine& line = by_scenario[row.str("scenario")];
    line.scenario = row.str("scenario");
    if (kind == "fleet_run") {
      if (row.str("skipped") == "true") {
        ++line.skipped;
      } else {
        ++line.runs;
        line.violations += static_cast<long>(row.num("violations").value_or(0));
        line.wedged += static_cast<long>(row.num("wedged").value_or(0));
        line.unexpected_exits +=
            static_cast<long>(row.num("unexpected_exits").value_or(0));
      }
    } else if (row.str("match") != "true") {
      ++line.twin_mismatches;
    }
  }
  for (auto& [name, line] : by_scenario) r.fleet.push_back(line);
}

void aggregate_streams(TrendReport& r) {
  std::map<std::string, TrendReport::StreamLine> by_op;
  for (const TrendRow& row : r.rows) {
    if (row.str("kind") != "stream") continue;
    const std::string op = row.str("op");
    TrendReport::StreamLine& line = by_op[op];
    line.op = op;
    const double ms = row.num("ms_per_op").value_or(0);
    if (line.rows == 0 || ms < line.best_ms) line.best_ms = ms;
    if (line.rows == 0 || ms > line.worst_ms) line.worst_ms = ms;
    ++line.rows;
    if (row.num("finished").value_or(1) == 0) ++line.unfinished;
  }
  for (auto& [op, line] : by_op) r.streams.push_back(line);
}

void aggregate_scale(TrendReport& r) {
  // key: workload | nodes | loss | retransmit_backoff | pool_size |
  //      segments
  std::map<std::tuple<std::string, int, double, bool, int, int>, ScaleTrend>
      configs;
  for (const TrendRow& row : r.rows) {
    if (row.str("kind") != "scale") continue;
    const std::string workload = row.str("workload");
    const int nodes = static_cast<int>(row.num("nodes").value_or(0));
    const double loss = row.num("loss").value_or(0);
    const bool backoff = row.str("retransmit_backoff") == "true" ||
                         row.num("retransmit_backoff").value_or(0) != 0;
    const int pool = static_cast<int>(row.num("pool_size").value_or(0));
    const int segments = static_cast<int>(row.num("segments").value_or(1));
    ScaleTrend& t = configs[{workload, nodes, loss, backoff, pool, segments}];
    t.workload = workload;
    t.nodes = nodes;
    t.loss = loss;
    t.backoff = backoff;
    t.pool_size = pool;
    t.segments = segments;
    t.events = row.num("events_executed").value_or(0);
    t.scheduled = row.num("events_scheduled").value_or(0);
    t.frames = row.num("frames_sent").value_or(0);
    t.filtered = row.num("frames_filtered").value_or(0);
    t.ops = row.num("ops_done").value_or(0);
    t.ops_expected = row.num("ops_expected").value_or(0);
    t.goodput = row.num("goodput_ops_s").value_or(0);
    t.ops_min = row.num("ops_min").value_or(0);
    t.ops_max = row.num("ops_max").value_or(0);
    t.timedout = row.num("timedout").value_or(0);
    t.ev_wall = row.num("events_per_wall_s").value_or(0);
    t.rss_kb = row.num("peak_rss_kb").value_or(0);
    t.violations += row.num("violations").value_or(0);
  }
  for (auto& [key, t] : configs) r.scale.push_back(t);
}

std::string scale_label(const std::string& workload, bool backoff,
                        int pool_size, int segments) {
  std::string label = workload;
  if (backoff) label += "+bkoff";
  if (pool_size > 0) label += "+pool" + std::to_string(pool_size);
  if (segments > 1) label += "+seg" + std::to_string(segments);
  return label;
}

}  // namespace

TrendReport build_trend_report(const std::vector<std::string>& paths) {
  TrendReport r;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) {
      r.files.push_back(path + "!");
      continue;
    }
    r.files.push_back(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      auto parsed = stats::parse_json_line(line);
      if (!parsed) continue;
      r.rows.push_back(TrendRow{path, std::move(*parsed)});
    }
  }
  aggregate_chaos(r);
  aggregate_streams(r);
  aggregate_scale(r);
  aggregate_fleet(r);
  return r;
}

std::string format_trend_report(const TrendReport& r) {
  std::ostringstream out;
  out << "Trend report (" << r.files.size() << " BENCH files, "
      << r.rows.size() << " rows)\n";
  for (const std::string& f : r.files) out << "  " << f << "\n";

  if (!r.streams.empty()) {
    out << "\nPaper streams (ms/op range per operation)\n";
    char buf[160];
    for (const auto& s : r.streams) {
      std::snprintf(buf, sizeof buf,
                    "  %-10s rows=%-4ld ms/op %.1f..%.1f%s\n", s.op.c_str(),
                    s.rows, s.best_ms, s.worst_ms,
                    s.unfinished ? "  [UNFINISHED RUNS]" : "");
      out << buf;
    }
  }

  if (!r.chaos.empty()) {
    out << "\nChaos sweeps\n";
    char buf[160];
    for (const auto& c : r.chaos) {
      std::snprintf(buf, sizeof buf,
                    "  %-22s runs=%-4ld seeds=%-6ld failures=%ld%s\n",
                    c.scenario.c_str(), c.runs, c.seeds_swept, c.failures,
                    c.failures ? "  [FAILING]" : "");
      out << buf;
    }
  }

  if (!r.fleet.empty()) {
    out << "\nFleet runs (real OS processes, doc/FLEET.md)\n";
    char buf[200];
    for (const auto& f : r.fleet) {
      const bool bad =
          f.violations || f.wedged || f.unexpected_exits || f.twin_mismatches;
      std::snprintf(buf, sizeof buf,
                    "  %-22s runs=%-3ld skipped=%-3ld violations=%ld "
                    "wedged=%ld unexpected=%ld twin_mismatch=%ld%s\n",
                    f.scenario.c_str(), f.runs, f.skipped, f.violations,
                    f.wedged, f.unexpected_exits, f.twin_mismatches,
                    bad ? "  [FAILING]" : "");
      out << buf;
    }
  }

  if (!r.scale.empty()) {
    out << "\nScaling matrix\n";
    char buf[200];
    std::snprintf(buf, sizeof buf, "  %-27s %5s %5s %11s %12s %10s %10s %6s\n",
                  "workload", "nodes", "loss", "ops", "sched events",
                  "frames", "filtered", "viol");
    out << buf;
    for (const auto& t : r.scale) {
      const std::string label = scale_label(t.workload, t.backoff,
                                             t.pool_size, t.segments);
      std::snprintf(buf, sizeof buf,
                    "  %-27s %5d %4.0f%% %5.0f/%-5.0f %12.0f %10.0f %10.0f "
                    "%6.0f\n",
                    label.c_str(), t.nodes, t.loss * 100, t.ops,
                    t.ops_expected, t.scheduled, t.frames, t.filtered,
                    t.violations);
      out << buf;
    }

    // Engine throughput: host-dependent, so reported but never compared
    // tightly. Only rows that carried the column (newer harness) print.
    bool any_ev_wall = false;
    for (const auto& t : r.scale) any_ev_wall |= t.ev_wall > 0;
    if (any_ev_wall) {
      out << "\nEngine throughput (host-dependent)\n";
      std::snprintf(buf, sizeof buf, "  %-27s %5s %14s %12s\n", "workload",
                    "nodes", "events/wall-s", "peak RSS kB");
      out << buf;
      for (const auto& t : r.scale) {
        if (t.ev_wall <= 0) continue;
        const std::string label = scale_label(t.workload, t.backoff,
                                               t.pool_size, t.segments);
        std::snprintf(buf, sizeof buf, "  %-27s %5d %14.0f %12.0f\n",
                      label.c_str(), t.nodes, t.ev_wall, t.rss_kb);
        out << buf;
      }
    }

    // Goodput/fairness columns only mean something for the contention
    // workload (per-client tallies); star_rpc et al. leave them zero.
    bool any_goodput = false;
    for (const auto& t : r.scale) any_goodput |= t.ops_max > 0;
    if (any_goodput) {
      out << "\nOverload goodput & fairness\n";
      std::snprintf(buf, sizeof buf, "  %-27s %5s %14s %13s %9s\n",
                    "workload", "nodes", "goodput ops/s", "min/max ops",
                    "timedout");
      out << buf;
      for (const auto& t : r.scale) {
        if (t.ops_max <= 0) continue;
        const std::string label = scale_label(t.workload, t.backoff,
                                               t.pool_size, t.segments);
        std::snprintf(buf, sizeof buf,
                      "  %-27s %5d %14.0f %6.0f/%-6.0f %9.0f\n",
                      label.c_str(), t.nodes, t.goodput, t.ops_min,
                      t.ops_max, t.timedout);
        out << buf;
      }
    }
  }
  return out.str();
}

std::string format_trend_diff(const TrendReport& before,
                              const TrendReport& after) {
  std::ostringstream out;
  char buf[240];
  out << "Trend diff: " << before.files.size() << " BENCH files before, "
      << after.files.size() << " after\n";

  // Chaos: failure-count movement per scenario.
  {
    std::map<std::string, std::pair<long, long>> merged;  // name -> (b, a)
    for (const auto& c : before.chaos) merged[c.scenario].first = c.failures;
    for (const auto& c : after.chaos) merged[c.scenario].second = c.failures;
    if (!merged.empty()) {
      out << "\nChaos failures (before -> after)\n";
      for (const auto& [name, fa] : merged) {
        const bool only_before = std::none_of(
            after.chaos.begin(), after.chaos.end(),
            [&name](const auto& c) { return c.scenario == name; });
        const bool only_after = std::none_of(
            before.chaos.begin(), before.chaos.end(),
            [&name](const auto& c) { return c.scenario == name; });
        std::snprintf(buf, sizeof buf, "  %-22s %ld -> %ld%s\n", name.c_str(),
                      fa.first, fa.second,
                      only_before   ? "  [REMOVED]"
                      : only_after  ? "  [NEW]"
                      : fa.second > fa.first ? "  [WORSE]"
                      : fa.second < fa.first ? "  [better]"
                                             : "");
        out << buf;
      }
    }
  }

  // Paper streams: worst-case ms/op drift per operation.
  {
    std::map<std::string, std::pair<const TrendReport::StreamLine*,
                                    const TrendReport::StreamLine*>>
        merged;
    for (const auto& s : before.streams) merged[s.op].first = &s;
    for (const auto& s : after.streams) merged[s.op].second = &s;
    if (!merged.empty()) {
      out << "\nPaper streams, worst ms/op (before -> after)\n";
      for (const auto& [op, ba] : merged) {
        const double b = ba.first ? ba.first->worst_ms : 0;
        const double a = ba.second ? ba.second->worst_ms : 0;
        std::snprintf(buf, sizeof buf, "  %-10s %.1f -> %.1f%s\n", op.c_str(),
                      b, a,
                      !ba.first    ? "  [NEW]"
                      : !ba.second ? "  [REMOVED]"
                      : a > b * 1.05 ? "  [WORSE]"
                      : a < b * 0.95 ? "  [better]"
                                     : "");
        out << buf;
      }
    }
  }

  // Scale: goodput / completion / churn movement per config.
  {
    std::map<std::tuple<std::string, int, double, bool, int, int>,
             std::pair<const ScaleTrend*, const ScaleTrend*>>
        merged;
    for (const auto& t : before.scale) {
      merged[{t.workload, t.nodes, t.loss, t.backoff, t.pool_size,
              t.segments}]
          .first = &t;
    }
    for (const auto& t : after.scale) {
      merged[{t.workload, t.nodes, t.loss, t.backoff, t.pool_size,
              t.segments}]
          .second = &t;
    }
    if (!merged.empty()) {
      out << "\nScaling matrix (before -> after)\n";
      std::snprintf(buf, sizeof buf, "  %-27s %5s %5s %20s %20s %18s %16s\n",
                    "workload", "nodes", "loss", "ops", "sched events",
                    "goodput ops/s", "events/wall-s");
      out << buf;
      for (const auto& [key, ba] : merged) {
        const auto& [workload, nodes, loss, backoff, pool, segments] = key;
        const std::string label =
            scale_label(workload, backoff, pool, segments);
        if (!ba.first || !ba.second) {
          std::snprintf(buf, sizeof buf, "  %-27s %5d %4.0f%% %s\n",
                        label.c_str(), nodes, loss * 100,
                        ba.second ? "[NEW]" : "[REMOVED]");
          out << buf;
          continue;
        }
        const ScaleTrend& b = *ba.first;
        const ScaleTrend& a = *ba.second;
        const char* flag = "";
        if (a.ops < b.ops || a.violations > b.violations ||
            (b.goodput > 0 && a.goodput < b.goodput * 0.95)) {
          flag = "  [WORSE]";
        }
        // Wall-clock throughput is host- and load-dependent, so the gate
        // only fires on a >3x collapse — a real engine regression, not a
        // noisy neighbour on the CI box — and only for rows big enough
        // (>=100k events) that the wall time isn't startup noise.
        if (flag[0] == '\0' && b.events >= 100000 && b.ev_wall > 0 &&
            a.ev_wall > 0 && a.ev_wall * 3 < b.ev_wall) {
          flag = "  [WORSE]";
        }
        std::snprintf(buf, sizeof buf,
                      "  %-27s %5d %4.0f%% %8.0f->%-8.0f %9.0f->%-9.0f "
                      "%7.0f->%-7.0f %7.0f->%-7.0f%s\n",
                      label.c_str(), nodes, loss * 100, b.ops, a.ops,
                      b.scheduled, a.scheduled, b.goodput, a.goodput,
                      b.ev_wall, a.ev_wall, flag);
        out << buf;
      }
    }
  }
  return out.str();
}

}  // namespace soda::bench
