// soda_perf: one workload of the repo benchmark per process (so the peak
// RSS it reports belongs to that workload alone).
//
//   soda_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// --trace 0 repeats the workload for --seconds of host time and reports
// the medians of the end-to-end metrics. --trace 1 alternates untraced and
// traced reps and reports the per-layer metrics; the first traced rep's
// spans and per-op splits are written to <dir>. Either mode prints a
// human-readable table and, as its last line, one JSON object. A failed
// correctness gate prints the reason to stderr, no numbers, and exits 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"
#include "workloads.h"

namespace pb = perfbench;

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},         {"wall_s", "s"},
    {"cpu_s", "s"},           {"peak_rss_mb", "MiB"},
    {"ops_per_wall_s", "1/s"},
};

// Simulated results of the model: identical on every run at one seed.
constexpr Metric kModel[] = {
    {"sim_op_p50_us", "us"},
    {"sim_op_p99_us", "us"},
    {"sim_goodput_ops_s", "1/s"},
    {"op_fail_ratio", "ratio"},
};

constexpr Metric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.scheduled", "count"},
    {"sim.cancelled", "count"},
    {"sim.events_per_op", "count/op"},
    {"sim.ns_per_event", "ns"},
    {"sim.windows", "count"},
    {"sim.parts_per_window", "count"},
    {"sim.execute_s", "s"},
    {"sim.commit_s", "s"},
    {"par.windows", "count"},
    {"par.cpu_per_wall", "ratio"},
    {"par.sink_chunks", "count"},
    {"net.frames_per_op", "count/op"},
    {"net.bytes_per_op", "B/op"},
    {"net.filtered", "count"},
    {"net.lost", "count"},
    {"net.corrupted", "count"},
    {"net.duplicated", "count"},
    {"proto.retransmits_per_op", "count/op"},
    {"proto.busy_nacks_per_op", "count/op"},
    {"proto.busy_wait_us_per_op", "us/op"},
    {"proto.rto_wait_us_per_op", "us/op"},
    {"proto.dup_suppressed", "count"},
    {"proto.probes", "count"},
    {"core.shed_offers", "count"},
    {"core.admit_ratio", "ratio"},
    {"core.timedout", "count"},
    {"core.crashed", "count"},
    {"core.handlers_per_op", "count/op"},
    {"core.cpu_busy_us_per_op", "us/op"},
    {"op.issue_us_p50", "us"},
    {"op.issue_us_p99", "us"},
    {"op.transit_us_p50", "us"},
    {"op.transit_us_p99", "us"},
    {"op.server_us_p50", "us"},
    {"op.server_us_p99", "us"},
    {"op.return_us_p50", "us"},
    {"op.return_us_p99", "us"},
    {"op.clamped", "count"},
    {"inet.relayed_per_op", "count/op"},
    {"inet.relay_share", "ratio"},
    {"inet.coalesced", "count"},
    {"inet.pattern_forwards", "count"},
    {"inet.drops", "count"},
    {"inet.queue_depth_max", "count"},
    {"chaos.observer_ns_per_event", "ns"},
    {"chaos.trace_events_per_op", "count/op"},
    {"chaos.violations", "count"},
    {"setup.topology_s", "s"},
    {"setup.nodes_s", "s"},
    {"setup.clients_s", "s"},
    {"client.gen_lag_us_max", "us"},
    {"sim_op_p50_us", "us"},
    {"sim_op_p99_us", "us"},
    {"sim_goodput_ops_s", "1/s"},
    {"op_fail_ratio", "ratio"},
    {"trace.overhead_s", "s"},
    {"trace.span_coverage", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "soda_perf: %s\nusage: soda_perf --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (k == "--out") {
      a.out = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

[[noreturn]] void gate_failed(const std::string& workload,
                              const std::string& why) {
  std::fprintf(stderr, "soda_perf %s: correctness gate failed: %s\n",
               workload.c_str(), why.c_str());
  std::exit(1);
}

/// Per-rep correctness: the workload's own checks plus the op accounting.
std::string check_rep(const pb::Rep& r) {
  if (!r.error.empty()) return r.error;
  const std::uint64_t sum =
      r.ok + r.timedout + r.crashed + r.other + r.unfinished;
  if (sum != r.attempted) {
    return "attempted " + std::to_string(r.attempted) +
           " != succeeded + failed " + std::to_string(sum);
  }
  if (r.attempted == 0) return "no operations attempted";
  if (r.wrong != 0) {
    return std::to_string(r.wrong) + " operations returned wrong results";
  }
  return "";
}

/// Reps at one seed must agree on everything but host time.
std::string check_same(const pb::Rep& a, const pb::Rep& b) {
  if (a.hash != b.hash || a.events != b.events || a.frames != b.frames ||
      a.ok != b.ok || a.latency_us != b.latency_us) {
    return "two reps at the same seed diverged (hash " +
           std::to_string(a.hash) + " vs " + std::to_string(b.hash) + ")";
  }
  return "";
}

std::map<std::string, double> model_metrics(const pb::Rep& r) {
  std::map<std::string, double> m;
  m["sim_op_p50_us"] = pb::percentile(r.latency_us, 0.50);
  m["sim_op_p99_us"] = pb::percentile(r.latency_us, 0.99);
  m["sim_goodput_ops_s"] =
      r.sim_s > 0 ? static_cast<double>(r.ok) / r.sim_s : 0.0;
  m["op_fail_ratio"] =
      static_cast<double>(r.attempted - r.ok) / static_cast<double>(r.attempted);
  return m;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::map<std::string, double>& values,
                const Metric* table, std::size_t n) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < n; ++i) {
    auto it = values.find(table[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    char num[64];
    std::snprintf(num, sizeof num, "%.12g", v);
    if (i > 0) s += ", ";
    s += std::string("\"") + table[i].name + "\": {\"value\": " + num +
         ", \"unit\": \"" + table[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

void print_row(const char* name, double v, const char* unit,
               const std::string& note) {
  std::printf("  %-28s %16.9g %-6s %s\n", name, v, unit, note.c_str());
}

void print_outcomes(const pb::Rep& r) {
  std::printf("  ops: attempted %llu, ok %llu, timedout %llu, crashed %llu, "
              "other %llu, unfinished %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.ok),
              static_cast<unsigned long long>(r.timedout),
              static_cast<unsigned long long>(r.crashed),
              static_cast<unsigned long long>(r.other),
              static_cast<unsigned long long>(r.unfinished));
}

/// Write a traced rep's spans and op splits as JSONL.
void write_trace(const std::string& path, const Args& a,
                 const pb::SpanLog& spans, const pb::Rep& r) {
  std::ofstream out(path);
  out << "{\"kind\":\"meta\",\"workload\":\"" << a.workload
      << "\",\"seed\":" << a.seed << "}\n";
  const auto& all = spans.spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const pb::Span& s = all[i];
    out << "{\"kind\":\"span\",\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"dur_ns\":" << s.dur_ns << ",\"calls\":" << s.calls
        << ",\"count\":" << s.count << "}\n";
  }
  for (const pb::OpSplit& o : r.splits) {
    out << "{\"kind\":\"op\",\"t0\":" << o.t0 << ",\"t1\":" << o.t1
        << ",\"t2\":" << o.t2 << ",\"t3\":" << o.t3 << ",\"t4\":" << o.t4
        << "}\n";
  }
}

/// Host share of a traced rep covered by its top-level spans.
double span_coverage(const pb::SpanLog& spans, double rep_wall_s) {
  std::int64_t ns = 0;
  for (const pb::Span& s : spans.spans()) {
    if (s.parent < 0) ns += s.dur_ns;
  }
  return rep_wall_s > 0 ? static_cast<double>(ns) / 1e9 / rep_wall_s : 0;
}

constexpr std::size_t kMinReps = 3;

int run_untraced(const Args& a, pb::WorkloadId w) {
  pb::SpanLog off(false);
  const pb::RepOptions ro{a.seed, &off, -1};
  std::uint64_t reference_hash = 0;
  if (w == pb::WorkloadId::kParInet1024x4) {
    const pb::Rep ref = pb::run_windowed_reference(ro);
    if (const std::string e = check_rep(ref); !e.empty()) {
      gate_failed(a.workload, "windowed reference: " + e);
    }
    reference_hash = ref.hash;
  }
  // An untimed first rep warms caches and the allocator; it is also the
  // reference every timed rep must reproduce, and the cross-check input.
  const pb::Rep warm = pb::run_rep(w, ro);
  if (std::string e = check_rep(warm); !e.empty()) gate_failed(a.workload, e);
  if (std::string e = pb::crosscheck_harness(w, a.seed, warm); !e.empty()) {
    gate_failed(a.workload, e);
  }
  if (reference_hash != 0 && warm.hash != reference_hash) {
    gate_failed(a.workload,
                "concurrent run does not match the windowed reference hash");
  }
  std::vector<pb::Rep> reps;
  double rss_mb = 0;
  const auto start = pb::Clock::now();
  while (reps.size() < kMinReps ||
         pb::seconds_between(start, pb::Clock::now()) < a.seconds) {
    reps.push_back(pb::run_rep(w, ro));
    const pb::Rep& r = reps.back();
    if (std::string e = check_rep(r); !e.empty()) gate_failed(a.workload, e);
    if (std::string e = check_same(warm, r); !e.empty()) {
      gate_failed(a.workload, e);
    }
    // Read the high-water mark after a fixed amount of work: later reps
    // only add allocator fragmentation, which grows with the rep count and
    // so with host speed.
    if (reps.size() == kMinReps) rss_mb = pb::peak_rss_mb();
  }

  std::vector<double> setup, wall, cpu, rate;
  std::uint64_t attempted = 0, failed = 0;
  for (const pb::Rep& r : reps) {
    setup.push_back(r.setup_s);
    wall.push_back(r.wall_s);
    cpu.push_back(r.cpu_s);
    rate.push_back(static_cast<double>(r.ok) / r.wall_s);
    attempted += r.attempted;
    failed += r.wrong;
  }
  std::map<std::string, double> m;
  // Run times are the best rep: the work is identical in every rep, and on
  // a shared host interference only ever adds time, so the fastest rep is
  // the steadiest estimate of what the code costs. Setup is the median.
  m["setup_s"] = pb::median(setup);
  m["wall_s"] = *std::min_element(wall.begin(), wall.end());
  m["cpu_s"] = *std::min_element(cpu.begin(), cpu.end());
  m["peak_rss_mb"] = rss_mb;
  m["ops_per_wall_s"] = *std::max_element(rate.begin(), rate.end());
  const auto model = model_metrics(reps.front());

  std::printf("%s seed %llu: %zu reps; host times are the best rep (setup "
              "the median), model results are simulated and identical in "
              "every rep\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              reps.size());
  for (const Metric& k : kEndToEnd) {
    print_row(k.name, m[k.name], k.unit, "host");
  }
  for (const Metric& k : kModel) {
    print_row(k.name, model.at(k.name), k.unit, "simulated");
  }
  print_outcomes(reps.front());
  if (w == pb::WorkloadId::kPoolOpen128) {
    print_row("client.gen_lag_us_max", reps.front().gen_lag_us_max, "us",
              "open-loop generator lateness");
  }
  print_json(true, attempted, failed, m, kEndToEnd, std::size(kEndToEnd));
  return 0;
}

int run_traced(const Args& a, pb::WorkloadId w) {
  pb::SpanLog off(false);
  std::vector<double> wall_u, wall_t, cpu_u;
  pb::Rep traced;
  pb::SpanLog kept(true);
  double coverage = 0;
  const auto start = pb::Clock::now();
  for (int i = 0;
       i < 1 || pb::seconds_between(start, pb::Clock::now()) < a.seconds;
       ++i) {
    pb::Rep u = pb::run_rep(w, pb::RepOptions{a.seed, &off, -1});
    if (std::string e = check_rep(u); !e.empty()) gate_failed(a.workload, e);
    wall_u.push_back(u.wall_s);
    cpu_u.push_back(u.cpu_s);

    pb::SpanLog spans(true);
    const auto t0 = pb::Clock::now();
    pb::Rep t = pb::run_rep(w, pb::RepOptions{a.seed, &spans, -1});
    const double rep_wall = pb::seconds_between(t0, pb::Clock::now());
    if (std::string e = check_rep(t); !e.empty()) gate_failed(a.workload, e);
    if (std::string e = check_same(u, t); !e.empty()) {
      gate_failed(a.workload, "tracing changed the run: " + e);
    }
    wall_t.push_back(t.wall_s);
    if (i == 0) {
      coverage = span_coverage(spans, rep_wall);
      if (w == pb::WorkloadId::kParInet1024x4) {
        // The traced replay: the same run through the window protocol,
        // driven and timed call by call. It must match the concurrent hash.
        const int sp = spans.open("replay.windowed");
        pb::Rep r =
            pb::run_windowed_reference(pb::RepOptions{a.seed, &spans, sp});
        spans.close(sp);
        if (std::string e = check_rep(r); !e.empty()) {
          gate_failed(a.workload, "windowed replay: " + e);
        }
        if (r.hash != t.hash) {
          gate_failed(a.workload,
                      "traced windowed replay does not match the concurrent "
                      "run's trace hash");
        }
        for (const char* k : {"sim.windows", "sim.parts_per_window",
                              "sim.execute_s", "sim.commit_s"}) {
          t.layer[k] = r.layer[k];
        }
      }
      traced = std::move(t);
      kept = std::move(spans);
    }
  }

  std::map<std::string, double> m = traced.layer;
  const std::uint64_t ops = traced.attempted;
  const double wall_med = pb::median(wall_u);
  // run_scenario does not report engine events, only trace events.
  if (w != pb::WorkloadId::kChaosSweep && traced.events > 0) {
    m["sim.events_per_op"] =
        static_cast<double>(traced.events) / static_cast<double>(ops);
    m["sim.ns_per_event"] = wall_med * 1e9 / static_cast<double>(traced.events);
  }
  if (w == pb::WorkloadId::kParInet1024x4) {
    m["par.cpu_per_wall"] = pb::median(cpu_u) / wall_med;
  }
  m["core.timedout"] = static_cast<double>(traced.timedout);
  m["core.crashed"] = static_cast<double>(traced.crashed);
  m["chaos.violations"] = static_cast<double>(traced.violations);
  m["client.gen_lag_us_max"] = traced.gen_lag_us_max;
  std::vector<double> issue, transit, server, ret;
  std::uint64_t clamped = 0, mismatched = 0;
  for (const pb::OpSplit& s : traced.splits) {
    issue.push_back(static_cast<double>(s.issue()));
    transit.push_back(static_cast<double>(s.transit()));
    server.push_back(static_cast<double>(s.server()));
    ret.push_back(static_cast<double>(s.ret()));
    if (s.clamped) ++clamped;
    if (s.issue() + s.transit() + s.server() + s.ret() != s.t4 - s.t0) {
      ++mismatched;
    }
  }
  if (mismatched != 0) {
    gate_failed(a.workload, std::to_string(mismatched) +
                                " op splits do not sum to their latency");
  }
  m["op.issue_us_p50"] = pb::percentile(issue, 0.50);
  m["op.issue_us_p99"] = pb::percentile(issue, 0.99);
  m["op.transit_us_p50"] = pb::percentile(transit, 0.50);
  m["op.transit_us_p99"] = pb::percentile(transit, 0.99);
  m["op.server_us_p50"] = pb::percentile(server, 0.50);
  m["op.server_us_p99"] = pb::percentile(server, 0.99);
  m["op.return_us_p50"] = pb::percentile(ret, 0.50);
  m["op.return_us_p99"] = pb::percentile(ret, 0.99);
  m["op.clamped"] = static_cast<double>(clamped);
  for (const auto& [k, v] : model_metrics(traced)) m[k] = v;
  m["trace.overhead_s"] = pb::median(wall_t) - wall_med;
  m["trace.span_coverage"] = coverage;

  std::error_code ec;
  std::filesystem::create_directories(a.out, ec);
  const std::string path = a.out + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + ".trace.jsonl";
  write_trace(path, a, kept, traced);

  std::printf("%s seed %llu traced: %zu untraced + %zu traced reps, spans "
              "in %s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              wall_u.size(), wall_t.size(), path.c_str());
  for (const Metric& k : kPerLayer) print_row(k.name, m[k.name], k.unit, "");
  print_outcomes(traced);
  print_json(true, ops, traced.wrong, m, kPerLayer, std::size(kPerLayer));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const auto w = pb::parse_workload(a.workload);
  if (!w) usage(("unknown workload " + a.workload).c_str());
  return a.trace ? run_traced(a, *w) : run_untraced(a, *w);
}
