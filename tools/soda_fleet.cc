// soda_fleet — run a chaos scenario across real OS processes and validate
// it against its simulated twin (doc/FLEET.md).
//
//   soda_fleet --scenario fleet_smoke
//   soda_fleet --scenario fleet_smoke --nodes 33 --servers 3
//   soda_fleet --scenario fleet_smoke --speedup 5 --drop 0.01 --verbose
//
// The driver forks one soda_node worker per scenario node (each hosting a
// kernel over its own UDP socket), injects process-level chaos (SIGKILL on
// the crash schedule, §3.5 network-boot reboots, SIGSTOP/SIGCONT for delay
// windows), merges every worker's trace stream into the chaos invariant
// checkers, and then runs the *identical* scenario in-simulation
// (chaos::run_scenario) to cross-check the protocol statistics. Rows land
// in BENCH_fleet.jsonl (kind=fleet_run / fleet_twin / fleet_compare) for
// the soda_trend gate.
//
// Exit status: 0 ok (or environment cannot fork/socket — reported and
// skipped), 1 invariant violation / wedged worker / twin mismatch,
// 2 usage error.

#include <libgen.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "benchsupport/report.h"
#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "fleet/driver.h"
#include "stats/json.h"

namespace {

using namespace soda;

int usage() {
  std::fprintf(
      stderr,
      "usage: soda_fleet --scenario <name|file.json> [options]\n"
      "\n"
      "  --nodes N        override the scenario's node count\n"
      "  --servers N      override the scenario's server count\n"
      "  --seed S         seed for both runs (default 1)\n"
      "  --speedup X      simulated us per wall us (default 10)\n"
      "  --drop P         extra uniform receive-drop probability\n"
      "  --worker PATH    soda_node binary (default: next to soda_fleet,\n"
      "                   or $SODA_NODE_BIN)\n"
      "  --wall-factor F  wall budget factor (default 2.0)\n"
      "  --no-twin        skip the simulated cross-check run\n"
      "  --verbose        log chaos actions as they fire\n");
  return 2;
}

/// The worker binary lives next to soda_fleet in every build layout; allow
/// overrides for installed/test setups.
std::string resolve_worker(const char* argv0, const std::string& flag) {
  if (!flag.empty()) return flag;
  if (const char* env = std::getenv("SODA_NODE_BIN"); env && *env) {
    return env;
  }
  std::string self(argv0 ? argv0 : "");
  const auto slash = self.rfind('/');
  if (slash != std::string::npos) {
    return self.substr(0, slash + 1) + "soda_node";
  }
  return "soda_node";
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_arg;
  std::string worker_flag;
  int nodes_override = 0, servers_override = 0;
  fleet::FleetOptions opts;
  bool twin = true;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = (i + 1 < argc) ? argv[i + 1] : nullptr;
    if (a == "--scenario" && v) {
      scenario_arg = v;
      ++i;
    } else if (a == "--nodes" && v) {
      nodes_override = std::atoi(v);
      ++i;
    } else if (a == "--servers" && v) {
      servers_override = std::atoi(v);
      ++i;
    } else if (a == "--seed" && v) {
      opts.seed = std::strtoull(v, nullptr, 10);
      ++i;
    } else if (a == "--speedup" && v) {
      opts.speedup = std::atof(v);
      ++i;
    } else if (a == "--drop" && v) {
      opts.drop = std::atof(v);
      ++i;
    } else if (a == "--worker" && v) {
      worker_flag = v;
      ++i;
    } else if (a == "--wall-factor" && v) {
      opts.wall_factor = std::atof(v);
      ++i;
    } else if (a == "--no-twin") {
      twin = false;
    } else if (a == "--verbose") {
      opts.verbose = true;
    } else {
      return usage();
    }
  }
  if (scenario_arg.empty()) return usage();
  std::string error;
  auto scenario = chaos::load_scenario(scenario_arg, &error);
  if (!scenario) {
    std::fprintf(stderr, "soda_fleet: %s\n", error.c_str());
    return 2;
  }
  // Overrides apply before BOTH runs, so real and twin see one topology.
  if (nodes_override > 0) scenario->nodes = nodes_override;
  if (servers_override > 0) scenario->servers = servers_override;
  opts.scenario = *scenario;
  opts.worker_path = resolve_worker(argv[0], worker_flag);

  bench::JsonlReport report("fleet");

  // ---- the real run ----------------------------------------------------
  std::printf("fleet: scenario %s  %d nodes (%d servers)  speedup %.1f\n",
              scenario->name.c_str(), scenario->nodes, scenario->servers,
              opts.speedup);
  const fleet::FleetResult r = fleet::run_fleet(opts);
  if (r.skipped) {
    std::printf(
        "fleet: SKIPPED — %s\n"
        "fleet: this environment forbids fork/sockets; not a protocol "
        "failure\n",
        r.skip_reason.c_str());
    stats::JsonObject row;
    row.set("kind", "fleet_run").set("scenario", scenario->name);
    row.set("skipped", true).set("skip_reason", r.skip_reason);
    report.row(row);
    return 0;
  }

  std::printf(
      "fleet: %llu events  issued %llu  terminal %llu "
      "(ok %llu / crashed %llu / timedout %llu)\n",
      static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.issued),
      static_cast<unsigned long long>(r.terminal),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.crashed),
      static_cast<unsigned long long>(r.timedout));
  std::printf(
      "fleet: reboots %d (boot-loads ok %d / failed %d)  "
      "datagrams out %llu in %llu  dup-suppressed %llu\n",
      r.reboots, r.boots_completed, r.boots_failed,
      static_cast<unsigned long long>(r.datagrams_out),
      static_cast<unsigned long long>(r.datagrams_in),
      static_cast<unsigned long long>(r.duplicates_suppressed));
  for (const auto& v : r.violations) {
    std::printf("fleet: VIOLATION t=%lld [%s] %s\n",
                static_cast<long long>(v.at), v.invariant.c_str(),
                v.detail.c_str());
  }
  if (r.wedged > 0) std::printf("fleet: %d wedged worker(s)\n", r.wedged);
  if (r.unexpected_exits > 0) {
    std::printf("fleet: %d unexpected worker exit(s)\n", r.unexpected_exits);
  }
  if (r.events_shed > 0) {
    std::printf("fleet: %llu trace events shed (results unreliable)\n",
                static_cast<unsigned long long>(r.events_shed));
  }

  {
    stats::JsonObject row;
    row.set("kind", "fleet_run").set("scenario", scenario->name);
    row.set("seed", static_cast<std::int64_t>(opts.seed));
    row.set("nodes", scenario->nodes).set("servers", scenario->servers);
    row.set("speedup", opts.speedup);
    row.set("events", r.events).set("issued", r.issued);
    row.set("terminal", r.terminal).set("completed", r.completed);
    row.set("crashed", r.crashed).set("timedout", r.timedout);
    row.set("deliveries", r.deliveries);
    row.set("reboots", r.reboots);
    row.set("boots_completed", r.boots_completed);
    row.set("boots_failed", r.boots_failed);
    row.set("datagrams_out", r.datagrams_out);
    row.set("datagrams_in", r.datagrams_in);
    row.set("dropped", r.dropped).set("send_drops", r.send_drops);
    row.set("decode_failures", r.decode_failures);
    row.set("duplicates_suppressed", r.duplicates_suppressed);
    row.set("violations", static_cast<std::uint64_t>(r.violations.size()));
    row.set("wedged", r.wedged);
    row.set("unexpected_exits", r.unexpected_exits);
    row.set("events_shed", r.events_shed);
    row.set("finished", r.finished);
    report.row(row);
  }

  bool ok = r.ok();

  // ---- the simulated twin ----------------------------------------------
  if (twin) {
    const chaos::RunResult t = chaos::run_scenario(*scenario, opts.seed);
    std::printf(
        "twin:  %llu events  issued %llu  terminal %llu "
        "(ok %llu / crashed %llu / timedout %llu)  dup-suppressed %llu\n",
        static_cast<unsigned long long>(t.stats.events),
        static_cast<unsigned long long>(t.stats.requests_issued),
        static_cast<unsigned long long>(t.stats.requests_completed),
        static_cast<unsigned long long>(t.stats.ok_completions),
        static_cast<unsigned long long>(t.stats.crashed_completions),
        static_cast<unsigned long long>(t.stats.timedout_completions),
        static_cast<unsigned long long>(t.stats.duplicates_suppressed));
    for (const auto& v : t.violations) {
      std::printf("twin:  VIOLATION t=%lld [%s] %s\n",
                  static_cast<long long>(v.at), v.invariant.c_str(),
                  v.detail.c_str());
    }
    {
      stats::JsonObject row;
      row.set("kind", "fleet_twin").set("scenario", scenario->name);
      row.set("seed", static_cast<std::int64_t>(opts.seed));
      row.set("events", t.stats.events);
      row.set("issued", t.stats.requests_issued);
      row.set("terminal", t.stats.requests_completed);
      row.set("completed", t.stats.ok_completions);
      row.set("crashed", t.stats.crashed_completions);
      row.set("timedout", t.stats.timedout_completions);
      row.set("duplicates_suppressed", t.stats.duplicates_suppressed);
      row.set("violations", static_cast<std::uint64_t>(t.violations.size()));
      report.row(row);
    }

    // The cross-check (doc/FLEET.md): real and sim schedules differ in
    // interleaving (real wall clock, real kernel buffers), so raw counts
    // differ — what must MATCH is the exactly-once accounting: on both
    // sides every issued request reaches at most one terminal state, no
    // checker fires, and both runs actually exercised the workload.
    const bool real_exactly_once = r.violations.empty();
    const bool twin_exactly_once = t.violations.empty();
    const bool both_ran = r.issued > 0 && t.stats.requests_issued > 0;
    const bool match =
        real_exactly_once == twin_exactly_once && both_ran &&
        real_exactly_once;
    std::printf("compare: exactly-once real=%s twin=%s -> %s\n",
                real_exactly_once ? "ok" : "VIOLATED",
                twin_exactly_once ? "ok" : "VIOLATED",
                match ? "MATCH" : "MISMATCH");
    {
      stats::JsonObject row;
      row.set("kind", "fleet_compare").set("scenario", scenario->name);
      row.set("seed", static_cast<std::int64_t>(opts.seed));
      row.set("real_exactly_once", real_exactly_once);
      row.set("twin_exactly_once", twin_exactly_once);
      row.set("both_ran", both_ran);
      row.set("match", match);
      report.row(row);
    }
    ok = ok && match;
  }

  if (report.enabled()) {
    std::printf("fleet: report %s\n", report.path().c_str());
  }
  std::printf("fleet: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
