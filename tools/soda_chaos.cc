// soda_chaos — deterministic fault-injection runner for the SODA stack.
//
//   soda_chaos --list
//   soda_chaos --scenario regression --seeds 1000 --jobs 8
//   soda_chaos --scenario scenarios/regression.json --seed 77 --dump
//   soda_chaos --scenario smoke --seed 42 --shrink
//
// A sweep fans the scenario across seeds [first-seed, first-seed+seeds) on
// a thread pool; every run is a pure function of (scenario, seed), so any
// failure reported here reproduces bit-identically with --seed. Results
// also land in BENCH_chaos.jsonl (kind=chaos_run / chaos_sweep /
// chaos_shrink) for CI artifact upload.
//
// Exit status: 0 all invariants held, 1 violations found, 2 usage error.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "benchsupport/report.h"
#include "chaos/runner.h"
#include "chaos/scenario.h"

namespace {

using namespace soda;

int usage() {
  std::fprintf(stderr,
               "usage: soda_chaos --scenario <name|file.json> [options]\n"
               "       soda_chaos --list\n"
               "\n"
               "sweep options:\n"
               "  --seeds N        seeds to sweep (default 100)\n"
               "  --first-seed S   first seed (default 1)\n"
               "  --jobs N         worker threads (default: hardware)\n"
               "  --max-failures N stop collecting after N failures (16)\n"
               "\n"
               "single-run options:\n"
               "  --seed S         run exactly one seed, print its hash\n"
               "  --dump           with --seed: print every trace event\n"
               "  --shrink         with --seed: minimize the fault schedule\n"
               "  --export         print the scenario as JSONL and exit\n");
  return 2;
}

std::optional<chaos::Scenario> load_scenario(const std::string& arg) {
  if (auto s = chaos::builtin_scenario(arg)) return s;
  std::ifstream in(arg);
  if (!in) {
    std::fprintf(stderr, "soda_chaos: no builtin or file named '%s'\n",
                 arg.c_str());
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto s = chaos::scenario_from_jsonl(text.str());
  if (!s) {
    std::fprintf(stderr, "soda_chaos: malformed scenario file '%s'\n",
                 arg.c_str());
  }
  return s;
}

void print_violations(const chaos::RunResult& r) {
  for (const auto& v : r.violations) {
    std::printf("  seed %llu  t=%lld  [%s] %s\n",
                static_cast<unsigned long long>(r.seed),
                static_cast<long long>(v.at), v.invariant.c_str(),
                v.detail.c_str());
  }
}

stats::JsonObject run_row(const chaos::Scenario& s,
                          const chaos::RunResult& r) {
  stats::JsonObject o;
  o.set("kind", "chaos_run")
      .set("scenario", s.name)
      .set("hash_epoch", chaos::kHashEpoch)
      .set("seed", static_cast<std::uint64_t>(r.seed))
      .set("trace_hash", static_cast<std::uint64_t>(r.trace_hash))
      .set("ok", r.ok() ? 1 : 0)
      .set("violations", static_cast<std::int64_t>(r.violations.size()))
      .set("events", static_cast<std::int64_t>(r.stats.events))
      .set("requests", static_cast<std::int64_t>(r.stats.requests_issued))
      .set("completed", static_cast<std::int64_t>(r.stats.requests_completed))
      .set("crashed", static_cast<std::int64_t>(r.stats.crashed_completions))
      .set("frames", static_cast<std::int64_t>(r.stats.frames_sent))
      .set("lost", static_cast<std::int64_t>(r.stats.frames_lost))
      .set("duplicated",
           static_cast<std::int64_t>(r.stats.frames_duplicated));
  if (!r.violations.empty()) {
    o.set("first_violation", r.violations.front().invariant);
  }
  return o;
}

int single_run(const chaos::Scenario& scenario, std::uint64_t seed, bool dump,
               bool shrink, bench::JsonlReport& report) {
  chaos::RunResult r = chaos::run_scenario(
      scenario, seed, nullptr, chaos::RunOptions{.keep_events = dump});
  if (dump) {
    for (const auto& e : r.events) {
      std::printf("%10lld  %s\n", static_cast<long long>(e.at),
                  sim::describe(e).c_str());
    }
  }
  std::printf("scenario=%s seed=%llu hash=%016llx events=%llu requests=%llu "
              "completed=%llu crashed=%llu : %s\n",
              scenario.name.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(r.trace_hash),
              static_cast<unsigned long long>(r.stats.events),
              static_cast<unsigned long long>(r.stats.requests_issued),
              static_cast<unsigned long long>(r.stats.requests_completed),
              static_cast<unsigned long long>(r.stats.crashed_completions),
              r.ok() ? "OK" : "VIOLATIONS");
  for (const auto& w : r.warnings) {
    std::printf("  warning: %s\n", w.c_str());
  }
  print_violations(r);
  report.row(run_row(scenario, r));

  if (shrink && !r.ok()) {
    int runs = 0;
    chaos::Scenario minimal =
        chaos::shrink_failure(scenario, seed, nullptr, &runs);
    std::printf("shrink: %zu -> %zu faults (%d candidate runs)\n",
                scenario.faults.size(), minimal.faults.size(), runs);
    std::printf("%s", chaos::to_jsonl(minimal).c_str());
    stats::JsonObject o;
    o.set("kind", "chaos_shrink")
        .set("scenario", scenario.name)
        .set("seed", static_cast<std::uint64_t>(seed))
        .set("faults_before", static_cast<std::int64_t>(scenario.faults.size()))
        .set("faults_after", static_cast<std::int64_t>(minimal.faults.size()))
        .set("runs", runs);
    report.row(o);
  }
  return r.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_arg;
  chaos::SweepOptions sweep;
  std::uint64_t single_seed = 0;
  bool have_single = false, dump = false, shrink = false;
  bool export_jsonl = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--list") {
      for (const auto& n : chaos::builtin_scenario_names()) {
        std::printf("%s\n", n.c_str());
      }
      return 0;
    } else if (a == "--scenario") {
      const char* v = next();
      if (!v) return usage();
      scenario_arg = v;
    } else if (a == "--seeds") {
      const char* v = next();
      if (!v) return usage();
      sweep.seeds = std::atoi(v);
    } else if (a == "--first-seed") {
      const char* v = next();
      if (!v) return usage();
      sweep.first_seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--jobs") {
      const char* v = next();
      if (!v) return usage();
      sweep.jobs = std::atoi(v);
    } else if (a == "--max-failures") {
      const char* v = next();
      if (!v) return usage();
      sweep.max_failures = std::atoi(v);
    } else if (a == "--seed") {
      const char* v = next();
      if (!v) return usage();
      single_seed = std::strtoull(v, nullptr, 10);
      have_single = true;
    } else if (a == "--dump") {
      dump = true;
    } else if (a == "--shrink") {
      shrink = true;
    } else if (a == "--export") {
      export_jsonl = true;
    } else {
      std::fprintf(stderr, "soda_chaos: unknown option '%s'\n", a.c_str());
      return usage();
    }
  }

  if (scenario_arg.empty()) return usage();
  auto scenario = load_scenario(scenario_arg);
  if (!scenario) return 2;

  if (export_jsonl) {
    std::fputs(chaos::to_jsonl(*scenario).c_str(), stdout);
    return 0;
  }

  bench::JsonlReport report("chaos");

  if (have_single) {
    return single_run(*scenario, single_seed, dump, shrink, report);
  }

  sweep.on_failure = [&](const chaos::RunResult& r) {
    std::printf("FAIL seed=%llu hash=%016llx\n",
                static_cast<unsigned long long>(r.seed),
                static_cast<unsigned long long>(r.trace_hash));
    print_violations(r);
    report.row(run_row(*scenario, r));
  };

  chaos::SweepResult result = chaos::sweep_scenario(*scenario, sweep, nullptr);

  stats::JsonObject o;
  o.set("kind", "chaos_sweep")
      .set("scenario", scenario->name)
      .set("first_seed", static_cast<std::uint64_t>(sweep.first_seed))
      .set("seeds", sweep.seeds)
      .set("ran", result.ran)
      .set("failures", static_cast<std::int64_t>(result.failures.size()));
  report.row(o);

  std::printf("%s: %d/%d seeds ran, %zu failure(s)\n", scenario->name.c_str(),
              result.ran, sweep.seeds, result.failures.size());
  if (!result.failures.empty()) {
    std::printf("reproduce with: soda_chaos --scenario %s --seed %llu\n",
                scenario_arg.c_str(),
                static_cast<unsigned long long>(result.failures.front().seed));
    return 1;
  }
  return 0;
}
