#include "chaos/runner.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "chaos/topology.h"
#include "chaos/windows.h"
#include "chaos/workload.h"
#include "stats/metrics.h"

namespace soda::chaos {

namespace {

/// Translate the scenario's link faults into deterministic bus filters on
/// ONE bus. Loss windows and partitions share the loss filter; corruption,
/// duplication and delay each get their own, so every fault kind honours
/// its node/peer restriction. A fault with `segment >= 0` is installed
/// only on that segment's bus (per-segment targeting, satellite of
/// doc/INTERNET.md) — the filtering happens here at install time, so the
/// per-frame filter bodies (and their RNG draw order) are identical to
/// the single-bus original.
void install_link_faults(sim::Simulator& sim, net::Bus& bus, int bus_segment,
                         const Scenario& s) {
  LossWindows loss(s, bus_segment);
  if (!loss.empty()) {
    bus.set_loss_filter([&sim, loss](const net::Frame& f, Mid dst) {
      return loss.drops(sim, f.src, dst);
    });
  }

  const auto dups = windows(s, FaultKind::kDuplicate, bus_segment);
  if (!dups.empty()) {
    bus.set_dup_filter([&sim, dups](const net::Frame& f, Mid dst) {
      return any_hit(dups, sim, sim.now(), f.src, dst);
    });
  }

  const auto delays = windows(s, FaultKind::kDelay, bus_segment);
  if (!delays.empty()) {
    bus.set_delay_filter([&sim, delays](const net::Frame& f, Mid dst) {
      sim::Duration extra = 0;
      const sim::Time now = sim.now();
      for (const Window& w : delays) {
        if (w.matches_link(now, f.src, dst) && w.delay > 0) {
          extra += static_cast<sim::Duration>(sim.rng().next_range(0, w.delay));
        }
      }
      return extra;
    });
  }

  const auto corrupts = windows(s, FaultKind::kCorrupt, bus_segment);
  if (!corrupts.empty()) {
    bus.set_corrupt_filter([&sim, corrupts](const net::Frame& f, Mid dst) {
      return any_hit(corrupts, sim, sim.now(), f.src, dst);
    });
  }
}

/// Schedule the crash / reboot events. A reboot reinstalls the node's
/// workload client; the kernel keeps its monotone TID floor and its
/// Delta-t quarantine across the reboot (§5.4), so rebooting before the
/// quarantine elapses is protocol-safe — the transport just stays silent
/// until it expires.
void schedule_crashes(Topology& net, const Scenario& s) {
  auto& sim = net.sim();
  for (const Fault& f : s.faults) {
    if (f.kind != FaultKind::kCrash) continue;
    if (f.node < 0 || f.node >= s.nodes) continue;
    const Mid mid = static_cast<Mid>(f.node);
    // Pin the injected events to the victim's partition: a crash is
    // external intervention, not protocol traffic, and runs as the victim.
    sim::ScopedPartition guard(sim, net.node(mid).partition());
    sim.at(f.at, [&net, mid] { net.node(mid).crash(); });
    if (f.reboot_after > 0) {
      sim.at(f.at + f.reboot_after, [&net, &s, mid] {
        net.node(mid).install_client(make_workload_client(s, mid), mid);
      });
    }
  }
}

/// Schedule kGatewayCrash events (f.node indexes into gateways() in
/// creation order) and install the relay-drop windows that implement
/// kSegmentPartition / asymmetric routes. The ForwardFilter survives a
/// gateway crash/reboot — it models the inter-segment links, not the
/// bridge hardware — so a partition that spans a gateway flap stays cut.
/// A single bus has no gateways, so there this installs nothing.
void install_gateway_faults(Topology& net, const Scenario& s) {
  auto& sim = net.sim();
  for (const Fault& f : s.faults) {
    if (f.kind != FaultKind::kGatewayCrash) continue;
    if (f.node < 0 ||
        static_cast<std::size_t>(f.node) >= net.gateways().size()) {
      continue;
    }
    inet::Gateway& g = *net.gateways()[static_cast<std::size_t>(f.node)];
    sim.at(f.at, [&g] { g.crash(); });
    if (f.reboot_after > 0) {
      sim.at(f.at + f.reboot_after, [&g] { g.reboot(); });
    }
  }

  // A cut is a window from segment `node` to segment `peer`.
  std::vector<Window> cuts;
  for (const Fault& f : s.faults) {
    if (f.kind != FaultKind::kSegmentPartition) continue;
    cuts.push_back(Window{f.at, s.window_end(f), f.node, f.peer});
  }
  if (cuts.empty()) return;
  for (auto& g : net.gateways()) {
    g->set_forward_filter(
        [&sim, cuts](const net::Frame&, int from, int to) {
          const sim::Time now = sim.now();
          for (const Window& c : cuts) {
            if (c.active(now) && c.node == from && c.peer == to) return true;
          }
          return false;
        });
  }
}

/// run_scenario that converts an escaped exception (a client program
/// throwing, a simulation runaway) into a reported violation, so a worker
/// thread never terminates the sweep.
RunResult run_guarded(const Scenario& scenario, std::uint64_t seed,
                      const InvariantFactory& extra) {
  try {
    return run_scenario(scenario, seed, extra);
  } catch (const std::exception& ex) {
    RunResult r;
    r.seed = seed;
    r.violations.push_back(Violation{"exception", 0, ex.what()});
    return r;
  }
}

}  // namespace

RunResult run_scenario(const Scenario& scenario, std::uint64_t seed,
                       const InvariantFactory& extra,
                       const RunOptions& options) {
  // Epoch 3: every run is partitioned — per segment, or per node on a
  // single bus — on the one wheel. Events pop in global (time, seq) order;
  // each runs as its partition and draws from that partition's stream.
  Topology net(seed, scenario.segments, scenario.fast, scenario.nodes,
               sim::PartitionMode::kSingleWheel);
  auto& sim = net.sim();
  sim.trace().enable_all();
  sim.trace().set_store(options.keep_events);

  InvariantSet invariants = InvariantSet::standard();
  if (extra) {
    for (auto& inv : extra()) invariants.add(std::move(inv));
  }
  RunObserver observer(std::move(invariants));
  observer.observe(sim.trace());

  RunResult result;
  result.seed = seed;
  std::vector<TimingModel> timings;
  timings.reserve(static_cast<std::size_t>(scenario.nodes));
  net.populate(
      [&](Mid mid) {
        NodeConfig cfg = node_config(scenario, mid);
        timings.push_back(cfg.timing);
        return cfg;
      },
      [&](Mid mid) { return make_workload_client(scenario, mid); });

  // Construction-time Delta-t validation: the workload only exchanges
  // sequenced traffic between clients and servers, so check each such pair
  // (both directions) against the bounded-drift envelope. Checking all
  // pairs would falsely flag configurations like skew_extreme, where two
  // skewed *clients* never talk to each other. Warn-and-trace rather than
  // reject: riding outside the envelope is a legitimate experiment (it is
  // how the seed-27 duplicate was found), it just must not be a surprise.
  for (int c = scenario.servers; c < scenario.nodes; ++c) {
    for (int sv = 0; sv < scenario.servers; ++sv) {
      const int pairs[2][2] = {{c, sv}, {sv, c}};
      for (const auto& p : pairs) {
        const TimingModel& req = timings[static_cast<std::size_t>(p[0])];
        const TimingModel& rcv = timings[static_cast<std::size_t>(p[1])];
        if (TimingModel::at_most_once_safe(req, rcv)) continue;
        result.warnings.push_back(
            "timer skew outside the at-most-once envelope: node " +
            std::to_string(p[0]) + "'s retransmit span (" +
            std::to_string(req.retransmit_span()) + " us) exceeds node " +
            std::to_string(p[1]) + "'s record lifetime (" +
            std::to_string(rcv.record_lifetime()) +
            " us); duplicate delivery is possible (doc/OVERLOAD.md)");
        sim.trace().record(sim.now(), sim::TraceCategory::kOther,
                           static_cast<Mid>(p[0]),
                           sim::TracePayload{}
                               .with_peer(static_cast<Mid>(p[1]))
                               .with_status(sim::TraceStatus::kSkewWarning));
      }
    }
  }

  for (int s = 0; s < net.segments(); ++s) {
    install_link_faults(sim, net.bus(s), s, scenario);
  }
  schedule_crashes(net, scenario);
  install_gateway_faults(net, scenario);
  net.run_for(scenario.end_time());
  net.check_clients();
  observer.finish(sim.now());

  result.trace_hash = observer.hash();
  result.violations = observer.violations();
  result.stats = observer.stats();
  const Topology::Totals medium = net.totals();
  result.stats.frames_sent = medium.frames_sent;
  result.stats.frames_lost = medium.frames_lost;
  result.stats.frames_duplicated = medium.frames_duplicated;
  result.stats.duplicates_suppressed =
      sim.metrics().total(stats::Counter::kDuplicatesSuppressed);
  if (options.keep_events) result.events = sim.trace().events();
  return result;
}

SweepResult sweep_scenario(const Scenario& scenario,
                           const SweepOptions& options,
                           const InvariantFactory& extra) {
  SweepResult out;
  const int seeds = std::max(0, options.seeds);
  if (seeds == 0) return out;
  int jobs = options.jobs > 0
                 ? options.jobs
                 : static_cast<int>(std::thread::hardware_concurrency());
  jobs = std::clamp(jobs, 1, seeds);

  std::atomic<int> next{0};
  std::atomic<int> failure_count{0};
  std::mutex mu;
  auto worker = [&] {
    for (;;) {
      const int i = next.fetch_add(1);
      if (i >= seeds) return;
      if (failure_count.load() >= options.max_failures) return;
      const std::uint64_t seed =
          options.first_seed + static_cast<std::uint64_t>(i);
      RunResult r = run_guarded(scenario, seed, extra);
      std::lock_guard<std::mutex> lock(mu);
      ++out.ran;
      if (!r.ok()) {
        ++failure_count;
        if (options.on_failure) options.on_failure(r);
        out.failures.push_back(std::move(r));
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs));
  for (int t = 0; t < jobs; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  std::sort(out.failures.begin(), out.failures.end(),
            [](const RunResult& a, const RunResult& b) {
              return a.seed < b.seed;
            });
  return out;
}

Scenario shrink_failure(const Scenario& scenario, std::uint64_t seed,
                        const InvariantFactory& extra, int* runs_used) {
  int runs = 0;
  auto violated_names = [&](const Scenario& s) {
    ++runs;
    std::set<std::string> names;
    for (const Violation& v : run_guarded(s, seed, extra).violations) {
      names.insert(v.invariant);
    }
    return names;
  };

  const std::set<std::string> original = violated_names(scenario);
  Scenario best = scenario;
  if (original.empty()) {
    if (runs_used) *runs_used = runs;
    return best;  // (scenario, seed) doesn't fail — nothing to shrink
  }

  // A candidate counts as "still failing" only if it reproduces one of the
  // *original* violations; trading the bug under investigation for a
  // different one isn't a reduction.
  auto still_fails = [&](const Scenario& s) {
    for (const std::string& n : violated_names(s)) {
      if (original.count(n)) return true;
    }
    return false;
  };

  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < best.faults.size(); ++i) {
      Scenario candidate = best;
      candidate.faults.erase(candidate.faults.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (still_fails(candidate)) {
        best = std::move(candidate);
        progress = true;
        break;  // fault indices shifted — restart the scan
      }
    }
  }
  if (runs_used) *runs_used = runs;
  return best;
}

}  // namespace soda::chaos
