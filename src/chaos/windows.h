// Fault windows: a scenario's windowed link faults resolved against the
// scenario and matched against one frame. The simulated bus filters
// (chaos/runner.cc) and the fleet worker's UDP receive filter
// (fleet/worker.cc) both match frames here, so a loss window or a
// partition means the same thing on either medium.
#pragma once

#include <cstdint>
#include <vector>

#include "chaos/scenario.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace soda::chaos {

/// A fault window resolved against its scenario (until == 0 expanded).
struct Window {
  sim::Time at = 0;
  sim::Time until = 0;
  int node = -1;
  int peer = -1;
  double probability = 1.0;
  sim::Duration delay = 0;
  std::uint64_t group = 0;

  bool active(sim::Time now) const { return now >= at && now < until; }

  /// A link fault covers the frame src -> dst at `now`.
  bool matches_link(sim::Time now, net::Mid src, net::Mid dst) const {
    return active(now) && (node < 0 || node == src) &&
           (peer < 0 || peer == dst);
  }

  /// A partition separates src from dst at `now`: exactly one of the two
  /// is in `group`.
  bool cuts(sim::Time now, net::Mid src, net::Mid dst) const {
    return active(now) && (((group >> static_cast<unsigned>(src)) ^
                            (group >> static_cast<unsigned>(dst))) &
                           1);
  }
};

/// The faults of `kind` that apply to `segment`'s medium (a fault with
/// segment < 0 applies to every segment), resolved, in schedule order.
inline std::vector<Window> windows(const Scenario& s, FaultKind kind,
                                   int segment) {
  std::vector<Window> out;
  for (const Fault& f : s.faults) {
    if (f.kind != kind || (f.segment >= 0 && f.segment != segment)) continue;
    out.push_back(Window{f.at, s.window_end(f), f.node, f.peer,
                         f.probability, f.delay, f.group});
  }
  return out;
}

/// Each of `ws` that covers src -> dst at `now` draws once from the
/// ambient RNG stream, in schedule order, until one draw hits.
inline bool any_hit(const std::vector<Window>& ws, sim::Simulator& sim,
                    sim::Time now, net::Mid src, net::Mid dst) {
  for (const Window& w : ws) {
    if (w.matches_link(now, src, dst) && sim.rng().chance(w.probability)) {
      return true;
    }
  }
  return false;
}

/// Loss windows and partitions share one drop decision. Partitions are
/// tested first and draw nothing; then the loss windows draw (any_hit).
struct LossWindows {
  std::vector<Window> partitions;
  std::vector<Window> losses;

  LossWindows(const Scenario& s, int segment)
      : partitions(windows(s, FaultKind::kPartition, segment)),
        losses(windows(s, FaultKind::kLoss, segment)) {}

  bool empty() const { return partitions.empty() && losses.empty(); }

  bool drops(sim::Simulator& sim, net::Mid src, net::Mid dst) const {
    const sim::Time now = sim.now();
    for (const Window& w : partitions) {
      if (w.cuts(now, src, dst)) return true;
    }
    return any_hit(losses, sim, now, src, dst);
  }
};

}  // namespace soda::chaos
