// The topology step of a chaos run or a scale-harness run: the classic
// single broadcast bus (core::Network), or, with more than one segment,
// an internetwork of per-segment buses joined by one hub gateway
// (inet::Internet). Station MID i lives on segment i % segments, so
// servers and load clients spread across segments and a share of every
// run's traffic crosses the store-and-forward relay. Callers see one
// shape either way: the simulator, the per-segment buses, the nodes, the
// (possibly empty) gateway list and the medium totals.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/network.h"
#include "inet/internet.h"

namespace soda::chaos {

class Topology {
 public:
  /// Build the medium for `nodes` stations over `segments` segments
  /// (< 2 means one bus) under the fast presets when `fast` is set. With
  /// `partitions`, the simulator is split in that mode before anything is
  /// scheduled: one partition per segment, or per node on a single bus.
  Topology(std::uint64_t seed, int segments, bool fast, int nodes,
           std::optional<sim::PartitionMode> partitions);

  /// Add the stations, MID i on segment i % segments, each configured by
  /// `config(mid)` and running `client(mid)`; then, on an internetwork,
  /// the hub gateway bridging every segment (MID == nodes, the next off
  /// the shared counter, so faults never address it as a node).
  void populate(const std::function<NodeConfig(Mid)>& config,
                const std::function<std::unique_ptr<Client>(Mid)>& client);

  sim::Simulator& sim() { return *sim_; }
  int segments() const { return static_cast<int>(buses_.size()); }
  net::Bus& bus(int segment) {
    return *buses_[static_cast<std::size_t>(segment)];
  }
  Node& node(Mid mid) {
    return single_ ? single_->node(mid) : internet_->node(mid);
  }
  /// The hub gateway of an internetwork; empty on a single bus.
  std::vector<std::unique_ptr<inet::Gateway>>& gateways() {
    return internet_ ? internet_->gateways() : no_gateways_;
  }
  /// The smallest cross-partition latency: bus propagation, and the
  /// gateway hold on an internetwork.
  sim::Duration lookahead() const {
    return single_ ? single_->bus().config().propagation
                   : internet_->lookahead();
  }

  /// Medium counters summed over every segment and gateway.
  struct Totals {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_filtered = 0;  // broadcast copies the NIC skipped
    std::uint64_t frames_lost = 0;
    std::uint64_t frames_duplicated = 0;
    std::uint64_t frames_relayed = 0;  // gateway store-and-forward copies
    std::uint64_t relay_drops = 0;     // TTL + egress-queue-overflow drops
  };
  Totals totals();

  void run_for(sim::Duration d) { sim_->run_until(sim_->now() + d); }
  /// Propagate the first exception any client program hit.
  void check_clients() {
    if (single_) {
      single_->check_clients();
    } else {
      internet_->check_clients();
    }
  }

 private:
  int nodes_;
  std::unique_ptr<Network> single_;
  std::unique_ptr<inet::Internet> internet_;
  sim::Simulator* sim_ = nullptr;
  std::vector<net::Bus*> buses_;
  std::vector<std::unique_ptr<inet::Gateway>> no_gateways_;
};

}  // namespace soda::chaos
