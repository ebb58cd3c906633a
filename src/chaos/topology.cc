#include "chaos/topology.h"

#include <algorithm>
#include <utility>

namespace soda::chaos {

Topology::Topology(std::uint64_t seed, int segments, bool fast, int nodes,
                   std::optional<sim::PartitionMode> partitions)
    : nodes_(nodes) {
  if (segments > 1) {
    inet::Internet::Options o;
    o.seed = seed;
    o.segments = segments;
    if (fast) {
      o.bus = net::BusConfig::fast();
      o.gateway = inet::GatewayConfig::fast();
    }
    internet_ = std::make_unique<inet::Internet>(std::move(o));
    sim_ = &internet_->sim();
    for (int s = 0; s < segments; ++s) buses_.push_back(&internet_->bus(s));
  } else {
    Network::Options o;
    o.seed = seed;
    if (fast) o.bus = net::BusConfig::fast();
    single_ = std::make_unique<Network>(o);
    sim_ = &single_->sim();
    buses_.push_back(&single_->bus());
  }
  if (partitions) {
    sim_->enable_partitions(
        internet_ ? this->segments() : std::max(1, nodes), *partitions);
  }
}

void Topology::populate(
    const std::function<NodeConfig(Mid)>& config,
    const std::function<std::unique_ptr<Client>(Mid)>& client) {
  for (Mid mid = 0; mid < nodes_; ++mid) {
    Node& n = single_ ? single_->add_node(config(mid))
                      : internet_->add_node(mid % segments(), config(mid));
    n.install_client(client(mid), n.mid());
  }
  if (internet_) internet_->add_gateway();
}

Topology::Totals Topology::totals() {
  Totals t;
  for (const net::Bus* b : buses_) {
    t.frames_sent += b->frames_sent();
    t.frames_filtered += b->frames_filtered();
    t.frames_lost += b->frames_lost();
    t.frames_duplicated += b->frames_duplicated();
  }
  for (const auto& g : gateways()) {
    t.frames_relayed += g->forwarded();
    t.relay_drops += g->ttl_drops() + g->overflow_drops();
  }
  return t;
}

}  // namespace soda::chaos
