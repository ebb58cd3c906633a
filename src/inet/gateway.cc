#include "inet/gateway.h"

#include <algorithm>

#include "net/wire.h"

namespace soda::inet {

Gateway::Gateway(sim::Simulator& sim, net::Mid mid, GatewayConfig config)
    : sim_(sim), mid_(mid), config_(config) {}

Gateway::~Gateway() {
  if (alive_) crash();
}

void Gateway::attach_segment(int segment_id, net::Bus& bus) {
  Port port;
  port.segment_id = segment_id;
  port.bus = &bus;
  ports_.push_back(std::move(port));
  if (alive_) attach_port(ports_.back(), ports_.size() - 1);
}

void Gateway::attach_port(Port& port, std::size_t port_idx) {
  // Two ears per segment: a station attachment hears broadcasts (the bus
  // delivers those to every station), the relay tap hears unicast frames
  // whose destination has no station on this segment — i.e. exactly the
  // cross-segment traffic.
  port.bus->attach(mid_, [this, port_idx](const net::FrameRef& f) {
    on_frame(port_idx, f);
  });
  port.bus->add_relay_tap(mid_, [this, port_idx](const net::FrameRef& f) {
    on_frame(port_idx, f);
  });
}

void Gateway::crash() {
  alive_ = false;
  ++gen_;  // invalidates every in-flight drain hold
  for (auto& port : ports_) {
    port.bus->detach(mid_);
    port.bus->remove_relay_tap(mid_);
    port.queue.clear();
    port.keys.clear();
    port.queued_count.clear();
    port.busy = false;
  }
  mid_routes_.clear();
  pattern_routes_.clear();
  sim_.trace().record(
      sim_.now(), sim::TraceCategory::kBoot, mid_,
      sim::TracePayload{}.with_status(sim::TraceStatus::kKilled));
}

void Gateway::reboot() {
  if (alive_) return;
  alive_ = true;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    attach_port(ports_[i], i);
  }
  sim_.trace().record(
      sim_.now(), sim::TraceCategory::kBoot, mid_,
      sim::TracePayload{}.with_status(sim::TraceStatus::kBooting));
}

std::vector<int> Gateway::segment_ids() const {
  std::vector<int> out;
  out.reserve(ports_.size());
  for (const auto& p : ports_) out.push_back(p.segment_id);
  return out;
}

std::vector<std::size_t> Gateway::queue_depths() const {
  std::vector<std::size_t> out;
  out.reserve(ports_.size());
  for (const auto& p : ports_) out.push_back(p.queue.size());
  return out;
}

std::vector<MidRoute> Gateway::mid_routes() const {
  std::vector<MidRoute> out;
  out.reserve(mid_routes_.size());
  for (const auto& [mid, r] : mid_routes_) {
    out.push_back(MidRoute{mid, r.segment, r.hops});
  }
  std::sort(out.begin(), out.end(),
            [](const MidRoute& a, const MidRoute& b) { return a.mid < b.mid; });
  return out;
}

std::vector<PatternRoute> Gateway::pattern_routes() const {
  std::vector<PatternRoute> out;
  out.reserve(pattern_routes_.size());
  for (const auto& [pattern, r] : pattern_routes_) {
    out.push_back(PatternRoute{pattern, r.segment, r.hops});
  }
  std::sort(out.begin(), out.end(),
            [](const PatternRoute& a, const PatternRoute& b) {
              return a.pattern < b.pattern;
            });
  return out;
}

void Gateway::trace_relay(const net::Frame& f, sim::TraceStatus status,
                          int segment_detail) {
  sim_.trace().record(
      sim_.now(), sim::TraceCategory::kRelay, mid_,
      net::trace_payload(f).with_status(status).with_detail(segment_detail));
}

void Gateway::learn(std::size_t port_idx, const net::Frame& f) {
  const int seg = ports_[port_idx].segment_id;
  // Transparent-bridge source learning: seeing src on this segment at
  // `hops` relays means src is reachable through it. Prefer shorter paths;
  // refresh in place when the same segment reports a new distance.
  const Route cand{seg, f.hops};
  auto it = mid_routes_.find(f.src);
  if (it == mid_routes_.end() || cand.hops < it->second.hops ||
      it->second.segment == seg) {
    mid_routes_[f.src] = cand;
  }
  if (f.discover && f.discover->is_reply) {
    const net::Pattern p = f.discover->pattern & net::kPatternMask;
    auto pit = pattern_routes_.find(p);
    if (pit == pattern_routes_.end() || cand.hops < pit->second.hops ||
        pit->second.segment == seg) {
      pattern_routes_[p] = cand;
    }
  }
}

void Gateway::on_frame(std::size_t port_idx, const net::FrameRef& f) {
  if (!alive_) return;
  const net::Frame& frame = *f;
  if (frame.relay_src == mid_) {
    // Our own relay echoing back (we re-broadcast onto a segment we also
    // listen on). Not traffic, and must not teach routes.
    return;
  }
  learn(port_idx, frame);
  const int arrival_seg = ports_[port_idx].segment_id;
  if (frame.hops >= kRelayHopLimit) {
    ++ttl_drops_;
    trace_relay(frame, sim::TraceStatus::kTtlExpired, arrival_seg);
    return;
  }

  if (frame.dst == net::kBroadcastMid) {
    // Broadcast: flood every other segment (DISCOVER across the internet).
    for (std::size_t i = 0; i < ports_.size(); ++i) {
      if (i == port_idx) continue;
      relay(port_idx, i, frame);
    }
    return;
  }

  // Unicast: route if we know where dst lives, flood if we don't. Never
  // back onto the arrival segment — if dst is (believed) local there, the
  // frame only reached us because the station is gone; relaying it
  // elsewhere would be noise.
  auto it = mid_routes_.find(frame.dst);
  if (it != mid_routes_.end()) {
    if (it->second.segment == arrival_seg) {
      ++no_route_drops_;
      trace_relay(frame, sim::TraceStatus::kNoRoute, arrival_seg);
      return;
    }
    for (std::size_t i = 0; i < ports_.size(); ++i) {
      if (ports_[i].segment_id == it->second.segment) {
        relay(port_idx, i, frame);
        return;
      }
    }
  }
  // Unknown destination MID. Before flooding, consult the learned pattern
  // routes: a REQUEST names the pattern it wants served, and DISCOVER
  // replies crossing this gateway taught us which side that pattern's
  // servers live on. On chains of 3+ segments this turns O(segments)
  // flood copies into one directed relay per hop. A stale hint is safe
  // the same way a stale MID route is: the copy dies downstream and the
  // requester's retransmit (eventually crash detection) repairs end to
  // end. A hint pointing back at the arrival segment is ignored — flood
  // conservatively rather than drop.
  if (frame.request) {
    const net::Pattern p = frame.request->pattern & net::kPatternMask;
    auto pit = pattern_routes_.find(p);
    if (pit != pattern_routes_.end() && pit->second.segment != arrival_seg) {
      for (std::size_t i = 0; i < ports_.size(); ++i) {
        if (ports_[i].segment_id == pit->second.segment) {
          ++pattern_forwards_;
          relay(port_idx, i, frame);
          return;
        }
      }
    }
  }
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (i == port_idx) continue;
    relay(port_idx, i, frame);
  }
}

void Gateway::relay(std::size_t from_idx, std::size_t target_idx,
                    const net::Frame& f) {
  if (forward_filter_ &&
      forward_filter_(f, ports_[from_idx].segment_id,
                      ports_[target_idx].segment_id)) {
    return;  // an injected inter-segment partition ate it
  }
  enqueue(target_idx, f);
}

void Gateway::enqueue(std::size_t target_idx, const net::Frame& f) {
  Port& port = ports_[target_idx];
  const auto hops = static_cast<std::uint8_t>(f.hops + 1);
  // Coalesce: hash the exact wire image of the relayed frame (what
  // encode_frame would emit) so a retransmit of a frame still waiting in
  // this queue — byte-identical by Delta-t's definition of a
  // retransmission — is recognized and not queued twice.
  const std::uint64_t key = net::wire_hash(f, hops, mid_);
  auto count = port.queued_count.find(key);
  if (count != port.queued_count.end() && count->second > 0) {
    ++coalesced_;
    return;
  }
  if (port.queue.size() >= config_.egress_queue_limit) {
    ++overflow_drops_;
    trace_relay(f, sim::TraceStatus::kQueueOverflow, port.segment_id);
    return;
  }
  net::Frame copy = f;
  copy.hops = hops;
  copy.relay_src = mid_;
  port.queue.push_back(port.bus->pool().make(std::move(copy)));
  port.keys.push_back(key);
  ++port.queued_count[key];
  pump(target_idx);
}

void Gateway::pump(std::size_t target_idx) {
  Port& port = ports_[target_idx];
  if (port.busy || port.queue.empty()) return;
  port.busy = true;
  net::FrameRef f = std::move(port.queue.front());
  port.queue.pop_front();
  const std::uint64_t key = port.keys.front();
  port.keys.pop_front();
  auto count = port.queued_count.find(key);
  if (count != port.queued_count.end() && --count->second == 0) {
    port.queued_count.erase(count);
  }
  // Store-and-forward: processing plus serialization onto the egress link
  // occupy this port before the next queued frame can go out. The bus adds
  // its own propagation + wire time on delivery, as for any sender.
  const sim::Duration hold =
      config_.relay_latency +
      static_cast<sim::Duration>(f->wire_size()) * port.bus->config().us_per_byte;
  const std::uint64_t gen = gen_;
  sim_.after(hold, [this, target_idx, gen, f = std::move(f)]() mutable {
    if (gen != gen_) return;  // gateway crashed while the frame was held
    Port& p = ports_[target_idx];
    p.busy = false;
    ++forwarded_;
    trace_relay(*f, sim::TraceStatus::kForwarded, p.segment_id);
    p.bus->send_ref(std::move(f));
    pump(target_idx);
  });
}

}  // namespace soda::inet
