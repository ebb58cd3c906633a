// A *MOD-style port runtime (the paper's comparison baseline, §5.5).
//
// LeBlanc implemented *MOD message passing on the same PDP-11/Megalink
// hardware; the paper reports 20.7 ms for a synchronous remote port call
// and 11.1 ms for an asynchronous one — roughly 2x SODA's equivalent
// operations. The *MOD runtime is slower because it is layered: a
// datagram layer, a reliable-transport layer with explicit (never
// piggybacked) ACKs, and a typed-port layer with kernel-side buffering
// plus a language-level scheduler hop that dispatches each delivery.
//
// This baseline reproduces that structure over the same simulated bus:
// every message crosses three layers on each side (each charging CPU and
// a buffer copy), every message is ACKed by a dedicated packet, the ACK
// is only generated after the port layer has buffered the message, and
// delivery goes through a scheduler hop before the receiving process
// runs. Per-layer costs are calibrated to LeBlanc's published endpoints
// the same way the SODA TimingModel is calibrated to the SODA breakdown
// table (see DESIGN.md).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "net/bus.h"
#include "proto/timing.h"
#include "sim/coro.h"
#include "sim/simulator.h"

namespace soda::baseline {

struct StarModCosts {
  sim::Duration datagram_layer = 900;   // per packet, per side
  sim::Duration transport_layer = 1450; // reliable layer, per message/side
  sim::Duration port_layer = 1850;      // typed-port machinery, per side
  sim::Duration scheduler = 1550;       // language-runtime dispatch hop
  sim::Duration copy_per_byte = 6;      // one copy per layer boundary
  int copies_per_side = 2;              // layer boundaries that copy
  sim::Duration retransmit_interval = 30'000;
  int max_retries = 8;
};

class StarModNode {
 public:
  using SyncHandler = std::function<std::vector<std::byte>(
      const std::vector<std::byte>&)>;
  using AsyncHandler = std::function<void(const std::vector<std::byte>&)>;
  using Bytes = std::vector<std::byte>;

  StarModNode(sim::Simulator& sim, net::Bus& bus, net::Mid mid,
              StarModCosts costs = {})
      : sim_(sim), bus_(bus), mid_(mid), costs_(costs), cpu_(sim, ledger_) {
    bus_.attach(mid_, [this](const net::FrameRef& f) { on_frame(*f); });
  }
  ~StarModNode() { bus_.detach(mid_); }

  StarModNode(const StarModNode&) = delete;
  StarModNode& operator=(const StarModNode&) = delete;

  void bind_sync_port(int port, SyncHandler fn) {
    sync_ports_[port] = std::move(fn);
  }
  void bind_async_port(int port, AsyncHandler fn) {
    async_ports_[port] = std::move(fn);
  }

  /// Synchronous remote port call: resolves with the reply bytes (empty
  /// on failure after retries).
  sim::Future<Bytes> sync_call(net::Mid peer, int port, Bytes args) {
    sim::Promise<Bytes> pr;
    const std::uint64_t id = next_id_++;
    sync_waiting_[id] = pr;
    send_message(peer, Msg{MsgType::kSyncCall, port, id, std::move(args)});
    return pr.future();
  }

  /// Asynchronous port call: resolves when the transport layer has the
  /// message safely at the far side (the sender's buffer is free).
  sim::Future<sim::Unit> async_call(net::Mid peer, int port, Bytes msg) {
    sim::Promise<sim::Unit> pr;
    const std::uint64_t id = next_id_++;
    async_waiting_[id] = pr;
    send_message(peer, Msg{MsgType::kAsyncCall, port, id, std::move(msg)});
    return pr.future();
  }

  CostLedger& ledger() { return ledger_; }
  std::size_t dispatched() const { return dispatched_; }

 private:
  enum class MsgType : std::uint8_t {
    kSyncCall = 1,
    kAsyncCall = 2,
    kReply = 3,
    kAck = 4,
  };

  struct Msg {
    MsgType type;
    int port = 0;
    std::uint64_t id = 0;
    Bytes payload;
  };

  // --- framing: the baseline owns its wire format inside Frame::data ---
  static net::Frame encode(net::Mid src, net::Mid dst, const Msg& m) {
    net::Frame f;
    f.src = src;
    f.dst = dst;
    f.data.resize(13 + m.payload.size());
    f.data[0] = static_cast<std::byte>(m.type);
    for (int i = 0; i < 4; ++i) {
      f.data[static_cast<std::size_t>(1 + i)] = static_cast<std::byte>(
          (static_cast<std::uint32_t>(m.port) >> (8 * i)) & 0xFF);
    }
    for (int i = 0; i < 8; ++i) {
      f.data[static_cast<std::size_t>(5 + i)] =
          static_cast<std::byte>((m.id >> (8 * i)) & 0xFF);
    }
    std::copy(m.payload.begin(), m.payload.end(), f.data.begin() + 13);
    return f;
  }

  static Msg decode(const net::Frame& f) {
    Msg m;
    m.type = static_cast<MsgType>(std::to_integer<std::uint8_t>(f.data[0]));
    std::uint32_t port = 0;
    for (int i = 0; i < 4; ++i) {
      port |= std::to_integer<std::uint32_t>(
                  f.data[static_cast<std::size_t>(1 + i)])
              << (8 * i);
    }
    m.port = static_cast<int>(port);
    for (int i = 0; i < 8; ++i) {
      m.id |= std::to_integer<std::uint64_t>(
                  f.data[static_cast<std::size_t>(5 + i)])
              << (8 * i);
    }
    m.payload.assign(f.data.begin() + 13, f.data.end());
    return m;
  }

  void charge_send_side(std::size_t bytes) {
    cpu_.charge(costs_.datagram_layer, CostCategory::kProtocol);
    cpu_.charge(costs_.transport_layer, CostCategory::kRetransmitTimers);
    cpu_.charge(costs_.port_layer, CostCategory::kClientOverhead);
    cpu_.charge(static_cast<sim::Duration>(bytes) * costs_.copy_per_byte *
                    costs_.copies_per_side,
                CostCategory::kDataCopy);
  }

  void send_message(net::Mid peer, Msg m) {
    const std::uint64_t id = m.id;
    charge_send_side(m.payload.size());
    net::Frame f = encode(mid_, peer, m);
    Outstanding o;
    o.peer = peer;
    o.frame = f;
    o.retries = 0;
    outstanding_[id] = std::move(o);
    cpu_.run(0, CostCategory::kProtocol, [this, f]() { bus_.send(f); });
    arm_retransmit(id);
  }

  void arm_retransmit(std::uint64_t id) {
    sim_.after(costs_.retransmit_interval, [this, id]() {
      auto it = outstanding_.find(id);
      if (it == outstanding_.end()) return;
      if (++it->second.retries > costs_.max_retries) {
        fail(id);
        return;
      }
      bus_.send(it->second.frame);
      arm_retransmit(id);
    });
  }

  void fail(std::uint64_t id) {
    outstanding_.erase(id);
    if (auto it = sync_waiting_.find(id); it != sync_waiting_.end()) {
      auto pr = it->second;
      sync_waiting_.erase(it);
      pr.set(Bytes{});
    }
    if (auto it = async_waiting_.find(id); it != async_waiting_.end()) {
      auto pr = it->second;
      async_waiting_.erase(it);
      pr.set(sim::Unit{});
    }
  }

  void on_frame(const net::Frame& f) {
    if (f.data.size() < 13) return;
    Msg m = decode(f);
    // datagram layer receive cost
    cpu_.charge(costs_.datagram_layer, CostCategory::kProtocol);

    if (m.type == MsgType::kAck) {
      cpu_.charge(costs_.transport_layer, CostCategory::kRetransmitTimers);
      auto it = outstanding_.find(m.id);
      if (it != outstanding_.end()) outstanding_.erase(it);
      if (auto w = async_waiting_.find(m.id); w != async_waiting_.end()) {
        auto pr = w->second;
        async_waiting_.erase(w);
        cpu_.run(0, CostCategory::kProtocol,
                 [pr]() mutable { pr.set(sim::Unit{}); });
      }
      return;
    }

    // transport + port layer receive costs, then buffer + ACK. The ACK
    // is a dedicated packet (no piggybacking in this runtime).
    cpu_.charge(costs_.transport_layer, CostCategory::kRetransmitTimers);
    cpu_.charge(costs_.port_layer, CostCategory::kClientOverhead);
    cpu_.charge(static_cast<sim::Duration>(m.payload.size()) *
                    costs_.copy_per_byte * costs_.copies_per_side,
                CostCategory::kDataCopy);

    const bool duplicate = !seen_.insert(m.id).second;
    net::Frame ack = encode(mid_, f.src, Msg{MsgType::kAck, m.port, m.id, {}});
    cpu_.run(0, CostCategory::kProtocol, [this, ack]() { bus_.send(ack); });
    if (duplicate) return;

    if (m.type == MsgType::kReply) {
      if (auto w = sync_waiting_.find(m.id); w != sync_waiting_.end()) {
        auto pr = w->second;
        sync_waiting_.erase(w);
        cpu_.run(costs_.scheduler, CostCategory::kContextSwitch,
                 [pr, payload = m.payload]() mutable { pr.set(payload); });
      }
      return;
    }

    // A call: the scheduler hop runs the bound process, which replies
    // (sync) or just consumes (async).
    cpu_.run(costs_.scheduler, CostCategory::kContextSwitch, [this, m,
                                                              src = f.src]() {
      ++dispatched_;
      if (m.type == MsgType::kSyncCall) {
        auto h = sync_ports_.find(m.port);
        Bytes reply = (h != sync_ports_.end()) ? h->second(m.payload)
                                               : Bytes{};
        send_message(src, Msg{MsgType::kReply, m.port, m.id,
                              std::move(reply)});
      } else {
        auto h = async_ports_.find(m.port);
        if (h != async_ports_.end()) h->second(m.payload);
      }
    });
  }

  struct Outstanding {
    net::Mid peer;
    net::Frame frame;
    int retries = 0;
  };

  sim::Simulator& sim_;
  net::Bus& bus_;
  net::Mid mid_;
  StarModCosts costs_;
  CostLedger ledger_;
  NodeCpu cpu_;
  std::map<int, SyncHandler> sync_ports_;
  std::map<int, AsyncHandler> async_ports_;
  std::map<std::uint64_t, Outstanding> outstanding_;
  std::map<std::uint64_t, sim::Promise<Bytes>> sync_waiting_;
  std::map<std::uint64_t, sim::Promise<sim::Unit>> async_waiting_;
  std::set<std::uint64_t> seen_;
  std::uint64_t next_id_ = 1;
  std::size_t dispatched_ = 0;
};

}  // namespace soda::baseline
