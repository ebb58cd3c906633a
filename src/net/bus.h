// Broadcast bus model standing in for the CompuNet Megalink (§5.1): a
// 1 Mbit/s shared medium with hardware CRC (a damaged frame is silently
// discarded by the receiver's interface) and physical broadcast.
//
// Fault injection: uniform frame-loss, CRC-corruption, and duplication
// probabilities exercise the retransmission and Delta-t machinery the same
// way collisions, line noise, and store-and-forward relays did on real
// media. For deterministic tests (and the soda::chaos scenario engine),
// set_loss_filter() / set_dup_filter() / set_delay_filter() /
// set_corrupt_filter() replace the random draws with predicates.
//
// RNG affinity (hash epoch 2): in a partitioned simulation every fault
// draw for a delivery is taken from the *receiver's* partition stream,
// inside a bare arrival event scheduled at +wire on the receiver's wheel.
// The sender's stream is never consumed by another node's luck, so
// partitions can execute concurrently without racing on a shared
// generator (doc/PERFORMANCE.md §5). Unpartitioned simulations keep the
// historical epoch-1 send-side draw order bit-for-bit. Consequence of the
// epoch-2 shift: loss/CRC-drop trace records and fault-filter predicates
// observe the *arrival* time of the frame, not the send time.
//
// Filters and interest predicates may be evaluated concurrently from
// several partition workers; they must be pure functions of their
// arguments (every in-tree filter is).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/frame_pool.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "stats/metrics.h"

namespace soda::net {

struct BusConfig {
  /// Wire time per byte. 1 Mbit/s = 8 us/byte, as in the paper's Megalink.
  sim::Duration us_per_byte = 8;
  /// Fixed propagation + interface latency per frame.
  sim::Duration propagation = 30;  // 30 us
  /// Probability an individual frame is lost outright (collision model).
  double loss_probability = 0.0;
  /// Probability a frame arrives damaged; the receiving interface discards
  /// it after the CRC check, so it still consumed wire time.
  double corruption_probability = 0.0;
  /// Extra random per-frame latency, uniform in [0, delivery_jitter]. A
  /// broadcast bus delivers in order, but store-and-forward media (or
  /// UDP) may not — jitter lets control frames overtake sequenced ones
  /// and exercises the reordering tolerance of the protocol.
  sim::Duration delivery_jitter = 0;
  /// Probability a frame is delivered twice to a receiver (a relay or NIC
  /// retry artefact). The extra copy arrives one jitter draw later and
  /// exercises the alternating-bit duplicate rejection.
  double duplicate_probability = 0.0;

  /// A "modern NIC" medium to pair with TimingModel::fast(): wire time is
  /// dominated by fixed per-frame latency, not serialization, so N-node
  /// scaling runs aren't bottlenecked on simulated 1 Mbit/s wire slots.
  static BusConfig fast() {
    BusConfig c;
    c.us_per_byte = 0;
    c.propagation = 2;
    return c;
  }
};

/// Receiver callback installed by a NIC. The station is handed its own
/// ref to the pooled frame — moved in, so the station is its sole owner
/// unless the frame really has several receivers — and may keep it past
/// the callback (e.g. moved into a deferred CPU work item).
using FrameRefSink = std::function<void(FrameRef)>;

/// Deterministic loss predicate: return true to drop this (frame, receiver)
/// delivery. When installed it replaces the random loss draw entirely.
using LossFilter = std::function<bool(const Frame&, Mid dst)>;

/// Deterministic duplication predicate: return true to deliver a second
/// copy of this (frame, receiver) pair. Replaces the random duplicate draw.
using DupFilter = std::function<bool(const Frame&, Mid dst)>;

/// Deterministic delay shaper: extra latency (>= 0) added to this (frame,
/// receiver) delivery on top of wire + jitter time.
using DelayFilter = std::function<sim::Duration(const Frame&, Mid dst)>;

/// Deterministic corruption predicate: return true to CRC-damage this
/// (frame, receiver) delivery. Replaces the random corruption draw, so a
/// chaos `corrupt` window can honour its node/peer restriction.
using CorruptFilter = std::function<bool(const Frame&, Mid dst)>;

/// Per-station broadcast interest predicate (models the pattern-address
/// filtering a NIC does in hardware, §5.3): return false and the bus never
/// delivers this broadcast frame to the station — no loss/corruption
/// draws, no scheduled event, no protocol_recv CPU at the receiver.
/// Unicast frames are never filtered.
using InterestFilter = std::function<bool(const Frame&)>;

class Bus {
 public:
  Bus(sim::Simulator& sim, BusConfig config) : sim_(sim), config_(config) {}
  virtual ~Bus() = default;

  /// Segment id stamped into this bus's packet-trace events (detail field)
  /// so multi-segment traces are attributable. -1 (the default) stamps
  /// nothing, keeping single-bus trace hashes byte-identical.
  void set_segment(int segment) { segment_ = segment; }
  int segment() const { return segment_; }

  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  /// Attach a station. Frames addressed to `mid` or to kBroadcastMid are
  /// delivered to `sink` after serialization + propagation delay. The
  /// station's per-node MetricsRegistry is bound here.
  void attach(Mid mid, FrameRefSink sink) {
    stations_[mid] = Station{std::move(sink), &sim_.metrics().node(mid), {},
                             sim_.current_partition()};
  }

  void detach(Mid mid) { stations_.erase(mid); }

  /// Move `frame` into the pool and serialize it onto the bus.
  void send(Frame frame) { send_ref(pool_.make(std::move(frame))); }

  /// Serialize a pooled frame onto the bus. Each addressed receiver gets
  /// its own independent loss/corruption draw (broadcast frames can reach
  /// a subset, which is why the paper declines to make DISCOVER reliable,
  /// §3.4.4) but shares the one immutable frame — corruption is carried as
  /// per-delivery metadata, never a mutation. Virtual so alternative media
  /// (the posix/ UDP backend) can carry the same kernels over real sockets.
  ///
  /// Partitioned (epoch-2) sims take no fault draws here: each receiver
  /// gets a bare arrival event at +wire on its own wheel, and all of that
  /// delivery's randomness comes from the receiver's partition stream.
  virtual void send_ref(FrameRef fref) {
    const Frame& frame = *fref;
    const std::size_t size = frame.wire_size();
    const sim::Duration wire =
        config_.propagation +
        static_cast<sim::Duration>(size) * config_.us_per_byte;
    sim_.trace().record(sim_.now(), sim::TraceCategory::kPacketSent,
                        frame.src, stamp(trace_payload(frame)));
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(size, std::memory_order_relaxed);
    if (auto* m = metrics_for(frame.src)) {
      m->add(stats::Counter::kFramesSent);
      m->add(stats::Counter::kBytesSent, size);
    }
    const bool partitioned = sim_.partitioned();

    // Each receiver's delivery takes `ref`: a copy per broadcast
    // receiver, the sender's own ref for a unicast frame.
    auto launch = [&](Mid mid, FrameRef ref) {
      if (partitioned) {
        schedule_arrival(mid, std::move(ref), wire);
        return;
      }
      // Legacy (epoch-1) send-side path: the draws come from the single
      // shared stream at send time, and every delivery goes through the
      // wheel. Unpartitioned sims stay bit-identical to pre-epoch-2 builds.
      const std::optional<Faults> fx = draw_faults(*ref, mid);
      if (!fx) return;
      if (!fx->duplicated) {
        schedule_delivery(mid, std::move(ref), wire + fx->delay, false,
                          fx->damaged);
        return;
      }
      schedule_delivery(mid, ref, wire + fx->delay, false, fx->damaged);
      schedule_delivery(mid, std::move(ref), wire + fx->delay + fx->dup_lag,
                        true, fx->damaged);
    };

    if (frame.dst == kBroadcastMid) {
      for (const auto& [mid, station] : stations_) {
        if (mid == frame.src) continue;
        if (station.interest && !station.interest(frame)) {
          frames_filtered_.fetch_add(1, std::memory_order_relaxed);
          continue;  // NIC hardware filter: frame never reaches the kernel
        }
        launch(mid, fref);
      }
    } else {
      launch(frame.dst, std::move(fref));
    }
  }

  // --- statistics (used by tests and the bench harness) ---
  // Counters are atomics because partitioned arrival events bump them
  // from concurrent workers; read them between windows (or after run()),
  // where they are exact.
  std::size_t frames_sent() const {
    return frames_sent_.load(std::memory_order_relaxed);
  }
  std::size_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  std::size_t frames_lost() const {
    return frames_lost_.load(std::memory_order_relaxed);
  }
  std::size_t frames_corrupted() const {
    return frames_corrupted_.load(std::memory_order_relaxed);
  }
  std::size_t frames_duplicated() const {
    return frames_duplicated_.load(std::memory_order_relaxed);
  }
  std::size_t frames_filtered() const {
    return frames_filtered_.load(std::memory_order_relaxed);
  }
  void reset_stats() {
    frames_sent_ = 0;
    bytes_sent_ = 0;
    frames_lost_ = 0;
    frames_corrupted_ = 0;
    frames_duplicated_ = 0;
    frames_filtered_ = 0;
  }

  const BusConfig& config() const { return config_; }
  void set_loss_probability(double p) { config_.loss_probability = p; }

  /// Install (or clear, with nullptr) a deterministic loss predicate.
  void set_loss_filter(LossFilter filter) { loss_filter_ = std::move(filter); }

  /// Install (or clear) a deterministic duplication predicate.
  void set_dup_filter(DupFilter filter) { dup_filter_ = std::move(filter); }

  /// Install (or clear) a deterministic per-delivery delay shaper. Keep
  /// the added delay under the Delta-t MPL or the protocol's correctness
  /// assumptions (§5.2.2) are themselves under test.
  void set_delay_filter(DelayFilter filter) {
    delay_filter_ = std::move(filter);
  }

  /// Install (or clear) a deterministic corruption predicate. Replaces
  /// the random corruption draw entirely (mirrors set_loss_filter).
  void set_corrupt_filter(CorruptFilter filter) {
    corrupt_filter_ = std::move(filter);
  }

  /// Install (or clear) a broadcast interest filter for one station. Only
  /// meaningful for an attached station; survives until detach().
  void set_interest_filter(Mid mid, InterestFilter filter) {
    auto it = stations_.find(mid);
    if (it != stations_.end()) it->second.interest = std::move(filter);
  }

  /// Register a promiscuous relay tap (a gateway NIC): unicast frames
  /// addressed to a MID with no station on this segment are handed to every
  /// tap instead of vanishing, after the same loss/corruption/latency
  /// treatment the intended receiver would have seen. The frame's own dst
  /// is left untouched — the tap sees where it was going, not itself.
  /// Broadcast frames reach a gateway through its ordinary station
  /// attachment, not the tap. With no taps registered the bus behaves
  /// byte-identically to a tap-less build.
  void add_relay_tap(Mid tap_mid, FrameRefSink sink) {
    remove_relay_tap(tap_mid);
    taps_.push_back(Tap{tap_mid, std::move(sink), sim_.current_partition()});
  }

  void remove_relay_tap(Mid tap_mid) {
    taps_.erase(std::remove_if(taps_.begin(), taps_.end(),
                               [&](const Tap& t) { return t.mid == tap_mid; }),
                taps_.end());
  }

  /// The frame pool backing this bus. Subclasses (and senders that build
  /// frames themselves) pool frames here before send_ref().
  FramePool& pool() { return pool_; }

 protected:
  /// For subclasses delivering frames that arrived from elsewhere: hand
  /// `f` to one specific station's sink, leaving the frame's own dst
  /// untouched (a per-station broadcast datagram keeps its broadcast
  /// address so kernels can recognise DISCOVER queries).
  void deliver_to_one(Mid station, FrameRef f) {
    auto it = stations_.find(station);
    if (it != stations_.end()) it->second.sink(std::move(f));
  }

  sim::Simulator& simulator() { return sim_; }
  void count_sent(std::size_t bytes) {
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// Registry for an attached station, nullptr when not attached (e.g. a
  /// sender that was just powered off, or broadcast destination).
  stats::MetricsRegistry* metrics_for(Mid mid) {
    auto it = stations_.find(mid);
    return it == stations_.end() ? nullptr : it->second.metrics;
  }

  /// The one loss decision, for this bus and for media that carry frames
  /// elsewhere: the loss filter when installed, else the loss_probability
  /// draw. A lost (frame, receiver) delivery is traced and counted here.
  bool lose(const Frame& frame, Mid mid) {
    const bool dropped = loss_filter_
                             ? loss_filter_(frame, mid)
                             : sim_.rng().chance(config_.loss_probability);
    if (dropped) {
      sim_.trace().record(
          sim_.now(), sim::TraceCategory::kPacketDropped, mid,
          stamp(trace_payload(frame).with_status(sim::TraceStatus::kLost)));
      frames_lost_.fetch_add(1, std::memory_order_relaxed);
      if (auto* m = metrics_for(mid)) m->add(stats::Counter::kFramesDropped);
    }
    return dropped;
  }

 private:
  struct Station {
    FrameRefSink sink;
    stats::MetricsRegistry* metrics = nullptr;
    InterestFilter interest;  // empty = promiscuous (receive everything)
    int partition = 0;        // wheel affinity, captured at attach
  };

  struct Tap {
    Mid mid;
    FrameRefSink sink;
    int partition = 0;
  };

  /// Attribute a packet-trace payload to this bus's segment, when set.
  sim::TracePayload stamp(sim::TracePayload p) const {
    if (segment_ >= 0) p.with_detail(segment_);
    return p;
  }

  /// Partition with wheel affinity for deliveries addressed to `mid`: the
  /// station's own, a gateway's for an absent destination, else the
  /// sender's (frame vanishes there deterministically).
  int delivery_partition(Mid mid) const {
    if (auto it = stations_.find(mid); it != stations_.end()) {
      return it->second.partition;
    }
    if (!taps_.empty()) return taps_.front().partition;
    return sim_.current_partition();
  }

  /// Epoch-2 delivery path: schedule a bare arrival event at +wire on the
  /// receiver's wheel. Every fault draw for this delivery happens inside
  /// that event, from the receiver partition's stream — the sender's
  /// stream is untouched, so senders in other partitions can execute
  /// concurrently. The wire time is at least the bus propagation, which
  /// bounds the partitioned engine's lookahead — cross-partition traffic
  /// never schedules inside the current window.
  void schedule_arrival(Mid mid, FrameRef f, sim::Duration wire) {
    sim::ScopedPartition guard(sim_, delivery_partition(mid));
    sim_.after(wire, [this, mid, f = std::move(f)]() mutable {
      on_arrival(mid, std::move(f));
    });
  }

  /// One delivery's fault draws (see draw_faults).
  struct Faults {
    bool damaged = false;       // CRC-discard at arrival
    bool duplicated = false;    // deliver a second copy
    sim::Duration delay = 0;    // jitter + shaping on top of wire time
    sim::Duration dup_lag = 0;  // the copy's lag behind the original
  };

  /// Take the (frame, receiver) delivery's fault draws from the ambient
  /// stream, in the order both epochs use: loss, corruption, jitter,
  /// shaping, duplication, duplicate lag. A lost delivery is traced and
  /// counted here and yields nullopt.
  std::optional<Faults> draw_faults(const Frame& frame, Mid mid) {
    if (lose(frame, mid)) return std::nullopt;
    Faults fx;
    fx.damaged = corrupt_filter_
                     ? corrupt_filter_(frame, mid)
                     : sim_.rng().chance(config_.corruption_probability);
    if (config_.delivery_jitter > 0) {
      fx.delay = sim_.rng().next_range(0, config_.delivery_jitter);
    }
    if (delay_filter_) {
      fx.delay += std::max<sim::Duration>(0, delay_filter_(frame, mid));
    }
    fx.duplicated = dup_filter_
                        ? dup_filter_(frame, mid)
                        : sim_.rng().chance(config_.duplicate_probability);
    if (fx.duplicated) {
      // The extra copy trails the original by an independent jitter draw
      // (drawn even when jitter is 0 so dup faults don't perturb other
      // streams' determinism when toggled together with jitter).
      fx.dup_lag = sim_.rng().next_range(
          0, std::max<sim::Duration>(config_.delivery_jitter, 0));
      frames_duplicated_.fetch_add(1, std::memory_order_relaxed);
    }
    return fx;
  }

  /// Runs at +wire in the receiver's partition: take the fault draws from
  /// the receiver's stream at arrival time, then deliver inline or after
  /// the extra fault latency.
  void on_arrival(Mid mid, FrameRef f) {
    const std::optional<Faults> fx = draw_faults(*f, mid);
    if (!fx) return;
    if (!fx->duplicated) {
      arrive(mid, std::move(f), fx->delay, false, fx->damaged);
      return;
    }
    arrive(mid, f, fx->delay, false, fx->damaged);
    arrive(mid, std::move(f), fx->delay + fx->dup_lag, true, fx->damaged);
  }

  /// Epoch-2 arrival: deliver inline when no fault latency is left.
  void arrive(Mid mid, FrameRef f, sim::Duration delay, bool duplicate,
              bool damaged) {
    if (delay == 0) {
      finish_delivery(mid, std::move(f), duplicate, damaged);
    } else {
      schedule_delivery(mid, std::move(f), delay, duplicate, damaged);
    }
  }

  /// Hand `f` to station `mid` after `delay`; CRC-discard corrupted
  /// deliveries (`damaged` is per-delivery — the shared frame is immutable).
  void schedule_delivery(Mid mid, FrameRef f, sim::Duration delay,
                         bool duplicate, bool damaged) {
    sim_.after(delay,
               [this, mid, duplicate, damaged, f = std::move(f)]() mutable {
                 finish_delivery(mid, std::move(f), duplicate, damaged);
               });
  }

  /// Terminal delivery step, shared by both epochs. A delivery whose
  /// station is absent (powered off, or on another segment) goes to the
  /// relay taps instead, if any are registered.
  void finish_delivery(Mid mid, FrameRef f, bool duplicate, bool damaged) {
    auto it = stations_.find(mid);
    if (it == stations_.end()) {
      // No station here. Historically the frame just vanished; with
      // relay taps registered it is the gateways' to forward — unless
      // the CRC check would have discarded it anyway. Every tap but the
      // sender's own gets the frame; the last of them takes this ref.
      if (!damaged) {
        const Tap* last = nullptr;
        for (const auto& tap : taps_) {
          if (tap.mid == f->src) continue;
          if (last != nullptr) last->sink(f);
          last = &tap;
        }
        if (last != nullptr) last->sink(std::move(f));
      }
      return;
    }
    if (damaged) {
      sim_.trace().record(
          sim_.now(), sim::TraceCategory::kPacketDropped, mid,
          stamp(trace_payload(*f).with_status(sim::TraceStatus::kCrcDropped)));
      frames_corrupted_.fetch_add(1, std::memory_order_relaxed);
      if (auto* m = it->second.metrics) {
        m->add(stats::Counter::kFramesDropped);
        m->add(stats::Counter::kFramesCorrupted);
      }
      return;
    }
    auto payload = trace_payload(*f);
    if (duplicate) payload.with_status(sim::TraceStatus::kDuplicated);
    sim_.trace().record(sim_.now(), sim::TraceCategory::kPacketReceived, mid,
                        stamp(payload));
    if (auto* m = it->second.metrics) m->add(stats::Counter::kFramesReceived);
    it->second.sink(std::move(f));
  }

  sim::Simulator& sim_;
  BusConfig config_;
  FramePool pool_;
  std::unordered_map<Mid, Station> stations_;
  std::vector<Tap> taps_;
  int segment_ = -1;
  LossFilter loss_filter_;
  DupFilter dup_filter_;
  DelayFilter delay_filter_;
  CorruptFilter corrupt_filter_;
  std::atomic<std::size_t> frames_sent_{0};
  std::atomic<std::size_t> bytes_sent_{0};
  std::atomic<std::size_t> frames_lost_{0};
  std::atomic<std::size_t> frames_corrupted_{0};
  std::atomic<std::size_t> frames_duplicated_{0};
  std::atomic<std::size_t> frames_filtered_{0};
};

}  // namespace soda::net
