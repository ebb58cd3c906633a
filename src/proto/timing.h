// Timing calibration and cost accounting.
//
// The paper's evaluation numbers come from a software SODA kernel
// multiplexed with the client on one PDP-11/23 (§5.2: "The implementation
// must multiplex a single processor to perform the tasks of both client
// and kernel"). We reproduce that architecture: every node has a single
// FIFO CPU on which kernel protocol work and client work serialize, and
// each unit of work is charged to a category matching the paper's
// "Breakdown of Communications Overhead" table:
//
//     Connection Timers  1.0 ms   (Delta-t record bookkeeping)
//     Retransmit Timers  0.7 ms   (arming/cancelling retransmission)
//     Context Switch     0.8 ms   (handler invocation interrupts)
//     Transmission Time  0.4 ms   (wire time of two small packets)
//     Client Overhead    2.2 ms   (descriptor pool + TRAP invocation)
//     Protocol Time      2.0 ms   (kernel send/receive processing)
//     Total              7.1 ms   per 2-packet SIGNAL
//
// The per-event constants below are inputs chosen so a 2-packet SIGNAL
// reproduces that table; everything else (packet counts, retry cycles,
// per-word slopes, pipelined-vs-non-pipelined deltas) emerges from the
// protocol state machines.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>

#include "sim/simulator.h"
#include "sim/time.h"
#include "stats/metrics.h"

namespace soda {

enum class CostCategory : std::uint8_t {
  kConnectionTimers,
  kRetransmitTimers,
  kContextSwitch,
  kTransmission,   // accounted by the bus model, reported per operation
  kClientOverhead,
  kProtocol,
  kDataCopy,       // client<->kernel buffer copies (scales with size)
  kCount,
};

const char* to_string(CostCategory c);

/// Calibrated cost constants. All durations in simulated microseconds.
struct TimingModel {
  // --- per-event CPU charges ---
  sim::Duration protocol_send = 500;      // kernel builds + hands off a frame
  sim::Duration protocol_recv = 500;      // kernel demultiplexes a frame
  sim::Duration conn_timer_send = 250;    // Delta-t bookkeeping per send
  sim::Duration conn_timer_recv = 250;    // Delta-t bookkeeping per receive
  sim::Duration retransmit_timer = 700;   // arm/cancel per sequenced send
  sim::Duration context_switch = 400;     // one handler-invocation interrupt
  sim::Duration client_trap = 1100;       // one client primitive invocation
                                          //   (descriptor pool + TRAP)
  sim::Duration copy_per_byte = 6;        // client<->kernel memory copy
  sim::Duration pipeline_check = 250;     // ENDHANDLER input-buffer check
                                          //   (pipelined kernels only, §5.2.3)

  // --- protocol timers ---
  sim::Duration ack_delay_window = 2000;  // hold an ACK hoping to piggyback
  sim::Duration retransmit_interval = 20'000;   // stop-and-wait timeout
  sim::Duration retransmit_jitter = 4'000;      // random backoff spread
  /// Extra timeout per payload byte: a 2000-byte frame needs ~40 ms to be
  /// copied out, serialized at 1 Mbit/s, copied in and answered, so the
  /// timeout must grow with size or large PUTs retransmit spuriously.
  sim::Duration retransmit_per_byte = 60;
  sim::Duration busy_retry_interval = 5'000;    // first retry pace against BUSY
  sim::Duration busy_retry_growth = 1'000;      // legacy linear slowdown (§5.2.2)
  sim::Duration busy_retry_max = 40'000;        // backoff cap, both schemes
  /// Adaptive BUSY backoff: replace the fixed linear ramp with capped
  /// exponential backoff using decorrelated jitter (next delay drawn from
  /// [prev, 3*prev], floor raised by the server's shed hint). The linear
  /// ramp synchronizes retries across contending requesters — at 64 nodes
  /// every BUSY-NACKed client comes back in lockstep and the storm never
  /// drains. Off reproduces the 1984-faithful fixed ramp.
  bool adaptive_busy_backoff = true;
  /// Consecutive BUSY NACKs on one frame before the sender gives up and
  /// completes the request locally with TIMEDOUT (graceful degradation
  /// instead of retrying forever). 0 = unlimited. Only enforced when
  /// adaptive_busy_backoff is on; the 1984 model retried indefinitely.
  int busy_retry_budget = 64;
  int max_ack_retries = 8;                // silence => peer declared dead
  /// Exponential retransmit backoff: the k-th consecutive unanswered
  /// transmission of one frame waits 2^min(k-1, max_doublings) times the
  /// base interval before retrying. The 1984 model's fixed interval makes
  /// the crash detector's total silence window a constant — at 128+
  /// stations a healthy but queue-saturated server falls behind that
  /// window and gets declared CRASHED en masse. Doubling stretches the
  /// window to cover CPU queueing delay that grows with N while keeping
  /// the first retry latency unchanged. Off by default: the fixed
  /// interval is the paper-faithful calibration (and what the pinned
  /// trace hashes were recorded under).
  bool exponential_retransmit_backoff = false;
  // The ceiling on the retransmit doublings (effective_backoff_doublings)
  // is derived from the Delta-t envelope: the longest single silence gap
  /// between two transmissions of one frame, (interval << c) + jitter,
  /// must stay inside the receiver's record lifetime — otherwise the
  /// receiver ages out the connection record mid-backoff (take-any-SN)
  /// and the late retransmission is accepted as a *new* frame, breaking
  /// at-most-once delivery. Because exponential backoff is a per-node
  /// flag, a peer cannot be assumed to stretch its own record lifetime,
  // so the envelope uses the fixed (non-doubled) span: the lifetime any
  // 1984-faithful receiver is guaranteed to hold records for
  // (test_timing.cc pins the boundary).
  sim::Duration probe_interval = 50'000;  // monitor delivered requests (§3.6.2)
  int max_probe_misses = 3;

  // --- Delta-t parameters (§5.2.2) ---
  sim::Duration mpl = 20'000;  // maximum packet lifetime
  sim::Duration max_ack_delay() const { return ack_delay_window + 3'000; }
  /// The retransmission span of the 1984 fixed-interval model — also the
  /// floor of every receiver's record lifetime, which is why the backoff
  /// ceiling derivation below measures against it.
  sim::Duration fixed_retransmit_span() const {
    return static_cast<sim::Duration>(max_ack_retries) *
           (retransmit_interval + retransmit_jitter);
  }
  /// Record lifetime a receiver holds with exponential backoff OFF; the
  /// conservative envelope a doubled silence gap must fit inside.
  sim::Duration fixed_record_lifetime() const {
    return 2 * mpl + fixed_retransmit_span() + max_ack_delay();
  }
  /// The backoff ceiling: the largest c whose worst single gap
  /// (interval << c) + jitter fits fixed_record_lifetime.
  int effective_backoff_doublings() const {
    const sim::Duration lifetime = fixed_record_lifetime();
    int c = 0;
    while (c < 16 &&
           (retransmit_interval << (c + 1)) + retransmit_jitter <= lifetime) {
      ++c;
    }
    return c;
  }
  sim::Duration retransmit_span() const {
    if (!exponential_retransmit_backoff) return fixed_retransmit_span();
    // Sum of the doubling series: attempt k waits interval << min(k-1,
    // cap) plus up to one jitter draw. Delta-t safety arithmetic
    // (at_most_once_safe, record_lifetime) sees the stretched span.
    sim::Duration span = 0;
    const int cap = effective_backoff_doublings();
    for (int attempt = 0; attempt < max_ack_retries; ++attempt) {
      const int doublings = std::min(attempt, cap);
      span += (retransmit_interval << doublings) + retransmit_jitter;
    }
    return span;
  }
  sim::Duration delta_t() const {
    return mpl + retransmit_span() + max_ack_delay();
  }
  /// Silence after which a connection record is discarded (take-any-SN).
  sim::Duration record_lifetime() const { return mpl + delta_t(); }
  /// Quiet period a rebooted node observes before rejoining the network.
  sim::Duration crash_quarantine() const { return 2 * mpl + delta_t(); }

  /// Delta-t's bounded-drift assumption: at-most-once delivery holds only
  /// while a requester's retransmit span (scaled by its clock rate) fits
  /// inside the receiver's record lifetime (scaled by *its* clock rate).
  /// With the default calibration record_lifetime / retransmit_span =
  /// 237k/192k ≈ 1.23, the measured envelope documented in doc/CHAOS.md;
  /// 3x relative skew reproducibly yields duplicate delivery.
  static bool at_most_once_safe(const TimingModel& requester,
                                const TimingModel& receiver) {
    return receiver.record_lifetime() >= requester.retransmit_span();
  }

  // --- discover ---
  sim::Duration discover_window = 30'000;     // wait for broadcast replies
  sim::Duration discover_stagger = 1'500;     // per-MID reply stagger (§5.3)

  // --- implementation strategy knobs (not part of the 1984 calibration) ---
  /// Batch/lazily maintain protocol timers instead of cancel+reschedule
  /// per frame: Delta-t record expiry re-arms from a last-activity stamp,
  /// and the kernel multiplexes all probe timers onto one wheel. The fire
  /// times are provably identical; only event-queue churn changes. Kept
  /// as a switch so the scaling bench can measure the before/after.
  bool batched_timer_bookkeeping = true;

  /// A "modern NIC" preset: microsecond-scale per-event costs and
  /// timeouts (~1000x the 1984 constants) so dozens-of-node topologies
  /// run enough protocol rounds to expose O(N) walls without simulating
  /// hours of Megalink time. The ratios between constants are preserved,
  /// so the protocol state machines traverse the same paths.
  static TimingModel fast() {
    TimingModel t;
    t.protocol_send = 2;
    t.protocol_recv = 2;
    t.conn_timer_send = 1;
    t.conn_timer_recv = 1;
    t.retransmit_timer = 2;
    t.context_switch = 2;
    t.client_trap = 4;
    t.copy_per_byte = 0;
    t.pipeline_check = 1;
    t.ack_delay_window = 20;
    t.retransmit_interval = 200;
    t.retransmit_jitter = 40;
    t.retransmit_per_byte = 1;
    t.busy_retry_interval = 50;
    t.busy_retry_growth = 10;
    t.busy_retry_max = 400;
    t.busy_retry_budget = 64;
    t.max_ack_retries = 8;
    t.probe_interval = 500;
    t.max_probe_misses = 3;
    t.mpl = 200;
    t.discover_window = 300;
    t.discover_stagger = 15;
    return t;
  }
};

/// Accumulates CPU charges by category; the overhead-breakdown bench
/// divides by the operation count to reproduce the paper's table.
class CostLedger {
 public:
  void charge(CostCategory c, sim::Duration d) {
    totals_[static_cast<std::size_t>(c)] += d;
  }
  sim::Duration total(CostCategory c) const {
    return totals_[static_cast<std::size_t>(c)];
  }
  sim::Duration grand_total() const {
    sim::Duration t = 0;
    for (auto v : totals_) t += v;
    return t;
  }
  void reset() { totals_.fill(0); }

 private:
  std::array<sim::Duration, static_cast<std::size_t>(CostCategory::kCount)>
      totals_{};
};

/// The single processor of a node, multiplexed between kernel and client
/// work, as in the paper's implementation (§5.2). Work items run FIFO and
/// never preempt each other; `fn` fires when the work completes.
class NodeCpu {
 public:
  NodeCpu(sim::Simulator& sim, CostLedger& ledger)
      : sim_(&sim), ledger_(&ledger) {}

  /// Mirror busy time into a node's MetricsRegistry (kCpuBusyMicros).
  /// Optional; a detached CPU only feeds the CostLedger.
  void bind_metrics(stats::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Occupy the CPU for `d` microseconds of `cat` work, then run `fn`.
  /// Templated so small completion closures ride the event queue's inline
  /// callback storage instead of being boxed into a std::function first.
  template <typename F>
  void run(sim::Duration d, CostCategory cat, F&& fn) {
    account(d, cat);
    const sim::Time start = std::max(sim_->now(), free_at_);
    free_at_ = start + d;
    sim_->at(free_at_, std::forward<F>(fn));
  }

  /// Charge CPU time with no completion action (bookkeeping overhead that
  /// delays whatever is scheduled next on this CPU).
  void charge(sim::Duration d, CostCategory cat) {
    account(d, cat);
    const sim::Time start = std::max(sim_->now(), free_at_);
    free_at_ = start + d;
  }

  sim::Time free_at() const { return free_at_; }
  CostLedger& ledger() { return *ledger_; }

 private:
  void account(sim::Duration d, CostCategory cat) {
    ledger_->charge(cat, d);
    if (metrics_ != nullptr && d > 0) {
      metrics_->add(stats::Counter::kCpuBusyMicros,
                    static_cast<std::uint64_t>(d));
    }
  }

  sim::Simulator* sim_;
  CostLedger* ledger_;
  stats::MetricsRegistry* metrics_ = nullptr;
  sim::Time free_at_ = 0;
};

}  // namespace soda
