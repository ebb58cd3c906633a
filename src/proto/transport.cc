#include "proto/transport.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace soda::proto {

using net::Frame;
using net::Mid;
using sim::TraceCategory;

Transport::Transport(sim::Simulator& sim, net::Bus& bus, net::Mid mid,
                     const TimingModel& timing, NodeCpu& cpu,
                     TransportCallbacks callbacks)
    : sim_(sim),
      bus_(bus),
      mid_(mid),
      timing_(timing),
      cpu_(cpu),
      metrics_(&sim.metrics().node(mid)),
      cb_(std::move(callbacks)) {
  bus_.attach_ref(mid_, [this](const net::FrameRef& f) { on_bus_frame(f); });
}

Transport::~Transport() { bus_.detach(mid_); }

bool Transport::quarantined() const { return sim_.now() < rejoin_at_; }

Transport::Record& Transport::record(Mid peer) {
  auto [it, inserted] = records_.try_emplace(peer);
  if (inserted) {
    it->second.opened_at = sim_.now();
    metrics_->add(stats::Counter::kRecordsOpened);
    sim_.trace().record(sim_.now(), TraceCategory::kConnectionOpened, mid_,
                        sim::TracePayload{}.with_peer(peer));
  }
  return it->second;
}

void Transport::touch(Record& r, Mid peer) {
  r.last_activity = sim_.now();
  if (r.expiry_armed) {
    // Lazy expiry: the armed timer re-checks last_activity when it fires
    // and re-arms for the remainder, so a busy connection costs zero
    // event-queue churn per frame instead of a cancel + reschedule.
    if (timing_.batched_timer_bookkeeping) return;
    sim_.cancel(r.expiry_timer);
    r.expiry_armed = false;
  }
  arm_expiry(r, peer, timing_.record_lifetime());
}

void Transport::arm_expiry(Record& r, Mid peer, sim::Duration delay) {
  r.expiry_armed = true;
  const auto epoch = epoch_;
  r.expiry_timer = sim_.after(delay, [this, peer, epoch]() {
    if (stale(epoch)) return;
    auto it = records_.find(peer);
    if (it == records_.end()) return;
    Record& rec = it->second;
    rec.expiry_armed = false;
    // The record's true deadline is last-activity + lifetime, exactly what
    // the eager cancel+reschedule scheme enforced; if activity arrived
    // since this timer was armed, sleep out the remainder.
    const sim::Time due = rec.last_activity + timing_.record_lifetime();
    if (sim_.now() < due) {
      arm_expiry(rec, peer, due - sim_.now());
      return;
    }
    // Keep the record alive while traffic is still in progress; the
    // retransmission budget will declare the peer dead first if it has
    // actually vanished.
    if (rec.outstanding || rec.ack_owed || !rec.queue.empty()) {
      touch(rec, peer);
      return;
    }
    drop_record(peer);
  });
}

void Transport::drop_record(Mid peer) {
  auto it = records_.find(peer);
  if (it == records_.end()) return;
  Record& r = it->second;
  if (r.retransmit_armed) sim_.cancel(r.retransmit_timer);
  if (r.ack_timer_armed) sim_.cancel(r.ack_timer);
  if (r.expiry_armed) sim_.cancel(r.expiry_timer);
  metrics_->add(stats::Counter::kRecordsExpired);
  metrics_->observe(stats::Latency::kRecordLifetime, sim_.now() - r.opened_at);
  sim_.trace().record(sim_.now(), TraceCategory::kConnectionClosed, mid_,
                      sim::TracePayload{}
                          .with_peer(peer)
                          .with_status(sim::TraceStatus::kExpired)
                          .with_detail(sim_.now() - r.opened_at));
  records_.erase(it);
}

void Transport::reset() {
  ++epoch_;
  for (auto& [peer, r] : records_) {
    if (r.retransmit_armed) sim_.cancel(r.retransmit_timer);
    if (r.ack_timer_armed) sim_.cancel(r.ack_timer);
    if (r.expiry_armed) sim_.cancel(r.expiry_timer);
  }
  records_.clear();
  rejoin_at_ = sim_.now() + timing_.crash_quarantine();
}

// ---------------------------------------------------------------- sending

void Transport::send_sequenced(Mid peer, Frame frame, SendOptions opts) {
  frame.src = mid_;
  frame.dst = peer;
  Record& r = record(peer);
  frame.conn_open = true;
  if (r.outstanding) {
    if (opts.urgent) {
      r.queue.emplace_front(std::move(frame), opts);
    } else {
      r.queue.emplace_back(std::move(frame), opts);
    }
    return;
  }
  frame.seq = r.send_bit;
  r.outstanding = std::move(frame);
  r.outstanding_opts = opts;
  r.ack_attempts = 0;
  r.busy_attempts = 0;
  r.retransmitted_once = false;
  transmit_outstanding(peer, r, /*is_retransmit=*/false);
}

void Transport::send_control(Mid peer, Frame frame, bool store_as_response) {
  frame.src = mid_;
  frame.dst = peer;
  Record& r = record(peer);
  frame.conn_open = true;
  attach_pending_ack(peer, r, frame);
  if (store_as_response) r.last_response = frame;
  send_now(std::move(frame), /*sequenced_costs=*/false);
}

void Transport::broadcast(Frame frame) {
  frame.src = mid_;
  frame.dst = net::kBroadcastMid;
  frame.conn_open = false;
  send_now(std::move(frame), /*sequenced_costs=*/false);
}

void Transport::send_now(Frame f, bool sequenced_costs) {
  if (quarantined()) return;  // a rebooted node stays silent (§5.2.2)
  cpu_.charge(timing_.protocol_send, CostCategory::kProtocol);
  cpu_.charge(timing_.conn_timer_send, CostCategory::kConnectionTimers);
  if (sequenced_costs) {
    cpu_.charge(timing_.retransmit_timer, CostCategory::kRetransmitTimers);
  }
  sim::Duration copy = 0;
  if (!f.data.empty()) {
    copy = static_cast<sim::Duration>(f.data.size()) * timing_.copy_per_byte;
  }
  const auto epoch = epoch_;
  // Pool the frame now; the deferred CPU completion carries only a ref, so
  // the send path does no further frame copies.
  net::FrameRef ref = bus_.pool().make(std::move(f));
  cpu_.run(copy, CostCategory::kDataCopy,
           [this, epoch, ref = std::move(ref)]() mutable {
             if (stale(epoch)) return;
             bus_.send_ref(std::move(ref));
           });
}

void Transport::transmit_outstanding(Mid peer, Record& r, bool is_retransmit) {
  assert(r.outstanding);
  Frame f = *r.outstanding;  // copy: the stored frame may be stripped below
  if (is_retransmit) {
    ++retransmits_;
    metrics_->add(stats::Counter::kRetransmits);
    metrics_->observe(stats::Latency::kRetransmitBackoff, r.pending_backoff);
    sim_.trace().record(sim_.now(), TraceCategory::kRetransmit, mid_,
                        net::trace_payload(f)
                            .with_status(r.busy_attempts > 0
                                             ? sim::TraceStatus::kBusyRetry
                                             : sim::TraceStatus::kTimeout)
                            .with_detail(r.pending_backoff));
    if (r.outstanding_opts.strip_data_on_retransmit && !r.retransmitted_once) {
      // "A REQUEST is only sent with data one time" (§5.2.3): later copies
      // go out bare and the server asks for the data after ACCEPTing.
      r.retransmitted_once = true;
      if (!r.outstanding->data.empty() &&
          r.outstanding->data_tag == net::DataTag::kRequestData) {
        r.outstanding->data.clear();
        r.outstanding->data_tag = net::DataTag::kNone;
        if (r.outstanding->request) r.outstanding->request->carries_data = false;
        f = *r.outstanding;
      }
    }
  }
  attach_pending_ack(peer, r, f);
  ++r.ack_attempts;
  const sim::Duration size_allowance =
      static_cast<sim::Duration>(f.data.size()) * timing_.retransmit_per_byte +
      r.outstanding_opts.response_allowance;
  // With exponential backoff on, the k-th consecutive unanswered attempt
  // waits 2^min(k-1, cap) base intervals: a server that is merely slow
  // (CPU queue at high fan-in) gets quiet room to answer before the crash
  // detector's budget runs out. The jitter draw is taken either way, so
  // toggling the knob never shifts another stream's RNG sequence.
  sim::Duration interval = timing_.retransmit_interval;
  if (timing_.exponential_retransmit_backoff && r.ack_attempts > 1) {
    const int doublings = std::min(r.ack_attempts - 1,
                                   timing_.effective_backoff_doublings());
    interval <<= doublings;
  }
  send_now(std::move(f), /*sequenced_costs=*/true);
  arm_retransmit(peer, r,
                 interval + size_allowance +
                     sim_.rng().next_range(0, timing_.retransmit_jitter));
}

void Transport::arm_retransmit(Mid peer, Record& r, sim::Duration delay) {
  disarm_retransmit(r);
  r.pending_backoff = delay;
  r.retransmit_armed = true;
  const auto epoch = epoch_;
  r.retransmit_timer = sim_.after(delay, [this, peer, epoch]() {
    if (stale(epoch)) return;
    auto it = records_.find(peer);
    if (it == records_.end()) return;
    Record& rec = it->second;
    rec.retransmit_armed = false;
    if (!rec.outstanding) return;
    if (rec.ack_attempts > timing_.max_ack_retries) {
      // Retransmission budget exhausted: declare the peer crashed. The
      // record must be advanced *before* the callback: a client reacting
      // to the failure may synchronously send a new frame to this peer,
      // which must not be clobbered by our own bookkeeping.
      Frame dead = std::move(*rec.outstanding);
      rec.outstanding.reset();
      // We cannot know whether the peer consumed this sequence number (it
      // may have delivered the frame and lost every ACK). Advance past it
      // so the next frame is distinguishable either way — reusing it after
      // a give-up lets the peer's duplicate-replay ACK masquerade as the
      // acknowledgement of a frame the peer never actually delivered.
      ++rec.send_bit;
      clear_outstanding_and_advance(peer, rec);
      metrics_->add(stats::Counter::kCrashesDetected);
      sim_.trace().record(sim_.now(), TraceCategory::kCrashDetected, mid_,
                          sim::TracePayload{}
                              .with_peer(peer)
                              .with_status(sim::TraceStatus::kSilent));
      cb_.on_failed(peer, dead, net::NackReason::kCrashed);
      return;
    }
    transmit_outstanding(peer, rec, /*is_retransmit=*/true);
  });
}

void Transport::disarm_retransmit(Record& r) {
  if (r.retransmit_armed) {
    sim_.cancel(r.retransmit_timer);
    r.retransmit_armed = false;
  }
}

void Transport::clear_outstanding_and_advance(Mid peer, Record& r) {
  r.outstanding.reset();
  r.retransmitted_once = false;
  r.busy_attempts = 0;
  r.busy_backoff_prev = 0;
  r.ack_attempts = 0;
  if (!r.queue.empty()) {
    auto [f, opts] = std::move(r.queue.front());
    r.queue.pop_front();
    f.seq = r.send_bit;
    r.outstanding = std::move(f);
    r.outstanding_opts = opts;
    transmit_outstanding(peer, r, /*is_retransmit=*/false);
  }
}

// ------------------------------------------------------------ ack plumbing

void Transport::owe_ack(Mid peer, Record& r, std::uint8_t seq) {
  r.ack_owed = true;
  r.ack_seq = seq;
  if (r.ack_timer_armed) sim_.cancel(r.ack_timer);
  r.ack_timer_armed = true;
  const auto epoch = epoch_;
  r.ack_timer = sim_.after(timing_.ack_delay_window, [this, peer, epoch]() {
    if (stale(epoch)) return;
    flush_ack(peer);
  });
}

void Transport::attach_pending_ack(Mid, Record& r, Frame& f) {
  if (!r.ack_owed) return;
  f.ack = net::AckSection{r.ack_seq};
  r.ack_owed = false;
  if (r.ack_timer_armed) {
    sim_.cancel(r.ack_timer);
    r.ack_timer_armed = false;
  }
}

void Transport::flush_ack(Mid peer) {
  auto it = records_.find(peer);
  if (it == records_.end()) return;
  Record& r = it->second;
  r.ack_timer_armed = false;
  if (!r.ack_owed) return;
  Frame f;
  f.src = mid_;
  f.dst = peer;
  f.conn_open = true;
  attach_pending_ack(peer, r, f);
  r.last_response = f;  // replay on duplicate
  send_now(std::move(f), /*sequenced_costs=*/false);
}

void Transport::accept_held(const net::Frame& frame) {
  Record& r = record(frame.src);
  touch(r, frame.src);
  r.has_recv = true;
  r.last_recv_seq = *frame.seq;
  r.last_recv_at = sim_.now();
  r.last_response.reset();
  owe_ack(frame.src, r, *frame.seq);
  cb_.deliver(frame);
}

void Transport::reject_held(const net::Frame& frame) {
  Frame nackf;
  nackf.nack = net::NackSection{net::NackReason::kBusy, *frame.seq,
                                net::kNoTid};
  send_control(frame.src, std::move(nackf));
}

// --------------------------------------------------------------- receiving

void Transport::on_bus_frame(const net::FrameRef& f) {
  if (quarantined()) return;  // the interface is silent after a crash
  cpu_.charge(timing_.protocol_recv, CostCategory::kProtocol);
  cpu_.charge(timing_.conn_timer_recv, CostCategory::kConnectionTimers);
  sim::Duration copy = 0;
  if (!f->data.empty()) {
    copy = static_cast<sim::Duration>(f->data.size()) * timing_.copy_per_byte;
  }
  const auto epoch = epoch_;
  // The deferred protocol work shares the pooled frame — no copy into the
  // completion closure, and the closure fits EventFn's inline storage.
  cpu_.run(copy, CostCategory::kDataCopy, [this, epoch, f]() {
    if (stale(epoch)) return;
    process_frame(*f);
  });
}

void Transport::process_frame(const Frame& f) {
  // Broadcast queries carry no connection state; hand straight to the
  // kernel (DISCOVER handling) without touching records.
  if (f.dst == net::kBroadcastMid) {
    cb_.deliver(f);
    return;
  }

  Record& r = record(f.src);
  touch(r, f.src);

  if (f.sequenced()) {
    // The sequenced section goes first so that any response it provokes
    // (an immediate ACCEPT, a DATA frame) can carry the ACK we now owe —
    // and so that a piggybacked REQUEST meets the handler state *before*
    // the ACK completes the server's blocking ACCEPT, exactly the busy
    // encounter the paper's packet counts assume (§5.2.3).
    process_sequenced(f.src, r, f);
    if (f.ack) process_ack(f.src, r, f);
    if (f.nack) process_nack(f.src, r, f);
    return;
  }

  if (f.ack) process_ack(f.src, r, f);
  if (f.nack) process_nack(f.src, r, f);
  if (f.accept || f.probe || f.discover || f.cancel ||
      f.data_tag != net::DataTag::kNone || f.data_ack != net::kNoTid) {
    cb_.deliver(f);
  }
}

void Transport::process_ack(Mid peer, Record& r, const Frame& f) {
  if (!r.outstanding) return;                       // stale/duplicate ack
  if (f.ack->seq != *r.outstanding->seq) return;    // not ours
  disarm_retransmit(r);
  Frame sent = std::move(*r.outstanding);
  ++r.send_bit;
  clear_outstanding_and_advance(peer, r);
  cb_.on_acked(peer, sent);
}

void Transport::process_nack(Mid peer, Record& r, const Frame& f) {
  if (!r.outstanding) return;
  if (f.nack->seq != *r.outstanding->seq) return;
  ++busy_nacks_;  // legacy counter: every NACK aimed at our frame
  metrics_->add(f.nack->reason == net::NackReason::kBusy
                    ? stats::Counter::kBusyNacks
                    : stats::Counter::kErrorNacks);
  if (f.nack->reason == net::NackReason::kBusy) {
    // The peer is alive but its handler is unavailable: retry at the
    // slower busy pace (§5.2.2: "the rate of REQUEST retransmission
    // decreases with the number of retransmission attempts").
    r.ack_attempts = 0;  // we heard from the peer; it is not dead
    if (cb_.on_busy) cb_.on_busy(peer, *r.outstanding, f.nack->hint);
    // The offered data block was discarded by the busy peer.
    if (r.outstanding_opts.strip_data_on_retransmit &&
        !r.outstanding->data.empty() &&
        r.outstanding->data_tag == net::DataTag::kRequestData) {
      r.retransmitted_once = true;
      r.outstanding->data.clear();
      r.outstanding->data_tag = net::DataTag::kNone;
      if (r.outstanding->request) r.outstanding->request->carries_data = false;
    }
    if (timing_.adaptive_busy_backoff && timing_.busy_retry_budget > 0 &&
        r.busy_attempts >= timing_.busy_retry_budget) {
      // Retry budget spent against a peer that keeps answering BUSY:
      // degrade gracefully instead of stalling the bus forever. Same
      // record discipline as the crash give-up — advance past the
      // abandoned sequence number before the callback runs.
      disarm_retransmit(r);
      Frame dead = std::move(*r.outstanding);
      r.outstanding.reset();
      ++r.send_bit;
      clear_outstanding_and_advance(peer, r);
      ++busy_give_ups_;
      metrics_->add(stats::Counter::kBusyBudgetExhausted);
      sim_.trace().record(sim_.now(), TraceCategory::kOther, mid_,
                          sim::TracePayload{}
                              .with_peer(peer)
                              .with_status(sim::TraceStatus::kTimedOut));
      cb_.on_failed(peer, dead, net::NackReason::kTimedOut);
      return;
    }
    const sim::Duration pace = next_busy_pace(r, f.nack->hint);
    metrics_->observe(stats::Latency::kBusyBackoff, pace);
    ++r.busy_attempts;
    arm_retransmit(peer, r, pace);
    return;
  }
  // Error NACK: the operation this frame carried has failed.
  disarm_retransmit(r);
  Frame sent = std::move(*r.outstanding);
  ++r.send_bit;  // the peer consumed our frame even though it refused it
  const net::NackReason reason = f.nack->reason;
  clear_outstanding_and_advance(peer, r);
  cb_.on_failed(peer, sent, reason);
}

sim::Duration Transport::next_busy_pace(Record& r, std::uint8_t hint) {
  const sim::Duration base = std::max<sim::Duration>(1,
                                                     timing_.busy_retry_interval);
  const sim::Duration cap = std::max(base, timing_.busy_retry_max);
  if (!timing_.adaptive_busy_backoff) {
    // 1984-faithful fixed linear ramp. Every contending requester walks
    // the identical delay sequence, so their retries stay synchronized.
    return std::min(base + timing_.busy_retry_growth * r.busy_attempts, cap);
  }
  // Capped exponential backoff with decorrelated jitter: the first retry
  // keeps the paper's deterministic pace, every later one is drawn from
  // [prev, 3*prev]. An overloaded peer's shed hint raises the floor, so
  // requesters back off harder for an admission-control NACK than for a
  // merely busy handler. The floor is clamped to cap/2 so a band of
  // randomness always survives at the cap — a deterministic cap would
  // re-synchronize the very storm this exists to break up.
  sim::Duration pace;
  if (r.busy_attempts == 0 && hint == 0) {
    pace = base;
  } else {
    sim::Duration lo = std::max(r.busy_backoff_prev, base);
    lo = std::max(lo, base * static_cast<sim::Duration>(1 + hint));
    lo = std::clamp(lo, base, std::max(base, cap / 2));
    const sim::Duration hi = std::min(cap, 3 * lo);
    pace = hi > lo ? static_cast<sim::Duration>(
                         sim_.rng().next_range(
                             static_cast<std::uint64_t>(lo),
                             static_cast<std::uint64_t>(hi)))
                   : lo;
  }
  r.busy_backoff_prev = pace;
  return pace;
}

void Transport::process_sequenced(Mid peer, Record& r, const Frame& f) {
  if (r.has_recv &&
      sim_.now() - r.last_recv_at > timing_.record_lifetime()) {
    // Delta-t take-any-SN applies per direction: the peer has been silent
    // on this connection past the record lifetime, so its send state is
    // certainly gone and no retransmission of the old sequence bit can
    // still be in flight. Our receive half must therefore accept whatever
    // bit comes next as fresh. Without this, a partition that outlives one
    // side's record (while ours is kept open by our own retransmissions)
    // ends with the peer's reopened connection colliding with our stale
    // bit — every new frame reads as a duplicate and the request livelocks.
    r.has_recv = false;
    r.last_response.reset();
  }
  if (r.has_recv && f.seq == r.last_recv_seq) {
    // Duplicate: the peer missed our acknowledgement. Re-answer from
    // connection state (§5.2.3). A peer still retransmitting this sequence
    // number still holds its send state, so the receive half stays alive:
    // take-any-SN must count its lifetime from the latest copy, or a late
    // duplicate would read as fresh and be delivered a second time.
    r.last_recv_at = sim_.now();
    metrics_->add(stats::Counter::kDuplicatesSuppressed);
    if (r.last_response) {
      Frame replay = *r.last_response;
      send_now(std::move(replay), /*sequenced_costs=*/false);
    } else if (r.outstanding && r.outstanding->ack &&
               r.outstanding->ack->seq == *f.seq) {
      // Our own in-flight sequenced frame already carries the ack; let the
      // retransmission machinery re-deliver it rather than double-acking.
    } else {
      Frame ackf;
      ackf.conn_open = true;
      ackf.ack = net::AckSection{*f.seq};
      ackf.src = mid_;
      ackf.dst = peer;
      r.last_response = ackf;
      send_now(std::move(ackf), /*sequenced_costs=*/false);
    }
    return;
  }

  DispositionResult d = cb_.classify(f);
  switch (d.disposition) {
    case Disposition::kDeliver: {
      r.has_recv = true;
      r.last_recv_seq = *f.seq;
      r.last_recv_at = sim_.now();
      r.last_response.reset();
      owe_ack(peer, r, *f.seq);
      cb_.deliver(f);
      break;
    }
    case Disposition::kBusy: {
      Frame nackf;
      nackf.nack = net::NackSection{net::NackReason::kBusy, *f.seq,
                                    net::kNoTid, d.busy_hint};
      send_control(peer, std::move(nackf));
      break;
    }
    case Disposition::kHold: {
      // No response at all: the frame sits in the kernel's input buffer.
      // The peer's retransmission timer is the backstop if we never get
      // around to it.
      break;
    }
    case Disposition::kError: {
      // An error NACK consumes the frame: the peer flips its bit and the
      // operation fails. Record the seq as seen so a duplicate in flight
      // does not fail twice.
      r.has_recv = true;
      r.last_recv_seq = *f.seq;
      r.last_recv_at = sim_.now();
      r.last_response.reset();
      Frame nackf;
      nackf.nack = net::NackSection{d.error, *f.seq, d.nack_tid};
      send_control(peer, std::move(nackf), /*store_as_response=*/true);
      break;
    }
  }
}

}  // namespace soda::proto
