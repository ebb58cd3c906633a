// Tests of the reliable transport: alternating-bit semantics, duplicate
// suppression, retransmission, BUSY pacing, error NACKs, the Delta-t
// record lifecycle and post-crash quarantine.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "net/bus.h"
#include "proto/transport.h"
#include "sim/simulator.h"
#include "stats/metrics.h"

namespace soda::proto {
namespace {

using net::Frame;
using net::Mid;

/// A minimal stand-in for the kernel on top of one Transport.
struct StubKernel {
  sim::Simulator* sim = nullptr;
  net::Bus* bus = nullptr;
  std::unique_ptr<CostLedger> ledger;
  std::unique_ptr<NodeCpu> cpu;
  std::unique_ptr<Transport> tp;

  Disposition next_disposition = Disposition::kDeliver;
  net::NackReason error_reason = net::NackReason::kUnadvertised;
  std::uint8_t busy_hint = 0;  // shed hint attached to BUSY dispositions
  std::vector<Frame> delivered;
  std::vector<Frame> acked;
  std::vector<std::pair<Frame, net::NackReason>> failed;

  void init(sim::Simulator& s, net::Bus& b, Mid mid,
            const TimingModel& timing) {
    sim = &s;
    bus = &b;
    ledger = std::make_unique<CostLedger>();
    cpu = std::make_unique<NodeCpu>(s, *ledger);
    tp = std::make_unique<Transport>(
        s, b, mid, timing, *cpu,
        TransportCallbacks{
            [this](const Frame& f) {
              if (next_disposition == Disposition::kHold) {
                held.push_back(f);
              }
              return DispositionResult{next_disposition, error_reason,
                                       f.request ? f.request->tid
                                                 : net::kNoTid,
                                       busy_hint};
            },
            [this](const Frame& f) { delivered.push_back(f); },
            [this](Mid, const Frame& sent) { acked.push_back(sent); },
            [this](Mid, const Frame& sent, net::NackReason r) {
              failed.emplace_back(sent, r);
            },
            /*on_busy=*/{}});
  }
  std::vector<Frame> held;
};

Frame request_frame(net::Tid tid, std::size_t data_bytes = 0) {
  Frame f;
  f.request = net::RequestSection{
      tid, 0x42, 0, static_cast<std::uint32_t>(data_bytes), 0,
      data_bytes > 0};
  if (data_bytes > 0) {
    f.data.assign(data_bytes, std::byte{0x7});
    f.data_tag = net::DataTag::kRequestData;
    f.data_tid = tid;
  }
  return f;
}

class TransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim = std::make_unique<sim::Simulator>(5);
    bus = std::make_unique<net::Bus>(*sim, net::BusConfig{});
    a.init(*sim, *bus, 1, timing);
    b.init(*sim, *bus, 2, timing);
  }

  TimingModel timing;
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<net::Bus> bus;
  StubKernel a, b;
};

TEST_F(TransportTest, SequencedDeliveryAndAck) {
  a.tp->send_sequenced(2, request_frame(1));
  sim->run_until(sim::kSecond);
  ASSERT_EQ(b.delivered.size(), 1u);
  EXPECT_EQ(b.delivered[0].request->tid, 1);
  // The delayed-ack timer flushes a bare ACK, which acks our frame.
  ASSERT_EQ(a.acked.size(), 1u);
  EXPECT_EQ(a.acked[0].request->tid, 1);
}

TEST_F(TransportTest, FifoOrderAcrossQueue) {
  for (net::Tid t = 1; t <= 5; ++t) a.tp->send_sequenced(2, request_frame(t));
  sim->run_until(sim::kSecond);
  ASSERT_EQ(b.delivered.size(), 5u);
  for (net::Tid t = 1; t <= 5; ++t) {
    EXPECT_EQ(b.delivered[static_cast<std::size_t>(t - 1)].request->tid, t);
  }
}

TEST_F(TransportTest, UrgentFrameJumpsQueue) {
  // Fill: one outstanding (tid 1) + queued (tid 2); urgent tid 3 must be
  // delivered before tid 2.
  a.tp->send_sequenced(2, request_frame(1));
  a.tp->send_sequenced(2, request_frame(2));
  SendOptions urgent;
  urgent.urgent = true;
  a.tp->send_sequenced(2, request_frame(3), urgent);
  sim->run_until(sim::kSecond);
  ASSERT_EQ(b.delivered.size(), 3u);
  EXPECT_EQ(b.delivered[0].request->tid, 1);
  EXPECT_EQ(b.delivered[1].request->tid, 3);
  EXPECT_EQ(b.delivered[2].request->tid, 2);
}

TEST_F(TransportTest, RetransmitsThroughLoss) {
  bus->set_loss_probability(0.3);
  for (net::Tid t = 1; t <= 10; ++t) {
    a.tp->send_sequenced(2, request_frame(t));
  }
  sim->run_until(60 * sim::kSecond);
  // Every frame either arrived (exactly once, in order) or was reported
  // failed after the retry budget; at 30% loss all should make it.
  ASSERT_EQ(b.delivered.size() + a.failed.size(), 10u);
  for (std::size_t i = 0; i < b.delivered.size(); ++i) {
    EXPECT_EQ(b.delivered[i].request->tid, static_cast<net::Tid>(i + 1));
  }
  EXPECT_GT(sim->metrics().node(1).counter(stats::Counter::kRetransmits), 0u);
  EXPECT_EQ(a.failed.size(), 0u);
}

TEST_F(TransportTest, SilentPeerDeclaredCrashed) {
  bus->set_loss_probability(1.0);
  a.tp->send_sequenced(2, request_frame(1));
  sim->run_until(60 * sim::kSecond);
  ASSERT_EQ(a.failed.size(), 1u);
  EXPECT_EQ(a.failed[0].second, net::NackReason::kCrashed);
  EXPECT_EQ(b.delivered.size(), 0u);
}

TEST_F(TransportTest, BusyNackCausesPacedRetry) {
  b.next_disposition = Disposition::kBusy;
  a.tp->send_sequenced(2, request_frame(1));
  sim->run_until(100 * sim::kMillisecond);
  EXPECT_EQ(b.delivered.size(), 0u);
  // kept retrying
  EXPECT_GT(sim->metrics().node(1).counter(stats::Counter::kBusyNacks), 2u);
  b.next_disposition = Disposition::kDeliver;
  sim->run_until(sim->now() + sim::kSecond);
  ASSERT_EQ(b.delivered.size(), 1u);  // eventually landed
  EXPECT_EQ(a.failed.size(), 0u);     // busy is not death
}

/// Run one sender against a permanently-BUSY peer under simulator seed
/// `seed` and return the sequence of armed busy-retry delays (the detail
/// field of each kBusyRetry retransmit trace).
std::vector<sim::Duration> busy_delay_sequence(std::uint64_t seed,
                                               const TimingModel& timing,
                                               sim::Duration run_for) {
  sim::Simulator s(seed);
  net::Bus bus(s, net::BusConfig{});
  StubKernel a, b;
  a.init(s, bus, 1, timing);
  b.init(s, bus, 2, timing);
  s.trace().enable_all();
  s.trace().set_store(true);
  b.next_disposition = Disposition::kBusy;
  a.tp->send_sequenced(2, request_frame(1));
  s.run_until(run_for);
  std::vector<sim::Duration> delays;
  for (const auto& e : s.trace().events()) {
    if (e.category == sim::TraceCategory::kRetransmit &&
        e.status == sim::TraceStatus::kBusyRetry && e.node == 1) {
      delays.push_back(static_cast<sim::Duration>(e.detail_i64(0)));
    }
  }
  return delays;
}

TEST_F(TransportTest, AdaptiveBusyBackoffBoundedMonotoneJittered) {
  const auto delays = busy_delay_sequence(5, timing, 2 * sim::kSecond);
  ASSERT_GT(delays.size(), 4u);
  // First retry keeps the paper's deterministic pace.
  EXPECT_EQ(delays[0], timing.busy_retry_interval);
  // Monotone-bounded: never past the cap, and never below the previous
  // delay until the jitter band at the cap (floor clamps to cap/2).
  for (std::size_t i = 0; i < delays.size(); ++i) {
    EXPECT_LE(delays[i], timing.busy_retry_max) << "delay " << i;
    if (i > 0) {
      EXPECT_GE(delays[i],
                std::min(delays[i - 1], timing.busy_retry_max / 2))
          << "delay " << i;
    }
  }
  // Jittered: a different seed must not reproduce the identical sequence
  // (the whole point — decorrelating contending requesters).
  const auto other = busy_delay_sequence(6, timing, 2 * sim::kSecond);
  ASSERT_GT(other.size(), 4u);
  const std::size_t n = std::min(delays.size(), other.size());
  EXPECT_NE(std::vector<sim::Duration>(delays.begin(),
                                       delays.begin() +
                                           static_cast<std::ptrdiff_t>(n)),
            std::vector<sim::Duration>(other.begin(),
                                       other.begin() +
                                           static_cast<std::ptrdiff_t>(n)));
}

TEST_F(TransportTest, LegacyLinearRampWhenAdaptiveOff) {
  TimingModel legacy = timing;
  legacy.adaptive_busy_backoff = false;
  const auto delays = busy_delay_sequence(5, legacy, 2 * sim::kSecond);
  ASSERT_GT(delays.size(), 3u);
  for (std::size_t i = 0; i < delays.size(); ++i) {
    const auto expect =
        std::min(legacy.busy_retry_interval +
                     legacy.busy_retry_growth * static_cast<sim::Duration>(i),
                 legacy.busy_retry_max);
    EXPECT_EQ(delays[i], expect) << "delay " << i;
  }
}

TEST_F(TransportTest, ShedHintRaisesBackoffFloor) {
  TimingModel t = timing;
  sim::Simulator s(5);
  net::Bus bus2(s, net::BusConfig{});
  StubKernel c, d;
  c.init(s, bus2, 1, t);
  d.init(s, bus2, 2, t);
  s.trace().enable_all();
  s.trace().set_store(true);
  d.next_disposition = Disposition::kBusy;
  d.busy_hint = 3;  // admission control shedding hard
  c.tp->send_sequenced(2, request_frame(1));
  s.run_until(sim::kSecond);
  std::vector<sim::Duration> delays;
  for (const auto& e : s.trace().events()) {
    if (e.category == sim::TraceCategory::kRetransmit &&
        e.status == sim::TraceStatus::kBusyRetry && e.node == 1) {
      delays.push_back(static_cast<sim::Duration>(e.detail_i64(0)));
    }
  }
  ASSERT_GT(delays.size(), 0u);
  // hint=3 raises the floor to base*(1+3), clamped to cap/2 — far above
  // the deterministic first-retry pace an unhinted BUSY gets.
  const auto floor = std::min(4 * t.busy_retry_interval, t.busy_retry_max / 2);
  for (std::size_t i = 0; i < delays.size(); ++i) {
    EXPECT_GE(delays[i], floor) << "delay " << i;
  }
}

TEST_F(TransportTest, BusyBudgetExhaustionFailsExactlyOnceWithTimedOut) {
  TimingModel t = timing;
  t.busy_retry_budget = 3;
  sim::Simulator s(5);
  net::Bus bus2(s, net::BusConfig{});
  StubKernel c, d;
  c.init(s, bus2, 1, t);
  d.init(s, bus2, 2, t);
  d.next_disposition = Disposition::kBusy;
  c.tp->send_sequenced(2, request_frame(1));
  s.run_until(10 * sim::kSecond);
  ASSERT_EQ(c.failed.size(), 1u);  // exactly one terminal report
  EXPECT_EQ(c.failed[0].first.request->tid, 1);
  EXPECT_EQ(c.failed[0].second, net::NackReason::kTimedOut);
  EXPECT_EQ(s.metrics().node(1).counter(stats::Counter::kBusyBudgetExhausted),
            1u);
  EXPECT_EQ(d.delivered.size(), 0u);
  // The record advanced past the abandoned frame: traffic still flows.
  d.next_disposition = Disposition::kDeliver;
  c.tp->send_sequenced(2, request_frame(2));
  s.run_until(s.now() + sim::kSecond);
  ASSERT_EQ(d.delivered.size(), 1u);
  EXPECT_EQ(d.delivered[0].request->tid, 2);
  EXPECT_EQ(c.failed.size(), 1u);  // and nothing failed twice
}

TEST_F(TransportTest, BusyStripsDataOncePolicySet) {
  b.next_disposition = Disposition::kBusy;
  SendOptions o;
  o.strip_data_on_retransmit = true;
  a.tp->send_sequenced(2, request_frame(1, 100), o);
  sim->run_until(50 * sim::kMillisecond);
  b.next_disposition = Disposition::kDeliver;
  sim->run_until(sim->now() + sim::kSecond);
  ASSERT_EQ(b.delivered.size(), 1u);
  EXPECT_TRUE(b.delivered[0].data.empty());  // the retry went out bare
  EXPECT_FALSE(b.delivered[0].request->carries_data);
}

TEST_F(TransportTest, ErrorNackFailsFrame) {
  b.next_disposition = Disposition::kError;
  b.error_reason = net::NackReason::kUnadvertised;
  a.tp->send_sequenced(2, request_frame(9));
  sim->run_until(sim::kSecond);
  ASSERT_EQ(a.failed.size(), 1u);
  EXPECT_EQ(a.failed[0].first.request->tid, 9);
  EXPECT_EQ(a.failed[0].second, net::NackReason::kUnadvertised);
  // The queue keeps moving afterwards.
  b.next_disposition = Disposition::kDeliver;
  a.tp->send_sequenced(2, request_frame(10));
  sim->run_until(sim->now() + sim::kSecond);
  EXPECT_EQ(b.delivered.size(), 1u);
}

TEST_F(TransportTest, DuplicateSuppressedAndReanswered) {
  bus->set_loss_probability(0.0);
  a.tp->send_sequenced(2, request_frame(1));
  sim->run_until(20 * sim::kMillisecond);
  ASSERT_EQ(b.delivered.size(), 1u);
  // Force a duplicate within the Delta-t record lifetime (a dup older
  // than that would violate the MPL bound the protocol assumes).
  Frame dup = b.delivered[0];
  bus->send(dup);
  sim->run_until(sim->now() + 20 * sim::kMillisecond);
  EXPECT_EQ(b.delivered.size(), 1u);  // not delivered twice
}

TEST_F(TransportTest, DuplicatesPastRecordLifetimeStayDuplicates) {
  // The requester never hears the ACK and keeps retransmitting. Each copy
  // proves its send state is alive, so the receiver's take-any-SN clock
  // must restart with every duplicate; counting from the first receipt
  // would deliver a copy that arrives one record lifetime later again.
  a.tp->send_sequenced(2, request_frame(1));
  sim->run_until(4 * sim::kMillisecond);
  ASSERT_EQ(b.delivered.size(), 1u);
  const sim::Time first_receipt = sim->now();
  const Frame dup = b.delivered[0];
  bus->set_loss_filter([](const Frame&, Mid dst) { return dst == 1; });
  const std::uint64_t dups_before =
      sim->metrics().total(stats::Counter::kDuplicatesSuppressed);
  const sim::Duration gap = timing.retransmit_interval;
  const sim::Time stop = first_receipt + timing.record_lifetime() + 5 * gap;
  int sent = 0;
  while (sim->now() < stop) {
    bus->send(dup);
    ++sent;
    sim->run_until(sim->now() + gap);
  }
  EXPECT_EQ(b.delivered.size(), 1u) << "a duplicate was delivered again";
  EXPECT_GE(sim->metrics().total(stats::Counter::kDuplicatesSuppressed) -
                dups_before,
            static_cast<std::uint64_t>(sent));
}

TEST_F(TransportTest, HoldDispositionLeavesFrameUnanswered) {
  b.next_disposition = Disposition::kHold;
  a.tp->send_sequenced(2, request_frame(1));
  sim->run_until(10 * sim::kMillisecond);
  EXPECT_EQ(b.delivered.size(), 0u);
  ASSERT_FALSE(b.held.empty());
  // The kernel later accepts the held frame: it is delivered and acked.
  b.next_disposition = Disposition::kDeliver;
  b.tp->accept_held(b.held.front());
  sim->run_until(sim->now() + sim::kSecond);
  EXPECT_EQ(b.delivered.size(), 1u);
  EXPECT_EQ(a.acked.size(), 1u);
}

TEST_F(TransportTest, RejectHeldSendsBusy) {
  b.next_disposition = Disposition::kHold;
  a.tp->send_sequenced(2, request_frame(1));
  sim->run_until(10 * sim::kMillisecond);
  ASSERT_FALSE(b.held.empty());
  b.tp->reject_held(b.held.front());
  b.held.clear();
  sim->run_until(sim->now() + 20 * sim::kMillisecond);
  EXPECT_GT(sim->metrics().node(1).counter(stats::Counter::kBusyNacks), 0u);
}

TEST_F(TransportTest, ConnectionRecordExpiresAfterSilence) {
  a.tp->send_sequenced(2, request_frame(1));
  sim->run_until(50 * sim::kMillisecond);
  EXPECT_EQ(a.tp->open_connections(), 1u);
  sim->run_until(sim->now() + timing.record_lifetime() + sim::kSecond);
  EXPECT_EQ(a.tp->open_connections(), 0u);
  EXPECT_EQ(b.tp->open_connections(), 0u);
}

TEST_F(TransportTest, TakeAnyAfterRecordExpiry) {
  // Deliver one frame, let records expire, then deliver another: the
  // receiver must accept the new sequence number unconditionally.
  a.tp->send_sequenced(2, request_frame(1));
  sim->run_until(sim::kSecond);
  sim->run_until(sim->now() + timing.record_lifetime() + sim::kSecond);
  a.tp->send_sequenced(2, request_frame(2));
  sim->run_until(sim->now() + sim::kSecond);
  ASSERT_EQ(b.delivered.size(), 2u);
  EXPECT_EQ(b.delivered[1].request->tid, 2);
}

TEST_F(TransportTest, QuarantineSilencesNode) {
  b.tp->reset();
  EXPECT_TRUE(b.tp->quarantined());
  a.tp->send_sequenced(2, request_frame(1));
  sim->run_until(10 * sim::kMillisecond);
  EXPECT_EQ(b.delivered.size(), 0u);
  // After the quarantine the peer answers again (the requester's
  // retransmissions are still pacing, so allow time).
  sim->run_until(timing.crash_quarantine() + 10 * sim::kSecond);
  // The frame may have been declared failed first if retries ran out; one
  // of the two must have happened.
  EXPECT_TRUE(b.delivered.size() == 1u || !a.failed.empty());
}

TEST_F(TransportTest, AckPendingWindow) {
  a.tp->send_sequenced(2, request_frame(1));
  // Run just until the frame is delivered (receive costs ~1.2 ms).
  sim->run_until(4 * sim::kMillisecond);
  ASSERT_EQ(b.delivered.size(), 1u);
  EXPECT_TRUE(b.tp->ack_pending(1));
  sim->run_until(sim->now() + timing.ack_delay_window + sim::kMillisecond);
  EXPECT_FALSE(b.tp->ack_pending(1));  // flushed as a bare ACK
}

TEST_F(TransportTest, StoredResponseReplayedForDuplicate) {
  // Deliver; respond with a stored control frame; drop the response by
  // simulating its loss via a fresh duplicate offer.
  a.tp->send_sequenced(2, request_frame(1));
  sim->run_until(4 * sim::kMillisecond);
  ASSERT_EQ(b.delivered.size(), 1u);
  Frame resp;
  resp.accept = net::AcceptSection{1, 0, 0, 0, false, false};
  b.tp->send_control(1, resp, /*store_as_response=*/true);
  sim->run_until(sim->now() + 20 * sim::kMillisecond);
  const auto accepts_before = a.delivered.size();
  // Duplicate REQUEST offer: the stored composite response is replayed.
  Frame dup = b.delivered[0];
  bus->send(dup);
  sim->run_until(sim->now() + 20 * sim::kMillisecond);
  EXPECT_GT(a.delivered.size(), accepts_before);
}

class TransportLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(TransportLossSweep, ExactlyOnceInOrder) {
  sim::Simulator s(123);
  net::BusConfig cfg;
  cfg.loss_probability = GetParam();
  net::Bus bus(s, cfg);
  TimingModel timing;
  StubKernel a, b;
  a.init(s, bus, 1, timing);
  b.init(s, bus, 2, timing);
  constexpr int kFrames = 30;
  for (net::Tid t = 1; t <= kFrames; ++t) {
    a.tp->send_sequenced(2, request_frame(t));
  }
  s.run_until(120 * sim::kSecond);
  ASSERT_EQ(b.delivered.size(), static_cast<std::size_t>(kFrames));
  for (net::Tid t = 1; t <= kFrames; ++t) {
    EXPECT_EQ(b.delivered[static_cast<std::size_t>(t - 1)].request->tid, t);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, TransportLossSweep,
                         ::testing::Values(0.0, 0.05, 0.15, 0.3, 0.5));

}  // namespace
}  // namespace soda::proto
