// Tests of the observability subsystem: the metrics registry (counters +
// latency histograms), deterministic retransmit accounting via the bus
// loss filter, and the JSONL round-trip for typed trace events.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/network.h"
#include "sodal/sodal.h"
#include "stats/json.h"
#include "stats/metrics.h"

namespace soda {
namespace {

using stats::Counter;
using stats::Histogram;
using stats::Latency;

TEST(Histogram, BucketsAndQuantiles) {
  Histogram h;
  h.observe(50);        // -> <=100 bucket
  h.observe(100);       // boundary: still <=100
  h.observe(101);       // -> <=200
  h.observe(9'999'999); // -> overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(Histogram::kNumBuckets - 1), 1u);
  EXPECT_EQ(h.min(), 50);
  EXPECT_EQ(h.max(), 9'999'999);
  EXPECT_EQ(h.sum(), 50 + 100 + 101 + 9'999'999);
  EXPECT_EQ(h.quantile_upper_bound(0.5), 100);
  // The overflow bucket reports the observed max.
  EXPECT_EQ(h.quantile_upper_bound(1.0), 9'999'999);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
}

TEST(MetricsRegistry, CountersAndAggregate) {
  stats::MetricsHub hub;
  hub.node(0).add(Counter::kFramesSent, 3);
  hub.node(2).add(Counter::kFramesSent);
  hub.node(2).add(Counter::kRetransmits);
  EXPECT_EQ(hub.node(0).counter(Counter::kFramesSent), 3u);
  EXPECT_EQ(hub.total(Counter::kFramesSent), 4u);
  EXPECT_EQ(hub.total(Counter::kRetransmits), 1u);
  hub.reset();
  EXPECT_EQ(hub.total(Counter::kFramesSent), 0u);
}

TEST(MetricsRegistry, DumpJsonRowsParse) {
  stats::MetricsHub hub;
  hub.node(1).add(Counter::kFramesSent, 7);
  hub.node(1).observe(Latency::kRequestLatency, 1234);
  std::ostringstream os;
  stats::dump_json(os, hub, "unit \"test\"");

  std::istringstream is(os.str());
  std::string line;
  int rows = 0;
  bool saw_aggregate = false;
  while (std::getline(is, line)) {
    auto fields = stats::parse_json_line(line);
    ASSERT_TRUE(fields.has_value()) << line;
    EXPECT_EQ((*fields)["kind"], "metrics");
    EXPECT_EQ((*fields)["label"], "unit \"test\"");  // escaping survived
    if ((*fields)["node"] == "-1") saw_aggregate = true;
    if ((*fields)["node"] == "1") {
      EXPECT_EQ((*fields)["frames_sent"], "7");
      EXPECT_NE((*fields)["request_latency_us"].find("\"count\":1"),
                std::string::npos);
    }
    ++rows;
  }
  EXPECT_EQ(rows, 2);  // node row + aggregate row
  EXPECT_TRUE(saw_aggregate);
}

TEST(TraceJson, RoundTripsTypedEvent) {
  sim::TraceEvent e;
  e.at = 123456;
  e.category = sim::TraceCategory::kRetransmit;
  e.node = 2;
  e.peer = 3;
  e.tid = 77;
  e.pattern = 0x42;
  e.size = 80;
  e.sections = sim::frame_section::kSeq | sim::frame_section::kRequest;
  e.status = sim::TraceStatus::kTimeout;
  e.detail = std::int64_t{45000};

  const std::string line = sim::to_json(e);
  auto back = sim::trace_event_from_json(line);
  ASSERT_TRUE(back.has_value()) << line;
  EXPECT_EQ(*back, e);

  // Defaulted fields stay defaulted through the round trip.
  sim::TraceEvent bare;
  bare.at = 1;
  bare.category = sim::TraceCategory::kBoot;
  bare.node = 0;
  auto bare_back = sim::trace_event_from_json(sim::to_json(bare));
  ASSERT_TRUE(bare_back.has_value());
  EXPECT_EQ(*bare_back, bare);

  EXPECT_FALSE(sim::trace_event_from_json("not json").has_value());
  EXPECT_FALSE(
      sim::trace_event_from_json(R"({"kind":"metrics","at":1})").has_value());
}

// ---- end-to-end: a real exchange over a lossy-but-deterministic bus ----

constexpr Pattern kP = kWellKnownBit | 0x0BE5;

class SignalServer : public sodal::SodalClient {
 public:
  sim::Task on_boot(Mid) override {
    advertise(kP);
    co_return;
  }
  sim::Task on_entry(HandlerArgs) override {
    co_await accept_current_signal(0);
  }
};

class SignalCaller : public sodal::SodalClient {
 public:
  sim::Task on_task() override {
    co_await b_signal(ServerSignature{0, kP}, 1);
    done = true;
    co_await park_forever();
  }
  bool done = false;
};

TEST(StatsEndToEnd, ForcedLossYieldsExactRetransmitCount) {
  Network net;
  net.sim().trace().enable_all();
  net.spawn<SignalServer>(NodeConfig{});
  auto& caller = net.spawn<SignalCaller>(NodeConfig{});

  // Drop the first two deliveries of the caller's REQUEST frame. The loss
  // filter replaces the random draw, so exactly two retransmissions occur.
  int drops = 0;
  net.bus().set_loss_filter([&drops](const net::Frame& f, net::Mid) {
    if (f.request && f.src == 1 && drops < 2) {
      ++drops;
      return true;
    }
    return false;
  });

  net.run_for(5 * sim::kSecond);
  net.check_clients();
  ASSERT_TRUE(caller.done);
  EXPECT_EQ(drops, 2);

  auto& hub = net.sim().metrics();
  EXPECT_EQ(hub.node(1).counter(Counter::kRetransmits), 2u);
  EXPECT_EQ(hub.total(Counter::kRetransmits), 2u);
  EXPECT_EQ(hub.node(1).counter(Counter::kFramesDropped), 0u);  // drops @ n0
  EXPECT_EQ(hub.node(0).counter(Counter::kFramesDropped), 2u);
  EXPECT_EQ(hub.node(1).counter(Counter::kRequestsIssued), 1u);
  EXPECT_EQ(hub.node(1).counter(Counter::kRequestsCompleted), 1u);
  EXPECT_EQ(hub.node(0).counter(Counter::kAcceptsCompleted), 1u);

  // The trace agrees with the registry.
  const auto& events = net.sim().trace().events();
  EXPECT_EQ(std::count_if(events.begin(), events.end(),
                          [](const sim::TraceEvent& e) {
                            return e.category ==
                                       sim::TraceCategory::kRetransmit &&
                                   e.node == 1;
                          }),
            2);

  // Both latency histograms collected samples deterministically: one
  // request completion on the caller, one accept completion on the server.
  const Histogram& req = hub.node(1).histogram(Latency::kRequestLatency);
  ASSERT_EQ(req.count(), 1u);
  // Two retransmit intervals passed before the request even reached the
  // server, so the latency is well above a loss-free exchange (~4 ms).
  EXPECT_GT(req.min(), 20 * 1000);
  const Histogram& wait = hub.node(0).histogram(Latency::kAcceptWait);
  EXPECT_GE(wait.count(), 1u);
  const Histogram& backoff =
      hub.node(1).histogram(Latency::kRetransmitBackoff);
  EXPECT_EQ(backoff.count(), 2u);
  EXPECT_GT(backoff.min(), 0);

  // Every recorded trace event survives a JSONL round trip bit-for-bit.
  std::size_t checked = 0;
  for (const auto& e : net.sim().trace().events()) {
    auto back = sim::trace_event_from_json(sim::to_json(e));
    ASSERT_TRUE(back.has_value()) << sim::to_json(e);
    EXPECT_EQ(*back, e) << sim::to_json(e);
    ++checked;
  }
  EXPECT_GT(checked, 10u);
}

TEST(StatsEndToEnd, CleanRunHasNoRetransmits) {
  Network net;
  net.spawn<SignalServer>(NodeConfig{});
  auto& caller = net.spawn<SignalCaller>(NodeConfig{});
  net.run_for(5 * sim::kSecond);
  net.check_clients();
  ASSERT_TRUE(caller.done);
  auto& hub = net.sim().metrics();
  EXPECT_EQ(hub.total(Counter::kRetransmits), 0u);
  EXPECT_EQ(hub.total(Counter::kFramesDropped), 0u);
  EXPECT_GT(hub.total(Counter::kFramesSent), 0u);
  EXPECT_GT(hub.node(0).counter(Counter::kCpuBusyMicros), 0u);
  EXPECT_GT(hub.node(1).counter(Counter::kCpuBusyMicros), 0u);
  const Histogram& req = hub.node(1).histogram(Latency::kRequestLatency);
  ASSERT_EQ(req.count(), 1u);
  EXPECT_LT(req.max(), 100 * 1000);  // loss-free: well under a retransmit
}

}  // namespace
}  // namespace soda
