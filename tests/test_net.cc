// Unit tests for the broadcast-bus model and frame vocabulary.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/bus.h"
#include "net/frame_pool.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace soda::net {
namespace {

Frame small_frame(Mid src, Mid dst) {
  Frame f;
  f.src = src;
  f.dst = dst;
  f.seq = 0;
  f.request = RequestSection{1, 0x42, 0, 0, 0, false};
  return f;
}

TEST(Packet, WireSizeCountsSections) {
  Frame f;
  const auto base = f.wire_size();
  f.ack = AckSection{0};
  EXPECT_GT(f.wire_size(), base);
  f.data.resize(100);
  EXPECT_EQ(f.wire_size(), base + 2 + 100);
}

TEST(Packet, ReservedBitPartitionsPatterns) {
  EXPECT_TRUE(is_reserved_pattern(kReservedBit | 5));
  EXPECT_FALSE(is_reserved_pattern(kWellKnownBit | 5));
  EXPECT_FALSE(is_reserved_pattern(5));
}

TEST(Packet, DescribeMentionsSections) {
  Frame f = small_frame(1, 2);
  f.data_tag = DataTag::kRequestData;
  f.data.resize(4);
  auto d = f.describe();
  EXPECT_NE(d.find("REQ"), std::string::npos);
  EXPECT_NE(d.find("DATA[4b"), std::string::npos);
}

TEST(Bus, DeliversAfterSerializationDelay) {
  sim::Simulator s;
  BusConfig cfg;
  Bus bus(s, cfg);
  sim::Time delivered_at = -1;
  bus.attach(2, [&](const FrameRef&) { delivered_at = s.now(); });
  Frame f = small_frame(1, 2);
  const auto wire = static_cast<sim::Duration>(f.wire_size()) *
                        cfg.us_per_byte +
                    cfg.propagation;
  bus.send(f);
  s.run();
  EXPECT_EQ(delivered_at, wire);
}

TEST(Bus, UnicastDoesNotReachOthers) {
  sim::Simulator s;
  Bus bus(s, BusConfig{});
  int at2 = 0, at3 = 0;
  bus.attach(2, [&](const FrameRef&) { ++at2; });
  bus.attach(3, [&](const FrameRef&) { ++at3; });
  bus.send(small_frame(1, 2));
  s.run();
  EXPECT_EQ(at2, 1);
  EXPECT_EQ(at3, 0);
}

TEST(Bus, BroadcastReachesAllButSender) {
  sim::Simulator s;
  Bus bus(s, BusConfig{});
  int at1 = 0, at2 = 0, at3 = 0;
  bus.attach(1, [&](const FrameRef&) { ++at1; });
  bus.attach(2, [&](const FrameRef&) { ++at2; });
  bus.attach(3, [&](const FrameRef&) { ++at3; });
  bus.send(small_frame(1, kBroadcastMid));
  s.run();
  EXPECT_EQ(at1, 0);  // a station does not hear its own broadcast
  EXPECT_EQ(at2, 1);
  EXPECT_EQ(at3, 1);
}

TEST(Bus, LossDropsFrames) {
  sim::Simulator s(7);
  BusConfig cfg;
  cfg.loss_probability = 1.0;
  Bus bus(s, cfg);
  int got = 0;
  bus.attach(2, [&](const FrameRef&) { ++got; });
  for (int i = 0; i < 10; ++i) bus.send(small_frame(1, 2));
  s.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(bus.frames_lost(), 10u);
}

TEST(Bus, CorruptionDiscardsAfterCrc) {
  sim::Simulator s(7);
  BusConfig cfg;
  cfg.corruption_probability = 1.0;
  Bus bus(s, cfg);
  int got = 0;
  bus.attach(2, [&](const FrameRef&) { ++got; });
  bus.send(small_frame(1, 2));
  s.run();
  // The frame consumed wire time but the receiving interface dropped it.
  EXPECT_EQ(got, 0);
  EXPECT_EQ(bus.frames_corrupted(), 1u);
  EXPECT_EQ(bus.frames_sent(), 1u);
}

TEST(Bus, PartialLossStatistically) {
  sim::Simulator s(11);
  BusConfig cfg;
  cfg.loss_probability = 0.5;
  Bus bus(s, cfg);
  int got = 0;
  bus.attach(2, [&](const FrameRef&) { ++got; });
  for (int i = 0; i < 400; ++i) bus.send(small_frame(1, 2));
  s.run();
  EXPECT_GT(got, 120);
  EXPECT_LT(got, 280);
}

TEST(Bus, DetachedStationHearsNothing) {
  sim::Simulator s;
  Bus bus(s, BusConfig{});
  int got = 0;
  bus.attach(2, [&](const FrameRef&) { ++got; });
  bus.detach(2);
  bus.send(small_frame(1, 2));
  s.run();
  EXPECT_EQ(got, 0);
}

TEST(Bus, StatsAccumulateAndReset) {
  sim::Simulator s;
  Bus bus(s, BusConfig{});
  bus.attach(2, [](const FrameRef&) {});
  Frame f = small_frame(1, 2);
  bus.send(f);
  bus.send(f);
  s.run();
  EXPECT_EQ(bus.frames_sent(), 2u);
  EXPECT_EQ(bus.bytes_sent(), 2 * f.wire_size());
  bus.reset_stats();
  EXPECT_EQ(bus.frames_sent(), 0u);
}

TEST(Bus, DupFilterDeliversSecondCopy) {
  sim::Simulator s;
  Bus bus(s, BusConfig{});
  int deliveries = 0;
  bus.attach(2, [&](const FrameRef&) { ++deliveries; });
  bus.set_dup_filter([](const Frame&, Mid dst) { return dst == 2; });
  bus.send(small_frame(1, 2));
  s.run();
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(bus.frames_duplicated(), 1u);
}

TEST(Bus, DupFilterDecliningMeansSingleDelivery) {
  sim::Simulator s;
  BusConfig cfg;
  cfg.duplicate_probability = 1.0;  // filter overrides the random draw
  Bus bus(s, cfg);
  int deliveries = 0;
  bus.attach(2, [&](const FrameRef&) { ++deliveries; });
  bus.set_dup_filter([](const Frame&, Mid) { return false; });
  bus.send(small_frame(1, 2));
  s.run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(bus.frames_duplicated(), 0u);
}

TEST(Bus, DelayFilterAddsShapedLatency) {
  sim::Simulator s;
  BusConfig cfg;
  Bus bus(s, cfg);
  sim::Time delivered_at = -1;
  bus.attach(2, [&](const FrameRef&) { delivered_at = s.now(); });
  bus.set_delay_filter(
      [](const Frame&, Mid) { return sim::Duration{1500}; });
  Frame f = small_frame(1, 2);
  const auto wire = static_cast<sim::Duration>(f.wire_size()) *
                        cfg.us_per_byte +
                    cfg.propagation;
  bus.send(f);
  s.run();
  EXPECT_EQ(delivered_at, wire + 1500);
}

// --- FramePool / FrameRef ownership

TEST(FrameRef, CopiesShareOneNodeAndCountOwners) {
  FramePool pool;
  FrameRef a = pool.make(small_frame(1, 2));
  EXPECT_EQ(a.use_count(), 1u);
  {
    FrameRef b = a;
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(a.use_count(), 2u);
    FrameRef c = std::move(b);
    EXPECT_EQ(a.use_count(), 2u);  // a move adds no owner
    EXPECT_FALSE(b);
    EXPECT_EQ(b.use_count(), 0u);
  }
  EXPECT_EQ(a.use_count(), 1u);
  a.reset();
  EXPECT_EQ(a.use_count(), 0u);
}

// The sink is handed the bus's own ref: no copy survives the path from
// send() to the receiver, in both the send-side and the arrival-side
// (partitioned) delivery paths.
TEST(FrameRef, UnicastReachesItsSinkAsSoleOwner) {
  for (const bool partitioned : {false, true}) {
    sim::Simulator s;
    if (partitioned) s.enable_partitions(2, sim::PartitionMode::kSingleWheel);
    Bus bus(s, BusConfig{});
    std::vector<std::uint32_t> seen;
    bus.attach(2, [&](FrameRef f) { seen.push_back(f.use_count()); });
    bus.send(small_frame(1, 2));
    s.run();
    EXPECT_EQ(seen, std::vector<std::uint32_t>{1}) << "partitioned "
                                                   << partitioned;
  }
}

TEST(FrameRef, DuplicatedDeliverySharesTheFrame) {
  sim::Simulator s;
  Bus bus(s, BusConfig{});
  std::vector<std::uint32_t> seen;
  std::vector<const Frame*> frames;
  std::vector<FrameRef> kept;
  bus.attach(2, [&](FrameRef f) {
    seen.push_back(f.use_count());
    frames.push_back(f.get());
    kept.push_back(std::move(f));
  });
  bus.set_dup_filter([](const Frame&, Mid) { return true; });
  bus.send(small_frame(1, 2));
  s.run();
  // The original arrives while the duplicate's event still holds a ref;
  // the duplicate then joins the original's kept ref.
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{2, 2}));
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], frames[1]);
  EXPECT_EQ(kept[0].use_count(), 2u);
}

TEST(FrameRef, BroadcastReceiversShareOneFrame) {
  sim::Simulator s;
  Bus bus(s, BusConfig{});
  std::vector<FrameRef> kept;
  for (Mid m : {2, 3, 4}) {
    bus.attach(m, [&](FrameRef f) { kept.push_back(std::move(f)); });
  }
  bus.send(small_frame(1, kBroadcastMid));
  s.run();
  ASSERT_EQ(kept.size(), 3u);
  for (const auto& f : kept) {
    EXPECT_EQ(f.get(), kept[0].get());
    EXPECT_EQ(f.use_count(), 3u);
  }
}

// Scheduled deliveries own refs past the Bus and its pool handle; the
// last of them to go frees the pool's core (AddressSanitizer checks the
// free, and that nothing reads the core after it).
TEST(FrameRef, RefsOutliveTheBusAndPoolHandle) {
  FrameRef held;
  {
    sim::Simulator s;
    auto bus = std::make_unique<Bus>(s, BusConfig{});
    bus->attach(2, [](FrameRef) {});
    bus->attach(3, [](FrameRef) {});
    bus->send(small_frame(1, 2));
    bus->send(small_frame(1, kBroadcastMid));
    {
      FramePool pool;
      held = pool.make(small_frame(5, 6));
    }
    bus.reset();  // events still queued hold refs into its pool's core
  }  // the simulator drops them unrun
  ASSERT_TRUE(held);
  EXPECT_EQ(held->src, 5);
  EXPECT_EQ(held.use_count(), 1u);
}

TEST(FramePool, RecycledNodeKeepsPayloadCapacity) {
  FramePool pool;
  Frame big = small_frame(1, 2);
  big.data.resize(1500);
  FrameRef r = pool.make(std::move(big));
  const Frame* node = r.get();
  r.reset();
  FrameRef control = pool.make(small_frame(1, 2));
  ASSERT_EQ(control.get(), node);  // the free list hands the node back
  EXPECT_TRUE(control->data.empty());
  EXPECT_GE(control->data.capacity(), 1500u);
  EXPECT_TRUE(control->request.has_value());
}

}  // namespace
}  // namespace soda::net
