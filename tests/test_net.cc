// Unit tests for the broadcast-bus model and frame vocabulary.
#include <gtest/gtest.h>

#include "net/bus.h"
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

}  // namespace
}  // namespace soda::net
