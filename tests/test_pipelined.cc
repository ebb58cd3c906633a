// The pipelined kernel's input buffer (§5.2.3): held REQUESTs are taken
// at ENDHANDLER without a NACK round, time out to a BUSY NACK when the
// handler stays busy too long, and survive handler CLOSE/OPEN.
#include <gtest/gtest.h>

#include "core/network.h"
#include "sodal/sodal.h"
#include "stats/metrics.h"

namespace soda {
namespace {

using sodal::SodalClient;

constexpr Pattern kP = kWellKnownBit | 0xF1B;

NodeConfig pipelined_cfg(sim::Duration hold = 6'000) {
  NodeConfig c;
  c.pipelined = true;
  c.input_buffer_hold = hold;
  return c;
}

/// Handler blocks on a gate before accepting — an arbitrarily long BUSY
/// window the tests control.
class GatedServer : public SodalClient {
 public:
  sim::Task on_boot(Mid) override {
    advertise(kP);
    co_return;
  }
  sim::Task on_entry(HandlerArgs a) override {
    ++arrivals;
    if (block_next) {
      block_next = false;
      co_await wait_on(gate);
    }
    co_await accept_current_signal(a.arg);
  }
  int arrivals = 0;
  bool block_next = false;
  sim::CondVar gate;
};

class TwoShots : public SodalClient {
 public:
  sim::Task on_completion(HandlerArgs a) override {
    if (a.status == CompletionStatus::kCompleted) ++completed;
    co_return;
  }
  sim::Task on_task() override {
    signal(ServerSignature{0, kP}, 1);
    co_await delay(4 * sim::kMillisecond);
    signal(ServerSignature{0, kP}, 2);
    co_await park_forever();
  }
  int completed = 0;
};

TEST(Pipelined, HeldRequestDeliveredAtEndhandler) {
  Network net;
  auto& srv = net.spawn<GatedServer>(pipelined_cfg(50'000));
  srv.block_next = true;
  auto& c = net.spawn<TwoShots>(NodeConfig{});
  net.sim().trace().enable(sim::TraceCategory::kRetransmit);
  // Release the gate before the requester's ~20 ms retransmit backstop:
  // the held frame must be consumed by ENDHANDLER alone.
  net.run_for(14 * sim::kMillisecond);
  EXPECT_EQ(srv.arrivals, 1);  // second REQUEST held, not delivered
  srv.gate.notify_all();       // handler finishes; ENDHANDLER takes it
  net.run_for(100 * sim::kMillisecond);
  net.check_clients();
  EXPECT_EQ(srv.arrivals, 2);
  EXPECT_EQ(c.completed, 2);
  // The held delivery happened without the requester retransmitting.
  for (const sim::TraceEvent& e : net.sim().trace().events()) {
    EXPECT_FALSE(e.category == sim::TraceCategory::kRetransmit && e.node == 1);
  }
}

TEST(Pipelined, HoldTimesOutToBusyNack) {
  Network net;
  auto& srv = net.spawn<GatedServer>(pipelined_cfg(/*hold=*/3'000));
  srv.block_next = true;
  auto& c = net.spawn<TwoShots>(NodeConfig{});
  net.run_for(60 * sim::kMillisecond);
  // The hold expired long ago; the requester has been BUSY-NACK paced.
  EXPECT_GT(net.sim().metrics().node(1).counter(stats::Counter::kBusyNacks),
            0u);
  EXPECT_EQ(srv.arrivals, 1);
  srv.gate.notify_all();
  net.run_for(200 * sim::kMillisecond);
  net.check_clients();
  EXPECT_EQ(srv.arrivals, 2);  // the paced retry eventually landed
  EXPECT_EQ(c.completed, 2);
}

TEST(Pipelined, OpenReleasesHeldFrame) {
  // CLOSE the handler, let a REQUEST arrive (held), OPEN: the held frame
  // must be delivered by the OPEN, not by a retransmission.
  Network net;
  auto& srv = net.spawn<GatedServer>(pipelined_cfg(500'000));
  net.spawn<TwoShots>(NodeConfig{});
  net.node(0).kernel().close();
  net.run_for(30 * sim::kMillisecond);
  EXPECT_EQ(srv.arrivals, 0);
  net.node(0).kernel().open();
  net.run_for(100 * sim::kMillisecond);
  net.check_clients();
  EXPECT_EQ(srv.arrivals, 2);
}

TEST(Pipelined, MixedKernelsInteroperate) {
  // A pipelined server with a non-pipelined client and vice versa: the
  // input buffer is purely node-local.
  for (bool server_pipelined : {false, true}) {
    Network net;
    auto& srv = net.spawn<GatedServer>(
        server_pipelined ? pipelined_cfg() : NodeConfig{});
    auto& c = net.spawn<TwoShots>(
        server_pipelined ? NodeConfig{} : pipelined_cfg());
    net.run_for(sim::kSecond);
    net.check_clients();
    EXPECT_EQ(srv.arrivals, 2);
    EXPECT_EQ(c.completed, 2);
  }
}

}  // namespace
}  // namespace soda
