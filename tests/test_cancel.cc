// CANCEL semantics (§3.3.3): succeeds only when the request has not
// completed; a server ACCEPTing a cancelled request sees CANCELLED.
#include <gtest/gtest.h>

#include "core/network.h"
#include "sodal/sodal.h"

namespace soda {
namespace {

using sodal::SodalClient;

constexpr Pattern kSlow = kWellKnownBit | 0x400;

/// Server that holds requests until told to accept them.
class HoldingServer : public SodalClient {
 public:
  sim::Task on_boot(Mid) override {
    advertise(kSlow);
    co_return;
  }
  sim::Task on_entry(HandlerArgs a) override {
    held.push_back(a.asker);
    co_return;
  }
  sim::Task accept_one() {
    auto who = held.front();
    held.erase(held.begin());
    auto r = co_await accept_signal(who, 0);
    last_status = r.status;
  }
  std::vector<RequesterSignature> held;
  AcceptStatus last_status = AcceptStatus::kSuccess;
};

class Canceller : public SodalClient {
 public:
  sim::Task on_completion(HandlerArgs a) override {
    completions.push_back(a.status);
    co_return;
  }
  sim::Task on_task() override {
    tid = signal(ServerSignature{0, kSlow}, 0);
    co_await wait_on(go);
    auto r = co_await cancel(tid);
    cancel_status = r;
    cancelled = true;
    co_await park_forever();
  }
  Tid tid = kNoTid;
  sim::CondVar go;
  CancelStatus cancel_status = CancelStatus::kFail;
  bool cancelled = false;
  std::vector<CompletionStatus> completions;
};

TEST(Cancel, SucceedsOnHeldRequest) {
  Network net;
  auto& srv = net.spawn<HoldingServer>(NodeConfig{});
  auto& c = net.spawn<Canceller>(NodeConfig{});
  net.run_for(100 * sim::kMillisecond);
  ASSERT_EQ(srv.held.size(), 1u);
  c.go.notify_all();
  net.run_for(200 * sim::kMillisecond);
  net.check_clients();
  ASSERT_TRUE(c.cancelled);
  EXPECT_EQ(c.cancel_status, CancelStatus::kSuccess);
  EXPECT_TRUE(c.completions.empty());  // no completion for a cancelled one
  EXPECT_EQ(net.node(1).kernel().live_requests(), 0);
}

TEST(Cancel, ServerAcceptAfterCancelGetsCancelled) {
  Network net;
  auto& srv = net.spawn<HoldingServer>(NodeConfig{});
  auto& c = net.spawn<Canceller>(NodeConfig{});
  net.run_for(100 * sim::kMillisecond);
  c.go.notify_all();
  net.run_for(200 * sim::kMillisecond);
  ASSERT_EQ(c.cancel_status, CancelStatus::kSuccess);
  // Now the server tries to accept the revoked request.
  ASSERT_EQ(srv.held.size(), 1u);
  auto t = srv.accept_one();
  net.run_for(500 * sim::kMillisecond);
  net.check_clients();
  EXPECT_EQ(srv.last_status, AcceptStatus::kCancelled);
}

TEST(Cancel, FailsWhenAlreadyCompleted) {
  Network net;
  auto& srv = net.spawn<HoldingServer>(NodeConfig{});
  auto& c = net.spawn<Canceller>(NodeConfig{});
  net.run_for(100 * sim::kMillisecond);
  // Server accepts first...
  auto t = srv.accept_one();
  net.run_for(200 * sim::kMillisecond);
  ASSERT_EQ(c.completions.size(), 1u);
  // ...then the client tries to cancel.
  c.go.notify_all();
  net.run_for(200 * sim::kMillisecond);
  net.check_clients();
  ASSERT_TRUE(c.cancelled);
  EXPECT_EQ(c.cancel_status, CancelStatus::kFail);
  EXPECT_EQ(c.completions[0], CompletionStatus::kCompleted);
}

TEST(Cancel, RaceWithAcceptYieldsExactlyOneWinner) {
  // Start the cancel and the accept at the same instant, many seeds: the
  // request must either complete (cancel FAILs) or be revoked (accept
  // sees CANCELLED) — never both, never neither.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Network net({seed});
    auto& srv = net.spawn<HoldingServer>(NodeConfig{});
    auto& c = net.spawn<Canceller>(NodeConfig{});
    net.run_for(100 * sim::kMillisecond);
    ASSERT_EQ(srv.held.size(), 1u);
    auto t = srv.accept_one();
    c.go.notify_all();
    net.run_for(2 * sim::kSecond);
    net.check_clients();
    ASSERT_TRUE(c.cancelled);
    const bool completed = !c.completions.empty();
    const bool cancel_won = c.cancel_status == CancelStatus::kSuccess;
    EXPECT_NE(completed, cancel_won) << "seed " << seed;
    if (cancel_won) {
      EXPECT_EQ(srv.last_status, AcceptStatus::kCancelled) << "seed " << seed;
    } else {
      EXPECT_EQ(srv.last_status, AcceptStatus::kSuccess) << "seed " << seed;
    }
  }
}

TEST(Cancel, UnknownTidFailsImmediately) {
  Network net;
  net.spawn<HoldingServer>(NodeConfig{});
  class C : public SodalClient {
   public:
    sim::Task on_task() override {
      auto r = co_await cancel(424242);
      status = r;
      done = true;
      co_await park_forever();
    }
    CancelStatus status = CancelStatus::kSuccess;
    bool done = false;
  };
  auto& c = net.spawn<C>(NodeConfig{});
  net.run_for(100 * sim::kMillisecond);
  net.check_clients();
  ASSERT_TRUE(c.done);
  EXPECT_EQ(c.status, CancelStatus::kFail);
}

TEST(Cancel, BeforeDeliveryWaitsForAck) {
  // Cancelling immediately after issuing: the kernel must first learn the
  // server's state (§5.2.3 "a REQUEST must be acknowledged before it is
  // eligible for cancellation"), then the cancel resolves.
  Network net;
  auto& srv = net.spawn<HoldingServer>(NodeConfig{});
  class C : public SodalClient {
   public:
    sim::Task on_task() override {
      Tid t = signal(ServerSignature{0, kSlow}, 0);
      auto r = co_await cancel(t);  // no wait: races delivery
      status = r;
      done = true;
      co_await park_forever();
    }
    CancelStatus status = CancelStatus::kFail;
    bool done = false;
  };
  auto& c = net.spawn<C>(NodeConfig{});
  net.run_for(sim::kSecond);
  net.check_clients();
  ASSERT_TRUE(c.done);
  EXPECT_EQ(c.status, CancelStatus::kSuccess);
  // The server still saw the arrival (delivery preceded the cancel).
  EXPECT_EQ(srv.held.size(), 1u);
}

TEST(Cancel, TaskEndingOnAFailedCancel) {
  // The server ACCEPTs at once, so the ACCEPT rides on the REQUEST's ack
  // and fails the CANCEL queued behind that ack. The CANCEL's continuation
  // resumes inline, ends the task and so DIEs (§4.1) while the kernel is
  // still finishing the request: the death must win cleanly.
  class Acceptor : public SodalClient {
   public:
    sim::Task on_boot(Mid) override {
      advertise(kSlow);
      co_return;
    }
    sim::Task on_entry(HandlerArgs) override {
      co_await accept_current_signal(0);
    }
  };
  class C : public SodalClient {
   public:
    sim::Task on_task() override {
      const Tid t = signal(ServerSignature{0, kSlow}, 0);
      status = co_await cancel(t);
      done = true;
    }
    CancelStatus status = CancelStatus::kSuccess;
    bool done = false;
  };
  Network net;
  net.spawn<Acceptor>(NodeConfig{});
  auto& c = net.spawn<C>(NodeConfig{});
  net.run_for(sim::kSecond);
  ASSERT_TRUE(c.done);
  EXPECT_EQ(c.status, CancelStatus::kFail);
  EXPECT_TRUE(net.node(1).kernel().client_dead());
  EXPECT_EQ(net.node(1).kernel().live_requests(), 0);
}

TEST(Cancel, DoubleCancelSecondFails) {
  Network net;
  net.spawn<HoldingServer>(NodeConfig{});
  class C : public SodalClient {
   public:
    sim::Task on_task() override {
      Tid t = signal(ServerSignature{0, kSlow}, 0);
      co_await delay(50 * sim::kMillisecond);
      auto first = cancel(t);
      auto second = cancel(t);
      s2 = co_await second;
      s1 = co_await first;
      done = true;
      co_await park_forever();
    }
    CancelStatus s1 = CancelStatus::kFail, s2 = CancelStatus::kSuccess;
    bool done = false;
  };
  auto& c = net.spawn<C>(NodeConfig{});
  net.run_for(sim::kSecond);
  net.check_clients();
  ASSERT_TRUE(c.done);
  EXPECT_EQ(c.s1, CancelStatus::kSuccess);
  EXPECT_EQ(c.s2, CancelStatus::kFail);  // already being cancelled
}

}  // namespace
}  // namespace soda
