// End-to-end message-passing semantics: the SIGNAL/PUT/GET/EXCHANGE
// matrix over sizes, pipelining and loss; REJECT; partial buffers;
// ordering; ACCEPT edge cases (§3.3, §4.1).
#include <gtest/gtest.h>

#include <tuple>

#include "core/network.h"
#include "sodal/sodal.h"

namespace soda {
namespace {

using sodal::Completion;
using sodal::SodalClient;
using sodal::to_bytes;
using sodal::to_string;

constexpr Pattern kEcho = kWellKnownBit | 0x300;

Bytes patterned(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::byte>((i * 7 + 3) & 0xFF);
  }
  return b;
}

/// Echo server: EXCHANGE-accepts everything, replying with the received
/// data reversed so tests can check both directions independently.
class Echo : public SodalClient {
 public:
  sim::Task on_boot(Mid) override {
    advertise(kEcho);
    co_return;
  }
  sim::Task on_entry(HandlerArgs a) override {
    Bytes in;
    Bytes reply(a.get_size);
    // Can't inspect the first buffer before supplying the second in one
    // ACCEPT (§3.3.2), so the reply is a deterministic pattern instead.
    for (std::size_t i = 0; i < reply.size(); ++i) {
      reply[i] = static_cast<std::byte>((i * 5 + 1) & 0xFF);
    }
    auto r = co_await accept_current_exchange(a.arg + 100, &in, a.put_size,
                                              std::move(reply));
    if (r.status == AcceptStatus::kSuccess) {
      ++accepted;
      last_in = std::move(in);
    }
    co_return;
  }
  int accepted = 0;
  Bytes last_in;
};

// gtest names each case after a byte dump of the struct, so the padding is
// spelled out and zeroed: implicit padding would leak stack bytes into the
// test names and change them from run to run.
struct MatrixParam {
  MatrixParam(std::uint32_t put, std::uint32_t get, bool pipe, double l)
      : put_bytes(put), get_bytes(get), pipelined(pipe), loss(l) {}
  std::uint32_t put_bytes;
  std::uint32_t get_bytes;
  bool pipelined;
  std::uint8_t pad[7] = {};
  double loss;
};
static_assert(sizeof(MatrixParam) == 24, "MatrixParam has implicit padding");

class MessagingMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(MessagingMatrix, RoundTripIntact) {
  const auto p = GetParam();
  Network::Options o;
  o.seed = 17;
  o.bus.loss_probability = p.loss;
  Network net(o);
  NodeConfig cfg;
  cfg.pipelined = p.pipelined;
  auto& echo = net.spawn<Echo>(cfg);

  class Driver : public SodalClient {
   public:
    explicit Driver(MatrixParam p) : p_(p) {}
    sim::Task on_task() override {
      Bytes in;
      Completion c = co_await b_exchange(ServerSignature{0, kEcho}, 5,
                                         patterned(p_.put_bytes), &in,
                                         p_.get_bytes);
      status = c.status;
      arg = c.arg;
      put_done = c.put_done;
      get_done = c.get_done;
      got = std::move(in);
      finished = true;
      co_await park_forever();
    }
    MatrixParam p_;
    CompletionStatus status = CompletionStatus::kCrashed;
    std::int32_t arg = 0;
    std::uint32_t put_done = 0, get_done = 0;
    Bytes got;
    bool finished = false;
  };
  auto& d = net.spawn<Driver>(cfg, p);

  net.run_for(30 * sim::kSecond);
  net.check_clients();

  ASSERT_TRUE(d.finished);
  EXPECT_EQ(d.status, CompletionStatus::kCompleted);
  EXPECT_EQ(d.arg, 105);
  EXPECT_EQ(d.put_done, p.put_bytes);
  EXPECT_EQ(d.get_done, p.get_bytes);
  EXPECT_EQ(echo.last_in, patterned(p.put_bytes));
  ASSERT_EQ(d.got.size(), p.get_bytes);
  for (std::size_t i = 0; i < d.got.size(); ++i) {
    EXPECT_EQ(d.got[i], static_cast<std::byte>((i * 5 + 1) & 0xFF));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesModesLoss, MessagingMatrix,
    ::testing::Values(
        MatrixParam{0, 0, false, 0.0}, MatrixParam{0, 0, true, 0.0},
        MatrixParam{2, 0, false, 0.0}, MatrixParam{0, 2, false, 0.0},
        MatrixParam{2, 2, false, 0.0}, MatrixParam{2, 2, true, 0.0},
        MatrixParam{200, 0, false, 0.0}, MatrixParam{0, 200, true, 0.0},
        MatrixParam{200, 200, false, 0.0}, MatrixParam{200, 200, true, 0.0},
        MatrixParam{2000, 2000, false, 0.0},
        MatrixParam{2000, 2000, true, 0.0}, MatrixParam{64, 64, false, 0.15},
        MatrixParam{64, 64, true, 0.15}, MatrixParam{500, 500, false, 0.3},
        MatrixParam{500, 500, true, 0.3}));

TEST(Messaging, RequestsDeliveredInOrder) {
  Network net;
  class Seq : public SodalClient {
   public:
    sim::Task on_boot(Mid) override {
      advertise(kEcho);
      co_return;
    }
    sim::Task on_entry(HandlerArgs a) override {
      args.push_back(a.arg);
      co_await accept_current_signal(0);
      co_return;
    }
    std::vector<std::int32_t> args;
  };
  auto& srv = net.spawn<Seq>(NodeConfig{});

  class Burst : public SodalClient {
   public:
    sim::Task on_completion(HandlerArgs) override {
      pump();
      co_return;
    }
    sim::Task on_task() override {
      pump();
      co_await park_forever();
    }
    void pump() {
      while (next < 20 &&
             signal(ServerSignature{0, kEcho}, next) != kNoTid) {
        ++next;
      }
    }
    int next = 0;
  };
  net.spawn<Burst>(NodeConfig{});
  net.run_for(2 * sim::kSecond);
  net.check_clients();
  ASSERT_EQ(srv.args.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(srv.args[static_cast<size_t>(i)], i);
}

TEST(Messaging, RejectReachesRequesterAsArgMinusOne) {
  Network net;
  class Rejecter : public SodalClient {
   public:
    sim::Task on_boot(Mid) override {
      advertise(kEcho);
      co_return;
    }
    sim::Task on_entry(HandlerArgs) override {
      co_await reject_current();
    }
  };
  net.spawn<Rejecter>(NodeConfig{});
  class Asker : public SodalClient {
   public:
    sim::Task on_task() override {
      auto c = co_await b_signal(ServerSignature{0, kEcho}, 0);
      rejected = c.rejected();
      ok = c.ok();
      co_await park_forever();
    }
    bool rejected = false, ok = true;
  };
  auto& a = net.spawn<Asker>(NodeConfig{});
  net.run_for(sim::kSecond);
  net.check_clients();
  EXPECT_TRUE(a.rejected);
  EXPECT_FALSE(a.ok);
}

TEST(Messaging, ServerMayAcceptWithSmallerBuffer) {
  // §4.1.2: ACCEPT with a smaller buffer than requested is a normal
  // partial return; the completion reports the true transfer sizes.
  Network net;
  class Small : public SodalClient {
   public:
    sim::Task on_boot(Mid) override {
      advertise(kEcho);
      co_return;
    }
    sim::Task on_entry(HandlerArgs a) override {
      Bytes in;
      co_await accept_current_exchange(0, &in, 4,  // take only 4 of put
                                       Bytes(3, std::byte{9}));  // give 3
      taken = in.size();
      (void)a;
      co_return;
    }
    std::size_t taken = 0;
  };
  auto& srv = net.spawn<Small>(NodeConfig{});
  class Asker : public SodalClient {
   public:
    sim::Task on_task() override {
      Bytes in;
      auto c = co_await b_exchange(ServerSignature{0, kEcho}, 0,
                                   Bytes(100, std::byte{1}), &in, 50);
      put_done = c.put_done;
      get_done = c.get_done;
      got = in.size();
      co_await park_forever();
    }
    std::uint32_t put_done = 0, get_done = 0;
    std::size_t got = 0;
  };
  auto& a = net.spawn<Asker>(NodeConfig{});
  net.run_for(sim::kSecond);
  net.check_clients();
  EXPECT_EQ(srv.taken, 4u);
  EXPECT_EQ(a.put_done, 4u);
  EXPECT_EQ(a.get_done, 3u);
  EXPECT_EQ(a.got, 3u);
}

TEST(Messaging, AcceptByWrongClientFailsCancelled) {
  // §3.3.2 item 6: a client may not ACCEPT a REQUEST it did not receive.
  Network net;
  class Quiet : public SodalClient {
   public:
    sim::Task on_boot(Mid) override {
      advertise(kEcho);
      co_return;
    }
    sim::Task on_entry(HandlerArgs a) override {
      seen = a.asker;
      have = true;
      co_return;  // do NOT accept: leave the request hanging
    }
    RequesterSignature seen;
    bool have = false;
  };
  auto& srv = net.spawn<Quiet>(NodeConfig{});
  class Asker : public SodalClient {
   public:
    sim::Task on_task() override {
      signal(ServerSignature{0, kEcho}, 0);
      co_await park_forever();
    }
  };
  net.spawn<Asker>(NodeConfig{});
  // A third node guesses the requester signature and tries to ACCEPT it.
  class Thief : public SodalClient {
   public:
    explicit Thief(Quiet* srv) : srv_(srv) {}
    sim::Task on_task() override {
      while (!srv_->have) co_await delay(5 * sim::kMillisecond);
      auto r = co_await accept_signal(srv_->seen, 0);
      status = r.status;
      done = true;
      co_await park_forever();
    }
    Quiet* srv_;
    AcceptStatus status = AcceptStatus::kSuccess;
    bool done = false;
  };
  auto& thief = net.spawn<Thief>(NodeConfig{}, &srv);
  net.run_for(2 * sim::kSecond);
  net.check_clients();
  ASSERT_TRUE(thief.done);
  EXPECT_EQ(thief.status, AcceptStatus::kCancelled);
}

TEST(Messaging, SecondAcceptOfSameRequestCancelled) {
  Network net;
  class Double : public SodalClient {
   public:
    sim::Task on_boot(Mid) override {
      advertise(kEcho);
      co_return;
    }
    sim::Task on_entry(HandlerArgs a) override {
      auto r1 = co_await accept_current_signal(0);
      first = r1.status;
      auto r2 = co_await accept_signal(a.asker, 0);
      second = r2.status;
      done = true;
      co_return;
    }
    AcceptStatus first = AcceptStatus::kCancelled;
    AcceptStatus second = AcceptStatus::kSuccess;
    bool done = false;
  };
  auto& srv = net.spawn<Double>(NodeConfig{});
  class Asker : public SodalClient {
   public:
    sim::Task on_task() override {
      co_await b_signal(ServerSignature{0, kEcho}, 0);
      co_await park_forever();
    }
  };
  net.spawn<Asker>(NodeConfig{});
  net.run_for(2 * sim::kSecond);
  net.check_clients();
  ASSERT_TRUE(srv.done);
  EXPECT_EQ(srv.first, AcceptStatus::kSuccess);
  EXPECT_EQ(srv.second, AcceptStatus::kCancelled);
}

TEST(Messaging, AcceptOfUnknownSignatureCancelled) {
  Network net;
  net.spawn<Echo>(NodeConfig{});
  class Guesser : public SodalClient {
   public:
    sim::Task on_task() override {
      auto r = co_await accept_signal(RequesterSignature{0, 424242}, 0);
      status = r.status;
      done = true;
      co_await park_forever();
    }
    AcceptStatus status = AcceptStatus::kSuccess;
    bool done = false;
  };
  auto& g = net.spawn<Guesser>(NodeConfig{});
  net.run_for(2 * sim::kSecond);
  net.check_clients();
  ASSERT_TRUE(g.done);
  EXPECT_EQ(g.status, AcceptStatus::kCancelled);
}

}  // namespace
}  // namespace soda
