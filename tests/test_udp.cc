// The POSIX/UDP backend: the same kernels and SODAL programs over real
// loopback sockets in real time. Wall-clock budgets are generous; tests
// skip when the environment forbids sockets.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "chaos/observer.h"
#include "chaos/workload.h"
#include "net/wire.h"
#include "posix/udp_network.h"
#include "sodal/sodal.h"
#include "stats/metrics.h"

namespace soda::posix {
namespace {

using sodal::Completion;
using sodal::SodalClient;
using sodal::to_bytes;
using sodal::to_string;

constexpr Pattern kEcho = kWellKnownBit | 0xDD1;

class Echo : public SodalClient {
 public:
  sim::Task on_boot(Mid) override {
    advertise(kEcho);
    co_return;
  }
  sim::Task on_entry(HandlerArgs a) override {
    Bytes in;
    co_await accept_current_exchange(a.arg * 3, &in, a.put_size,
                                     to_bytes("over-udp"));
    last = in;
    ++served;
  }
  Bytes last;
  int served = 0;
};

class Caller : public SodalClient {
 public:
  explicit Caller(int rounds) : rounds_(rounds) {}
  sim::Task on_task() override {
    for (int i = 0; i < rounds_; ++i) {
      Bytes in;
      Completion c = co_await b_exchange(ServerSignature{0, kEcho}, i + 1,
                                         to_bytes("ping"), &in, 32);
      if (c.ok() && c.arg == (i + 1) * 3 && to_string(in) == "over-udp") {
        ++good;
      }
    }
    done = true;
    co_await park_forever();
  }
  int rounds_;
  int good = 0;
  bool done = false;
};

TEST(Udp, ExchangeOverRealSockets) {
  std::unique_ptr<UdpNetwork> net;
  try {
    net = std::make_unique<UdpNetwork>(1, /*speedup=*/200.0);
    net->spawn<Echo>(NodeConfig{});
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "UDP sockets unavailable";
  }
  auto& caller = net->spawn<Caller>(NodeConfig{}, 5);
  const bool finished = net->run_until([&] { return caller.done; },
                                       std::chrono::milliseconds(10000));
  net->check_clients();
  ASSERT_TRUE(finished) << "UDP exchange stream did not finish in time";
  EXPECT_EQ(caller.good, 5);
  EXPECT_GT(net->bus().datagrams_out(), 0u);
  EXPECT_GT(net->bus().datagrams_in(), 0u);
  EXPECT_EQ(net->bus().decode_failures(), 0u);
}

TEST(Udp, DiscoverOverRealSockets) {
  std::unique_ptr<UdpNetwork> net;
  try {
    net = std::make_unique<UdpNetwork>(2, /*speedup=*/200.0);
    net->spawn<Echo>(NodeConfig{});
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "UDP sockets unavailable";
  }
  class Finder : public SodalClient {
   public:
    sim::Task on_task() override {
      found = co_await discover(kEcho);
      done = true;
      co_await park_forever();
    }
    ServerSignature found{kBroadcastMid, 0};
    bool done = false;
  };
  auto& f = net->spawn<Finder>(NodeConfig{});
  const bool finished = net->run_until([&] { return f.done; },
                                       std::chrono::milliseconds(10000));
  ASSERT_TRUE(finished);
  EXPECT_EQ(f.found.mid, 0);
}

TEST(Udp, CrashDetectionOverRealSockets) {
  std::unique_ptr<UdpNetwork> net;
  try {
    net = std::make_unique<UdpNetwork>(3, /*speedup=*/200.0);
    net->spawn<Echo>(NodeConfig{});
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "UDP sockets unavailable";
  }
  class Watch : public SodalClient {
   public:
    sim::Task on_completion(HandlerArgs a) override {
      status = a.status;
      got = true;
      co_return;
    }
    sim::Task on_task() override {
      signal(ServerSignature{0, kEcho + 1}, 0);  // unadvertised pattern
      co_await park_forever();
    }
    CompletionStatus status = CompletionStatus::kCompleted;
    bool got = false;
  };
  auto& w = net->spawn<Watch>(NodeConfig{});
  const bool finished = net->run_until([&] { return w.got; },
                                       std::chrono::milliseconds(10000));
  ASSERT_TRUE(finished);
  EXPECT_EQ(w.status, CompletionStatus::kUnadvertised);
}

TEST(Udp, SurvivesInjectedDatagramLoss) {
  std::unique_ptr<UdpNetwork> net;
  try {
    net = std::make_unique<UdpNetwork>(4, /*speedup=*/500.0);
    net->spawn<Echo>(NodeConfig{});
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "UDP sockets unavailable";
  }
  // The real medium drops through net::Bus's one loss decision, so each
  // drop is traced and counted exactly as a simulated drop is.
  net->bus().set_loss_probability(0.2);
  net->sim().trace().disable_all();
  net->sim().trace().enable(sim::TraceCategory::kPacketDropped);
  auto& caller = net->spawn<Caller>(NodeConfig{}, 5);
  const bool finished = net->run_until([&] { return caller.done; },
                                       std::chrono::milliseconds(20000));
  net->check_clients();
  ASSERT_TRUE(finished) << "lossy UDP stream did not finish";
  EXPECT_EQ(caller.good, 5);  // alternating-bit recovered everything
  EXPECT_GT(net->bus().frames_lost(), 0u);
  std::size_t lost_events = 0;
  for (const auto& e : net->sim().trace().events()) {
    if (e.category == sim::TraceCategory::kPacketDropped &&
        e.status == sim::TraceStatus::kLost) {
      ++lost_events;
    }
  }
  EXPECT_EQ(lost_events, net->bus().frames_lost());
  EXPECT_EQ(net->sim().metrics().total(stats::Counter::kFramesDropped),
            net->bus().frames_lost());
}

// The chaos workload on five stations sharing one in-process UdpBus, with
// 5% of datagrams dropped on top of loopback, the invariant checkers riding
// the trace. Speedup 10 keeps a 20 ms scheduler stall (a busy host running
// tests in parallel) at 200 ms simulated, inside the ~237 ms Delta-t record
// lifetime, so a stall alone cannot expire a record and let a retransmitted
// request be delivered twice.
TEST(Udp, ChaosWorkloadKeepsInvariants) {
  constexpr double kSpeedup = 10.0;
  constexpr sim::Duration kBudget = 10 * sim::kSecond;  // 1 s of wall time
  chaos::Scenario s;
  s.nodes = 5;
  s.servers = 1;
  s.duration = kBudget * 6 / 10;  // load
  s.drain = kBudget * 4 / 10;     // in-flight requests resolve
  s.request_interval = 60 * sim::kMillisecond;
  s.payload = 64;
  s.accept_delay = 2 * sim::kMillisecond;

  std::unique_ptr<UdpNetwork> net;
  chaos::RunObserver observer;
  try {
    net = std::make_unique<UdpNetwork>(6, kSpeedup);
    net->sim().trace().enable_all();
    net->sim().trace().set_store(false);
    observer.observe(net->sim().trace());
    net->bus().set_loss_probability(0.05);
    net->spawn<chaos::EchoServer>(NodeConfig{}, s);
    for (int mid = 1; mid < s.nodes; ++mid) {
      net->spawn<chaos::LoadClient>(NodeConfig{}, s);
    }
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "UDP sockets unavailable";
  }
  const sim::Time end = s.end_time();
  const bool finished =
      net->run_until([&] { return net->sim().now() >= end; },
                     std::chrono::milliseconds(10000));
  net->check_clients();
  observer.finish(net->sim().now());
  ASSERT_TRUE(finished) << "real-time run did not reach its end";
  for (const auto& v : observer.violations()) {
    ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
  }
  EXPECT_GT(observer.stats().ok_completions, 0u);
  EXPECT_GT(net->bus().frames_lost(), 0u);
}

// Raw malformed datagrams aimed straight at a station's socket: the wire
// decoder (length-framed sections + Fletcher-16) must reject every image
// without crashing, count it in decode_failures(), and leave the node
// fully operational. Exercises the hardened pump() syscall path.
TEST(Udp, RejectsMalformedDatagramsWithoutCrashing) {
  std::unique_ptr<UdpNetwork> net;
  try {
    net = std::make_unique<UdpNetwork>(5, /*speedup=*/200.0);
    net->spawn<Echo>(NodeConfig{});
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "UDP sockets unavailable";
  }
  const std::uint16_t victim = net->bus().port_of(0);
  ASSERT_NE(victim, 0);
  const int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  to.sin_port = htons(victim);
  auto blast = [&](const void* data, std::size_t size) {
    (void)::sendto(raw, data, size, 0, reinterpret_cast<sockaddr*>(&to),
                   sizeof(to));
  };

  // A well-formed frame to mutilate.
  net::Frame f;
  f.src = 9;
  f.dst = 0;
  f.seq = 1;
  net::RequestSection req;
  req.tid = 7;
  req.pattern = kEcho;
  req.arg = 1;
  f.request = req;
  const auto wire = net::encode_frame(f);
  ASSERT_GT(wire.size(), 8u);

  // (1) Truncated: every prefix shorter than the full image.
  blast(wire.data(), wire.size() / 2);
  blast(wire.data(), 3);
  // (2) Oversized garbage: a datagram far larger than any legal frame.
  std::vector<std::uint8_t> junk(8192, 0xA5);
  blast(junk.data(), junk.size());
  // (3) Bit-flipped: valid image with one damaged bit — the Fletcher-16
  // checksum catches every single-bit error (§5.2.2).
  auto flipped = wire;
  flipped[flipped.size() / 2] ^= 0x10;
  blast(flipped.data(), flipped.size());
  // (4) Empty datagram.
  blast(wire.data(), 0);

  const bool counted = net->run_until(
      [&] { return net->bus().decode_failures() >= 4; },
      std::chrono::milliseconds(5000));
  ::close(raw);
  EXPECT_TRUE(counted) << "decoder rejected only "
                       << net->bus().decode_failures() << " of 4 images";

  // The station shrugged it all off: a real exchange still works.
  auto& caller = net->spawn<Caller>(NodeConfig{}, 3);
  const bool finished = net->run_until([&] { return caller.done; },
                                       std::chrono::milliseconds(10000));
  net->check_clients();
  ASSERT_TRUE(finished) << "node wedged after malformed datagrams";
  EXPECT_EQ(caller.good, 3);
}

}  // namespace
}  // namespace soda::posix
