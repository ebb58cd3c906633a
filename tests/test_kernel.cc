// Kernel primitive semantics (chapter 3): naming, MAXREQUESTS, handler
// state machine, reserved-pattern protection, unique ids.
#include <gtest/gtest.h>

#include "core/network.h"
#include "sodal/sodal.h"

namespace soda {
namespace {

using sodal::SodalClient;

constexpr Pattern kP = kWellKnownBit | 0x200;

class Idle : public SodalClient {};

class Harness {
 public:
  Harness() {
    server_ = &net_.spawn<Idle>(NodeConfig{});
    client_ = &net_.spawn<Idle>(NodeConfig{});
    net_.run_for(10 * sim::kMillisecond);
  }
  Network& net() { return net_; }
  Kernel& server_kernel() { return net_.node(0).kernel(); }
  Kernel& client_kernel() { return net_.node(1).kernel(); }
  Idle& server_client() { return *server_; }

 private:
  Network net_;
  Idle* server_ = nullptr;
  Idle* client_ = nullptr;
};

TEST(Naming, AdvertiseAndCheck) {
  Harness h;
  auto& k = h.server_kernel();
  EXPECT_FALSE(k.advertised(kP));
  EXPECT_TRUE(k.advertise(kP));
  EXPECT_TRUE(k.advertised(kP));
  EXPECT_TRUE(k.unadvertise(kP));
  EXPECT_FALSE(k.advertised(kP));
}

TEST(Naming, UnadvertiseUnknownFails) {
  Harness h;
  EXPECT_FALSE(h.server_kernel().unadvertise(kP));
}

TEST(Naming, ReservedPatternsRejected) {
  Harness h;
  auto& k = h.server_kernel();
  EXPECT_FALSE(k.advertise(kReservedBit | 7));
  EXPECT_FALSE(k.unadvertise(Kernel::kKillPattern));
  EXPECT_FALSE(k.advertise(Kernel::kDefaultBootPattern));
}

TEST(Naming, DuplicateAdvertiseIsIdempotent) {
  Harness h;
  auto& k = h.server_kernel();
  EXPECT_TRUE(k.advertise(kP));
  EXPECT_TRUE(k.advertise(kP));
  EXPECT_TRUE(k.unadvertise(kP));
  EXPECT_FALSE(k.advertised(kP));
}

TEST(Naming, UniqueIdsNeverRepeatAcrossNodes) {
  Harness h;
  std::set<Pattern> seen;
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(seen.insert(h.server_kernel().get_unique_id()).second);
    EXPECT_TRUE(seen.insert(h.client_kernel().get_unique_id()).second);
  }
}

TEST(Naming, UniqueIdsHaveNeitherMarkerBit) {
  Harness h;
  for (int i = 0; i < 50; ++i) {
    Pattern p = h.client_kernel().get_unique_id();
    EXPECT_EQ(p & kReservedBit, 0u);
    EXPECT_EQ(p & kWellKnownBit, 0u);
    EXPECT_EQ(p & ~kPatternMask, 0u);  // fits PATTERNSIZE
  }
}

TEST(Request, MaxRequestsEnforced) {
  Harness h;
  h.server_kernel().advertise(kP);
  auto& k = h.client_kernel();
  std::vector<Tid> got;
  for (int i = 0; i < 5; ++i) {
    auto t = k.request(Kernel::RequestParams::signal(ServerSignature{0, kP}));
    if (t) got.push_back(*t);
  }
  EXPECT_EQ(got.size(), 3u);  // default MAXREQUESTS = 3
  EXPECT_EQ(k.live_requests(), 3);
}

TEST(Request, OversizeIgnored) {
  Harness h;
  auto& k = h.client_kernel();
  auto t = k.request(Kernel::RequestParams::put(ServerSignature{0, kP},
                                                Bytes(5000, std::byte{0})));
  EXPECT_FALSE(t.has_value());
  t = k.request(
      Kernel::RequestParams::get(ServerSignature{0, kP}, 5000, nullptr));
  EXPECT_FALSE(t.has_value());
}

TEST(Request, TidsAreMonotone) {
  Harness h;
  h.server_kernel().advertise(kP);
  auto& k = h.client_kernel();
  auto t1 = k.request(Kernel::RequestParams::signal(ServerSignature{0, kP}));
  auto t2 = k.request(Kernel::RequestParams::signal(ServerSignature{0, kP}));
  ASSERT_TRUE(t1 && t2);
  EXPECT_LT(*t1, *t2);
}

// A client that records its handler invocations.
class Recorder : public SodalClient {
 public:
  sim::Task on_entry(HandlerArgs a) override {
    entries.push_back(a);
    if (auto_accept) co_await accept_current_signal(7);
    co_return;
  }
  sim::Task on_completion(HandlerArgs a) override {
    completions.push_back(a);
    co_return;
  }
  std::vector<HandlerArgs> entries;
  std::vector<HandlerArgs> completions;
  bool auto_accept = true;
};

TEST(Handler, SelfRequestFailsUnadvertised) {
  Network net;
  net.add_node();
  auto& r = net.spawn<Recorder>(NodeConfig{});
  net.run_for(5 * sim::kMillisecond);
  net.node(1).kernel().advertise(kP);
  auto tid =
      net.node(1).kernel().request(Kernel::RequestParams::signal(ServerSignature{1, kP}));
  ASSERT_TRUE(tid.has_value());
  net.run_for(100 * sim::kMillisecond);
  net.check_clients();
  ASSERT_EQ(r.completions.size(), 1u);
  EXPECT_EQ(r.completions[0].status, CompletionStatus::kUnadvertised);
  EXPECT_EQ(net.node(1).kernel().live_requests(), 0);
}

// --- anycast pools (doc/OVERLOAD.md §4) ---

TEST(Anycast, EmptyPoolFailsUnadvertised) {
  Network net;
  auto& r = net.spawn<Recorder>(NodeConfig{});
  net.run_for(5 * sim::kMillisecond);
  // No DISCOVER has seeded any pool, so the anycast address resolves to
  // nobody and the request fails exactly like an unknown pattern would.
  auto tid = net.node(0).kernel().request(
      Kernel::RequestParams::signal(ServerSignature{kAnycastMid, kP}));
  ASSERT_TRUE(tid.has_value());
  net.run_for(100 * sim::kMillisecond);
  net.check_clients();
  ASSERT_EQ(r.completions.size(), 1u);
  EXPECT_EQ(r.completions[0].status, CompletionStatus::kUnadvertised);
  EXPECT_EQ(net.node(0).kernel().live_requests(), 0);
}

TEST(Anycast, DiscoverSeedsPoolAndTiesRoundRobin) {
  Network net;
  auto& s0 = net.spawn<Recorder>(NodeConfig{});
  auto& s1 = net.spawn<Recorder>(NodeConfig{});
  auto& c = net.spawn<Recorder>(NodeConfig{});
  net.run_for(5 * sim::kMillisecond);
  net.node(0).kernel().advertise(kP);
  net.node(1).kernel().advertise(kP);

  // One DISCOVER round: every reply seeds the requester's member set.
  Bytes mids;
  net.node(2).kernel().request(
      Kernel::RequestParams::discover(kP, 8, &mids));
  net.run_for(200 * sim::kMillisecond);
  EXPECT_EQ(net.node(2).kernel().anycast_members(kP),
            (std::vector<Mid>{0, 1}));

  // With all shed scores equal the pick rotates deterministically: two
  // back-to-back requests land on the two distinct members.
  for (int i = 0; i < 2; ++i) {
    net.node(2).kernel().request(
        Kernel::RequestParams::signal(ServerSignature{kAnycastMid, kP}));
    net.run_for(100 * sim::kMillisecond);
  }
  net.check_clients();
  EXPECT_EQ(s0.entries.size(), 1u);
  EXPECT_EQ(s1.entries.size(), 1u);
  // Three completions: the DISCOVER itself plus the two anycast signals.
  ASSERT_EQ(c.completions.size(), 3u);
  EXPECT_EQ(c.completions[1].status, CompletionStatus::kCompleted);
  EXPECT_EQ(c.completions[2].status, CompletionStatus::kCompleted);
}

TEST(Handler, ClosedHandlerDelaysArrivalNotCompletion) {
  Network net;
  auto& srv = net.spawn<Recorder>(NodeConfig{});
  auto& cli = net.spawn<Recorder>(NodeConfig{});
  (void)cli;
  net.run_for(5 * sim::kMillisecond);
  net.node(0).kernel().advertise(kP);
  net.node(0).kernel().close();

  net.node(1).kernel().request(Kernel::RequestParams::signal(ServerSignature{0, kP}));
  net.run_for(100 * sim::kMillisecond);
  EXPECT_EQ(srv.entries.size(), 0u);  // kept away by CLOSE (busy NACKs)

  net.node(0).kernel().open();
  net.run_for(100 * sim::kMillisecond);
  net.check_clients();
  ASSERT_EQ(srv.entries.size(), 1u);  // retries landed after OPEN
  EXPECT_EQ(srv.entries[0].invoked_pattern, kP);
}

TEST(Handler, ArrivalArgsCarryTag) {
  Network net;
  auto& srv = net.spawn<Recorder>(NodeConfig{});
  net.spawn<Recorder>(NodeConfig{});
  net.run_for(5 * sim::kMillisecond);
  net.node(0).kernel().advertise(kP);
  Bytes into;
  net.node(1).kernel().request(
      {ServerSignature{0, kP}, 99, Bytes(10, std::byte{1}), 20, &into});
  net.run_for(100 * sim::kMillisecond);
  net.check_clients();
  ASSERT_EQ(srv.entries.size(), 1u);
  const auto& e = srv.entries[0];
  EXPECT_EQ(e.arg, 99);
  EXPECT_EQ(e.invoked_pattern, kP);
  EXPECT_EQ(e.put_size, 10u);
  EXPECT_EQ(e.get_size, 20u);
  EXPECT_EQ(e.asker.mid, 1);
}

TEST(Handler, CompletionCarriesAcceptArgAndSizes) {
  Network net;
  auto& srv = net.spawn<Recorder>(NodeConfig{});
  auto& cli = net.spawn<Recorder>(NodeConfig{});
  (void)srv;
  net.run_for(5 * sim::kMillisecond);
  net.node(0).kernel().advertise(kP);
  net.node(1).kernel().request(
      {ServerSignature{0, kP}, 0, Bytes(8, std::byte{2}), 0, nullptr});
  net.run_for(100 * sim::kMillisecond);
  net.check_clients();
  ASSERT_EQ(cli.completions.size(), 1u);
  EXPECT_EQ(cli.completions[0].arg, 7);  // the Recorder accepts with arg 7
  EXPECT_EQ(cli.completions[0].status, CompletionStatus::kCompleted);
}

TEST(Handler, AcceptBeforeRequestOrdering) {
  // §3.7.5: if C1 issues an ACCEPT followed by a REQUEST to C2, the
  // ACCEPT invokes C2's handler before the REQUEST does.
  class C1 : public SodalClient {
   public:
    sim::Task on_boot(Mid) override {
      advertise(kP);
      co_return;
    }
    sim::Task on_entry(HandlerArgs a) override {
      asker = a.asker;
      have = true;
      co_return;  // deliberately delay the ACCEPT to the task
    }
    sim::Task on_task() override {
      while (!have) co_await delay(5 * sim::kMillisecond);
      // Let the delayed-ACK window close so the ACCEPT goes out as its
      // own sequenced frame, followed by our REQUEST on the same channel.
      co_await delay(20 * sim::kMillisecond);
      auto acc = accept_signal(asker, 0);
      signal(ServerSignature{1, kP}, 2);
      co_await acc;
      co_await park_forever();
    }
    RequesterSignature asker;
    bool have = false;
  };
  class C2 : public SodalClient {
   public:
    sim::Task on_boot(Mid) override {
      advertise(kP);
      co_return;
    }
    sim::Task on_task() override {
      co_await delay(5 * sim::kMillisecond);
      signal(ServerSignature{0, kP}, 1);
      co_await park_forever();
    }
    sim::Task on_entry(HandlerArgs) override {
      order.push_back('E');
      co_await accept_current_signal(0);
    }
    sim::Task on_completion(HandlerArgs) override {
      order.push_back('C');
      co_return;
    }
    std::vector<char> order;
  };
  Network net;
  net.spawn<C1>(NodeConfig{});
  auto& peer = net.spawn<C2>(NodeConfig{});
  net.run_for(500 * sim::kMillisecond);
  net.check_clients();
  ASSERT_EQ(peer.order.size(), 2u);
  EXPECT_EQ(peer.order[0], 'C');  // completion of C2's own signal first
  EXPECT_EQ(peer.order[1], 'E');  // then C1's request arrival
}

TEST(Handler, SecondAcceptOfUnreceivedRequestResolves) {
  // Two ACCEPTs of a guessed signature this node never received, both
  // issued before either is awaited: the first goes on the wire and the
  // requester's kernel refuses it; the second must not displace or lose
  // the first, and resolves CANCELLED at once (§3.3.2 item 6).
  class Guesser : public SodalClient {
   public:
    sim::Task on_task() override {
      const RequesterSignature guess{1, 5};
      auto a = accept_signal(guess, 0);
      auto b = accept_signal(guess, 0);
      second = (co_await b).status;
      first = (co_await a).status;
      co_await park_forever();
    }
    std::optional<AcceptStatus> first;
    std::optional<AcceptStatus> second;
  };
  Network net;
  auto& g = net.spawn<Guesser>(NodeConfig{});
  net.spawn<Idle>(NodeConfig{});
  net.run_for(5 * sim::kSecond);
  net.check_clients();
  ASSERT_TRUE(g.second.has_value());
  EXPECT_EQ(*g.second, AcceptStatus::kCancelled);
  ASSERT_TRUE(g.first.has_value());
  EXPECT_EQ(*g.first, AcceptStatus::kCancelled);
}

TEST(Handler, OpenCloseInsideHandlerDeferred) {
  class Closer : public SodalClient {
   public:
    sim::Task on_boot(Mid) override {
      advertise(kP);
      co_return;
    }
    sim::Task on_entry(HandlerArgs) override {
      close();  // takes effect only at ENDHANDLER (§3.3.4)
      was_open_inside = k().handler_open();
      co_await accept_current_signal(0);
      co_return;
    }
    bool was_open_inside = false;
  };
  Network net;
  auto& c = net.spawn<Closer>(NodeConfig{});
  net.spawn<Recorder>(NodeConfig{});
  net.run_for(5 * sim::kMillisecond);
  net.node(1).kernel().request(Kernel::RequestParams::signal(ServerSignature{0, kP}));
  net.run_for(100 * sim::kMillisecond);
  net.check_clients();
  EXPECT_TRUE(c.was_open_inside);              // no visible effect inside
  EXPECT_FALSE(net.node(0).kernel().handler_open());  // applied at end
}

TEST(Process, DieClearsAdvertisementsAndRequests) {
  Network net;
  auto& srv = net.spawn<Recorder>(NodeConfig{});
  (void)srv;
  net.run_for(5 * sim::kMillisecond);
  auto& k = net.node(0).kernel();
  k.advertise(kP);
  k.die();
  EXPECT_TRUE(k.client_dead());
  EXPECT_FALSE(k.advertised(kP));
  EXPECT_EQ(k.live_requests(), 0);
}

}  // namespace
}  // namespace soda
