// The scaling harness as a correctness gate: N-node workloads complete
// exactly once within bounded simulated time under loss; runs are
// bit-deterministic; batched timers and the NIC pattern filter, each
// flipped alone, measurably reduce event-queue churn; and the bus-level
// corrupt/interest filters behave per-(frame, receiver) deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chaos/observer.h"
#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "chaos/topology.h"
#include "chaos/workload.h"
#include "net/bus.h"
#include "scale/harness.h"
#include "sim/simulator.h"
#include "sodal/sodal.h"

namespace soda {
namespace {

using scale::HarnessOptions;
using scale::HarnessResult;
using scale::Workload;

HarnessOptions base_options(Workload w, int nodes, double loss) {
  HarnessOptions o;
  o.workload = w;
  o.nodes = nodes;
  o.servers = w == Workload::kReplicatedStore ? 3 : (nodes >= 16 ? 2 : 1);
  o.ops_per_client = 8;
  o.loss = loss;
  o.seed = 11;
  return o;
}

// --- N-node invariant + bounded-completion tier ---

TEST(ScaleHarness, SixteenNodesUnderLossComplete) {
  auto o = base_options(Workload::kStarRpc, 16, 0.05);
  const HarnessResult r = run_harness(o);
  EXPECT_EQ(r.ops_done, r.ops_expected);
  EXPECT_EQ(r.violations, 0u) << r.first_violation;
  // Bounded completion: well under the 120 s hard stop (fast preset runs
  // the whole workload in tens of simulated milliseconds).
  EXPECT_LT(r.sim_elapsed, 5 * sim::kSecond);
}

TEST(ScaleHarness, ThirtyTwoNodesUnderLossComplete) {
  const HarnessResult r =
      run_harness(base_options(Workload::kStarRpc, 32, 0.05));
  EXPECT_EQ(r.ops_done, r.ops_expected);
  EXPECT_EQ(r.violations, 0u) << r.first_violation;
  EXPECT_LT(r.sim_elapsed, 10 * sim::kSecond);
}

TEST(ScaleHarness, ContentionDegradesGracefullyAndAdaptiveBackoffWins) {
  // 24 clients hammer one slow server back-to-back. Under adaptive BUSY
  // backoff and admission control the run must stay invariant-clean and
  // make progress.
  auto o = base_options(Workload::kContention, 25, 0.0);
  o.ops_per_client = 6;
  const HarnessResult r = run_harness(o);
  EXPECT_EQ(r.violations, 0u) << r.first_violation;
  EXPECT_GT(r.ops_done, 0u);
  EXPECT_LE(r.ops_done, r.ops_expected);
}

// --- anycast pool tier (doc/OVERLOAD.md §4) ---

HarnessOptions pool_options(int pool_size) {
  HarnessOptions o;
  o.workload = Workload::kContention;
  o.nodes = 48;
  o.pool_size = pool_size;
  o.ops_per_client = 6;
  o.seed = 11;
  o.retransmit_backoff = true;
  return o;
}

TEST(ScaleHarness, PoolGoodputScalesWithPoolSize) {
  // 48-node contention storm addressing the pool instead of one machine:
  // quadrupling the pool must lift goodput. (The 128-node ≥4x headline is
  // bench_scale's; this is the fast tier-1 proxy for the same mechanism.)
  const HarnessResult p1 = run_harness(pool_options(1));
  const HarnessResult p4 = run_harness(pool_options(4));
  for (const HarnessResult* r : {&p1, &p4}) {
    EXPECT_EQ(r->violations, 0u) << r->first_violation;
    EXPECT_GT(r->ops_done, 0u);
  }
  EXPECT_GT(p4.goodput_ops_per_s, p1.goodput_ops_per_s);
}

TEST(ScaleHarness, PoolRunsAreBitDeterministic) {
  // Pool member selection draws no RNG — least-shed scan with a rotating
  // cursor — so an identical (options, seed) pair replays bit-identically,
  // and a different seed still explores a different schedule.
  const HarnessOptions o = pool_options(4);
  const HarnessResult a = run_harness(o);
  const HarnessResult b = run_harness(o);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.ops_done, b.ops_done);

  auto o2 = o;
  o2.seed = 12;
  const HarnessResult c = run_harness(o2);
  EXPECT_NE(a.trace_hash, c.trace_hash);
}

TEST(ScaleHarness, RunsAreBitDeterministic) {
  const auto o = base_options(Workload::kReplicatedStore, 16, 0.03);
  const HarnessResult a = run_harness(o);
  const HarnessResult b = run_harness(o);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.events_scheduled, b.events_scheduled);
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_EQ(a.ops_done, b.ops_done);

  auto o2 = o;
  o2.seed = 12;
  const HarnessResult c = run_harness(o2);
  EXPECT_NE(a.trace_hash, c.trace_hash);  // seeds explore schedules
}

// --- the O(N) fixes must actually win, not just not break things ---
//
// run_harness runs one configuration, so these tests stand up the star-RPC
// and DISCOVER-storm loads on a chaos::Topology of their own and flip one
// NodeConfig / TimingModel field while every other field stays at the
// harness's setting.

constexpr int kKnobOps = 8;

struct KnobTally {
  std::uint64_t ops = 0;
  int finished = 0;
};

// Blocking exchanges round-robined over the servers (kStarRpc's client).
class KnobStarClient final : public sodal::SodalClient {
 public:
  KnobStarClient(int servers, KnobTally* tally)
      : servers_(servers), tally_(tally) {}
  sim::Task on_task() override {
    for (int i = 0; i < kKnobOps; ++i) {
      const auto server = static_cast<Mid>((my_mid() + i) % servers_);
      Bytes in;
      auto c = co_await b_exchange(
          ServerSignature{server, chaos::kEchoPattern}, i, Bytes(64), &in, 64);
      if (c.ok()) ++tally_->ops;
    }
    ++tally_->finished;
    co_await park_forever();
  }

 private:
  int servers_;
  KnobTally* tally_;
};

// Repeated broadcast DISCOVERs for the server pattern (kDiscoverStorm's
// client).
class KnobDiscoverClient final : public sodal::SodalClient {
 public:
  explicit KnobDiscoverClient(KnobTally* tally) : tally_(tally) {}
  sim::Task on_task() override {
    co_await delay(static_cast<sim::Duration>(my_mid()) * 20);
    for (int i = 0; i < kKnobOps; ++i) {
      auto s = co_await discover(chaos::kEchoPattern);
      if (s.pattern == chaos::kEchoPattern) ++tally_->ops;
    }
    ++tally_->finished;
    co_await park_forever();
  }

 private:
  KnobTally* tally_;
};

struct KnobRun {
  std::uint64_t ops = 0;
  std::uint64_t ops_expected = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t frames_filtered = 0;
  std::size_t violations = 0;
  std::vector<std::string> events;  // every trace event as JSON, sorted
};

// `nodes` stations on one fast bus: MIDs below `servers` run the chaos
// workload's echo server, the rest KnobDiscoverClient (`discover_storm`)
// or KnobStarClient. Every node gets the harness's configuration, then
// `knob` edits it.
KnobRun run_knob(bool discover_storm, int nodes, int servers,
                 const std::function<void(NodeConfig&)>& knob) {
  KnobRun r;
  chaos::RunObserver observer;
  chaos::Topology net(/*seed=*/11, /*segments=*/1, /*fast=*/true, nodes,
                      std::nullopt);
  auto& sim = net.sim();
  sim.trace().enable_all();
  sim.trace().set_store(false);
  sim.trace().set_observer([&](const sim::TraceEvent& e) {
    observer.on_event(e);
    r.events.push_back(sim::to_json(e));
  });

  KnobTally tally;
  net.populate(
      [&](Mid) {
        NodeConfig cfg;
        cfg.timing = TimingModel::fast();
        cfg.nic_pattern_filter = true;
        knob(cfg);
        return cfg;
      },
      [&](Mid mid) -> std::unique_ptr<Client> {
        if (mid < servers) {
          return std::make_unique<chaos::EchoServer>(chaos::Scenario{});
        }
        if (discover_storm) {
          return std::make_unique<KnobDiscoverClient>(&tally);
        }
        return std::make_unique<KnobStarClient>(servers, &tally);
      });

  const int clients = nodes - servers;
  while (tally.finished < clients && sim.now() < 10 * sim::kSecond) {
    r.events_executed += sim.run_until(sim.now() + 2 * sim::kMillisecond);
  }
  net.check_clients();
  sim.trace().set_observer(nullptr);
  observer.finish(sim.now());
  r.ops = tally.ops;
  r.ops_expected = static_cast<std::uint64_t>(clients) * kKnobOps;
  r.events_scheduled = sim.events_scheduled();
  r.events_cancelled = sim.events_cancelled();
  r.frames_filtered = net.totals().frames_filtered;
  r.violations = observer.violations().size();
  std::sort(r.events.begin(), r.events.end());
  return r;
}

TEST(ScaleHarness, BatchedTimersReduceEventChurn) {
  const auto batched = [](bool on) {
    return [on](NodeConfig& cfg) {
      cfg.timing.batched_timer_bookkeeping = on;
    };
  };
  const KnobRun off = run_knob(false, 32, 2, batched(false));
  const KnobRun on = run_knob(false, 32, 2, batched(true));
  // Same workload outcome...
  EXPECT_EQ(off.ops, off.ops_expected);
  EXPECT_EQ(on.ops, on.ops_expected);
  EXPECT_EQ(off.violations, 0u);
  EXPECT_EQ(on.violations, 0u);
  // ...with measurably less timer bookkeeping in the event queue.
  EXPECT_LT(on.events_scheduled, off.events_scheduled);
  EXPECT_LT(on.events_cancelled, off.events_cancelled);
  // The same trace events at the same simulated instants; only the order
  // of events sharing an instant may differ (TimingModel comment).
  EXPECT_TRUE(on.events == off.events)
      << on.events.size() << " vs " << off.events.size() << " events";
}

TEST(ScaleHarness, NicPatternFilterShieldsDiscoverStorm) {
  const auto filter = [](bool on) {
    return [on](NodeConfig& cfg) { cfg.nic_pattern_filter = on; };
  };
  const KnobRun off = run_knob(true, 16, 2, filter(false));
  const KnobRun on = run_knob(true, 16, 2, filter(true));
  EXPECT_EQ(off.ops, off.ops_expected);
  EXPECT_EQ(on.ops, on.ops_expected);
  EXPECT_EQ(off.violations, 0u);
  EXPECT_EQ(on.violations, 0u);
  // The filter suppresses non-matching broadcast deliveries wholesale.
  EXPECT_GT(on.frames_filtered, 0u);
  EXPECT_EQ(off.frames_filtered, 0u);
  EXPECT_LT(on.events_executed, off.events_executed);
}

// --- the 32-node chaos regression gate ---

TEST(ScaleSweep, Scale32HoldsInvariantsAcross200Seeds) {
  auto s = chaos::builtin_scenario("scale_32");
  ASSERT_TRUE(s.has_value());
  chaos::SweepOptions opts;
  opts.first_seed = 1;
  opts.seeds = 200;
  auto sweep = chaos::sweep_scenario(*s, opts);
  EXPECT_EQ(sweep.ran, 200);
  ASSERT_TRUE(sweep.ok())
      << "seed " << sweep.failures.front().seed << " violated "
      << (sweep.failures.front().violations.empty()
              ? "(exception)"
              : sweep.failures.front().violations.front().invariant);
}

// --- bus filter semantics the chaos engine relies on ---

TEST(BusCorruptFilter, IsPerFrameReceiverDeterministic) {
  sim::Simulator sim(5);
  net::Bus bus(sim, net::BusConfig{});

  std::vector<net::Mid> delivered;
  for (net::Mid mid : {1, 2, 3}) {
    bus.attach(mid, [&delivered, mid](const net::FrameRef&) {
      delivered.push_back(mid);
    });
  }

  std::vector<net::Mid> asked;  // every (frame, receiver) corruption decision
  bus.set_corrupt_filter([&asked](const net::Frame&, net::Mid dst) {
    asked.push_back(dst);
    return dst == 2;  // only station 2's copy is CRC-damaged
  });

  net::Frame f;
  f.src = 1;
  f.dst = net::kBroadcastMid;
  bus.send(f);
  sim.run();

  // The filter was consulted exactly once per receiver (sender excluded),
  // and exactly the receiver it singled out lost its copy.
  std::sort(asked.begin(), asked.end());
  EXPECT_EQ(asked, (std::vector<net::Mid>{2, 3}));
  std::sort(delivered.begin(), delivered.end());
  EXPECT_EQ(delivered, (std::vector<net::Mid>{3}));
  EXPECT_EQ(bus.frames_corrupted(), 1u);

  // Re-running the identical send yields the identical decision pattern:
  // nothing about the filter path consumes bus RNG state.
  asked.clear();
  delivered.clear();
  bus.send(f);
  sim.run();
  std::sort(asked.begin(), asked.end());
  std::sort(delivered.begin(), delivered.end());
  EXPECT_EQ(asked, (std::vector<net::Mid>{2, 3}));
  EXPECT_EQ(delivered, (std::vector<net::Mid>{3}));
  EXPECT_EQ(bus.frames_corrupted(), 2u);
}

TEST(BusInterestFilter, SuppressesBroadcastsButNeverUnicast) {
  sim::Simulator sim(5);
  net::Bus bus(sim, net::BusConfig{});

  int station1 = 0, station2 = 0;
  bus.attach(1, [&station1](const net::FrameRef&) { ++station1; });
  bus.attach(2, [&station2](const net::FrameRef&) { ++station2; });
  bus.set_interest_filter(2, [](const net::Frame&) { return false; });

  net::Frame broadcast;
  broadcast.src = 0;
  broadcast.dst = net::kBroadcastMid;
  bus.send(broadcast);

  net::Frame unicast;
  unicast.src = 0;
  unicast.dst = 2;
  bus.send(unicast);
  sim.run();

  EXPECT_EQ(station1, 1);  // promiscuous station hears the broadcast
  EXPECT_EQ(station2, 1);  // filtered station: unicast only
  EXPECT_EQ(bus.frames_filtered(), 1u);
}

}  // namespace
}  // namespace soda
