#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <utility>

#include "chaos/invariants.h"
#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "core/network.h"
#include "inet/internet.h"
#include "scale/harness.h"
#include "sim/parallel.h"
#include "sodal/sodal.h"

namespace perfbench {

namespace {

using soda::Bytes;
using soda::CompletionStatus;
using soda::Kernel;
using soda::Mid;
using soda::Node;
using soda::NodeConfig;
using soda::ServerSignature;
using soda::Tid;
using soda::sodal::Completion;
using soda::sodal::SodalClient;

/// The pattern the scale harness's servers advertise. It must match
/// scale::run_harness for the cross-check to reproduce its trace hash.
constexpr soda::Pattern kScalePattern = soda::kWellKnownBit | 0x5CA1;

constexpr sim::Duration kSlice = 2 * sim::kMillisecond;  // fast timing
constexpr sim::Time kMaxSimTime = 120 * sim::kSecond;

enum class Kind : std::uint8_t { kStar, kName, kPool };
enum class Engine : std::uint8_t { kClassic, kConcurrent, kWindowed };

/// Topology and load of one simulator workload. The star and name shapes
/// are scale::run_harness's (bench_scale's rows); the pool shape is the
/// harness's 128-node contention pool with its closed-loop clients
/// replaced by open-loop Poisson generators.
struct Shape {
  Kind kind = Kind::kStar;
  int nodes = 0;
  int servers = 1;
  int segments = 1;
  int ops_per_client = 12;
  bool retransmit_backoff = false;
  Engine engine = Engine::kClassic;
  int workers = 0;
  std::uint32_t payload = 64;
  /// Pool only: offered load over all clients, ops per simulated second.
  /// About 90% of the pool's closed-loop goodput (52k ops/s).
  double offered_ops_per_s = 0;
};

Shape shape_of(WorkloadId w) {
  Shape s;
  switch (w) {
    case WorkloadId::kRpcInet1024:
      s = Shape{Kind::kStar, 1024, 128, 2, 12, true, Engine::kClassic, 0};
      break;
    case WorkloadId::kParInet1024x4:
      s = Shape{Kind::kStar, 1024, 128, 4, 12, true, Engine::kConcurrent, 2};
      break;
    case WorkloadId::kDirectory64:
      s = Shape{Kind::kName, 64, 1, 1, 12, false, Engine::kClassic, 0};
      break;
    case WorkloadId::kPoolOpen128:
      s = Shape{Kind::kPool, 128, 8, 1, 150, true, Engine::kClassic, 0};
      s.offered_ops_per_s = 47000;
      break;
    case WorkloadId::kChaosSweep:
      break;
  }
  return s;
}

/// SplitMix64: the open-loop generators' private arrival streams.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Outcome outcome_of(const Completion& c) {
  if (c.ok()) return Outcome::kOk;
  switch (c.status) {
    case CompletionStatus::kTimedOut: return Outcome::kTimedOut;
    case CompletionStatus::kCrashed: return Outcome::kCrashed;
    default: return Outcome::kOther;
  }
}

Outcome outcome_of(const soda::Status& s) {
  if (s.ok()) return Outcome::kOk;
  switch (s.code()) {
    case soda::StatusCode::kTimedOut: return Outcome::kTimedOut;
    case soda::StatusCode::kCrashed: return Outcome::kCrashed;
    default: return Outcome::kOther;
  }
}

/// Scoreboard shared by the clients. Under the concurrent engine clients
/// on different partitions update it from different worker threads.
struct Board {
  std::atomic<int> finished{0};
  std::atomic<std::uint64_t> parity_ops{0};
};

class EchoServer final : public SodalClient {
 public:
  explicit EchoServer(sim::Duration dawdle = 0) : dawdle_(dawdle) {}

  sim::Task on_boot(Mid) override {
    advertise(kScalePattern);
    co_return;
  }

  sim::Task on_entry(soda::HandlerArgs a) override {
    if (dawdle_ > 0) co_await delay(dawdle_);
    Bytes in;
    co_await accept_current_exchange(a.arg, &in, a.put_size,
                                     Bytes(a.get_size));
  }

 private:
  sim::Duration dawdle_;
};

/// A load client that keeps one OpRecord per operation. The records are
/// reserved up front, so references to them stay valid while ops run.
class OpClient : public SodalClient {
 public:
  OpClient(Board* board, std::size_t max_ops) : board_(board) {
    ops_.reserve(max_ops);
  }
  const std::vector<OpRecord>& ops() const { return ops_; }
  double gen_lag_us_max() const { return static_cast<double>(lag_max_); }

 protected:
  OpRecord& begin_op(sim::Time t0) {
    OpRecord op;
    op.node = my_mid();
    op.t0 = t0;
    ops_.push_back(op);
    return ops_.back();
  }
  void end_op(OpRecord& op, Outcome outcome, bool right) {
    op.t4 = sim().now();
    op.outcome = outcome;
    op.wrong = outcome == Outcome::kOk && !right;
  }

  Board* board_;
  std::vector<OpRecord> ops_;
  sim::Duration lag_max_ = 0;
};

/// Star RPC, as scale::run_harness's StarClient: blocking exchanges
/// round-robin over the servers. issue_blocking is what b_exchange calls;
/// using it directly hands the op its TID.
class StarClient final : public OpClient {
 public:
  StarClient(const Shape& s, Board* board)
      : OpClient(board, static_cast<std::size_t>(s.ops_per_client)), s_(s) {}

  sim::Task on_task() override {
    for (int i = 0; i < s_.ops_per_client; ++i) {
      const auto server = static_cast<Mid>((my_mid() + i) % s_.servers);
      OpRecord& op = begin_op(sim().now());
      Bytes in;
      Tid tid = soda::kNoTid;
      auto done = issue_blocking(
          Kernel::RequestParams::exchange(ServerSignature{server, kScalePattern},
                                          Bytes(s_.payload), s_.payload, &in,
                                          i),
          &tid);
      op.first_tid = op.last_tid = static_cast<std::int32_t>(tid);
      const Completion c = co_await done;
      end_op(op, outcome_of(c), in.size() == s_.payload);
      if (c.ok()) board_->parity_ops.fetch_add(1, std::memory_order_relaxed);
    }
    board_->finished.fetch_add(1, std::memory_order_relaxed);
    co_await park_forever();
  }

 private:
  Shape s_;
};

/// Name-service storm, as scale::run_harness's NameClient: bind one more
/// name, then LIST the directory. An op is one bind or one list; a list
/// is wrong if it shows fewer names than binds succeeded or more than
/// were tried.
class NameClient final : public OpClient {
 public:
  NameClient(const Shape& s, Board* board, TraceLedger* ledger)
      : OpClient(board, 2 * static_cast<std::size_t>(s.ops_per_client)),
        s_(s),
        ledger_(ledger) {}

  sim::Task on_task() override {
    const ServerSignature ns{0, soda::sodal::kNameServerPattern};
    const ServerSignature self{my_mid(), kScalePattern};
    const std::string dir = "n" + std::to_string(my_mid());
    std::size_t binds_ok = 0;
    for (int i = 0; i < s_.ops_per_client; ++i) {
      OpRecord& b = begin_op(sim().now());
      link(&b);
      auto st = co_await soda::sodal::ns_bind(
          *this, ns, dir + "/k" + std::to_string(i), self);
      link(nullptr);
      end_op(b, outcome_of(st), true);
      if (st.ok()) {
        ++binds_ok;
        board_->parity_ops.fetch_add(1, std::memory_order_relaxed);
      }
      OpRecord& l = begin_op(sim().now());
      link(&l);
      auto ls = co_await soda::sodal::ns_list(*this, ns, dir);
      link(nullptr);
      const std::size_t n = ls.ok() ? ls->size() : 0;
      end_op(l, outcome_of(ls.status()),
             n >= binds_ok && n <= static_cast<std::size_t>(i) + 1);
      if (ls.ok() && n == static_cast<std::size_t>(i) + 1) {
        board_->parity_ops.fetch_add(1, std::memory_order_relaxed);
      }
    }
    board_->finished.fetch_add(1, std::memory_order_relaxed);
    co_await park_forever();
  }

 private:
  void link(OpRecord* op) {
    if (ledger_ != nullptr) ledger_->link(my_mid(), op);
  }

  Shape s_;
  TraceLedger* ledger_;
};

/// Open-loop pool client. After one DISCOVER round (staggered as in the
/// harness's contention client) it draws Poisson arrivals from its own
/// stream. Each op is timed from its due time; ops wait in a client-side
/// backlog while all MAXREQUESTS kernel slots are busy, and that wait
/// shows in the op's issue part and in the generator lag.
class PoolClient final : public OpClient {
 public:
  PoolClient(const Shape& s, Board* board, std::size_t slot,
             std::uint64_t stream)
      : OpClient(board, static_cast<std::size_t>(s.ops_per_client)),
        s_(s),
        slot_(slot),
        stream_(stream) {}

  sim::Task on_task() override {
    co_await delay(static_cast<sim::Duration>(slot_) * 150);
    co_await discover(kScalePattern);
    target_ = soda::sodal::ServiceHandle::pool(kScalePattern).signature();
    const int clients = s_.nodes - s_.servers;
    const double mean_gap_us = 1e6 * clients / s_.offered_ops_per_s;
    sim::Time due = sim().now();
    for (int i = 0; i < s_.ops_per_client; ++i) {
      const double u =
          static_cast<double>(splitmix64(stream_) >> 11) * 0x1.0p-53;
      due += std::max<sim::Duration>(
          1, std::llround(-mean_gap_us * std::log1p(-u)));
      if (due > sim().now()) co_await delay(due - sim().now());
      begin_op(due);
      pump();
    }
    co_await park_forever();
  }

 private:
  void pump() {
    while (next_ < ops_.size() &&
           k().live_requests() < NodeConfig{}.max_requests) {
      one_op(next_++).detach();
    }
  }

  sim::Task one_op(std::size_t idx) {
    OpRecord& op = ops_[idx];
    lag_max_ = std::max(lag_max_, sim().now() - op.t0);
    Bytes in;
    Tid tid = soda::kNoTid;
    auto done = issue_blocking(
        Kernel::RequestParams::exchange(target_, Bytes(s_.payload), s_.payload,
                                        &in, static_cast<std::int32_t>(idx)),
        &tid);
    op.first_tid = op.last_tid = static_cast<std::int32_t>(tid);
    const Completion c = co_await done;
    end_op(op, outcome_of(c), in.size() == s_.payload);
    if (c.ok()) board_->parity_ops.fetch_add(1, std::memory_order_relaxed);
    if (++completed_ == static_cast<std::size_t>(s_.ops_per_client)) {
      board_->finished.fetch_add(1, std::memory_order_relaxed);
    }
    pump();
  }

  Shape s_;
  std::size_t slot_;
  std::uint64_t stream_;
  ServerSignature target_{};
  std::size_t next_ = 0;
  std::size_t completed_ = 0;
};

/// The trace observer every simulator rep installs: scale::run_harness's
/// FNV hash fold plus the standard invariant set. A traced rep also times
/// it and feeds the ledger (outside the timed part).
struct Observer {
  soda::chaos::InvariantSet invariants =
      soda::chaos::InvariantSet::standard();
  std::uint64_t hash = soda::chaos::kTraceHashSeed;
  std::uint64_t events = 0;
  TraceLedger* ledger = nullptr;  // non-null: traced
  std::atomic<std::int64_t> ns{0};
  std::array<std::int64_t, sim::kNumTraceCategories> cat_ns{};

  void operator()(const sim::TraceEvent& e) {
    ++events;
    if (ledger == nullptr) {
      hash = soda::chaos::hash_event(hash, e);
      invariants.on_event(e);
      return;
    }
    const auto t0 = Clock::now();
    hash = soda::chaos::hash_event(hash, e);
    invariants.on_event(e);
    const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - t0)
                       .count();
    ns.fetch_add(d, std::memory_order_relaxed);
    cat_ns[static_cast<std::size_t>(e.category)] += d;
    ledger->on_event(e);
  }
};

void tally_ops(const std::vector<OpRecord>& ops, Rep& rep) {
  for (const OpRecord& op : ops) {
    switch (op.outcome) {
      case Outcome::kOk: ++rep.ok; break;
      case Outcome::kTimedOut: ++rep.timedout; break;
      case Outcome::kCrashed: ++rep.crashed; break;
      case Outcome::kOther: ++rep.other; break;
      case Outcome::kUnfinished: ++rep.unfinished; break;
    }
    if (op.wrong) ++rep.wrong;
    if (op.t4 >= 0) {
      rep.latency_us.push_back(static_cast<double>(op.t4 - op.t0));
    }
  }
}

void add_splits(const TraceLedger& ledger, const std::vector<OpRecord>& ops,
                Rep& rep) {
  for (const OpRecord& op : ops) {
    if (op.t4 >= 0) rep.splits.push_back(ledger.split(op));
  }
}

double per(double x, std::uint64_t n) {
  return n == 0 ? 0.0 : x / static_cast<double>(n);
}

/// One rep of a simulator workload: build the topology (timed as setup),
/// run it to quiescence (timed as the run), check and collect.
Rep run_bed(const Shape& s, const RepOptions& o) {
  SpanLog& spans = *o.spans;
  const bool traced = spans.enabled();
  Rep rep;
  Board board;
  TraceLedger ledger(s.nodes + 1);  // + the gateway's MID
  Observer obs;
  if (traced) obs.ledger = &ledger;
  const bool classic = s.engine == Engine::kClassic;
  const int segments = s.segments > 1 ? s.segments : 1;
  const int clients = s.nodes - s.servers;
  std::vector<OpClient*> load;

  // ---- setup: the same assembly sequence as scale::run_harness --------
  const auto setup_t0 = Clock::now();
  const int setup_span = spans.open("setup", o.parent_span);
  std::unique_ptr<soda::Network> single;
  std::unique_ptr<soda::inet::Internet> internet;
  std::unique_ptr<sim::AsyncTraceSink> sink;
  const int topo_span = spans.open("setup.topology", setup_span);
  if (segments > 1) {
    soda::inet::Internet::Options io;
    io.seed = o.seed;
    io.segments = segments;
    io.bus = soda::net::BusConfig::fast();
    io.gateway = soda::inet::GatewayConfig::fast();
    internet = std::make_unique<soda::inet::Internet>(std::move(io));
  } else {
    soda::Network::Options no;
    no.seed = o.seed;
    no.bus = soda::net::BusConfig::fast();
    single = std::make_unique<soda::Network>(no);
  }
  sim::Simulator& sim = single ? single->sim() : internet->sim();
  if (!classic) sim.enable_partitions(segments > 1 ? segments : s.nodes);
  sim.trace().enable_all();
  sim.trace().set_store(false);
  auto observe = [&obs](const sim::TraceEvent& e) { obs(e); };
  if (s.engine == Engine::kConcurrent) {
    sim::AsyncTraceSink::Options so;
    so.fold_workers = s.workers > 1 ? 1 : 0;
    sink = std::make_unique<sim::AsyncTraceSink>(sim::TraceObserver(observe),
                                                 so);
    sim.trace().set_observer(sink->observer());
  } else {
    sim.trace().set_observer(observe);
  }
  spans.close(topo_span);

  std::int64_t node_ns = 0;
  std::int64_t client_ns = 0;
  const std::int64_t nodes_start = spans.now_ns();
  for (int mid = 0; mid < s.nodes; ++mid) {
    const auto a = Clock::now();
    NodeConfig cfg;
    cfg.timing = soda::TimingModel::fast();
    cfg.timing.batched_timer_bookkeeping = true;
    cfg.nic_pattern_filter = true;
    cfg.timing.adaptive_busy_backoff = true;
    cfg.timing.exponential_retransmit_backoff = s.retransmit_backoff;
    cfg.adaptive_admission = s.kind == Kind::kPool;
    Node& n = single ? single->add_node(std::move(cfg))
                     : internet->add_node(mid % segments, std::move(cfg));
    const auto b = Clock::now();
    std::unique_ptr<soda::Client> c;
    const bool server = mid < s.servers;
    switch (s.kind) {
      case Kind::kStar:
        if (server) {
          c = std::make_unique<EchoServer>();
        } else {
          auto sc = std::make_unique<StarClient>(s, &board);
          load.push_back(sc.get());
          c = std::move(sc);
        }
        break;
      case Kind::kName:
        if (server) {
          c = std::make_unique<soda::sodal::NameServer>(
              soda::sodal::kNameServerPattern, /*indexed=*/true);
        } else {
          auto nc = std::make_unique<NameClient>(
              s, &board, traced && classic ? &ledger : nullptr);
          load.push_back(nc.get());
          c = std::move(nc);
        }
        break;
      case Kind::kPool:
        if (server) {
          c = std::make_unique<EchoServer>(/*dawdle=*/100);
        } else {
          const auto slot = static_cast<std::size_t>(mid - s.servers);
          std::uint64_t st = o.seed * 0x100000001B3ull + slot;
          const std::uint64_t stream = splitmix64(st);
          auto pc = std::make_unique<PoolClient>(s, &board, slot, stream);
          load.push_back(pc.get());
          c = std::move(pc);
        }
        break;
    }
    n.install_client(std::move(c), n.mid());
    const auto e = Clock::now();
    node_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                   .count();
    client_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(e - b)
                     .count();
  }
  spans.aggregate("setup.nodes", setup_span, nodes_start, node_ns,
                  static_cast<std::uint64_t>(s.nodes));
  spans.aggregate("setup.clients", setup_span, nodes_start, client_ns,
                  static_cast<std::uint64_t>(s.nodes));
  if (internet) {
    ScopedSpan g(spans, "setup.topology", setup_span);
    internet->add_gateway();
  }
  if (!classic) {
    sim.set_lookahead(single ? single->bus().config().propagation
                             : internet->lookahead());
  }
  spans.close(setup_span);
  rep.setup_s = seconds_between(setup_t0, Clock::now());

  // ---- run: slices of run_until to quiescence ----------------------------
  auto queue_depth_max = [&]() -> std::size_t {
    std::size_t m = 0;
    if (!internet) return m;
    for (const auto& g : internet->gateways()) {
      for (std::size_t d : g->queue_depths()) m = std::max(m, d);
    }
    return m;
  };
  std::size_t qmax = 0;
  std::uint64_t windows = 0, parts = 0, par_windows = 0;
  std::int64_t begin_ns = 0, exec_ns = 0, commit_ns = 0;
  const double cpu0 = process_cpu_s();
  const auto run_t0 = Clock::now();
  const int run_span = spans.open("sim.run", o.parent_span);
  auto slices = [&](const char* name, auto&& step) {
    while (board.finished.load(std::memory_order_relaxed) < clients &&
           sim.now() < kMaxSimTime) {
      const int sp = spans.open(name, run_span);
      const std::int64_t obs0 = obs.ns.load(std::memory_order_relaxed);
      const std::int64_t t0 = spans.now_ns();
      const std::size_t n = step(sim.now() + kSlice);
      rep.events += n;
      if (traced) {
        spans.aggregate("chaos.observer", sp, t0,
                        obs.ns.load(std::memory_order_relaxed) - obs0, 1);
        qmax = std::max(qmax, queue_depth_max());
      }
      spans.close(sp, n);
    }
  };
  switch (s.engine) {
    case Engine::kClassic:
      slices("sim.run_until",
             [&](sim::Time deadline) { return sim.run_until(deadline); });
      break;
    case Engine::kConcurrent: {
      sim::ParallelEngine engine(sim, sim::ParallelConfig{s.workers, 0});
      slices("sim.parallel.run_until",
             [&](sim::Time deadline) { return engine.run_until(deadline); });
      par_windows = engine.windows();
      break;
    }
    case Engine::kWindowed:
      // The epoch-2 window protocol driven from here, one call at a time,
      // exactly as Simulator::run_until walks it serially.
      slices("sim.run_until", [&](sim::Time deadline) {
        std::size_t n = 0;
        for (;;) {
          const auto a = Clock::now();
          if (!sim.begin_window(deadline)) break;
          const auto b = Clock::now();
          for (int p : sim.window_partitions()) {
            sim.execute_partition_window(p);
            ++parts;
          }
          const auto c = Clock::now();
          n += sim.commit_window();
          const auto d = Clock::now();
          ++windows;
          using std::chrono::nanoseconds;
          begin_ns += std::chrono::duration_cast<nanoseconds>(b - a).count();
          exec_ns += std::chrono::duration_cast<nanoseconds>(c - b).count();
          commit_ns += std::chrono::duration_cast<nanoseconds>(d - c).count();
        }
        // Nothing is left at or before the deadline; this only moves the
        // clock to it, as run_until does after its last window.
        n += sim.run_until(deadline);
        return n;
      });
      break;
  }
  if (sink) {
    ScopedSpan f(spans, "sim.parallel.flush", run_span);
    sink->flush();
  }
  spans.close(run_span, rep.events);
  rep.wall_s = seconds_between(run_t0, Clock::now());
  rep.cpu_s = process_cpu_s() - cpu0;
  for (std::size_t c = 0; c < sim::kNumTraceCategories; ++c) {
    spans.aggregate(std::string("chaos.observer.") +
                        sim::to_string(static_cast<sim::TraceCategory>(c)),
                    run_span, 0, obs.cat_ns[c], ledger.by_category[c]);
  }
  if (s.engine == Engine::kWindowed) {
    spans.aggregate("sim.begin_window", run_span, 0, begin_ns, windows);
    spans.aggregate("sim.execute_partition_window", run_span, 0, exec_ns,
                    parts);
    spans.aggregate("sim.commit_window", run_span, 0, commit_ns, windows);
  }

  // ---- check and collect -------------------------------------------------
  try {
    if (single) {
      single->check_clients();
    } else {
      internet->check_clients();
    }
  } catch (const std::exception& ex) {
    rep.error = std::string("client program threw: ") + ex.what();
  }
  obs.invariants.finish(sim.now());
  const auto violations = obs.invariants.violations();
  rep.violations = violations.size();
  if (!violations.empty() && rep.error.empty()) {
    rep.error = "invariant violation: " + violations.front().invariant +
                ": " + violations.front().detail;
  }
  rep.lookahead_violations = sim.lookahead_violations();
  if (rep.lookahead_violations != 0 && rep.error.empty()) {
    rep.error = "lookahead violations: " +
                std::to_string(rep.lookahead_violations);
  }
  rep.hash = obs.hash;
  sim.trace().set_observer(nullptr);
  const std::uint64_t sink_chunks = sink ? sink->chunks_emitted() : 0;
  sink.reset();

  const std::uint64_t per_client =
      static_cast<std::uint64_t>(s.ops_per_client) * (s.kind == Kind::kName ? 2 : 1);
  rep.attempted = per_client * static_cast<std::uint64_t>(clients);
  for (const OpClient* c : load) {
    tally_ops(c->ops(), rep);
    rep.gen_lag_us_max = std::max(rep.gen_lag_us_max, c->gen_lag_us_max());
  }
  // Ops a client never got to issue count as unfinished.
  const std::uint64_t seen =
      rep.ok + rep.timedout + rep.crashed + rep.other + rep.unfinished;
  if (seen <= rep.attempted) rep.unfinished += rep.attempted - seen;
  rep.parity_ops = board.parity_ops.load();
  rep.sim_s = static_cast<double>(sim.now()) / 1e6;

  std::uint64_t filtered = 0, lost = 0, corrupted = 0, duplicated = 0;
  for (int seg = 0; seg < segments; ++seg) {
    soda::net::Bus& bus = single ? single->bus() : internet->bus(seg);
    rep.frames += bus.frames_sent();
    filtered += bus.frames_filtered();
    lost += bus.frames_lost();
    corrupted += bus.frames_corrupted();
    duplicated += bus.frames_duplicated();
  }
  if (!traced) return rep;

  for (const OpClient* c : load) add_splits(ledger, c->ops(), rep);
  std::uint64_t relayed = 0, coalesced = 0, pattern_fwd = 0, drops = 0;
  if (internet) {
    for (const auto& g : internet->gateways()) {
      relayed += g->forwarded();
      coalesced += g->coalesced();
      pattern_fwd += g->pattern_forwards();
      drops += g->ttl_drops() + g->overflow_drops();
    }
  }
  using soda::stats::Counter;
  const auto& hub = sim.metrics();
  const std::uint64_t ops = rep.attempted;
  const std::uint64_t shed = hub.total(Counter::kShedOffers);
  auto& L = rep.layer;
  L["sim.events"] = static_cast<double>(rep.events);
  L["sim.scheduled"] = static_cast<double>(sim.events_scheduled());
  L["sim.cancelled"] = static_cast<double>(sim.events_cancelled());
  L["sim.windows"] = static_cast<double>(windows);
  L["sim.parts_per_window"] = per(static_cast<double>(parts), windows);
  L["sim.execute_s"] = static_cast<double>(exec_ns) / 1e9;
  L["sim.commit_s"] = static_cast<double>(commit_ns) / 1e9;
  L["par.windows"] = static_cast<double>(par_windows);
  L["par.sink_chunks"] = static_cast<double>(sink_chunks);
  L["net.frames_per_op"] = per(static_cast<double>(rep.frames), ops);
  L["net.bytes_per_op"] =
      per(static_cast<double>(hub.total(Counter::kBytesSent)), ops);
  L["net.filtered"] = static_cast<double>(filtered);
  L["net.lost"] = static_cast<double>(lost);
  L["net.corrupted"] = static_cast<double>(corrupted);
  L["net.duplicated"] = static_cast<double>(duplicated);
  L["proto.retransmits_per_op"] =
      per(static_cast<double>(hub.total(Counter::kRetransmits)), ops);
  L["proto.busy_nacks_per_op"] =
      per(static_cast<double>(hub.total(Counter::kBusyNacks)), ops);
  L["proto.busy_wait_us_per_op"] =
      per(static_cast<double>(ledger.busy_wait_us), ops);
  L["proto.rto_wait_us_per_op"] =
      per(static_cast<double>(ledger.rto_wait_us), ops);
  L["proto.dup_suppressed"] =
      static_cast<double>(hub.total(Counter::kDuplicatesSuppressed));
  L["proto.probes"] = static_cast<double>(hub.total(Counter::kProbesSent));
  L["core.shed_offers"] = static_cast<double>(shed);
  L["core.admit_ratio"] = per(static_cast<double>(ledger.delivered),
                              ledger.delivered + shed);
  L["core.handlers_per_op"] =
      per(static_cast<double>(hub.total(Counter::kHandlerInvocations)), ops);
  L["core.cpu_busy_us_per_op"] =
      per(static_cast<double>(hub.total(Counter::kCpuBusyMicros)), ops);
  L["inet.relayed_per_op"] = per(static_cast<double>(relayed), ops);
  L["inet.relay_share"] = per(static_cast<double>(relayed), rep.frames);
  L["inet.coalesced"] = static_cast<double>(coalesced);
  L["inet.pattern_forwards"] = static_cast<double>(pattern_fwd);
  L["inet.drops"] = static_cast<double>(drops);
  L["inet.queue_depth_max"] = static_cast<double>(qmax);
  L["chaos.observer_ns_per_event"] =
      per(static_cast<double>(obs.ns.load()), obs.events);
  L["chaos.trace_events_per_op"] = per(static_cast<double>(obs.events), ops);
  L["setup.topology_s"] = spans.total_s("setup.topology");
  L["setup.nodes_s"] = static_cast<double>(node_ns) / 1e9;
  L["setup.clients_s"] = static_cast<double>(client_ns) / 1e9;
  return rep;
}

// ---- chaos_sweep -------------------------------------------------------

/// Rides every chaos run as an extra invariant (run_scenario's public
/// InvariantFactory hook) to see its trace stream; never fails.
class LedgerProbe final : public soda::chaos::Invariant {
 public:
  LedgerProbe(TraceLedger* ledger, std::vector<sim::TraceEvent>* keep)
      : ledger_(ledger), keep_(keep) {}
  std::string_view name() const override { return "perfbench-ledger"; }
  void on_event(const sim::TraceEvent& e) override {
    ledger_->on_event(e);
    if (keep_ != nullptr) keep_->push_back(e);
  }

 private:
  TraceLedger* ledger_;
  std::vector<sim::TraceEvent>* keep_;
};

constexpr const char* kChaosScenarios[] = {"overload", "pool_failover",
                                           "gateway_flap"};
/// The sweep's seed list is part of the workload, like a CI sweep's: it
/// does not depend on the benchmark seed.
constexpr std::uint64_t kChaosSeeds[] = {1, 2};
constexpr int kChaosSetupSamples = 64;

Rep run_chaos(const RepOptions& o) {
  SpanLog& spans = *o.spans;
  const bool traced = spans.enabled();
  Rep rep;

  // Setup is scenario construction only: run_scenario builds each
  // topology inside the timed run. One construction takes microseconds,
  // so it is repeated and the median taken.
  std::vector<soda::chaos::Scenario> scenarios;
  std::vector<double> setup_samples;
  {
    ScopedSpan sp(spans, "setup", o.parent_span);
    for (int k = 0; k < kChaosSetupSamples; ++k) {
      const auto t0 = Clock::now();
      scenarios.clear();
      for (const char* name : kChaosScenarios) {
        auto sc = soda::chaos::builtin_scenario(name);
        if (!sc) {
          rep.error = std::string("missing builtin scenario ") + name;
          return rep;
        }
        scenarios.push_back(std::move(*sc));
      }
      setup_samples.push_back(seconds_between(t0, Clock::now()));
    }
  }
  rep.setup_s = median(setup_samples);

  std::uint64_t frames_lost = 0, frames_dup = 0, dup_suppressed = 0,
                trace_events = 0;
  std::int64_t observer_ns = 0;
  std::uint64_t observed = 0;
  TraceLedger totals;
  const double cpu0 = process_cpu_s();
  const auto run_t0 = Clock::now();
  const int run_span = spans.open("sim.run", o.parent_span);
  for (const auto& sc : scenarios) {
    for (std::uint64_t seed : kChaosSeeds) {
      TraceLedger ledger;
      std::vector<sim::TraceEvent> kept;
      soda::chaos::InvariantFactory extra = [&]() {
        std::vector<std::unique_ptr<soda::chaos::Invariant>> v;
        v.push_back(std::make_unique<LedgerProbe>(&ledger,
                                                  traced ? &kept : nullptr));
        return v;
      };
      const int sp = spans.open("chaos.run_scenario", run_span);
      const soda::chaos::RunResult r =
          soda::chaos::run_scenario(sc, seed, extra);
      spans.close(sp, r.stats.events);
      if (!r.ok() && rep.error.empty()) {
        rep.error = sc.name + " seed " + std::to_string(seed) + ": " +
                    r.violations.front().invariant + ": " +
                    r.violations.front().detail;
      }
      rep.violations += r.violations.size();
      rep.lookahead_violations += r.lookahead_violations;
      rep.hash = rep.hash * 0x100000001B3ull ^ r.trace_hash;
      rep.frames += r.stats.frames_sent;
      frames_lost += r.stats.frames_lost;
      frames_dup += r.stats.frames_duplicated;
      dup_suppressed += r.stats.duplicates_suppressed;
      trace_events += r.stats.events;
      rep.sim_s += static_cast<double>(sc.end_time()) / 1e6;

      std::vector<OpRecord> ops = ledger.requests_as_ops();
      rep.attempted += ops.size();
      tally_ops(ops, rep);
      if (traced) {
        add_splits(ledger, ops, rep);
        for (std::size_t c = 0; c < sim::kNumTraceCategories; ++c) {
          totals.by_category[c] += ledger.by_category[c];
        }
        totals.busy_wait_us += ledger.busy_wait_us;
        totals.rto_wait_us += ledger.rto_wait_us;
        totals.delivered += ledger.delivered;
        totals.shed += ledger.shed;
        totals.crc_dropped += ledger.crc_dropped;
        totals.probes += ledger.probes;
        totals.relayed += ledger.relayed;
        totals.relay_drops += ledger.relay_drops;
        totals.handlers += ledger.handlers;
        // The observer run_scenario installs is internal; time the same
        // work (hash fold + standard invariants) over the same stream.
        const int op_span = spans.open("chaos.observer", sp);
        soda::chaos::InvariantSet inv = soda::chaos::InvariantSet::standard();
        std::uint64_t h = soda::chaos::kTraceHashSeed;
        const auto a = Clock::now();
        for (const sim::TraceEvent& e : kept) {
          h = soda::chaos::hash_event(h, e);
          inv.on_event(e);
        }
        observer_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - a)
                           .count();
        observed += kept.size();
        spans.close(op_span, kept.size());
        if (h != r.trace_hash && rep.error.empty()) {
          rep.error = "observer replay does not reproduce the trace hash";
        }
      }
    }
  }
  spans.close(run_span, trace_events);
  rep.wall_s = seconds_between(run_t0, Clock::now());
  rep.cpu_s = process_cpu_s() - cpu0;
  rep.parity_ops = rep.ok;
  rep.events = trace_events;
  if (rep.error.empty() && rep.lookahead_violations != 0) {
    rep.error = "lookahead violations: " +
                std::to_string(rep.lookahead_violations);
  }
  if (!traced) return rep;

  const std::uint64_t ops = rep.attempted;
  auto& L = rep.layer;
  L["net.frames_per_op"] = per(static_cast<double>(rep.frames), ops);
  L["net.lost"] = static_cast<double>(frames_lost);
  L["net.corrupted"] = static_cast<double>(totals.crc_dropped);
  L["net.duplicated"] = static_cast<double>(frames_dup);
  L["proto.retransmits_per_op"] = per(
      static_cast<double>(
          totals.by_category[static_cast<std::size_t>(
              sim::TraceCategory::kRetransmit)]),
      ops);
  L["proto.busy_wait_us_per_op"] =
      per(static_cast<double>(totals.busy_wait_us), ops);
  L["proto.rto_wait_us_per_op"] =
      per(static_cast<double>(totals.rto_wait_us), ops);
  L["proto.dup_suppressed"] = static_cast<double>(dup_suppressed);
  L["proto.probes"] = static_cast<double>(totals.probes);
  L["core.shed_offers"] = static_cast<double>(totals.shed);
  L["core.admit_ratio"] = per(static_cast<double>(totals.delivered),
                              totals.delivered + totals.shed);
  L["core.handlers_per_op"] = per(static_cast<double>(totals.handlers), ops);
  L["inet.relayed_per_op"] = per(static_cast<double>(totals.relayed), ops);
  L["inet.relay_share"] = per(static_cast<double>(totals.relayed), rep.frames);
  L["inet.drops"] = static_cast<double>(totals.relay_drops);
  L["chaos.observer_ns_per_event"] =
      per(static_cast<double>(observer_ns), observed);
  L["chaos.trace_events_per_op"] =
      per(static_cast<double>(trace_events), ops);
  L["setup.topology_s"] = rep.setup_s;
  return rep;
}

}  // namespace

std::optional<WorkloadId> parse_workload(std::string_view name) {
  for (WorkloadId w : all_workloads()) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(WorkloadId w) {
  switch (w) {
    case WorkloadId::kRpcInet1024: return "rpc_inet_1024";
    case WorkloadId::kPoolOpen128: return "pool_open_128";
    case WorkloadId::kDirectory64: return "directory_64";
    case WorkloadId::kChaosSweep: return "chaos_sweep";
    case WorkloadId::kParInet1024x4: return "par_inet_1024x4";
  }
  return "unknown";
}

std::vector<WorkloadId> all_workloads() {
  return {WorkloadId::kRpcInet1024, WorkloadId::kPoolOpen128,
          WorkloadId::kDirectory64, WorkloadId::kChaosSweep,
          WorkloadId::kParInet1024x4};
}

Rep run_rep(WorkloadId w, const RepOptions& o) {
  if (w == WorkloadId::kChaosSweep) return run_chaos(o);
  return run_bed(shape_of(w), o);
}

Rep run_windowed_reference(const RepOptions& o) {
  Shape s = shape_of(WorkloadId::kParInet1024x4);
  s.engine = Engine::kWindowed;
  return run_bed(s, o);
}

std::string crosscheck_harness(WorkloadId w, std::uint64_t seed,
                               const Rep& mine) {
  if (w != WorkloadId::kRpcInet1024 && w != WorkloadId::kDirectory64) {
    return "";
  }
  const Shape s = shape_of(w);
  soda::scale::HarnessOptions h;
  h.workload = s.kind == Kind::kName ? soda::scale::Workload::kNameStorm
                                     : soda::scale::Workload::kStarRpc;
  h.nodes = s.nodes;
  h.servers = s.servers;
  h.ops_per_client = s.ops_per_client;
  h.segments = s.segments;
  h.payload = s.payload;
  h.seed = seed;
  h.retransmit_backoff = s.retransmit_backoff;
  const soda::scale::HarnessResult r = soda::scale::run_harness(h);
  std::string diff;
  auto cmp = [&](const char* what, std::uint64_t theirs, std::uint64_t ours) {
    if (theirs == ours) return;
    diff += std::string(diff.empty() ? "" : ", ") + what + " harness=" +
            std::to_string(theirs) + " benchmark=" + std::to_string(ours);
  };
  cmp("events", r.events_executed, mine.events);
  cmp("frames", r.frames_sent, mine.frames);
  cmp("ops", r.ops_done, mine.parity_ops);
  cmp("trace_hash", r.trace_hash, mine.hash);
  return diff.empty() ? "" : "workload differs from scale::run_harness: " + diff;
}

}  // namespace perfbench
