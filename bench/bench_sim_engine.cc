// Wall-clock microbenchmarks (google-benchmark) of the simulation engine
// itself: how fast the reproduction executes on the host. All other
// benches report *simulated* milliseconds; this one keeps us honest about
// the cost of running them.
//
// `--check-allocs` runs an allocation audit instead of the benchmarks:
// it exercises steady-state schedule/cancel/pop on a warmed timer wheel
// with the global operator-new hook counting, and exits 1 loudly if the
// hot path performed ANY heap allocation. This pins the zero-alloc claim
// in doc/PERFORMANCE.md §1 against regressions (a callback outgrowing the
// SBO buffer, a container resize leaking into steady state, ...).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "benchsupport/stream.h"
#include "chaos/runner.h"
#include "core/network.h"
#include "sim/event_queue.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "sodal/sodal.h"

// ---------------------------------------------------------------- alloc hook
//
// Counting is gated on a flag so the hook costs one predictable branch
// when disarmed; the counter is a plain (non-atomic) word — the audit and
// the benchmarks are single-threaded.
namespace {
bool g_count_allocs = false;
std::size_t g_allocs = 0;
std::size_t g_frees = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs) ++g_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// free() pairs with the malloc() in our replacement operator new; GCC
// can't see that and assumes a library new.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept {
  if (g_count_allocs && p) ++g_frees;
  std::free(p);
}
#pragma GCC diagnostic pop
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using namespace soda;

// ------------------------------------------------------------ benchmarks

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      q.schedule(i % 97, [&sink] { ++sink; });
    }
    while (!q.empty()) q.pop().second();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

// Steady-state schedule+pop on a warmed wheel: the queue (and its slab)
// live across iterations, so this measures the pure hot path — bitmap
// scan, slot insert, free-list recycle — with no construction cost.
void BM_WheelSteadySchedulePop(benchmark::State& state) {
  sim::EventQueue q;
  int sink = 0;
  sim::Time t = 0;
  // Keep a standing population so pops interleave with occupied slots.
  for (int i = 0; i < 256; ++i) {
    q.schedule(t + 1 + (i * 37) % 500, [&sink] { ++sink; });
  }
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      q.schedule(t + 1 + (i * 37) % 500, [&sink] { ++sink; });
      auto [when, fn] = q.pop();
      t = when;
      fn();
    }
  }
  while (!q.empty()) q.pop().second();
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_WheelSteadySchedulePop);

// Schedule+cancel churn: the retransmit-timer pattern (arm a timer, the
// ACK lands, cancel it) dominates protocol traffic; cancel must be O(1)
// and recycle cells without growing anything.
void BM_WheelScheduleCancel(benchmark::State& state) {
  sim::EventQueue q;
  int sink = 0;
  sim::Time t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      auto id = q.schedule(t + 100 + i % 50, [&sink] { ++sink; });
      q.cancel(id);
    }
    // Drain the lazily-reclaimed cells so the slab stays bounded.
    q.schedule(t + 1000, [] {});
    while (!q.empty()) {
      auto [when, fn] = q.pop();
      t = when;
      fn();
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_WheelScheduleCancel);

// Far-future events: exercise the cascade path (levels 1+, occasional
// overflow rebase), the part a flat calendar queue gets wrong.
void BM_WheelCascadeFar(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    int sink = 0;
    sim::Time t = 0;
    for (int i = 0; i < 500; ++i) {
      // Spread across ~3 wheel levels: 1 us .. ~16 s.
      q.schedule(t + 1 + (static_cast<sim::Time>(i) * 33554) % 16000000,
                 [&sink] { ++sink; });
    }
    while (!q.empty()) {
      auto [when, fn] = q.pop();
      t = when;
      fn();
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_WheelCascadeFar);

void BM_SimulatorTimerWheel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    int sink = 0;
    for (int i = 0; i < 500; ++i) {
      s.after(i * 10, [&] { ++sink; });
    }
    s.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_SimulatorTimerWheel);

void BM_StreamPut100Words(benchmark::State& state) {
  for (auto _ : state) {
    bench::StreamOptions o;
    o.kind = bench::OpKind::kPut;
    o.words = 100;
    o.ops = 40;
    o.warmup = 10;
    auto r = bench::run_stream(o);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * 40);
  state.SetLabel("simulated SODA PUTs per wall-clock second");
}
BENCHMARK(BM_StreamPut100Words);

constexpr Pattern kP = kWellKnownBit | 0x57EA;

class Echo : public sodal::SodalClient {
 public:
  sim::Task on_boot(Mid) override {
    advertise(kP);
    co_return;
  }
  sim::Task on_entry(HandlerArgs a) override {
    Bytes in;
    co_await accept_current_exchange(0, &in, a.put_size, {});
  }
};

// ------------------------------------------------- parallel engine

// Synthetic trace event exercising every field the hash/fold touches.
sim::TraceEvent synthetic_event(std::uint64_t i) {
  sim::TraceEvent e;
  e.at = static_cast<sim::Time>(i * 7);
  e.category =
      static_cast<sim::TraceCategory>(i % sim::kNumTraceCategories);
  e.node = static_cast<int>(i % 64);
  e.peer = static_cast<int>((i * 3) % 64);
  e.tid = static_cast<std::int32_t>(i % 1000);
  e.size = static_cast<std::int32_t>(i % 512);
  e.sections = static_cast<std::uint16_t>(i % 0x1000);
  e.detail = static_cast<std::int64_t>(i);
  return e;
}

// The determinism tax itself: the pinned trace hash is an order-dependent
// chain — every event serializes behind the previous one on the
// simulation thread. This is the baseline the commutative fold attacks.
void BM_TraceHashOrdered(benchmark::State& state) {
  std::vector<sim::TraceEvent> evs;
  for (std::uint64_t i = 0; i < 1000; ++i) evs.push_back(synthetic_event(i));
  for (auto _ : state) {
    std::uint64_t h = chaos::kTraceHashSeed;
    for (const auto& e : evs) h = chaos::hash_event(h, e);
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TraceHashOrdered);

// The parallel-reducible replacement: per-event fingerprints combined
// with (+, ^, count). Same per-event cost class, but partial folds merge
// in any order, so workers can compute them off the simulation thread
// (doc/PERFORMANCE.md, parallel-engine section).
void BM_TraceFoldCommutative(benchmark::State& state) {
  std::vector<sim::TraceEvent> evs;
  for (std::uint64_t i = 0; i < 1000; ++i) evs.push_back(synthetic_event(i));
  for (auto _ : state) {
    sim::TraceFold fold;
    for (const auto& e : evs) fold.add(e);
    benchmark::DoNotOptimize(fold.digest());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TraceFoldCommutative);

// Observer offload path: events stream through the chunked AsyncTraceSink
// (in-order consumer + Arg(0) fold workers) instead of running inline.
// Measures producer-side cost per event including back-pressure.
void BM_AsyncTraceSinkOffload(benchmark::State& state) {
  const int fold_workers = static_cast<int>(state.range(0));
  std::vector<sim::TraceEvent> evs;
  for (std::uint64_t i = 0; i < 1000; ++i) evs.push_back(synthetic_event(i));
  for (auto _ : state) {
    std::uint64_t seen = 0;
    sim::AsyncTraceSink::Options o;
    o.chunk_events = 256;
    o.fold_workers = fold_workers;
    sim::AsyncTraceSink sink(
        [&seen](const sim::TraceEvent&) { ++seen; }, o);
    for (const auto& e : evs) sink.on_event(e);
    sink.flush();
    benchmark::DoNotOptimize(seen);
    benchmark::DoNotOptimize(sink.combined_fold().digest());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_AsyncTraceSinkOffload)->Arg(0)->Arg(2);

// Partitioned wheels walked by the serial window protocol (the epoch-2
// reference): one thread executes every partition's window in ascending
// partition order. This is the baseline the concurrent executor below
// must beat on a multicore host.
void BM_PartitionedMergeSerial(benchmark::State& state) {
  constexpr int kParts = 8, kPerPart = 400;
  for (auto _ : state) {
    sim::Simulator s;
    s.enable_partitions(kParts);
    s.set_lookahead(64);
    int sink = 0;
    for (int p = 0; p < kParts; ++p) {
      sim::ScopedPartition sp(s, p);
      for (int i = 0; i < kPerPart; ++i) {
        s.after(1 + (i * 37) % 5000, [&sink] { ++sink; });
      }
    }
    s.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kParts * kPerPart);
}
BENCHMARK(BM_PartitionedMergeSerial);

// True concurrent execution: Arg(N) workers race over each window's
// active partitions and execute their events in parallel; cross-partition
// work funnels through the staging queues merged at the window barrier.
// Events, RNG draws, and traces are bit-identical to the serial window
// walk; only wall clock may differ, and the speedup is host-dependent
// (~1x on a single-core container). The sink is atomic because callbacks
// from distinct partitions genuinely run on distinct threads here.
void BM_ParallelEngineRun(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  constexpr int kParts = 8, kPerPart = 400;
  for (auto _ : state) {
    sim::Simulator s;
    s.enable_partitions(kParts);
    s.set_lookahead(64);
    std::atomic<int> sink{0};
    for (int p = 0; p < kParts; ++p) {
      sim::ScopedPartition sp(s, p);
      for (int i = 0; i < kPerPart; ++i) {
        s.after(1 + (i * 37) % 5000,
                [&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
      }
    }
    sim::ParallelEngine engine(s, sim::ParallelConfig{workers, 0});
    engine.run();
    benchmark::DoNotOptimize(sink.load());
    if (s.lookahead_violations() != 0) {
      state.SkipWithError("lookahead violation in benchmark workload");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * kParts * kPerPart);
}
BENCHMARK(BM_ParallelEngineRun)->Arg(1)->Arg(2)->Arg(4);

// Window-size x workers sweep for the concurrent executor. The window
// (lookahead) sets the granularity of the parallelism: tiny windows mean
// frequent barriers and little work per partition per window (barrier
// overhead dominates); huge windows amortize the barrier but batch fewer,
// larger window rounds. Args are {lookahead_us, workers}; the interesting
// read is events/s across a row of constant workers.
void BM_ConcurrentWindowSweep(benchmark::State& state) {
  const auto window = static_cast<sim::Duration>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  constexpr int kParts = 8, kPerPart = 400;
  for (auto _ : state) {
    sim::Simulator s;
    s.enable_partitions(kParts);
    s.set_lookahead(window);
    std::atomic<int> sink{0};
    for (int p = 0; p < kParts; ++p) {
      sim::ScopedPartition sp(s, p);
      for (int i = 0; i < kPerPart; ++i) {
        s.after(1 + (i * 37) % 5000,
                [&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
      }
    }
    sim::ParallelEngine engine(s, sim::ParallelConfig{workers, 0});
    engine.run();
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(state.iterations() * kParts * kPerPart);
}
BENCHMARK(BM_ConcurrentWindowSweep)
    ->ArgsProduct({{16, 128, 1024}, {1, 2, 4}});

void BM_NetworkSetupTeardown(benchmark::State& state) {
  for (auto _ : state) {
    Network net;
    for (int i = 0; i < 8; ++i) net.spawn<Echo>(NodeConfig{});
    net.run_for(10 * sim::kMillisecond);
    benchmark::DoNotOptimize(net.size());
  }
}
BENCHMARK(BM_NetworkSetupTeardown);

// ---------------------------------------------------------- alloc audit

/// Steady-state allocation audit. Returns the number of heap allocations
/// observed in the audited region (0 = pass).
std::size_t audit_steady_state() {
  sim::EventQueue q;
  int sink = 0;
  sim::Time t = 0;

  // Warm-up: grow the slab, the per-slot machinery, and the free list to
  // the peak standing population the audited loop will use. Everything
  // allocated here is legitimate one-time capacity.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 512; ++i) {
      q.schedule(t + 1 + (i * 37) % 500, [&sink] { ++sink; });
    }
    for (int i = 0; i < 256; ++i) {
      auto id = q.schedule(t + 600 + i, [&sink] { ++sink; });
      q.cancel(id);
    }
    while (!q.empty()) {
      auto [when, fn] = q.pop();
      t = when;
      fn();
    }
  }

  // Audited region: the same mix — schedule, cancel, pop — at the same
  // standing population. Every cell comes off the free list, every
  // callback fits the SBO buffer: zero heap traffic expected.
  g_allocs = g_frees = 0;
  g_count_allocs = true;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 512; ++i) {
      q.schedule(t + 1 + (i * 37) % 500, [&sink] { ++sink; });
    }
    for (int i = 0; i < 256; ++i) {
      auto id = q.schedule(t + 600 + i, [&sink] { ++sink; });
      q.cancel(id);
    }
    while (!q.empty()) {
      auto [when, fn] = q.pop();
      t = when;
      fn();
    }
  }
  g_count_allocs = false;
  benchmark::DoNotOptimize(sink);
  return g_allocs;
}

int run_check_allocs() {
  const std::size_t allocs = audit_steady_state();
  if (allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state schedule/cancel/pop performed %zu heap "
                 "allocation(s); the timer wheel hot path must be "
                 "allocation-free (doc/PERFORMANCE.md).\n"
                 "Likely causes: a callback outgrew EventFn's inline "
                 "buffer (check sbo_spill_total()), or a queue container "
                 "resizes in steady state.\n",
                 allocs);
    return 1;
  }
  std::printf("OK: zero heap allocations across 4096 steady-state "
              "schedule/pop + 2048 schedule/cancel operations.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-allocs") == 0) {
      return run_check_allocs();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
