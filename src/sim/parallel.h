// True-concurrent conservative driver for the partitioned Simulator,
// plus the parallel-reducible trace fold that attacks the determinism tax.
//
// The RNG wall, broken (doc/PERFORMANCE.md §5): under hash epoch 1 every
// component drew from one shared SplitMix64 stream, so callbacks had to
// execute in the exact global (time, seq) order — an engine could only
// parallelize structural wheel work around a serial merge loop. Epoch 2
// gives each partition a private stream split from the root seed
// (Rng(seed, p)), private sequence space, and a private trace buffer, so
// within a lookahead window the partitions' event executions are fully
// independent. ParallelEngine drives the Simulator's window protocol
// with a worker pool:
//
//   1. begin_window() places the window at the earliest pending event
//      and collects the partitions with work in it.
//   2. Workers race an atomic cursor over those partitions, each running
//      execute_partition_window(p) — real concurrent event execution,
//      own wheel / RNG / clock / staging / trace buffer per partition.
//   3. commit_window() (engine thread, after the barrier) applies staged
//      cross-partition schedules/cancels in ascending source-partition
//      order and merges trace buffers by (time, partition).
//
// The result is bit-identical to serial partitioned execution of the
// same windows — Simulator::run_until is the reference, and
// tests/test_parallel_sim.cc and bench_scale's engine tier hold the two
// to the same hash. Chaos runs no longer use this path: they run on the
// single wheel (PartitionMode::kSingleWheel, hash epoch 3), which this
// engine refuses.
// AsyncTraceSink still offloads the observer path (invariant checkers,
// hash folding) from whichever thread commits, and seed sweeps remain
// embarrassingly parallel on top (chaos::sweep_scenario).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace soda::sim {

/// Commutative, parallel-reducible trace digest. The pinned chain
/// (chaos::hash_event) is order-dependent work on the hot path; this fold hashes each event independently (SplitMix64-style
/// finalizer over the same ten fields) and combines with (+, ^, count) —
/// so per-worker partial folds merge to the same digest in any order.
/// Collisions are detectable, not correctable: engine-comparison harnesses
/// treat digest equality as "almost surely identical" and fall back to
/// the ordered chain on mismatch to localize the first divergent event.
struct TraceFold {
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;
  std::uint64_t count = 0;

  static std::uint64_t mix(std::uint64_t x);
  static std::uint64_t fingerprint(const TraceEvent& e);

  void add(const TraceEvent& e) {
    const std::uint64_t f = fingerprint(e);
    sum += f;
    xr ^= f;
    ++count;
  }
  void merge(const TraceFold& o) {
    sum += o.sum;
    xr ^= o.xr;
    count += o.count;
  }
  /// Single-u64 summary of (sum, xr, count).
  std::uint64_t digest() const;
};

/// Asynchronous trace-observer pipeline. The simulation thread appends
/// events to a chunk buffer; full chunks flow to (a) one consumer thread
/// that replays them *in order* through the downstream observer — so
/// invariant checkers and the hash fold see the identical sequence
/// they would have seen inline — and (b) optional fold workers computing
/// TraceFold partials per chunk, combined in worker-index order at
/// flush(). Back-pressure: the producer blocks once max_pending_chunks
/// are queued, bounding memory at chunk_events * max_pending * ~56 B.
///
/// Call flush() before reading anything the downstream observer writes
/// (violations, hash, stats) — results are undefined mid-stream.
class AsyncTraceSink {
 public:
  struct Options {
    std::size_t chunk_events = 2048;
    int fold_workers = 0;  // 0: the consumer thread folds too
    std::size_t max_pending_chunks = 64;
    bool fold_enabled = true;
  };

  // Two overloads, not one defaulted `Options{}` argument: a nested
  // class's member initializers are only parsed at the end of the
  // enclosing class, so `= {}` here would not compile.
  AsyncTraceSink(TraceObserver downstream, Options options);
  explicit AsyncTraceSink(TraceObserver downstream)
      : AsyncTraceSink(std::move(downstream), Options()) {}
  ~AsyncTraceSink();

  AsyncTraceSink(const AsyncTraceSink&) = delete;
  AsyncTraceSink& operator=(const AsyncTraceSink&) = delete;

  /// Producer side (simulation thread only).
  void on_event(const TraceEvent& e);

  /// Adapter for Trace::set_observer.
  TraceObserver observer() {
    return [this](const TraceEvent& e) { on_event(e); };
  }

  /// Block until every queued event has passed through the downstream
  /// observer and all fold partials are merged.
  void flush();

  /// flush() + the merged fold over everything seen so far.
  TraceFold combined_fold();

  std::uint64_t chunks_emitted() const { return chunks_emitted_; }

 private:
  using Chunk = std::vector<TraceEvent>;
  using ChunkRef = std::shared_ptr<const Chunk>;

  void emit_chunk();
  void consumer_main();
  void fold_main(int worker);

  TraceObserver downstream_;
  Options opt_;

  Chunk current_;
  std::uint64_t chunks_emitted_ = 0;

  std::mutex mu_;
  std::condition_variable cv_producer_;  // space available / drained
  std::condition_variable cv_work_;      // work available
  std::deque<ChunkRef> consumer_q_;
  std::deque<ChunkRef> fold_q_;
  std::size_t in_flight_ = 0;  // chunks not yet fully processed
  bool stop_ = false;

  std::thread consumer_;
  std::vector<std::thread> fold_threads_;
  std::vector<TraceFold> worker_folds_;  // [consumer] + one per fold worker
};

struct ParallelConfig {
  int workers = 0;         // execution pool size; 0 = hardware_concurrency
  /// Nonzero: applied to the Simulator via set_lookahead() at engine
  /// construction. The lookahead is part of the epoch-2 determinism
  /// contract (it fixes the window boundaries), so a serial reference run
  /// must use the identical value — prefer calling sim.set_lookahead()
  /// once, before either engine, and leaving this 0.
  Duration lookahead = 0;
};

/// Concurrent window loop over a partitioned Simulator: each window's
/// active partitions are executed by a worker pool (distinct partitions
/// on distinct threads), with cross-partition effects staged and applied
/// at the commit barrier. Events, RNG draws, and traces are bit-identical
/// to serial Simulator::run_until over the same deadlines by construction
/// — the engine only changes which thread runs each partition.
class ParallelEngine {
 public:
  explicit ParallelEngine(Simulator& sim, ParallelConfig config = {});
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Counterparts of Simulator::run_until / run.
  std::size_t run_until(Time deadline);
  std::size_t run(std::size_t max_events = 100'000'000);

  int workers() const { return static_cast<int>(threads_.size()); }
  std::uint64_t windows() const { return windows_; }

 private:
  /// Dispatch the current window's partitions to the pool, wait for the
  /// barrier, and rethrow the lowest-partition exception if any worker
  /// threw.
  void execute_window();
  void worker_main();

  Simulator& sim_;
  std::uint64_t windows_ = 0;

  // Generation-stepped barrier pool: execute_window() publishes a new
  // generation with a cursor over the window's partition list; workers
  // race the cursor, the last finisher wakes the engine.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  std::atomic<std::size_t> cursor_{0};
  int pending_ = 0;
  std::exception_ptr error_;
  int error_part_ = -1;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace soda::sim
