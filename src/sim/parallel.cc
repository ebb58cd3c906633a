#include "sim/parallel.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

namespace soda::sim {

// ---------------------------------------------------------------------------
// TraceFold

std::uint64_t TraceFold::mix(std::uint64_t x) {
  // SplitMix64 finalizer: full-avalanche, 3 multiplies per word.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t TraceFold::fingerprint(const TraceEvent& e) {
  // Same ten fields as chaos::hash_event so the two digests witness the
  // same information, just order-insensitively.
  std::uint64_t h = mix(static_cast<std::uint64_t>(e.at));
  h = mix(h ^ static_cast<std::uint64_t>(e.category));
  h = mix(h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(e.node)));
  h = mix(h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(e.peer)));
  h = mix(h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(e.tid)));
  h = mix(h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(e.pattern)));
  h = mix(h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(e.size)));
  h = mix(h ^ static_cast<std::uint64_t>(e.sections));
  h = mix(h ^ static_cast<std::uint64_t>(e.status));
  h = mix(h ^ static_cast<std::uint64_t>(e.detail_i64(-1)));
  return h;
}

std::uint64_t TraceFold::digest() const {
  std::uint64_t h = mix(sum);
  h = mix(h ^ xr);
  h = mix(h ^ count);
  return h;
}

// ---------------------------------------------------------------------------
// AsyncTraceSink

AsyncTraceSink::AsyncTraceSink(TraceObserver downstream, Options options)
    : downstream_(std::move(downstream)), opt_(options) {
  if (opt_.chunk_events == 0) opt_.chunk_events = 1;
  if (opt_.max_pending_chunks == 0) opt_.max_pending_chunks = 1;
  if (opt_.fold_workers < 0) opt_.fold_workers = 0;
  current_.reserve(opt_.chunk_events);
  worker_folds_.resize(1 + static_cast<std::size_t>(opt_.fold_workers));
  consumer_ = std::thread([this] { consumer_main(); });
  for (int w = 0; w < opt_.fold_workers; ++w) {
    fold_threads_.emplace_back([this, w] { fold_main(w); });
  }
}

AsyncTraceSink::~AsyncTraceSink() {
  flush();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  consumer_.join();
  for (auto& t : fold_threads_) t.join();
}

void AsyncTraceSink::on_event(const TraceEvent& e) {
  current_.push_back(e);
  if (current_.size() >= opt_.chunk_events) emit_chunk();
}

void AsyncTraceSink::emit_chunk() {
  if (current_.empty()) return;
  auto chunk = std::make_shared<Chunk>(std::move(current_));
  current_ = Chunk();
  current_.reserve(opt_.chunk_events);
  const bool fold_separately = opt_.fold_enabled && opt_.fold_workers > 0;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_producer_.wait(lk, [this] {
      return consumer_q_.size() < opt_.max_pending_chunks;
    });
    consumer_q_.push_back(chunk);
    // Each chunk counts once per queue it enters; in_flight_ reaching zero
    // means both the ordered replay and the fold saw everything.
    in_flight_ += fold_separately ? 2 : 1;
    if (fold_separately) fold_q_.push_back(std::move(chunk));
  }
  cv_work_.notify_all();
  ++chunks_emitted_;
}

void AsyncTraceSink::consumer_main() {
  for (;;) {
    ChunkRef chunk;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [this] { return stop_ || !consumer_q_.empty(); });
      if (consumer_q_.empty()) return;  // stop_ and drained
      chunk = std::move(consumer_q_.front());
      consumer_q_.pop_front();
    }
    cv_producer_.notify_one();
    const bool fold_here = opt_.fold_enabled && opt_.fold_workers == 0;
    for (const TraceEvent& e : *chunk) {
      if (downstream_) downstream_(e);
      if (fold_here) worker_folds_[0].add(e);
    }
    std::lock_guard<std::mutex> lk(mu_);
    if (--in_flight_ == 0) cv_producer_.notify_all();
  }
}

void AsyncTraceSink::fold_main(int worker) {
  TraceFold& fold = worker_folds_[static_cast<std::size_t>(worker) + 1];
  for (;;) {
    ChunkRef chunk;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [this] { return stop_ || !fold_q_.empty(); });
      if (fold_q_.empty()) return;
      chunk = std::move(fold_q_.front());
      fold_q_.pop_front();
    }
    for (const TraceEvent& e : *chunk) fold.add(e);
    std::lock_guard<std::mutex> lk(mu_);
    if (--in_flight_ == 0) cv_producer_.notify_all();
  }
}

void AsyncTraceSink::flush() {
  emit_chunk();
  std::unique_lock<std::mutex> lk(mu_);
  cv_producer_.wait(lk, [this] { return in_flight_ == 0; });
}

TraceFold AsyncTraceSink::combined_fold() {
  flush();
  // Partials are merged in worker-index order. The fold is commutative so
  // any order gives the same digest — the fixed order is belt-and-braces
  // (and what makes the determinism test meaningful rather than vacuous).
  TraceFold total;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const TraceFold& f : worker_folds_) total.merge(f);
  }
  return total;
}

// ---------------------------------------------------------------------------
// ParallelEngine

ParallelEngine::ParallelEngine(Simulator& sim, ParallelConfig config)
    : sim_(sim) {
  // A single-wheel simulator is partitioned but has no windows to hand
  // out; refuse it instead of spinning on begin_window.
  if (sim_.partitioned() && !sim_.windowed()) {
    throw std::logic_error(
        "ParallelEngine needs PartitionMode::kWindowed partitions");
  }
  if (config.lookahead > 0) sim_.set_lookahead(config.lookahead);
  int n = config.workers;
  if (n <= 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0) n = 1;
  }
  n = std::min(n, sim_.partition_count());
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this] { worker_main(); });
  }
}

ParallelEngine::~ParallelEngine() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void ParallelEngine::worker_main() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    // Race the cursor over this window's active-partition list. Each
    // claimed partition's execution touches only partition-local state
    // (wheel, RNG stream, live map, staging list, trace buffer) — the
    // epoch-2 independence that makes this loop safe.
    const std::vector<int>& parts = sim_.window_partitions();
    for (;;) {
      const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
      if (i >= parts.size()) break;
      const int p = parts[i];
      try {
        sim_.execute_partition_window(p);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        if (error_part_ < 0 || p < error_part_) {
          error_part_ = p;
          error_ = std::current_exception();
        }
      }
    }
    std::lock_guard<std::mutex> lk(mu_);
    if (--pending_ == 0) cv_done_.notify_one();
  }
}

void ParallelEngine::execute_window() {
  ++windows_;
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cursor_.store(0, std::memory_order_relaxed);
    pending_ = static_cast<int>(threads_.size());
    ++generation_;
    cv_work_.notify_all();
    cv_done_.wait(lk, [this] { return pending_ == 0; });
    // Several workers may have thrown; surface the lowest partition's
    // exception so failures are deterministic too.
    error = std::exchange(error_, nullptr);
    error_part_ = -1;
  }
  if (error) std::rethrow_exception(error);
}

std::size_t ParallelEngine::run_until(Time deadline) {
  if (!sim_.windowed()) return sim_.run_until(deadline);
  std::size_t n = 0;
  while (sim_.begin_window(deadline)) {
    execute_window();
    n += sim_.commit_window();
  }
  sim_.run_until(deadline);  // advance the clock even when idle
  return n;
}

std::size_t ParallelEngine::run(std::size_t max_events) {
  if (!sim_.windowed()) return sim_.run(max_events);
  constexpr Time kNever = std::numeric_limits<Time>::max();
  std::size_t n = 0;
  while (sim_.begin_window(kNever)) {
    execute_window();
    n += sim_.commit_window();
    if (n > max_events) throw std::runtime_error("simulation runaway");
  }
  return n;
}

}  // namespace soda::sim
