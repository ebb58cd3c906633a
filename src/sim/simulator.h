// The discrete-event simulator that stands in for the paper's testbed of
// eight bare PDP-11/23s on a 1 Mbit broadcast bus (§5.1).
//
// All components (bus, NICs, SODA kernels, clients) share one Simulator:
// they read the clock, schedule callbacks, draw randomness, and record
// traces through it. Running the simulator to quiescence executes the
// whole distributed system deterministically.
//
// Partitioned modes (doc/PERFORMANCE.md §3, §5). enable_partitions(P)
// gives every component a partition id; each partition owns a private RNG
// stream split from the root seed (Rng(seed, p)). Two execution modes:
//
// * kSingleWheel (hash epoch 3, every chaos run): all events live on the
//   one classic wheel, each cell tagged with its partition, and pop in
//   global (time, seq) order. Running an event makes its partition the
//   ambient one, so rng() returns that partition's stream and the events
//   it schedules inherit its partition.
//
// * kWindowed (the scale harness's windowed and concurrent rows): P
//   private timer wheels, each with its own local sequence counter and
//   trace buffer, executed in lookahead windows:
//
//   begin_window(deadline)   place the window at the earliest pending
//                            event; collect the partitions with work in it
//   execute_partition_window(p)
//                            run partition p's events inside the window —
//                            independent per partition (own wheel, own RNG,
//                            own clock, own trace buffer), so distinct
//                            partitions may run on distinct threads
//   commit_window()          barrier: apply cross-partition schedules and
//                            cancels staged during the window in ascending
//                            source-partition order, merge the window's
//                            trace buffers by (time, partition), advance
//                            the global clock
//
//   Cross-partition schedules/cancels issued *inside* a window are the
//   only inter-wheel writes; they are staged per source partition and
//   applied at the barrier, so the result is a pure function of
//   (scenario, seed, lookahead, run_until deadlines) regardless of how
//   partitions interleave on threads. Serial windowed execution
//   (run_until/run on this class) walks the same protocol one partition
//   at a time and is the reference sim::ParallelEngine must match
//   bit-identically.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/time.h"
#include "sim/trace.h"
#include "stats/metrics.h"

namespace soda::sim {

/// How a partitioned Simulator executes (see the file comment).
enum class PartitionMode { kWindowed, kSingleWheel };

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : seed_(seed), rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const {
    const ExecTls& t = exec_tls();
    return t.sim == this ? t.now : now_;
  }

  /// The RNG stream for the ambient partition: the root stream on an
  /// unpartitioned simulator, the partition-affine split stream otherwise.
  /// While an event runs, its callback may only draw from the stream of
  /// the partition it executes on — that independence is the contract
  /// that lets windowed partitions run concurrently, and the single wheel
  /// keeps it so both modes give every partition the same draws.
  Rng& rng() {
    if (part_ == nullptr) {
      if (streams_.empty()) return rng_;
      assert((executing_ < 0 || current_ == executing_) &&
             "RNG draw under a foreign ScopedPartition during execution");
      return streams_[static_cast<std::size_t>(current_)];
    }
    const ExecTls& t = exec_tls();
    if (t.sim == this) {
      assert(t.current == t.executing &&
             "RNG draw under a foreign ScopedPartition during execution");
      return part_->parts[static_cast<std::size_t>(t.current)].rng;
    }
    return part_->parts[static_cast<std::size_t>(part_->current)].rng;
  }

  Trace& trace() { return trace_; }
  stats::MetricsHub& metrics() { return metrics_; }
  const stats::MetricsHub& metrics() const { return metrics_; }

  /// Split the engine into `count` partitions, executed as `mode` says.
  /// Must be called before anything is scheduled — every partition's RNG
  /// stream and sequence space exist from birth.
  void enable_partitions(int count,
                         PartitionMode mode = PartitionMode::kWindowed) {
    if (count < 1) throw std::logic_error("partition count must be >= 1");
    if (partitioned()) throw std::logic_error("partitions already enabled");
    if (queue_.scheduled_total() != 0) {
      throw std::logic_error("enable_partitions after events were scheduled");
    }
    if (mode == PartitionMode::kSingleWheel) {
      for (int p = 0; p < count; ++p) {
        streams_.emplace_back(seed_, static_cast<std::uint64_t>(p));
      }
      return;
    }
    part_ = std::make_unique<Partitioned>();
    part_->parts = std::vector<Part>(static_cast<std::size_t>(count));
    for (int p = 0; p < count; ++p) {
      part_->parts[static_cast<std::size_t>(p)].rng =
          Rng(seed_, static_cast<std::uint64_t>(p));
    }
  }

  bool partitioned() const { return part_ != nullptr || !streams_.empty(); }
  /// True in PartitionMode::kWindowed, the only mode the window protocol
  /// and sim::ParallelEngine run on.
  bool windowed() const { return part_ != nullptr; }
  int partition_count() const {
    if (part_ != nullptr) return static_cast<int>(part_->parts.size());
    return streams_.empty() ? 1 : static_cast<int>(streams_.size());
  }

  /// Ambient partition for newly scheduled events. Defaults to the
  /// partition of the currently executing callback (events inherit their
  /// executor's partition); topology code pins it with ScopedPartition
  /// while constructing nodes or addressing another component's partition.
  /// Outside run_until/run it is whatever was set before the run.
  int current_partition() const {
    if (part_ == nullptr) return current_;
    const ExecTls& t = exec_tls();
    return t.sim == this ? t.current : part_->current;
  }
  void set_current_partition(int p) {
    if (!partitioned()) return;
    assert(p >= 0 && p < partition_count());
    if (part_ == nullptr) {
      current_ = p;
      return;
    }
    ExecTls& t = exec_tls();
    if (t.sim == this) {
      t.current = p;
    } else {
      part_->current = p;
    }
  }

  /// Conservative lookahead: the minimum cross-partition latency the
  /// topology guarantees (min bus propagation delay, gateway hold time).
  /// In windowed mode this is also the execution window width, so it is part
  /// of the determinism contract: same lookahead (and same run_until
  /// deadlines) => same window boundaries => same staged-op application
  /// order. A cross-partition schedule closer than the lookahead is
  /// counted as a violation and lands — deterministically — at the next
  /// window boundary instead of its nominal time (bounded-late delivery).
  void set_lookahead(Duration d) {
    if (part_ != nullptr) part_->lookahead = d;
  }
  Duration lookahead() const { return part_ == nullptr ? 0 : part_->lookahead; }
  std::uint64_t lookahead_violations() const {
    if (part_ == nullptr) return 0;
    std::uint64_t v = 0;
    for (const Part& p : part_->parts) v += p.violations;
    return v;
  }

  /// Schedule `fn` to run `delay` microseconds from now. Callables whose
  /// captures fit EventFn::kInlineBytes are stored without allocating.
  template <typename F>
  EventId after(Duration delay, F&& fn) {
    assert(delay >= 0);
    return schedule_abs(now() + delay, delay, std::forward<F>(fn));
  }

  /// Schedule `fn` at an absolute simulated time (must be >= now()).
  template <typename F>
  EventId at(Time when, F&& fn) {
    const Time base = now();
    if (when < base) throw std::logic_error("scheduling into the past");
    return schedule_abs(when, when - base, std::forward<F>(fn));
  }

  void cancel(EventId id) {
    if (part_ == nullptr) {
      queue_.cancel(id);
      return;
    }
    if (id == 0) return;  // default-initialized / staged-schedule sentinel
    const int target = static_cast<int>(id >> kPartShift) - 1;
    const std::uint64_t lseq = id & kLseqMask;
    if (target < 0 || target >= partition_count()) return;
    ExecTls& t = exec_tls();
    if (t.sim == this && target != t.executing) {
      // Cross-partition cancel from inside a window: the target wheel may
      // be executing on another thread, so stage it for the barrier. If
      // the event fires within this same window the cancel arrives too
      // late — identically so in serial and concurrent execution.
      Part& src = part_->parts[static_cast<std::size_t>(t.executing)];
      StagedOp op;
      op.cancel = true;
      op.target = target;
      op.lseq = lseq;
      src.staged.push_back(std::move(op));
      return;
    }
    apply_cancel(target, lseq);
  }

  /// Run events until the queue drains or `deadline` is reached (whichever
  /// first). Returns the number of events executed.
  std::size_t run_until(Time deadline) {
    std::size_t n = 0;
    if (part_ == nullptr) {
      const AmbientRestore restore(*this);
      while (!queue_.empty() && queue_.next_time() <= deadline) {
        step();
        ++n;
      }
    } else {
      while (begin_window(deadline)) {
        for (int p : part_->active) execute_partition_window(p);
        n += commit_window();
      }
    }
    if (now_ < deadline) now_ = deadline;
    return n;
  }

  /// Run until the event queue is empty. Guards against runaway protocols
  /// with an event-count limit.
  std::size_t run(std::size_t max_events = 100'000'000) {
    std::size_t n = 0;
    if (part_ == nullptr) {
      const AmbientRestore restore(*this);
      while (!queue_.empty()) {
        step();
        if (++n > max_events) throw std::runtime_error("simulation runaway");
      }
    } else {
      while (begin_window(kNever)) {
        for (int p : part_->active) execute_partition_window(p);
        n += commit_window();
        if (n > max_events) throw std::runtime_error("simulation runaway");
      }
    }
    return n;
  }

  bool idle() const {
    if (part_ == nullptr) return queue_.empty();
    for (const Part& p : part_->parts) {
      if (!p.live.empty()) return false;
    }
    return true;
  }

  /// Earliest pending event time across all partitions (nullopt when
  /// idle). This is where the next window will be placed.
  std::optional<Time> next_event_time() {
    if (part_ == nullptr) {
      if (queue_.empty()) return std::nullopt;
      return queue_.next_time();
    }
    Partitioned& ps = *part_;
    while (!ps.heap.empty()) {
      const HeapEntry top = ps.heap.front();
      if (ps.parts[static_cast<std::size_t>(top.part)].next_cache == top.at) {
        return top.at;
      }
      std::pop_heap(ps.heap.begin(), ps.heap.end(), heap_after);
      ps.heap.pop_back();
    }
    return std::nullopt;
  }

  // ---- The window protocol (PartitionMode::kWindowed) -------------------
  //
  // run_until/run above drive these three steps serially; ParallelEngine
  // drives step 2 concurrently (distinct partitions on distinct threads).

  /// Place the next execution window: start at the earliest pending event,
  /// extend by max(lookahead, 1) (truncated at `deadline`), and collect
  /// every partition with events inside it. Returns false when nothing is
  /// pending at or before `deadline`.
  bool begin_window(Time deadline) {
    if (part_ == nullptr) {
      throw std::logic_error("begin_window needs PartitionMode::kWindowed");
    }
    Partitioned& ps = *part_;
    assert(!ps.in_window && ps.active.empty());
    const std::optional<Time> start = next_event_time();
    if (!start || *start > deadline) return false;
    const Duration width = std::max<Duration>(ps.lookahead, 1);
    const Time we =
        deadline - *start > width - 1 ? *start + width - 1 : deadline;
    while (!ps.heap.empty()) {
      const HeapEntry top = ps.heap.front();
      if (top.at > we) break;
      std::pop_heap(ps.heap.begin(), ps.heap.end(), heap_after);
      ps.heap.pop_back();
      Part& p = ps.parts[static_cast<std::size_t>(top.part)];
      if (p.next_cache != top.at || p.in_window) continue;  // stale / dup
      p.in_window = true;
      ps.active.push_back(top.part);
    }
    std::sort(ps.active.begin(), ps.active.end());
    ps.window_end = we;
    ps.in_window = true;
    return true;
  }

  /// Partitions collected by begin_window, ascending. Valid until the
  /// matching commit_window.
  const std::vector<int>& window_partitions() const { return part_->active; }

  /// Time the current window closes at (valid between begin_window and
  /// commit_window).
  Time window_end() const { return part_->window_end; }

  /// Execute partition `p`'s events inside the current window, in (time,
  /// local seq) order. Touches only partition-local state (wheel, RNG
  /// stream, live map, staging list, trace buffer), so distinct partitions
  /// may execute concurrently. Same-partition schedules apply immediately
  /// (and run in this window if they land inside it); cross-partition
  /// schedules and cancels are staged for commit_window.
  void execute_partition_window(int part) {
    Partitioned& ps = *part_;
    Part& p = ps.parts[static_cast<std::size_t>(part)];
    const Time we = ps.window_end;
    ExecTls& t = exec_tls();
    t.sim = this;
    t.executing = part;
    t.current = part;
    t.now = now_;
    Trace::set_thread_buffer(&p.buffer);
    std::size_t n = 0;
    try {
      while (!p.queue.empty() && p.queue.next_time() <= we) {
        EventQueue::KeyedEvent ev = p.queue.pop_keyed();
        p.live.erase(ev.seq);
        t.now = ev.at;
        t.current = part;  // events inherit their executor's wheel
        ev.fn();
        ++n;
      }
    } catch (...) {
      // Leave the thread reusable (the engine rethrows at the barrier);
      // the simulation itself is not resumable after a throwing callback.
      Trace::set_thread_buffer(nullptr);
      t.sim = nullptr;
      t.executing = -1;
      throw;
    }
    p.executed_window = n;
    p.next_cache = p.queue.empty() ? kNever : p.queue.next_time();
    Trace::set_thread_buffer(nullptr);
    t.sim = nullptr;
    t.executing = -1;
  }

  /// Window barrier. Applies the staged cross-partition operations in
  /// ascending source-partition order (then staging order — exactly the
  /// order serial execution produces them in), stable-merges the window's
  /// per-partition trace buffers by (time, partition) into the real trace
  /// sink, refreshes the window heap, and advances the clock to the
  /// window end. Returns the number of events executed in the window.
  std::size_t commit_window() {
    Partitioned& ps = *part_;
    assert(ps.in_window);
    const Time we = ps.window_end;
    std::size_t executed = 0;
    for (int part : ps.active) {
      Part& p = ps.parts[static_cast<std::size_t>(part)];
      executed += p.executed_window;
      p.executed_window = 0;
      for (StagedOp& op : p.staged) {
        if (op.cancel) {
          apply_cancel(op.target, op.lseq);
        } else {
          // A staged schedule aimed inside the closing window (a lookahead
          // violation) lands at the next window boundary instead — late by
          // less than one window, and deterministically so.
          apply_schedule(op.target, std::max(op.when, we + 1),
                         std::move(op.fn));
        }
      }
      p.staged.clear();
    }
    commit_traces();
    for (int part : ps.active) {
      Part& p = ps.parts[static_cast<std::size_t>(part)];
      p.in_window = false;
      if (p.next_cache != kNever) heap_push(p.next_cache, part);
    }
    ps.active.clear();
    ps.in_window = false;
    now_ = we;
    return executed;
  }

  // ----------------------------------------------------------------------

  /// Lifetime scheduling totals (see EventQueue) — the bench harness uses
  /// these as a deterministic proxy for timer-bookkeeping cost.
  std::uint64_t events_scheduled() const {
    if (part_ == nullptr) return queue_.scheduled_total();
    std::uint64_t n = 0;
    for (const Part& p : part_->parts) n += p.lseq_next;
    return n;
  }
  std::uint64_t events_cancelled() const {
    if (part_ == nullptr) return queue_.cancelled_total();
    std::uint64_t n = 0;
    for (const Part& p : part_->parts) n += p.cancelled;
    return n;
  }

 private:
  static constexpr Time kNever = std::numeric_limits<Time>::max();
  static constexpr int kPartShift = 40;
  static constexpr EventId kLseqMask = (EventId{1} << kPartShift) - 1;

  /// A cross-partition operation issued while a window executes, applied
  /// at the barrier.
  struct StagedOp {
    bool cancel = false;
    int target = 0;
    Time when = 0;        // schedule: absolute target time
    std::uint64_t lseq = 0;  // cancel: target-partition local seq
    EventFn fn;           // schedule payload
  };

  /// Per-partition execution state. Everything here is owned by at most
  /// one thread at a time: the executing worker during a window, the
  /// committing thread at the barrier. Cache-line aligned so two workers'
  /// hot counters never share a line.
  struct alignas(64) Part {
    EventQueue queue;
    Rng rng{0};
    std::uint64_t lseq_next = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t violations = 0;
    std::unordered_map<std::uint64_t, EventId> live;  // lseq -> wheel id
    std::vector<StagedOp> staged;
    std::vector<TraceEvent> buffer;  // window trace buffer
    std::size_t executed_window = 0;
    Time next_cache = kNever;  // earliest pending time (may be stale-early
                               // after a head cancel; self-heals next window)
    bool in_window = false;
  };

  /// Lazy min-heap entry over partition head times; an entry is valid iff
  /// it still equals its partition's next_cache.
  struct HeapEntry {
    Time at;
    int part;
  };
  static bool heap_after(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.part > b.part;
  }

  struct Partitioned {
    std::vector<Part> parts;
    std::vector<HeapEntry> heap;  // lazy min-heap of partition heads
    std::vector<int> active;      // partitions in the current window
    Duration lookahead = 0;
    Time window_end = 0;
    bool in_window = false;
    int current = 0;  // ambient partition outside window execution
  };

  /// Thread-local execution context: non-null `sim` while this thread is
  /// inside execute_partition_window for that simulator. Keeps the clock,
  /// ambient partition, and executing partition off shared state so
  /// workers never write each other's lines (and so concurrent seed-sweep
  /// threads, each with their own Simulator, stay independent).
  struct ExecTls {
    const Simulator* sim = nullptr;
    int current = 0;
    int executing = -1;
    Time now = 0;
  };
  static ExecTls& exec_tls() {
    static thread_local ExecTls t;
    return t;
  }

  static EventId outer_id(int part, std::uint64_t lseq) {
    assert(lseq <= kLseqMask);
    return (static_cast<EventId>(part + 1) << kPartShift) | lseq;
  }

  void heap_push(Time at, int part) {
    Partitioned& ps = *part_;
    ps.heap.push_back(HeapEntry{at, part});
    std::push_heap(ps.heap.begin(), ps.heap.end(), heap_after);
  }

  template <typename F>
  EventId schedule_abs(Time when, Duration delay, F&& fn) {
    if (part_ == nullptr) {
      return queue_.schedule(when, std::forward<F>(fn),
                             static_cast<std::uint32_t>(current_));
    }
    ExecTls& t = exec_tls();
    if (t.sim == this) {
      const int target = t.current;
      if (target == t.executing) {
        // Same-partition: apply directly. No heap push — the partition is
        // active in this window and commit_window re-pushes its head.
        return apply_schedule_local(target, when, std::forward<F>(fn));
      }
      // Cross-partition from inside a window: stage for the barrier. The
      // returned id is 0 — the event cannot be cancelled until it has
      // materialized in the target wheel (after the next barrier).
      Part& src = part_->parts[static_cast<std::size_t>(t.executing)];
      if (delay < part_->lookahead) ++src.violations;
      StagedOp op;
      op.target = target;
      op.when = when;
      op.fn = std::forward<F>(fn);
      src.staged.push_back(std::move(op));
      return 0;
    }
    return apply_schedule(part_->current, when, std::forward<F>(fn));
  }

  /// Insert into the target wheel and update its head cache. Only valid
  /// when the caller owns the target partition (the committing thread, or
  /// code outside any window).
  template <typename F>
  EventId apply_schedule(int target, Time when, F&& fn) {
    const EventId id = apply_schedule_local(target, when, std::forward<F>(fn));
    Part& p = part_->parts[static_cast<std::size_t>(target)];
    // The heap needs an entry matching the (possibly improved) head.
    if (p.next_cache == when && !p.in_window) heap_push(when, target);
    return id;
  }

  template <typename F>
  EventId apply_schedule_local(int target, Time when, F&& fn) {
    Part& p = part_->parts[static_cast<std::size_t>(target)];
    const std::uint64_t lseq = p.lseq_next++;
    const EventId inner =
        p.queue.schedule_tagged(when, lseq, std::forward<F>(fn));
    p.live.emplace(lseq, inner);
    if (when < p.next_cache) p.next_cache = when;
    return outer_id(target, lseq);
  }

  void apply_cancel(int target, std::uint64_t lseq) {
    Part& p = part_->parts[static_cast<std::size_t>(target)];
    auto it = p.live.find(lseq);
    if (it == p.live.end()) return;  // already fired or cancelled
    p.queue.cancel(it->second);
    p.live.erase(it);
    ++p.cancelled;
  }

  /// Stable-merge the window's per-partition trace buffers by (time,
  /// partition) — each buffer is time-ordered already, and concatenating
  /// in ascending partition order before a stable sort on time yields the
  /// canonical epoch-2 commit order — then replay through the real sink
  /// (observer, retention, counters).
  void commit_traces() {
    Partitioned& ps = *part_;
    std::vector<TraceEvent>* only = nullptr;
    std::size_t total = 0;
    for (int part : ps.active) {
      Part& p = ps.parts[static_cast<std::size_t>(part)];
      if (p.buffer.empty()) continue;
      total += p.buffer.size();
      only = &p.buffer;
    }
    if (total == 0) return;
    if (only != nullptr && only->size() == total) {
      for (const TraceEvent& e : *only) trace_.commit(e);
      only->clear();
      return;
    }
    merged_.clear();
    merged_.reserve(total);
    for (int part : ps.active) {
      Part& p = ps.parts[static_cast<std::size_t>(part)];
      merged_.insert(merged_.end(), p.buffer.begin(), p.buffer.end());
      p.buffer.clear();
    }
    std::stable_sort(
        merged_.begin(), merged_.end(),
        [](const TraceEvent& a, const TraceEvent& b) { return a.at < b.at; });
    for (const TraceEvent& e : merged_) trace_.commit(e);
  }

  /// Pop and run the earliest event of the one wheel. Its partition tag
  /// becomes the ambient and the executing partition (always 0 when
  /// unpartitioned).
  void step() {
    EventQueue::KeyedEvent ev = queue_.pop_keyed();
    assert(ev.at >= now_);
    now_ = ev.at;
    current_ = executing_ = static_cast<int>(ev.part);
    ev.fn();
  }

  /// Restores the ambient partition set before a single-wheel run and
  /// marks no partition as executing once the run returns or throws.
  class AmbientRestore {
   public:
    explicit AmbientRestore(Simulator& sim)
        : sim_(sim), saved_(sim.current_) {}
    ~AmbientRestore() {
      sim_.current_ = saved_;
      sim_.executing_ = -1;
    }
    AmbientRestore(const AmbientRestore&) = delete;
    AmbientRestore& operator=(const AmbientRestore&) = delete;

   private:
    Simulator& sim_;
    int saved_;
  };

  std::uint64_t seed_;
  Time now_ = 0;
  EventQueue queue_;
  Rng rng_;
  Trace trace_;
  stats::MetricsHub metrics_;
  // Single-wheel mode: one stream per partition (empty otherwise), the
  // ambient partition, and the partition of the running event (-1
  // outside run_until/run). Unpartitioned, current_ stays 0.
  std::vector<Rng> streams_;
  int current_ = 0;
  int executing_ = -1;
  // Windowed mode.
  std::unique_ptr<Partitioned> part_;
  std::vector<TraceEvent> merged_;  // commit_traces scratch
};

/// Pin the ambient partition for the current scope: topology constructors
/// (node roots) and fault injectors wrap themselves in one so events land
/// on the wheel of the component that owns them. A no-op on an
/// unpartitioned simulator.
class ScopedPartition {
 public:
  ScopedPartition(Simulator& sim, int partition)
      : sim_(sim), saved_(sim.current_partition()) {
    sim_.set_current_partition(partition);
  }
  ~ScopedPartition() { sim_.set_current_partition(saved_); }
  ScopedPartition(const ScopedPartition&) = delete;
  ScopedPartition& operator=(const ScopedPartition&) = delete;

 private:
  Simulator& sim_;
  int saved_;
};

}  // namespace soda::sim
