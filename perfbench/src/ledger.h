// Measurement plumbing for the soda_perf benchmark: host spans
// recorded around calls into the simulator's layers, per-operation records
// kept by the benchmark's own clients, and a trace-stream ledger that
// stitches each operation's simulated latency into four telescoping parts.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "sim/trace.h"

namespace perfbench {

namespace sim = soda::sim;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process CPU seconds over all threads (user + system).
double process_cpu_s();

/// VmHWM of this process in MiB (0 when unavailable).
double peak_rss_mb();

// ---- host spans -------------------------------------------------------

/// One host-time span. `calls` > 1 marks an aggregate: the summed duration
/// of that many calls made inside the parent span (the window protocol
/// makes tens of thousands of calls per slice, too many to keep one by
/// one).
struct Span {
  std::string name;  // "<layer>.<call>", e.g. "sim.run_until"
  int parent = -1;
  std::int64_t start_ns = 0;  // since the log's epoch
  std::int64_t dur_ns = 0;
  std::uint64_t calls = 1;
  std::uint64_t count = 0;  // work the call reported (events, runs, ...)
};

/// In-memory span log; written out once the run ends. A disabled log
/// records nothing and costs one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  int open(const char* name, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, parent, now_ns(), 0, 1, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, std::uint64_t count = 0) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.dur_ns = now_ns() - s.start_ns;
    s.count = count;
  }
  void aggregate(std::string name, int parent, std::int64_t start_ns,
                 std::int64_t dur_ns, std::uint64_t calls,
                 std::uint64_t count = 0) {
    if (!enabled_ || calls == 0) return;
    spans_.push_back(
        Span{std::move(name), parent, start_ns, dur_ns, calls, count});
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration of every span named `name`.
  double total_s(const std::string& name) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int parent = -1)
      : log_(log), id_(log.open(name, parent)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// ---- operations -------------------------------------------------------

enum class Outcome : std::uint8_t {
  kOk,
  kTimedOut,
  kCrashed,
  kOther,  // UNADVERTISED or REJECTED
  kUnfinished,
};

/// One SODA operation as a benchmark client saw it. t0 is when the client
/// issued it (closed loop) or when it was due (open loop); t4 is when the
/// client resumed with the result.
struct OpRecord {
  int node = -1;
  std::int32_t first_tid = -1;  // TID of the op's first kernel request
  std::int32_t last_tid = -1;   // TID of its last one (multi-request ops)
  sim::Time t0 = 0;
  sim::Time t4 = -1;
  Outcome outcome = Outcome::kUnfinished;
  bool wrong = false;  // finished OK but returned a wrong result
};

/// An op latency split at four trace boundaries: the kernel took the
/// request (t1), the server's kernel delivered it (t2), the server issued
/// its ACCEPT (t3). The parts telescope: they sum to t4 - t0.
struct OpSplit {
  sim::Time t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0;
  bool clamped = false;  // a stamp fell outside [t0, t4] and was clamped

  sim::Duration issue() const { return t1 - t0; }
  sim::Duration transit() const { return t2 - t1; }
  sim::Duration server() const { return t3 - t2; }
  sim::Duration ret() const { return t4 - t3; }
};

/// Trace-stream ledger: per-request stamps keyed by (requester MID, TID)
/// and the layer counts the trace stream carries. Feed it every event.
class TraceLedger {
 public:
  explicit TraceLedger(int nodes = 0) : linked_(nodes, nullptr) {}

  void on_event(const sim::TraceEvent& e);

  /// Closed-loop linking: requests the node issues while `op` is linked
  /// belong to it. Only valid with a synchronous observer (the classic
  /// engine), where the issue event is seen inside the client's call.
  void link(int node, OpRecord* op) {
    linked_[static_cast<std::size_t>(node)] = op;
  }

  OpSplit split(const OpRecord& op) const;

  /// Every request in the stream as its own op, timed from the kernel's
  /// issue to its completion (for runs where no client stamps exist).
  std::vector<OpRecord> requests_as_ops() const;

  std::uint64_t busy_wait_us = 0;  // kRetransmit kBusyRetry backoff sum
  std::uint64_t rto_wait_us = 0;   // kRetransmit kTimeout backoff sum
  std::uint64_t delivered = 0;     // kRequestDelivered
  std::uint64_t shed = 0;          // kOther/kShed
  std::uint64_t crc_dropped = 0;   // kPacketDropped/kCrcDropped
  std::uint64_t probes = 0;        // kProbe/kQuery
  std::uint64_t relay_drops = 0;   // kRelay other than kForwarded/kNoRoute
  std::uint64_t relayed = 0;       // kRelay/kForwarded
  std::uint64_t handlers = 0;      // kHandlerInvoked
  std::array<std::uint64_t, sim::kNumTraceCategories> by_category{};

 private:
  struct Stamps {
    sim::Time issued = -1;
    sim::Time delivered = -1;
    sim::Time accepted = -1;
    sim::Time completed = -1;
    sim::TraceStatus status = sim::TraceStatus::kNone;
  };
  static std::uint64_t key(int node, std::int32_t tid) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node))
            << 32) |
           static_cast<std::uint32_t>(tid);
  }
  const Stamps* find(int node, std::int32_t tid) const;

  std::unordered_map<std::uint64_t, Stamps> req_;
  std::vector<std::uint64_t> order_;  // request keys in issue order
  std::vector<OpRecord*> linked_;
};

// ---- statistics -------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

}  // namespace perfbench
