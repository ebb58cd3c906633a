// The run observer: the one fold every chaos-family driver applies to a
// trace stream. run_scenario and the scale harness feed it live from the
// simulator's trace; the fleet driver feeds it the workers' merged
// streams; tests/test_udp.cc feeds it an in-process real-socket run. Each
// event updates the trace hash, the invariant checkers and the request
// tallies, in that order, so the same events give the same answers
// wherever they came from.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "chaos/invariants.h"
#include "sim/trace.h"

namespace soda::chaos {

struct RunStats {
  std::uint64_t requests_issued = 0;
  std::uint64_t requests_completed = 0;  // terminal events, any status
  std::uint64_t ok_completions = 0;      // terminal status kCompleted
  std::uint64_t crashed_completions = 0;
  std::uint64_t timedout_completions = 0;  // retry budget exhausted
  /// Sequenced frames the Delta-t machinery re-answered from connection
  /// state instead of redelivering (stats::Counter::kDuplicatesSuppressed
  /// summed over all nodes) — one of the protocol statistics the fleet
  /// harness cross-checks between real and simulated runs.
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t frames_duplicated = 0;
  std::uint64_t events = 0;  // trace events recorded
};

/// Pinned-trace-hash epoch. Every chaos run partitions the simulator (by
/// segment, or by node on a single bus) on the single wheel: events pop
/// in global (time, seq) order, each partition draws from its own RNG
/// stream split from the root seed, bus fault draws happen at the
/// receiver, unique ids come from per-serial sequences, and the trace is
/// folded word-wise by hash_event. Epoch 1 was the shared-stream serial
/// engine; epoch 2 walked lookahead windows one partition at a time and
/// folded bytes with FNV-1a. Hashes of different epochs are not
/// comparable, which is why chaos/bench JSONL rows carry this number.
inline constexpr int kHashEpoch = 3;

/// Fold one trace event into the running hash `h`; fold events in order
/// starting from kTraceHashSeed to fingerprint a whole run. Inline: this
/// runs once per trace event inside the observer.
inline constexpr std::uint64_t kTraceHashSeed = 1469598103934665603ull;

namespace detail {

/// One odd multiplier per field, so each field's product is a bijection
/// of the field and equal values in different fields weigh differently.
inline constexpr std::array<std::uint64_t, 10> kFieldMul = {
    0x9E3779B97F4A7C15ull, 0xBF58476D1CE4E5B9ull, 0x94D049BB133111EBull,
    0xC2B2AE3D27D4EB4Full, 0x165667B19E3779F9ull, 0x85EBCA77C2B2AE63ull,
    0x27D4EB2F165667C5ull, 0x9E3779B185EBCA87ull, 0xD6E8FEB86659FD93ull,
    0xFF51AFD7ED558CCDull};
inline constexpr std::uint64_t kChainMul = 0xC4CEB9FE1A85EC53ull;
static_assert(
    [] {
      for (std::uint64_t m : kFieldMul) {
        if ((m & 1) == 0) return false;
      }
      return (kChainMul & 1) == 1;
    }(),
    "every multiplier must be odd, or a step stops being a bijection");

}  // namespace detail

/// Word-wise fold (hash epoch 3): one multiply per 64-bit field. The ten
/// products do not depend on `h`, so they issue in parallel; their sum
/// enters the chain through one xor-multiply-xorshift. Every step is a
/// bijection in each single input, so changing any one field of an event
/// always changes the result, and the non-linear chain makes the result
/// depend on event order.
inline std::uint64_t hash_event(std::uint64_t h, const sim::TraceEvent& e) {
  const std::array<std::uint64_t, 10> fields = {
      static_cast<std::uint64_t>(e.at),
      static_cast<std::uint64_t>(e.category),
      static_cast<std::uint64_t>(static_cast<std::int64_t>(e.node)),
      static_cast<std::uint64_t>(static_cast<std::int64_t>(e.peer)),
      static_cast<std::uint64_t>(static_cast<std::int64_t>(e.tid)),
      static_cast<std::uint64_t>(static_cast<std::int64_t>(e.pattern)),
      static_cast<std::uint64_t>(static_cast<std::int64_t>(e.size)),
      static_cast<std::uint64_t>(e.sections),
      static_cast<std::uint64_t>(e.status),
      static_cast<std::uint64_t>(e.detail_i64(-1))};
  std::uint64_t d = 0;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    d += fields[i] * detail::kFieldMul[i];
  }
  h = (h ^ d) * detail::kChainMul;
  return h ^ (h >> 32);
}

/// Hash, invariants and the trace-derived RunStats fields of one stream.
/// The frame and duplicate-suppression counts come from the medium and
/// the metrics, not the trace, so they stay 0 here.
class RunObserver {
 public:
  explicit RunObserver(InvariantSet invariants = InvariantSet::standard())
      : invariants_(std::move(invariants)) {}
  RunObserver(const RunObserver&) = delete;
  RunObserver& operator=(const RunObserver&) = delete;
  /// Stops observing the trace passed to observe(), if any.
  ~RunObserver() {
    if (trace_ != nullptr) trace_->set_observer(nullptr);
  }

  /// Subscribe to every event `trace` records from now on, until this
  /// observer dies. The trace must outlive it.
  void observe(sim::Trace& trace) {
    trace_ = &trace;
    trace.set_observer([this](const sim::TraceEvent& e) { on_event(e); });
  }

  void on_event(const sim::TraceEvent& e) {
    hash_ = hash_event(hash_, e);
    invariants_.on_event(e);
    ++stats_.events;
    using sim::TraceCategory;
    switch (e.category) {
      case TraceCategory::kRequestIssued:
        ++stats_.requests_issued;
        break;
      case TraceCategory::kRequestDelivered:
        ++stats_.deliveries;
        break;
      case TraceCategory::kRequestCompleted:
        ++stats_.requests_completed;
        if (e.status == sim::TraceStatus::kCompleted) {
          ++stats_.ok_completions;
        } else if (e.status == sim::TraceStatus::kCrashed) {
          ++stats_.crashed_completions;
        } else if (e.status == sim::TraceStatus::kTimedOut) {
          ++stats_.timedout_completions;
        }
        break;
      default:
        break;
    }
  }

  /// Run the quiescence checks once the stream has ended at `end`.
  void finish(sim::Time end) { invariants_.finish(end); }

  std::uint64_t hash() const { return hash_; }
  const RunStats& stats() const { return stats_; }
  std::vector<Violation> violations() const {
    return invariants_.violations();
  }

 private:
  InvariantSet invariants_;
  std::uint64_t hash_ = kTraceHashSeed;
  RunStats stats_;
  sim::Trace* trace_ = nullptr;
};

}  // namespace soda::chaos
