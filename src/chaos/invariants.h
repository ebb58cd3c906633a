// Online invariant checkers over the typed TraceEvent stream.
//
// Each Invariant subscribes (through InvariantSet, installed as the
// sim::Trace observer) to every event a chaos run records and asserts an
// end-to-end protocol property while the simulation executes; finish()
// runs the quiescence checks once the network has drained. The properties
// come from the paper's crash semantics (§3.6, §6) read through the
// failure-model taxonomy of Aspnes' distributed-systems notes: what must
// hold no matter which prefix of messages is lost, duplicated, delayed,
// or cut by a crash.
//
// A Violation is evidence, not an exception: checkers collect up to a cap
// and the runner reports them with the (scenario, seed) pair that
// reproduces the trace bit-identically.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/trace.h"

namespace soda::chaos {

struct Violation {
  std::string invariant;
  sim::Time at = 0;
  std::string detail;
};

class Invariant {
 public:
  virtual ~Invariant() = default;
  virtual std::string_view name() const = 0;
  virtual void on_event(const sim::TraceEvent& e) = 0;
  /// Bitmask of TraceCategory values this checker wants to see (bit
  /// `1 << category`). InvariantSet uses it to skip the virtual on_event
  /// call for the categories a checker ignores — packet events dominate a
  /// trace stream and most checkers only watch request/boot milestones.
  /// Default: everything (always safe; merely slower).
  virtual std::uint64_t category_mask() const { return ~0ull; }
  /// Called once after the run has quiesced (network drained, no load).
  virtual void finish(sim::Time end) { (void)end; }

  const std::vector<Violation>& violations() const { return violations_; }

 protected:
  void fail(sim::Time at, std::string detail) {
    if (violations_.size() >= kMaxViolations) return;
    violations_.push_back(Violation{std::string(name()), at,
                                    std::move(detail)});
  }
  static constexpr std::size_t kMaxViolations = 16;

  static constexpr std::uint64_t cat_bit(sim::TraceCategory c) {
    return 1ull << static_cast<unsigned>(c);
  }

 private:
  std::vector<Violation> violations_;
};

/// Per-MID checker state in a dense vector indexed by MID + 1, so the
/// "n/a" MID -1 is slot 0. MIDs outside [-1, kDenseMids - 1) -- no shipped
/// topology has one -- live in a side vector sorted by MID. operator[]
/// creates a default entry; find() never grows the table.
template <typename T>
class MidTable {
 public:
  T& operator[](int mid) {
    const std::uint64_t i = slot(mid);
    if (i < dense_.size()) return dense_[i];
    if (i < kDenseMids) {
      dense_.resize(i + 1);
      return dense_[i];
    }
    auto it = sparse_lower_bound(mid);
    if (it == sparse_.end() || it->first != mid) {
      it = sparse_.emplace(it, mid, T{});
    }
    return it->second;
  }

  T* find(int mid) {
    const std::uint64_t i = slot(mid);
    if (i < dense_.size()) return &dense_[i];
    if (i < kDenseMids) return nullptr;
    auto it = sparse_lower_bound(mid);
    return it != sparse_.end() && it->first == mid ? &it->second : nullptr;
  }

  /// Visits every entry in ascending MID order.
  template <typename F>
  void for_each(F&& f) {
    auto it = sparse_.begin();
    for (; it != sparse_.end() && it->first < -1; ++it) {
      f(it->first, it->second);
    }
    for (std::size_t i = 0; i < dense_.size(); ++i) {
      f(static_cast<int>(i) - 1, dense_[i]);
    }
    for (; it != sparse_.end(); ++it) f(it->first, it->second);
  }

 private:
  static constexpr std::uint64_t kDenseMids = 1u << 16;

  static std::uint64_t slot(int mid) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(mid) + 1);
  }
  typename std::vector<std::pair<int, T>>::iterator sparse_lower_bound(
      int mid) {
    return std::lower_bound(
        sparse_.begin(), sparse_.end(), mid,
        [](const std::pair<int, T>& e, int m) { return e.first < m; });
  }

  std::vector<T> dense_;
  std::vector<std::pair<int, T>> sparse_;
};

// The checkers below rely on the kernel's TID contract
// (src/core/kernel.h, next_tid_): one MID issues strictly increasing TIDs,
// across reboots too, and every issued TID is traced. So a per-node
// watermark stands in for the set of every TID the node ever issued.

/// Every REQUEST issued by a live incarnation terminates in exactly one of
/// COMPLETED / CANCELLED / CRASHED / UNADVERTISED — never zero (after
/// quiescence) and never twice. Requests whose issuer died are forgiven:
/// a crash wipes the requester's pending table by design (§3.6.1).
class ExactlyOnceTermination final : public Invariant {
 public:
  std::string_view name() const override { return "exactly-once-termination"; }
  void on_event(const sim::TraceEvent& e) override;
  std::uint64_t category_mask() const override {
    return cat_bit(sim::TraceCategory::kBoot) |
           cat_bit(sim::TraceCategory::kRequestIssued) |
           cat_bit(sim::TraceCategory::kRequestCompleted);
  }
  void finish(sim::Time end) override;

 private:
  struct Issuer {
    // Issued TIDs span [first, last]; a TID in that span and not open has
    // terminated (or was forgiven by a death).
    std::int64_t first = INT64_MAX;
    std::int64_t last = INT64_MIN;
    std::vector<std::int32_t> open;  // at most MAXREQUESTS in a live kernel
  };
  MidTable<Issuer> issuers_;
};

/// A REQUEST is handed to the server's client at most once per (server
/// incarnation, requester incarnation): the alternating-bit + Delta-t
/// machinery must reject every duplicate the bus injects. Redelivery to a
/// *new* server incarnation after a reboot is legal (§3.6.2) — the
/// requester's kernel still holds the request and retransmits it.
class AtMostOnceDelivery final : public Invariant {
 public:
  std::string_view name() const override { return "at-most-once-delivery"; }
  void on_event(const sim::TraceEvent& e) override;
  std::uint64_t category_mask() const override {
    return cat_bit(sim::TraceCategory::kBoot) |
           cat_bit(sim::TraceCategory::kRequestDelivered);
  }

 private:
  struct Key {
    std::int32_t server, requester, tid, server_epoch, requester_epoch;
    bool operator==(const Key&) const = default;
  };
  /// Inserts `k` into delivered_; false when it was already there.
  bool insert(const Key& k);
  void grow();

  MidTable<int> deaths_;  // node -> incarnation epoch
  // Every (server, requester, tid, epochs) delivered, in an insert-only
  // open-addressing table (linear probing, power-of-two size, at most
  // three-quarters full; server_epoch -1 marks an empty slot). Entries are
  // never retired: a delayed duplicate can land after its request
  // completed.
  std::vector<Key> delivered_;
  std::size_t delivered_count_ = 0;
};

/// No ACCEPT of a pre-reboot request succeeds once the requester's *new*
/// incarnation is up: old TIDs must be rejected by the stale-accept check
/// (§6, boot_min_tid) — a success would hand data to a ghost. An accept
/// that completes while the requester is merely dead (or never reboots) is
/// legal: the server cannot know yet, and piggybacked request data lets it
/// finish without ever hearing from the requester again.
class NoStaleAccept final : public Invariant {
 public:
  std::string_view name() const override { return "no-stale-accept"; }
  void on_event(const sim::TraceEvent& e) override;
  std::uint64_t category_mask() const override {
    return cat_bit(sim::TraceCategory::kBoot) |
           cat_bit(sim::TraceCategory::kHandlerInvoked) |
           cat_bit(sim::TraceCategory::kRequestIssued) |
           cat_bit(sim::TraceCategory::kAcceptCompleted);
  }

 private:
  // A TID predates the booted incarnation iff it is at or below the
  // watermark at the death just before that boot, so one watermark per
  // node replaces a per-request incarnation record.
  struct Requester {
    std::int64_t first = INT64_MAX;   // issued TIDs span [first, last]
    std::int64_t last = INT64_MIN;
    std::int64_t last_at_death = INT64_MIN;  // `last` at the latest death
    std::int64_t stale_upto = INT64_MIN;     // predates the booted one
  };
  MidTable<Requester> requesters_;
};

/// The client handler never nests: between a handler invocation and its
/// ENDHANDLER the kernel must not invoke the handler again (§3.7.5 — the
/// uniprogrammed discipline chaos loves to probe with completion storms).
class HandlerNeverNests final : public Invariant {
 public:
  std::string_view name() const override { return "handler-never-nests"; }
  void on_event(const sim::TraceEvent& e) override;
  std::uint64_t category_mask() const override {
    return cat_bit(sim::TraceCategory::kBoot) |
           cat_bit(sim::TraceCategory::kHandlerInvoked) |
           cat_bit(sim::TraceCategory::kHandlerEnded);
  }

 private:
  MidTable<std::uint8_t> busy_;
};

/// A registry of invariants driven by one trace stream.
class InvariantSet {
 public:
  InvariantSet() = default;
  InvariantSet(InvariantSet&&) = default;
  InvariantSet& operator=(InvariantSet&&) = default;

  /// The four standard checkers every chaos run gets.
  static InvariantSet standard();

  void add(std::unique_ptr<Invariant> inv) {
    const std::uint64_t mask = inv->category_mask();
    for (std::size_t c = 0; c < sim::kNumTraceCategories; ++c) {
      if (mask & (1ull << c)) by_category_[c].push_back(inv.get());
    }
    checkers_.push_back(std::move(inv));
  }

  /// Dispatches only to the checkers whose category_mask() covers the
  /// event's category. Packet events (the bulk of any trace) match none of
  /// the standard checkers, so the common case is an empty loop.
  void on_event(const sim::TraceEvent& e) {
    for (auto* c : by_category_[static_cast<std::size_t>(e.category)]) {
      c->on_event(e);
    }
  }
  void finish(sim::Time end) {
    for (auto& c : checkers_) c->finish(end);
  }

  /// All violations, flattened in checker order.
  std::vector<Violation> violations() const;
  bool ok() const;

 private:
  std::vector<std::unique_ptr<Invariant>> checkers_;
  // Raw views into checkers_, one list per category. Moving the set moves
  // the vectors; the pointed-to checkers live on the heap and stay put.
  std::array<std::vector<Invariant*>, sim::kNumTraceCategories> by_category_{};
};

}  // namespace soda::chaos
