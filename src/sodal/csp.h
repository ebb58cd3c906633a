// CSP-style guarded communication with output guards, via Bernstein's
// algorithm (§4.2.5.1).
//
// Each CspProcess advertises a well-known identity pattern. A guard in an
// alternative command is a boolean condition plus an optional input
// (`peer ? var`) or output (`peer ! value`) command. Evaluating an
// alternative sends a *query* for every communication guard; the peer
// matches it against its own state:
//
//   WAITING  + complementary guard  -> accept (rendezvous complete)
//   QUERYING + query pending + my MID > asker's -> delay the query
//   otherwise                       -> REJECT (asker moves on)
//
// The MID comparison breaks query cycles, avoiding both the deadlock and
// the livelock of naive symmetric rendezvous (§4.2.5): in a cycle the
// lowest-MID process REJECTS, unblocking its successor.
//
// Queries encode direction and type in the argument: arg = tag*2 + dir,
// dir 1 = the asker is OUTPUT-ing (data rides with the query: a B_PUT),
// dir 0 = the asker is INPUT-ing (a B_GET; the accepter supplies data).
#pragma once

#include <vector>

#include "sodal/blocking.h"

namespace soda::sodal {

constexpr Pattern kCspIdentityPattern = kWellKnownBit | 0xC59;

class CspProcess : public SodalClient {
 public:
  struct Guard {
    bool condition = true;
    enum class Kind { kSkip, kInput, kOutput } kind = Kind::kSkip;
    Mid peer = kBroadcastMid;  // the named process
    int tag = 0;               // message type; must match to rendezvous
    Bytes out_value;           // kOutput: the value sent
    Bytes* in_value = nullptr;  // kInput: where the value lands
    std::uint32_t in_size = 256;
  };

  static Guard skip_guard(bool cond = true) {
    Guard g;
    g.condition = cond;
    return g;
  }
  static Guard input(Mid peer, int tag, Bytes* into, bool cond = true,
                     std::uint32_t max = 256) {
    Guard g;
    g.condition = cond;
    g.kind = Guard::Kind::kInput;
    g.peer = peer;
    g.tag = tag;
    g.in_value = into;
    g.in_size = max;
    return g;
  }
  static Guard output(Mid peer, int tag, Bytes value, bool cond = true) {
    Guard g;
    g.condition = cond;
    g.kind = Guard::Kind::kOutput;
    g.peer = peer;
    g.tag = tag;
    g.out_value = std::move(value);
    return g;
  }

  sim::Task on_boot(Mid parent) override {
    advertise(kCspIdentityPattern);
    co_await csp_boot(parent);
  }
  virtual sim::Task csp_boot(Mid) { co_return; }

  /// Evaluate an alternative command: exactly one ready guard executes.
  /// Resolves to the index of the chosen guard, or -1 when every guard
  /// failed (peer terminated / condition false).
  sim::Future<int> alt(std::vector<Guard> guards) {
    co_await resume_in_context();
    state_ = State::kQuerying;
    alt_ctx_ = &guards;
    std::vector<bool> failed(guards.size(), false);
    std::size_t viable = 0;
    for (std::size_t i = 0; i < guards.size(); ++i) {
      if (guards[i].condition) {
        ++viable;
      } else {
        failed[i] = true;
      }
    }

    // The outer retry loop closes a hole in the thesis's listing: a query
    // can land in the peer's window *between* two of its own queries and
    // be REJECTed without the delay rule applying; if the peer's
    // remaining queries also miss, both sides would WAIT forever. A
    // WAITING process therefore re-runs its query pass periodically —
    // the paper's rejector-side comment ("we may eventually issue a
    // REQUEST to the REJECTED client") made unconditional.
    for (;;) {
      if (viable == 0) {
        state_ = State::kActive;
        alt_ctx_ = nullptr;
        co_await settle_delayed_rejections();
        co_return -1;
      }

      state_ = State::kQuerying;
      for (std::size_t i = 0; i < guards.size(); ++i) {
        Guard& g = guards[i];
        if (failed[i]) continue;
        if (g.kind == Guard::Kind::kSkip) {
          // A pure boolean guard that holds executes immediately.
          state_ = State::kActive;
          alt_ctx_ = nullptr;
          co_await settle_delayed_rejections();
          co_return static_cast<int>(i);
        }

        ServerSignature sig{g.peer, kCspIdentityPattern};
        query_pending_ = true;
        Completion c;
        if (g.kind == Guard::Kind::kOutput) {
          c = co_await b_put(sig, query_arg(g), g.out_value);
        } else {
          c = co_await b_get(sig, query_arg(g), g.in_value, g.in_size);
        }
        query_pending_ = false;

        if (c.status == CompletionStatus::kCrashed ||
            c.status == CompletionStatus::kUnadvertised) {
          // The named process terminated: the guard fails (CSP rule).
          failed[i] = true;
          --viable;
          continue;
        }
        if (c.rejected()) {
          // The peer was not ready. First see whether someone we delayed
          // can rendezvous with us right now (Bernstein's unblocking step).
          const int di = take_delayed();
          if (di >= 0) {
            const Delayed d = delayed_saved_;
            const int gi =
                find_complement(d.asker.mid, d.tag, d.asker_outputs);
            if (gi >= 0) {
              co_await accept_delayed(guards[static_cast<std::size_t>(gi)],
                                      d);
              state_ = State::kActive;
              alt_ctx_ = nullptr;
              co_await settle_delayed_rejections();
              co_return gi;
            }
            co_await reject(d.asker);
          }
          continue;  // try the next guard
        }
        // Completed: the peer accepted our query — rendezvous!
        ++rendezvous_;
        state_ = State::kActive;
        alt_ctx_ = nullptr;
        co_await settle_delayed_rejections();
        co_return static_cast<int>(i);
      }

      if (viable == 0) continue;  // resolves to failure above

      // Anyone we delayed during the pass may match one of our guards.
      while (!delayed_.empty()) {
        const Delayed d = delayed_.front();
        delayed_.erase(delayed_.begin());
        const int gi = find_complement(d.asker.mid, d.tag, d.asker_outputs);
        if (gi >= 0) {
          co_await accept_delayed(guards[static_cast<std::size_t>(gi)], d);
          state_ = State::kActive;
          alt_ctx_ = nullptr;
          co_await settle_delayed_rejections();
          co_return gi;
        }
        co_await reject(d.asker);
      }

      // WAIT for a matching query, with a retry backstop. The wake-up
      // promise is captured by value in the timer so nothing dangles if
      // the client dies first.
      state_ = State::kWaiting;
      matched_guard_ = -1;
      sim::Promise<sim::Unit> wake;
      wait_wake_ = wake;
      auto wake_future = wake.future();
      wake_future.set_executor(task_gated_executor());
      sim().after(kWaitRetryInterval, [wake]() mutable {
        if (!wake.fulfilled()) wake.set(sim::Unit{});
      });
      co_await wake_future;
      wait_wake_.reset();
      if (matched_guard_ >= 0) {
        const int gi = matched_guard_;
        alt_ctx_ = nullptr;
        co_await settle_delayed_rejections();
        co_return gi;
      }
      // Timed out: go around and re-query.
    }
  }

  /// Variadic convenience: `co_await alt(g1, g2, ...)`. (Also sidesteps
  /// GCC's initializer-list-in-coroutine limitation at call sites.)
  template <typename... Gs>
  sim::Future<int> alt(Guard first, Gs... rest) {
    std::vector<Guard> gs;
    gs.reserve(1 + sizeof...(rest));
    gs.push_back(std::move(first));
    (gs.push_back(std::move(rest)), ...);
    return alt(std::move(gs));
  }

  // -----------------------------------------------------------------
  sim::Task on_entry(HandlerArgs a) final {
    if (a.invoked_pattern != kCspIdentityPattern || a.arg < 0) {
      co_await reject_current();
      co_return;
    }
    const int tag = a.arg / 2;
    const bool asker_outputs = (a.arg % 2) == 1;

    if (state_ == State::kWaiting && alt_ctx_) {
      const int gi = find_complement(a.asker.mid, tag, asker_outputs);
      if (gi >= 0) {
        co_await rendezvous_accept((*alt_ctx_)[static_cast<std::size_t>(gi)],
                                   a);
        finish_wait(gi);
        co_return;
      }
      co_await reject_current();
      co_return;
    }

    if (state_ == State::kQuerying && query_pending_ &&
        my_mid() > a.asker.mid && alt_ctx_ &&
        find_complement(a.asker.mid, tag, asker_outputs) >= 0) {
      // Delay: we outrank the asker in the cycle-breaking order.
      delayed_.push_back(Delayed{a.asker, tag, asker_outputs, a.put_size});
      co_return;  // no ACCEPT yet; the asker's B_ request stays blocked
    }

    co_await reject_current();
    co_return;
  }

  std::size_t rendezvous_count() const { return rendezvous_; }

 private:
  enum class State { kActive, kQuerying, kWaiting };

  struct Delayed {
    RequesterSignature asker;
    int tag = 0;
    bool asker_outputs = false;
    std::uint32_t put_size = 0;
  };

  static std::int32_t query_arg(const Guard& g) {
    return g.tag * 2 + (g.kind == Guard::Kind::kOutput ? 1 : 0);
  }

  int find_complement(Mid asker, int tag, bool asker_outputs) const {
    for (std::size_t i = 0; i < alt_ctx_->size(); ++i) {
      const Guard& g = (*alt_ctx_)[i];
      if (!g.condition || g.kind == Guard::Kind::kSkip) continue;
      if (g.peer != asker || g.tag != tag) continue;
      if (asker_outputs && g.kind == Guard::Kind::kInput) {
        return static_cast<int>(i);
      }
      if (!asker_outputs && g.kind == Guard::Kind::kOutput) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  sim::Task rendezvous_accept(Guard& g, const HandlerArgs& a) {
    if (g.kind == Guard::Kind::kInput) {
      co_await accept_put(a.asker, 0, g.in_value, a.put_size);
    } else {
      co_await accept_get(a.asker, 0, g.out_value);
    }
    ++rendezvous_;
  }

  sim::Task accept_delayed(Guard& g, const Delayed& d) {
    if (g.kind == Guard::Kind::kInput) {
      co_await accept_put(d.asker, 0, g.in_value, d.put_size);
    } else {
      co_await accept_get(d.asker, 0, g.out_value);
    }
    ++rendezvous_;
  }

  void finish_wait(int gi) {
    matched_guard_ = gi;
    state_ = State::kActive;
    if (wait_wake_ && !wait_wake_->fulfilled()) {
      wait_wake_->set(sim::Unit{});
    }
  }

  static constexpr sim::Duration kWaitRetryInterval =
      35 * sim::kMillisecond;

  /// Pop one delayed query, if any.
  int take_delayed() {
    if (delayed_.empty()) return -1;
    delayed_saved_ = delayed_.front();
    delayed_.erase(delayed_.begin());
    return 0;
  }

  /// Any still-delayed queries cannot rendezvous with this alternative
  /// any more: REJECT them so their senders move on.
  sim::Task settle_delayed_rejections() {
    while (!delayed_.empty()) {
      Delayed d = delayed_.front();
      delayed_.erase(delayed_.begin());
      co_await reject(d.asker);
    }
  }

  State state_ = State::kActive;
  bool query_pending_ = false;
  std::vector<Guard>* alt_ctx_ = nullptr;
  std::vector<Delayed> delayed_;
  Delayed delayed_saved_;
  int matched_guard_ = -1;
  std::optional<sim::Promise<sim::Unit>> wait_wake_;
  std::size_t rendezvous_ = 0;
};

}  // namespace soda::sodal
