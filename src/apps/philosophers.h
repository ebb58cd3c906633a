// Dining philosophers with deadlock detection (§4.4.3) — the thesis's
// novel solution. Each philosopher owns its right fork; its left fork is
// owned by the left neighbour. A separate deadlock-detector client,
// woken by the timeserver, walks the ring asking each philosopher whether
// it is "needful" (holds its left fork, right fork taken). If the ring
// closes and the first philosopher's state is unchanged, deadlock is
// declared and one philosopher is told to GIVE_BACK its fork; a
// LIST_OF_NICE_PHILOS rotation keeps the victim choice fair.
//
// Where the paper compares the TID of the victim's outstanding fork
// REQUEST to detect "state unchanged between probes", we use a per-
// philosopher state version counter — the same freshness argument with
// one fewer special case (the paper's own handler NILs the TID out).
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "sodal/sodal.h"
#include "sodal/timeserver.h"

namespace soda::apps {

constexpr Pattern kGetFork = kWellKnownBit | 0xD101;
constexpr Pattern kPutFork = kWellKnownBit | 0xD102;
constexpr Pattern kReturnFork = kWellKnownBit | 0xD103;
constexpr Pattern kCheck = kWellKnownBit | 0xD104;
constexpr Pattern kGiveBack = kWellKnownBit | 0xD105;

class Philosopher : public sodal::SodalClient {
 public:
  enum class Fork { kIdle, kMine, kHis };

  /// `left` is the MID of the left neighbour (who owns our left fork).
  /// `greedy` philosophers never think between meals — an all-greedy
  /// table deadlocks almost immediately, exercising the detector.
  Philosopher(Mid left, sim::Duration think_time, sim::Duration eat_time,
              bool greedy = false)
      : left_(left),
        think_time_(think_time),
        eat_time_(eat_time),
        greedy_(greedy) {}

  sim::Task on_boot(Mid) override {
    advertise(kGetFork);
    advertise(kPutFork);
    advertise(kReturnFork);
    advertise(kCheck);
    advertise(kGiveBack);
    co_return;
  }

  sim::Task on_completion(HandlerArgs a) override {
    if (my_request_ != kNoTid && a.asker.tid == my_request_) {
      my_request_ = kNoTid;
      left_fork_ = Fork::kMine;  // the left fork was granted (or returned)
      bump();
    }
    co_return;
  }

  sim::Task on_entry(HandlerArgs a) override {
    if (a.invoked_pattern == kPutFork) {
      // Our right neighbour... no: the PUT_FORK comes from the philosopher
      // to our right returning OUR fork — the fork we own came back idle.
      co_await accept_current_signal(0);
      own_fork_ = Fork::kIdle;
      if (his_request_) {
        own_fork_ = Fork::kHis;
        auto who = *his_request_;
        his_request_.reset();
        co_await accept_signal(who, 0);
      }
      bump();
    } else if (a.invoked_pattern == kGetFork) {
      if (own_fork_ == Fork::kMine) {
        his_request_ = a.asker;  // busy eating: grant on release
      } else {
        own_fork_ = Fork::kHis;
        co_await accept_current_signal(0);
      }
      bump();
    } else if (a.invoked_pattern == kCheck) {
      // Needful: hold the left fork, right fork taken by the neighbour.
      if (left_fork_ == Fork::kMine && own_fork_ == Fork::kHis) {
        co_await accept_current_get(0, sodal::encode_u64(version_));
      } else {
        co_await reject_current();
      }
    } else if (a.invoked_pattern == kGiveBack) {
      co_await accept_current_signal(0);
      if (left_fork_ == Fork::kMine) {
        // Return the left fork to its owner; the RETURN_FORK signal also
        // re-requests it: its completion is the re-grant (§4.4.3).
        my_request_ = signal(ServerSignature{left_, kReturnFork}, 0);
        left_fork_ = Fork::kHis;
        bump();
      }
    } else if (a.invoked_pattern == kReturnFork) {
      // Our fork came back from a deadlock break; the asker wants it
      // again once the neighbourhood has eaten. Do not ACCEPT yet.
      own_fork_ = Fork::kMine;
      his_request_ = a.asker;
      bump();
    }
    co_return;
  }

  sim::Task on_task() override {
    for (;;) {
      if (!greedy_) co_await delay(think_time_);  // think
      my_request_ = signal(ServerSignature{left_, kGetFork}, 0);
      while (left_fork_ != Fork::kMine) co_await wait_on(changed_);
      while (!grab_own_fork() || left_fork_ != Fork::kMine) {
        co_await wait_on(changed_);  // retest: we may have given it back
      }
      co_await delay(eat_time_);  // eat
      ++meals_;
      bump();
      co_await b_signal(ServerSignature{left_, kPutFork}, 0);
      own_fork_release();
    }
  }

  int meals() const { return meals_; }
  std::uint64_t version() const { return version_; }

 private:
  bool grab_own_fork() {
    // The paper brackets this with CLOSE/OPEN; handler invocations cannot
    // interleave with task code in the coroutine model, so the test is
    // already atomic — kept as a function to mirror the listing.
    if (own_fork_ == Fork::kHis) return false;
    own_fork_ = Fork::kMine;
    bump();
    return true;
  }

  void own_fork_release() {
    own_fork_ = Fork::kIdle;
    left_fork_ = Fork::kIdle;
    if (his_request_) {
      own_fork_ = Fork::kHis;
      auto who = *his_request_;
      his_request_.reset();
      grant_ = accept_signal(who, 0);  // fire-and-forget grant
    }
    bump();
  }

  void bump() {
    ++version_;
    changed_.notify_all();
  }

  Mid left_;
  sim::Duration think_time_;
  sim::Duration eat_time_;
  bool greedy_;
  Fork left_fork_ = Fork::kIdle;  // the fork our left neighbour owns
  Fork own_fork_ = Fork::kIdle;   // the fork we own (our right)
  Tid my_request_ = kNoTid;
  std::optional<RequesterSignature> his_request_;
  sim::Future<AcceptResult> grant_;
  sim::CondVar changed_;
  std::uint64_t version_ = 0;
  int meals_ = 0;
};

class DeadlockDetector : public sodal::SodalClient {
 public:
  DeadlockDetector(std::vector<Mid> philosophers, ServerSignature timeserver,
                   std::int32_t interval_ms = 40)
      : phils_(std::move(philosophers)),
        timeserver_(timeserver),
        interval_ms_(interval_ms) {
    for (std::size_t i = 0; i < phils_.size(); ++i) {
      nice_.insert(static_cast<int>(i));
    }
  }

  sim::Task on_task() override {
    int victim = pick_victim();
    for (;;) {
      // Sleep on the timeserver (§4.3.2), then scan for deadlock.
      auto alarm = co_await b_signal(timeserver_, interval_ms_);
      if (!alarm.ok()) co_return;  // timeserver gone
      ++scans_;

      Bytes v1;
      auto c = co_await b_get(sig(victim), 0, &v1, 8);
      if (!c.ok()) continue;  // victim not needful: no deadlock
      bool ring_needful = true;
      Bytes v2;
      int cur = victim;
      do {
        cur = (cur + 1) % static_cast<int>(phils_.size());
        c = co_await b_get(sig(cur), 0, &v2, 8);
        if (!c.ok()) {
          ring_needful = false;
          break;
        }
      } while (cur != victim);
      if (!ring_needful) continue;
      if (sodal::decode_u64(v1) != sodal::decode_u64(v2)) continue;
      // Deadlock: every philosopher needful and the probe anchor never
      // changed state. Break it, then rotate the victim for fairness.
      ++breaks_;
      co_await b_signal(ServerSignature{phils_[static_cast<std::size_t>(
                                            victim)],
                                        kGiveBack},
                        0);
      victim = pick_victim();
    }
  }

  int scans() const { return scans_; }
  int breaks() const { return breaks_; }

 protected:
  /// Exposed for fairness tests: the LIST_OF_NICE_PHILOS rotation.
  int pick_victim() {
    if (nice_.empty()) {
      for (std::size_t i = 0; i < phils_.size(); ++i) {
        nice_.insert(static_cast<int>(i));
      }
    }
    // Deterministic rotation through LIST_OF_NICE_PHILOS.
    int v = *nice_.begin();
    nice_.erase(nice_.begin());
    return v;
  }

 private:
  ServerSignature sig(int i) {
    return ServerSignature{phils_[static_cast<std::size_t>(i)], kCheck};
  }

  std::vector<Mid> phils_;
  ServerSignature timeserver_;
  std::int32_t interval_ms_;
  std::set<int> nice_;
  int scans_ = 0;
  int breaks_ = 0;
};

}  // namespace soda::apps
