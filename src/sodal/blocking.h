// SODAL blocking primitives (§4.1.1): B_SIGNAL, B_PUT, B_GET, B_EXCHANGE,
// plus the blocking DISCOVER helper (§4.1.3).
//
// SodalClient routes completion interrupts for blocking requests back to
// the suspended issuer (the coroutine equivalent of the paper's saved-PC
// trick) and forwards everything else to on_entry / on_completion — the
// SODAL ENTRY/COMPLETION case arms (§4.1.4.1).
#pragma once

#include <map>

#include "core/client.h"
#include "core/network.h"
#include "sodal/status.h"

namespace soda::sodal {

/// What a blocking request resolves to.
struct Completion {
  CompletionStatus status = CompletionStatus::kCompleted;
  std::int32_t arg = 0;
  std::uint32_t put_done = 0;
  std::uint32_t get_done = 0;

  bool ok() const {
    return status == CompletionStatus::kCompleted && !rejected();
  }
  /// The REJECT convention (§4.1.2): an ACCEPT with argument -1 and NIL
  /// buffers means the server refused the request.
  bool rejected() const {
    return status == CompletionStatus::kCompleted && arg < 0;
  }
};

/// Collapse a Completion into the canonical soda::Status.
inline Status to_status(const Completion& c) {
  switch (c.status) {
    case CompletionStatus::kCompleted:
      return c.rejected() ? Status::error(StatusCode::kRejected) : Status{};
    case CompletionStatus::kCrashed:
      return Status::error(StatusCode::kCrashed);
    case CompletionStatus::kUnadvertised:
      return Status::error(StatusCode::kUnadvertised);
    case CompletionStatus::kTimedOut:
      return Status::error(StatusCode::kTimedOut);
  }
  return Status::error(StatusCode::kUnavailable);
}

class SodalClient : public Client {
 public:
  sim::Task on_handler(HandlerArgs a) final {
    if (a.reason == HandlerReason::kRequestCompletion) {
      auto it = blocking_.find(a.asker.tid);
      if (it != blocking_.end()) {
        auto promise = it->second;
        blocking_.erase(it);
        promise.set(Completion{a.status, a.arg, a.put_size, a.get_size});
        slot_freed_.notify_all();  // wake postponed blocking requests
        co_return;
      }
      co_await on_completion(a);
    } else {
      current_asker_ = a.asker;
      co_await on_entry(a);
    }
    slot_freed_.notify_all();
  }

  /// ENTRY arm: an incoming REQUEST (the tag, §4.1.4.1).
  virtual sim::Task on_entry(HandlerArgs a) {
    (void)a;
    co_return;
  }
  /// COMPLETION arm: a non-blocking REQUEST of ours finished.
  virtual sim::Task on_completion(HandlerArgs a) {
    (void)a;
    co_return;
  }

  /// The requester whose REQUEST invoked the current handler run — what
  /// ACCEPT_CURRENT (§4.1.2) implicitly names.
  RequesterSignature current_asker() const { return current_asker_; }

  // ---- ACCEPT_CURRENT family (§4.1.2) ----
  sim::Future<AcceptResult> accept_current_signal(std::int32_t arg = 0) {
    return accept_signal(current_asker_, arg);
  }
  sim::Future<AcceptResult> accept_current_put(std::int32_t arg, Bytes* take,
                                               std::uint32_t max_take) {
    return accept_put(current_asker_, arg, take, max_take);
  }
  sim::Future<AcceptResult> accept_current_get(std::int32_t arg, Bytes reply) {
    return accept_get(current_asker_, arg, std::move(reply));
  }
  sim::Future<AcceptResult> accept_current_exchange(std::int32_t arg,
                                                    Bytes* take,
                                                    std::uint32_t max_take,
                                                    Bytes reply) {
    return accept_exchange(current_asker_, arg, take, max_take,
                           std::move(reply));
  }
  sim::Future<AcceptResult> reject_current() { return reject(current_asker_); }

  // ---- blocking request family (§4.1.1) ----
  sim::Future<Completion> b_signal(ServerSignature s, std::int32_t arg = 0) {
    return issue_blocking(Kernel::RequestParams::signal(s, arg));
  }
  sim::Future<Completion> b_put(ServerSignature s, std::int32_t arg,
                                Bytes data) {
    return issue_blocking(Kernel::RequestParams::put(s, std::move(data), arg));
  }
  sim::Future<Completion> b_get(ServerSignature s, std::int32_t arg,
                                Bytes* into, std::uint32_t get_size) {
    return issue_blocking(Kernel::RequestParams::get(s, get_size, into, arg));
  }
  sim::Future<Completion> b_exchange(ServerSignature s, std::int32_t arg,
                                     Bytes out, Bytes* in,
                                     std::uint32_t get_size) {
    return issue_blocking(
        Kernel::RequestParams::exchange(s, std::move(out), get_size, in, arg));
  }

  /// Blocking DISCOVER (§4.1.3): re-broadcasts until at least one server
  /// answers. More sophisticated clients use discover_request() directly.
  sim::Future<ServerSignature> discover(Pattern pattern) {
    co_await resume_task_gated();
    end_handler_early();  // blocking DISCOVER from the handler (§4.1.1)
    Bytes mids;
    for (;;) {
      sim::Promise<Completion> done;
      auto tid = k().request(Kernel::RequestParams::discover(pattern, 4, &mids));
      if (!tid) {
        co_await wait_on(slot_freed_);
        continue;
      }
      blocking_.emplace(*tid, done);
      Completion c = co_await done.future();
      if (c.status == CompletionStatus::kCompleted && mids.size() >= 4) {
        Mid m = static_cast<Mid>(
            std::to_integer<std::uint32_t>(mids[0]) |
            (std::to_integer<std::uint32_t>(mids[1]) << 8) |
            (std::to_integer<std::uint32_t>(mids[2]) << 16) |
            (std::to_integer<std::uint32_t>(mids[3]) << 24));
        co_return ServerSignature{m, pattern};
      }
      // Nobody answered: give the network a beat and ask again.
      co_await delay(20 * sim::kMillisecond);
    }
  }

  /// Issue a blocking request but also give the caller its TID (so it can
  /// be cancelled from the handler, as the dining-philosophers deadlock
  /// detector requires).
  sim::Future<Completion> issue_blocking(Kernel::RequestParams params,
                                         Tid* tid_out = nullptr) {
    // The continuation is task-like whether or not we started inside the
    // handler: end_handler_early() below may demote it.
    co_await resume_task_gated();
    // A blocking REQUEST from inside the handler performs the paper's
    // saved-PC trick (§4.1.1): END the handler so the completion
    // interrupt can be fielded; we resume as task-context code.
    end_handler_early();
    // The SODAL exception-handler strategy for MAXREQUESTS overflow
    // (§4.1.2): postpone until some pending request completes.
    for (;;) {
      auto tid = k().request(params);
      if (tid) {
        if (tid_out) *tid_out = *tid;
        sim::Promise<Completion> done;
        blocking_.emplace(*tid, done);
        auto f = done.future();
        // Resume inline: the completion routing in on_handler hands the
        // value over; gating happens on the caller's future.
        Completion c = co_await f;
        if (tid_out) *tid_out = kNoTid;
        co_return c;
      }
      co_await wait_on(slot_freed_);
    }
  }

 private:
  std::map<Tid, sim::Promise<Completion>> blocking_;
  sim::CondVar slot_freed_;
  RequesterSignature current_asker_;
};

}  // namespace soda::sodal
