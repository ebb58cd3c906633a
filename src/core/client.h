// The client programming model (§3.1, §4.1): a sequential Task plus an
// interrupt Handler, sharing one uniprogrammed processor.
//
// Subclass Client and override:
//   on_boot(parent)  - the Initialization section (runs in the handler)
//   on_handler(args) - the Handler, invoked on REQUEST arrival/completion
//   on_task()        - the Task, started when the boot handler ends
//
// All three are coroutines so they can block on kernel primitives
// (co_await accept(...), co_await cancel(...)) and SODAL constructs. The
// framework enforces the uniprogrammed discipline: while the handler is
// BUSY, resumptions of the Task are deferred until ENDHANDLER.
#pragma once

#include <cassert>
#include <deque>
#include <exception>
#include <memory>

#include "core/kernel.h"
#include "core/types.h"
#include "sim/coro.h"

namespace soda {

class Node;

class Client {
 public:
  Client() : alive_(std::make_shared<bool>(true)) {}
  virtual ~Client() { *alive_ = false; }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // ---- user hooks -------------------------------------------------
  /// Initialization (§4.1): the handler invocation with BOOTING status.
  virtual sim::Task on_boot(Mid parent) {
    (void)parent;
    co_return;
  }
  /// The Handler: REQUEST arrivals and completions land here.
  virtual sim::Task on_handler(HandlerArgs args) = 0;
  /// The Task: the main program, started when the boot handler ends. A
  /// task that returns performs an implicit DIE (§4.1), so the default
  /// parks forever — right for purely handler-driven servers.
  virtual sim::Task on_task() { co_await park_forever(); }

  // ---- framework (called by Node / Kernel) ------------------------
  void bind(Node* node);
  void start(Mid parent);
  void invoke_handler(const HandlerArgs& args);
  void drain_deferred();
  void mark_dead() { *alive_ = false; }

  /// First exception that escaped client code, if any (tests assert none).
  std::exception_ptr error() const { return error_; }
  void rethrow_error() const {
    if (error_) std::rethrow_exception(error_);
  }

  // ---- the primitive API, public so library helpers can compose ----
  Kernel& k() const {
    assert(kernel_);
    return *kernel_;
  }
  sim::Simulator& sim() const { return *sim_; }
  Mid my_mid() const { return kernel_->mid(); }

  // ---- REQUEST variants (§4.1.1): non-blocking, return kNoTid when the
  // kernel ignored the request (MAXREQUESTS exceeded). ----
  Tid signal(ServerSignature s, std::int32_t arg = 0) {
    return k().request(Kernel::RequestParams::signal(s, arg)).value_or(kNoTid);
  }
  Tid put(ServerSignature s, std::int32_t arg, Bytes data) {
    return k()
        .request(Kernel::RequestParams::put(s, std::move(data), arg))
        .value_or(kNoTid);
  }
  Tid get(ServerSignature s, std::int32_t arg, Bytes* into,
          std::uint32_t get_size) {
    return k()
        .request(Kernel::RequestParams::get(s, get_size, into, arg))
        .value_or(kNoTid);
  }
  Tid exchange(ServerSignature s, std::int32_t arg, Bytes out, Bytes* in,
               std::uint32_t get_size) {
    return k()
        .request(
            Kernel::RequestParams::exchange(s, std::move(out), get_size, in,
                                            arg))
        .value_or(kNoTid);
  }
  /// Broadcast DISCOVER; matching MIDs land in `into` (4 bytes each).
  Tid discover_request(Pattern pattern, Bytes* into, std::uint32_t get_size) {
    return k()
        .request(Kernel::RequestParams::discover(pattern, get_size, into))
        .value_or(kNoTid);
  }

  // ---- ACCEPT variants (§4.1.1): blocking (bounded). ----
  sim::Future<AcceptResult> accept_signal(RequesterSignature rs,
                                          std::int32_t arg = 0) {
    return gated(k().accept(Kernel::AcceptParams::signal(rs, arg)));
  }
  sim::Future<AcceptResult> accept_put(RequesterSignature rs, std::int32_t arg,
                                       Bytes* take, std::uint32_t max_take) {
    return gated(k().accept(Kernel::AcceptParams::take(rs, take, max_take,
                                                       arg)));
  }
  sim::Future<AcceptResult> accept_get(RequesterSignature rs, std::int32_t arg,
                                       Bytes reply) {
    return gated(
        k().accept(Kernel::AcceptParams::reply(rs, std::move(reply), arg)));
  }
  sim::Future<AcceptResult> accept_exchange(RequesterSignature rs,
                                            std::int32_t arg, Bytes* take,
                                            std::uint32_t max_take,
                                            Bytes reply) {
    return gated(k().accept(Kernel::AcceptParams::exchange(
        rs, take, max_take, std::move(reply), arg)));
  }
  /// REJECT (§4.1.2): an ACCEPT with NIL buffers and argument -1.
  sim::Future<AcceptResult> reject(RequesterSignature rs) {
    return gated(k().accept(Kernel::AcceptParams::reject(rs)));
  }
  static constexpr std::int32_t kRejectArg = -1;

  sim::Future<CancelStatus> cancel(Tid tid) { return gated(k().cancel(tid)); }

  // ---- naming / handler / process control ----
  bool advertise(Pattern p) { return k().advertise(p); }
  bool unadvertise(Pattern p) { return k().unadvertise(p); }
  Pattern unique_id() { return k().get_unique_id(); }

  /// Anycast pool view (doc/OVERLOAD.md §4): the pool members this
  /// kernel has discovered for `p`, and its current least-shed pick.
  std::vector<Mid> anycast_members(Pattern p) const {
    return k().anycast_members(p);
  }
  std::optional<Mid> anycast_resolve(Pattern p) { return k().anycast_pick(p); }
  void open() { k().open(); }
  void close() { k().close(); }
  void die() { k().die(); }

  /// Charge client compute time (queue manipulation, data processing) to
  /// the node's CPU — the simulated equivalent of the work itself.
  void charge_compute(sim::Duration d) {
    k().cpu().charge(d, CostCategory::kClientOverhead);
  }

  /// Simulated-time sleep, correctly gated against the handler.
  sim::Future<sim::Unit> delay(sim::Duration d) {
    sim::Promise<sim::Unit> p;
    auto f = p.future();
    f.set_executor(executor_for_current_context());
    sim_->after(d, [p]() mutable {
      if (!p.fulfilled()) p.set(sim::Unit{});
    });
    return f;
  }

  /// A condition-variable wait gated for the current context. Use instead
  /// of the paper's `while (...) idle()` polling loops.
  sim::Future<sim::Unit> wait_on(sim::CondVar& cv) {
    return cv.wait_via(executor_for_current_context());
  }

  /// A wait that never completes (the idle loop of a pure server task).
  sim::Future<sim::Unit> park_forever() {
    parked_.emplace_back();
    return parked_.back().future();
  }

  /// Resume-context chooser: immediate inside the handler, deferred-while-
  /// handler-busy for the task (the uniprogramming rule).
  sim::ResumeExecutor executor_for_current_context();

  /// Always the task-gated executor, regardless of current context. Used
  /// by continuations that end_handler_early() demotes to task status.
  sim::ResumeExecutor task_gated_executor();

  /// `co_await c.resume_in_context()` (or `c.resume_task_gated()`) in a
  /// Future-returning SODAL helper sets the executor its awaiting caller
  /// resumes through, like `co_await sim::ResumeVia(exec)`, but builds the
  /// executor inside await_suspend, so the helper's frame keeps only a
  /// pointer and a flag, not two std::functions. It never suspends.
  struct ResumeIn {
    Client* client;
    bool task_gated;

    bool await_ready() const noexcept { return false; }
    template <typename P>
    bool await_suspend(std::coroutine_handle<P> h) {
      h.promise().resume_via(task_gated
                                 ? client->task_gated_executor()
                                 : client->executor_for_current_context());
      return false;  // continue at once
    }
    void await_resume() const noexcept {}
  };
  ResumeIn resume_in_context() { return {this, false}; }
  ResumeIn resume_task_gated() { return {this, true}; }

  /// The SODAL saved-PC trick (§4.1.1): a blocking REQUEST issued from
  /// inside the handler must END the handler so the completion interrupt
  /// can be fielded — "there is no way to receive a request completion
  /// while BUSY in the handler". The suspended handler continuation
  /// becomes task-like: it resumes through the task gate once the kernel
  /// delivers the completion. No-op outside the handler.
  void end_handler_early();

 private:
  template <typename T>
  sim::Future<T> gated(sim::Future<T> f) {
    f.set_executor(executor_for_current_context());
    return f;
  }

  sim::Task run_handler(HandlerArgs args, std::uint64_t invocation);
  sim::Task run_task_wrapper();

  Node* node_ = nullptr;
  Kernel* kernel_ = nullptr;
  sim::Simulator* sim_ = nullptr;
  bool in_handler_ = false;
  bool task_started_ = false;
  std::uint64_t handler_invocation_ = 0;
  bool handler_ended_early_ = false;
  std::shared_ptr<bool> alive_;
  std::deque<std::coroutine_handle<>> deferred_;
  std::deque<sim::Promise<sim::Unit>> parked_;
  sim::Task handler_run_;
  sim::Task task_run_;
  std::exception_ptr error_;
};

}  // namespace soda
