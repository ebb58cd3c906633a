#include "core/client.h"

#include "core/node.h"

namespace soda {

void Client::bind(Node* node) {
  node_ = node;
  kernel_ = &node->kernel();
  sim_ = &node->simulator();
}

void Client::start(Mid parent) {
  HandlerArgs args;
  args.reason = HandlerReason::kBooting;
  args.parent = parent;
  invoke_handler(args);
}

void Client::invoke_handler(const HandlerArgs& args) {
  in_handler_ = true;
  handler_ended_early_ = false;
  ++handler_invocation_;
  handler_run_ = run_handler(args, handler_invocation_);
}

sim::Task Client::run_handler(HandlerArgs args, std::uint64_t invocation) {
  try {
    if (args.reason == HandlerReason::kBooting) {
      co_await on_boot(args.parent);
    } else {
      co_await on_handler(args);
    }
  } catch (...) {
    if (!error_) error_ = std::current_exception();
  }
  // If end_handler_early() demoted this invocation (or a newer invocation
  // has since taken over the handler), the ENDHANDLER below already
  // happened — running it again would corrupt the newer invocation.
  if (invocation != handler_invocation_ || handler_ended_early_) {
    co_return;
  }
  in_handler_ = false;
  if (args.reason == HandlerReason::kBooting && !task_started_) {
    // "When that handler completes and executes ENDHANDLER, the new client
    // begins executing its task" (§3.5.2). The task runs synchronously to
    // its first suspension, then ENDHANDLER lets queued interrupts in.
    task_started_ = true;
    task_run_ = run_task_wrapper();
  }
  kernel_->endhandler();
}

void Client::end_handler_early() {
  if (!in_handler_) return;
  handler_ended_early_ = true;
  in_handler_ = false;
  if (!task_started_) {
    // The boot handler blocked: the paper starts the task at ENDHANDLER,
    // and the trick *is* an ENDHANDLER.
    task_started_ = true;
    task_run_ = run_task_wrapper();
  }
  kernel_->endhandler();
}

sim::ResumeExecutor Client::task_gated_executor() {
  auto alive = alive_;
  return [this, alive](std::coroutine_handle<> h) {
    if (!*alive) {
      h.destroy();
      return;
    }
    if (in_handler_) {
      deferred_.push_back(h);
    } else {
      h.resume();
    }
  };
}

sim::Task Client::run_task_wrapper() {
  try {
    co_await on_task();
  } catch (...) {
    if (!error_) error_ = std::current_exception();
  }
  // "A Die call is implicit at the end of the Task procedure" (§4.1).
  if (kernel_ && !kernel_->client_dead() && node_ && node_->client() == this) {
    kernel_->die();
  }
}

void Client::drain_deferred() {
  while (!in_handler_ && !deferred_.empty()) {
    auto h = deferred_.front();
    deferred_.pop_front();
    h.resume();
  }
}

sim::ResumeExecutor Client::executor_for_current_context() {
  auto alive = alive_;
  if (in_handler_) {
    // The handler itself is the blocked party: resume inline.
    return [alive](std::coroutine_handle<> h) {
      if (*alive) {
        h.resume();
      } else {
        h.destroy();
      }
    };
  }
  // Task context: while the handler is BUSY the task must not run.
  return task_gated_executor();
}

}  // namespace soda
