// Minimal C++20 coroutine toolkit for simulated clients.
//
// The paper's client programming model (§3.1, §4.1) is a sequential Task
// plus an interrupt Handler; both may invoke blocking kernel primitives
// (ACCEPT, CANCEL, the SODAL B_* family). We express that model with
// coroutines: a blocking primitive returns a Future<T> the client
// co_awaits, and the kernel fulfils the matching Promise<T> when the
// operation completes in simulated time.
//
// Resumption is indirected through an optional executor so the uniprogrammed
// CPU discipline can be enforced: while the Handler is BUSY the client's
// Task must not run, so Task-context resumptions are deferred until
// ENDHANDLER (see core/client.h).
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

namespace soda::sim {

/// How to resume a suspended coroutine. The default resumes inline; clients
/// install an executor that defers Task resumption while their Handler runs.
using ResumeExecutor = std::function<void(std::coroutine_handle<>)>;

/// An eagerly-started coroutine with void result. Awaitable: a parent
/// coroutine may `co_await` it to sequence after its completion. If the
/// Task object is dropped before completion the coroutine is detached and
/// self-destroys when it finishes.
class Task {
 public:
  struct promise_type {
    std::coroutine_handle<> continuation{};
    bool done = false;
    bool detached = false;
    std::exception_ptr exception{};

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_never initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        auto& p = h.promise();
        p.done = true;
        if (p.continuation) return p.continuation;
        if (p.detached) h.destroy();
        return std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      release();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { release(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return !handle_ || handle_.promise().done; }

  /// Rethrow any exception that escaped the coroutine body. Call after done().
  void rethrow_if_failed() const {
    if (handle_ && handle_.promise().exception)
      std::rethrow_exception(handle_.promise().exception);
  }

  /// Detach: the coroutine keeps running and frees itself on completion.
  void detach() {
    if (!handle_) return;
    if (handle_.promise().done) {
      handle_.destroy();
    } else {
      handle_.promise().detached = true;
    }
    handle_ = nullptr;
  }

  // --- awaitable interface ---
  bool await_ready() const noexcept { return done(); }
  void await_suspend(std::coroutine_handle<> parent) noexcept {
    handle_.promise().continuation = parent;
  }
  void await_resume() const { rethrow_if_failed(); }

 private:
  void release() {
    if (!handle_) return;
    if (handle_.promise().done) {
      handle_.destroy();
    } else {
      handle_.promise().detached = true;  // self-destroys at final suspend
    }
    handle_ = nullptr;
  }
  std::coroutine_handle<promise_type> handle_{};
};

/// Placeholder value for Future<void>-like use.
struct Unit {};

namespace detail {
template <typename F>
Task spawn_impl(F fn) {
  // `fn` is a coroutine *parameter*, so it is moved into this frame and
  // outlives every suspension of the inner coroutine it creates.
  co_await fn();
}
}  // namespace detail

/// Safely start a lambda coroutine. NEVER write `[&]() -> Task {...}()`:
/// the temporary closure dies at the end of the statement while the
/// coroutine still reads captures through it. spawn() keeps the closure
/// alive in a wrapper frame for the coroutine's whole life.
template <typename F>
Task spawn(F fn) {
  return detail::spawn_impl(std::move(fn));
}

namespace detail {
template <typename T>
struct FutureState {
  std::optional<T> value;
  std::coroutine_handle<> waiter{};
  ResumeExecutor executor{};  // captured at suspension time
  bool consumed = false;
};
}  // namespace detail

template <typename T>
class Future;

/// Producer end of a one-shot value. set() resumes the awaiting coroutine
/// (through its executor if one was captured at suspension).
template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<detail::FutureState<T>>()) {}

  Future<T> future() const;

  bool fulfilled() const { return state_->value.has_value(); }

  void set(T value) {
    assert(!state_->value.has_value() && "promise set twice");
    state_->value = std::move(value);
    if (state_->waiter) {
      auto w = std::exchange(state_->waiter, nullptr);
      if (state_->executor) {
        state_->executor(w);
      } else {
        w.resume();
      }
    }
  }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

/// Awaitable one-shot value. A Future may carry an executor describing the
/// context of the awaiting coroutine; the Promise uses it on fulfilment.
///
/// Future<T> is also a coroutine return type: such a coroutine starts
/// eagerly, `co_return v` fulfils the future through Promise<T>::set
/// (resuming its awaiter), and the frame frees itself at the end. Its
/// awaiter resumes inline unless the body first runs
/// `co_await sim::ResumeVia(exec)`. An exception escaping the body is
/// dropped and the future stays unfulfilled, as with a detached Task.
template <typename T>
class Future {
 public:
  struct promise_type {
    Promise<T> promise;

    Future get_return_object() { return promise.future(); }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_value(T value) { promise.set(std::move(value)); }
    void unhandled_exception() noexcept {}
    void resume_via(ResumeExecutor exec) {
      promise.future().set_executor(std::move(exec));
    }
  };

  Future() = default;
  explicit Future(std::shared_ptr<detail::FutureState<T>> s)
      : state_(std::move(s)) {}

  /// Arrange for the waiter to be resumed via `exec` instead of inline.
  void set_executor(ResumeExecutor exec) { state_->executor = std::move(exec); }

  bool ready() const { return state_ && state_->value.has_value(); }

  bool await_ready() const noexcept { return ready(); }
  void await_suspend(std::coroutine_handle<> h) {
    assert(state_ && !state_->waiter && "future awaited twice");
    state_->waiter = h;
  }
  T await_resume() {
    assert(state_ && state_->value.has_value());
    state_->consumed = true;
    return std::move(*state_->value);
  }

  /// Non-awaiting read for code that polls (e.g. tests).
  const T& peek() const { return *state_->value; }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

template <typename T>
Future<T> Promise<T>::future() const {
  return Future<T>(state_);
}

/// `co_await sim::ResumeVia(exec)` in a Future-returning coroutine sets the
/// executor its awaiting caller resumes through; it never suspends. Run it
/// before any `co_return`. It has a constructor rather than being an
/// aggregate because g++ 12 destroys the std::function of a brace-
/// initialized aggregate in a co_await operand twice.
class ResumeVia {
 public:
  explicit ResumeVia(ResumeExecutor exec) : exec_(std::move(exec)) {}

  bool await_ready() const noexcept { return false; }
  template <typename P>
  bool await_suspend(std::coroutine_handle<P> h) {
    h.promise().resume_via(std::move(exec_));
    return false;  // continue at once
  }
  void await_resume() const noexcept {}

 private:
  ResumeExecutor exec_;
};

/// A broadcast condition: tasks co_await wait(); notify_all() releases every
/// current waiter. Used to express the paper's polling loops ("while not
/// ready do idle()") without burning simulated CPU.
class CondVar {
 public:
  Future<Unit> wait() {
    Promise<Unit> p;
    waiters_.push_back(p);
    return p.future();
  }

  /// Wait that applies an executor (e.g. a client's task gate).
  Future<Unit> wait_via(ResumeExecutor exec) {
    auto f = wait();
    f.set_executor(std::move(exec));
    return f;
  }

  void notify_all() {
    auto ws = std::move(waiters_);
    waiters_.clear();
    for (auto& p : ws) p.set(Unit{});
  }

  std::size_t waiting() const { return waiters_.size(); }

 private:
  std::vector<Promise<Unit>> waiters_;
};

}  // namespace soda::sim
