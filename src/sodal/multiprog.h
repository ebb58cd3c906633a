// Multiprogramming as a library — the paper's closing future-work item
// (§7.2): "It should also prove possible to implement a kernel for a
// multiprogrammed machine where each process appears to have its own
// logical SODA interface."
//
// ProcessHost is one SODA client hosting many LogicalProcesses. Each
// logical process gets the SODA programming model — advertise patterns,
// issue requests, field arrivals/completions in a logical handler that
// never overlaps itself, run a task — while the host demultiplexes:
//   * arrivals route by advertised pattern ownership,
//   * completions route by the TID that issued them,
//   * per-process invocation queues preserve handler atomicity, so one
//     process's slow handler only delays its own traffic (the host plays
//     the buffering kernel the paper says multiprogramming forces, §6.2).
// The host's real (node-level) handler only enqueues, exactly the fast-
// handler discipline §6.13 recommends.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "sodal/blocking.h"

namespace soda::sodal {

class ProcessHost;

/// One logical process on a multiprogrammed node. Subclass and override
/// the lp_* hooks; use the protected API exactly like a SodalClient.
class LogicalProcess {
 public:
  virtual ~LogicalProcess() = default;

  virtual sim::Task lp_boot() { co_return; }
  virtual sim::Task lp_entry(HandlerArgs a) {
    (void)a;
    co_return;  // default: leave the request pending
  }
  virtual sim::Task lp_completion(HandlerArgs a) {
    (void)a;
    co_return;
  }
  virtual sim::Task lp_task() { co_return; }

  int pid() const { return pid_; }

 protected:
  // ---- the logical SODA interface (defined after ProcessHost) ----
  bool advertise(Pattern p);
  bool unadvertise(Pattern p);
  Pattern unique_id();
  Tid signal(ServerSignature s, std::int32_t arg = 0);
  Tid put(ServerSignature s, std::int32_t arg, Bytes data);
  Tid get(ServerSignature s, std::int32_t arg, Bytes* into,
          std::uint32_t n);
  Tid exchange(ServerSignature s, std::int32_t arg, Bytes out, Bytes* in,
               std::uint32_t n);
  sim::Future<AcceptResult> accept_signal(RequesterSignature rs,
                                          std::int32_t arg = 0);
  sim::Future<AcceptResult> accept_put(RequesterSignature rs,
                                       std::int32_t arg, Bytes* take,
                                       std::uint32_t max_take);
  sim::Future<AcceptResult> accept_get(RequesterSignature rs,
                                       std::int32_t arg, Bytes reply);
  sim::Future<AcceptResult> accept_exchange(RequesterSignature rs,
                                            std::int32_t arg, Bytes* take,
                                            std::uint32_t max_take,
                                            Bytes reply);
  sim::Future<AcceptResult> reject(RequesterSignature rs);
  sim::Future<Completion> b_signal(ServerSignature s, std::int32_t arg = 0);
  sim::Future<Completion> b_put(ServerSignature s, std::int32_t arg,
                                Bytes data);
  sim::Future<Completion> b_get(ServerSignature s, std::int32_t arg,
                                Bytes* into, std::uint32_t n);
  sim::Future<Completion> b_exchange(ServerSignature s, std::int32_t arg,
                                     Bytes out, Bytes* in, std::uint32_t n);
  sim::Future<CancelStatus> cancel(Tid tid);
  sim::Future<sim::Unit> delay(sim::Duration d);
  sim::Future<sim::Unit> wait_on(sim::CondVar& cv);
  Mid my_mid() const;
  sim::Simulator& sim() const;

 private:
  friend class ProcessHost;
  ProcessHost* host_ = nullptr;
  int pid_ = -1;

  // logical handler state
  bool lp_busy_ = false;
  std::deque<HandlerArgs> lp_queue_;
  sim::Task lp_run_;
  sim::Task lp_task_run_;
};

/// The multiprogrammed node: owns the logical processes and demultiplexes
/// SODA traffic among them.
class ProcessHost : public SodalClient {
 public:
  template <typename T, typename... Args>
  T& add_process(Args&&... args) {
    auto p = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *p;
    p->host_ = this;
    p->pid_ = static_cast<int>(processes_.size());
    processes_.push_back(std::move(p));
    if (booted_) boot_process(ref);  // late arrival on a running host
    return ref;
  }

  sim::Task on_boot(Mid) override {
    booted_ = true;
    for (auto& p : processes_) {
      boot_process(*p);
    }
    co_return;
  }

  sim::Task on_entry(HandlerArgs a) override {
    auto it = pattern_owner_.find(a.invoked_pattern);
    if (it == pattern_owner_.end()) {
      // Shouldn't happen (the kernel screens unadvertised patterns), but
      // a process may have unadvertised between delivery and dispatch.
      co_await reject_current();
      co_return;
    }
    enqueue_invocation(*processes_[static_cast<std::size_t>(it->second)], a);
    co_return;
  }

  sim::Task on_completion(HandlerArgs a) override {
    auto it = tid_owner_.find(a.asker.tid);
    if (it != tid_owner_.end()) {
      const int pid = it->second;
      tid_owner_.erase(it);
      enqueue_invocation(*processes_[static_cast<std::size_t>(pid)], a);
    }
    co_return;
  }

 private:
  friend class LogicalProcess;

  void boot_process(LogicalProcess& p) {
    // Run boot then task outside the host handler context.
    sim().after(0, [this, &p]() {
      p.lp_run_ = run_boot(p);
    });
  }

  sim::Task run_boot(LogicalProcess& p) {
    co_await p.lp_boot();
    p.lp_task_run_ = p.lp_task();
    pump(p);
  }

  void enqueue_invocation(LogicalProcess& p, const HandlerArgs& a) {
    p.lp_queue_.push_back(a);
    // Dispatch outside the node-level handler (fast-handler discipline).
    sim().after(0, [this, &p]() { pump(p); });
  }

  void pump(LogicalProcess& p) {
    if (p.lp_busy_ || p.lp_queue_.empty()) return;
    p.lp_busy_ = true;
    HandlerArgs a = p.lp_queue_.front();
    p.lp_queue_.pop_front();
    p.lp_run_ = run_invocation(p, a);
  }

  sim::Task run_invocation(LogicalProcess& p, HandlerArgs a) {
    if (a.reason == HandlerReason::kRequestArrival) {
      co_await p.lp_entry(a);
    } else {
      co_await p.lp_completion(a);
    }
    p.lp_busy_ = false;
    pump(p);
  }

  Tid track(int pid, Tid tid) {
    if (tid != kNoTid) tid_owner_[tid] = pid;
    return tid;
  }

  std::vector<std::unique_ptr<LogicalProcess>> processes_;
  std::map<Pattern, int> pattern_owner_;
  std::map<Tid, int> tid_owner_;
  bool booted_ = false;
};

// ---- LogicalProcess API, routed through the host ----

inline bool LogicalProcess::advertise(Pattern p) {
  if (!host_->SodalClient::advertise(p)) return false;
  host_->pattern_owner_[p & kPatternMask] = pid_;
  return true;
}
inline bool LogicalProcess::unadvertise(Pattern p) {
  host_->pattern_owner_.erase(p & kPatternMask);
  return host_->SodalClient::unadvertise(p);
}
inline Pattern LogicalProcess::unique_id() { return host_->unique_id(); }
inline Tid LogicalProcess::signal(ServerSignature s, std::int32_t arg) {
  return host_->track(pid_, host_->SodalClient::signal(s, arg));
}
inline Tid LogicalProcess::put(ServerSignature s, std::int32_t arg,
                               Bytes data) {
  return host_->track(pid_, host_->SodalClient::put(s, arg, std::move(data)));
}
inline Tid LogicalProcess::get(ServerSignature s, std::int32_t arg,
                               Bytes* into, std::uint32_t n) {
  return host_->track(pid_, host_->SodalClient::get(s, arg, into, n));
}
inline Tid LogicalProcess::exchange(ServerSignature s, std::int32_t arg,
                                    Bytes out, Bytes* in, std::uint32_t n) {
  return host_->track(
      pid_, host_->SodalClient::exchange(s, arg, std::move(out), in, n));
}
inline sim::Future<AcceptResult> LogicalProcess::accept_signal(
    RequesterSignature rs, std::int32_t arg) {
  return host_->SodalClient::accept_signal(rs, arg);
}
inline sim::Future<AcceptResult> LogicalProcess::accept_put(
    RequesterSignature rs, std::int32_t arg, Bytes* take,
    std::uint32_t max_take) {
  return host_->SodalClient::accept_put(rs, arg, take, max_take);
}
inline sim::Future<AcceptResult> LogicalProcess::accept_get(
    RequesterSignature rs, std::int32_t arg, Bytes reply) {
  return host_->SodalClient::accept_get(rs, arg, std::move(reply));
}
inline sim::Future<AcceptResult> LogicalProcess::accept_exchange(
    RequesterSignature rs, std::int32_t arg, Bytes* take,
    std::uint32_t max_take, Bytes reply) {
  return host_->SodalClient::accept_exchange(rs, arg, take, max_take,
                                             std::move(reply));
}
inline sim::Future<AcceptResult> LogicalProcess::reject(
    RequesterSignature rs) {
  return host_->SodalClient::reject(rs);
}
inline sim::Future<Completion> LogicalProcess::b_signal(ServerSignature s,
                                                        std::int32_t arg) {
  return host_->SodalClient::b_signal(s, arg);
}
inline sim::Future<Completion> LogicalProcess::b_put(ServerSignature s,
                                                     std::int32_t arg,
                                                     Bytes data) {
  return host_->SodalClient::b_put(s, arg, std::move(data));
}
inline sim::Future<Completion> LogicalProcess::b_get(ServerSignature s,
                                                     std::int32_t arg,
                                                     Bytes* into,
                                                     std::uint32_t n) {
  return host_->SodalClient::b_get(s, arg, into, n);
}
inline sim::Future<Completion> LogicalProcess::b_exchange(
    ServerSignature s, std::int32_t arg, Bytes out, Bytes* in,
    std::uint32_t n) {
  return host_->SodalClient::b_exchange(s, arg, std::move(out), in, n);
}
inline sim::Future<CancelStatus> LogicalProcess::cancel(Tid tid) {
  return host_->SodalClient::cancel(tid);
}
inline sim::Future<sim::Unit> LogicalProcess::delay(sim::Duration d) {
  return host_->SodalClient::delay(d);
}
inline sim::Future<sim::Unit> LogicalProcess::wait_on(sim::CondVar& cv) {
  return host_->SodalClient::wait_on(cv);
}
inline Mid LogicalProcess::my_mid() const { return host_->my_mid(); }
inline sim::Simulator& LogicalProcess::sim() const { return host_->sim(); }

}  // namespace soda::sodal
