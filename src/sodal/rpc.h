// Remote procedure call (§4.2.2).
//
// Caller: B_PUT the in-parameters to the procedure's pattern, then B_GET
// the results from the same pattern. Server: when both the PUT and the
// GET of a caller have arrived, run the bound procedure, ACCEPT the PUT's
// data as arguments and ACCEPT the GET with the results (which unblocks
// the caller). Each pattern is bound to one procedure.
#pragma once

#include <functional>
#include <map>

#include "sodal/blocking.h"
#include "sodal/service.h"

namespace soda::sodal {

/// Signature of a remotely callable procedure.
using RpcHandlerFn = std::function<Bytes(const Bytes& in_params)>;

class RpcServer : public SodalClient {
 public:
  explicit RpcServer(std::map<Pattern, RpcHandlerFn> procedures)
      : procedures_(std::move(procedures)) {}

  sim::Task on_boot(Mid) override {
    for (const auto& [pattern, fn] : procedures_) advertise(pattern);
    co_return;
  }

  sim::Task on_entry(HandlerArgs a) override {
    auto pit = procedures_.find(a.invoked_pattern);
    if (pit == procedures_.end()) {
      co_await reject_current();
      co_return;
    }
    // A caller's PUT (put_size > 0) carries the arguments; its GET
    // (get_size > 0) asks for the results. Both must be in hand before
    // the procedure runs. Sessions are per calling machine: a caller is
    // uniprogrammed, so it has at most one call in flight.
    Session& s = sessions_[a.asker.mid];
    if (a.put_size > 0) {
      auto r = co_await accept_current_put(0, &s.in_params, a.put_size);
      s.got_in = (r.status == AcceptStatus::kSuccess);
    } else {
      s.caller = a.asker;
      s.want_out = true;
    }
    if (s.got_in && s.want_out) {
      Bytes out = pit->second(s.in_params);
      ++calls_;
      auto caller = s.caller;
      sessions_.erase(a.asker.mid);
      co_await accept_get(caller, 0, std::move(out));
    }
    co_return;
  }

  std::size_t calls() const { return calls_; }

 private:
  struct Session {
    Bytes in_params;
    bool got_in = false;
    bool want_out = false;
    RequesterSignature caller;
  };
  std::map<Pattern, RpcHandlerFn> procedures_;
  std::map<Mid, Session> sessions_;
  std::size_t calls_ = 0;
};

namespace detail {
/// The call itself, shared by both rpc_invoke overloads. Its awaiter
/// resumes through `exec`; an empty one resumes it inline.
inline sim::Future<StatusOr<Bytes>> rpc_call(SodalClient& c,
                                             ServerSignature proc,
                                             Bytes in_params,
                                             std::uint32_t max_result,
                                             sim::ResumeExecutor exec) {
  co_await sim::ResumeVia(std::move(exec));
  Status st = to_status(co_await c.b_put(proc, 0, std::move(in_params)));
  if (!st.ok()) co_return st;
  Bytes out;
  st = to_status(co_await c.b_get(proc, 0, &out, max_result));
  if (!st.ok()) co_return st;
  co_return out;
}
}  // namespace detail

/// The paper's call sequence: B_PUT(args) then B_GET(results). Awaitable
/// from any SodalClient coroutine; the StatusOr distinguishes a REJECT
/// (unbound procedure) from a server crash or a missing advertisement.
inline sim::Future<StatusOr<Bytes>> rpc_invoke(SodalClient& c,
                                               ServerSignature proc,
                                               Bytes in_params,
                                               std::uint32_t max_result =
                                                   2000) {
  return detail::rpc_call(c, proc, std::move(in_params), max_result,
                          c.executor_for_current_context());
}

/// Pool-aware overload: call the procedure on whichever pool member the
/// kernel currently rates least shed. The whole call is sticky to that
/// member; the next call may pick another.
inline sim::Future<StatusOr<Bytes>> rpc_invoke(SodalClient& c,
                                               ServiceHandle proc,
                                               Bytes in_params,
                                               std::uint32_t max_result =
                                                   2000) {
  co_await c.resume_in_context();
  // Pin the pool to one member first: the PUT carries the arguments and
  // the GET fetches the results, and RpcServer keys its session on the
  // calling machine — both halves of the call must land on one server.
  StatusOr<ServerSignature> target = co_await service_resolve(c, proc);
  if (!target.ok()) co_return target.status();
  co_return co_await detail::rpc_call(c, *target, std::move(in_params),
                                      max_result, {});
}

}  // namespace soda::sodal
