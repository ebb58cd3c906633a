// Run-time interconnection (§4.3.1): a switchboard process that clients
// interrogate to obtain entry points while running. Services REGISTER a
// name -> <MID, PATTERN> binding; clients LOOK one up, blocking until it
// appears (the bootstrapping alternative to compile-time patterns and the
// load-time connector).
#pragma once

#include <map>
#include <string>

#include "sodal/blocking.h"
#include "sodal/util.h"

namespace soda::sodal {

constexpr Pattern kSwitchboardPattern = kWellKnownBit | 0x5B0A;

/// Wire format: REGISTER is a PUT with arg=1 of "name\0" + 12-byte
/// signature; LOOKUP is an EXCHANGE with arg=2 of "name" returning the
/// 12-byte signature, REJECTed when unknown.
class Switchboard : public SodalClient {
 public:
  explicit Switchboard(Pattern pattern = kSwitchboardPattern)
      : pattern_(pattern) {}

  sim::Task on_boot(Mid) override {
    advertise(pattern_);
    co_return;
  }

  sim::Task on_entry(HandlerArgs a) override {
    if (a.invoked_pattern != pattern_) co_return;
    if (a.arg == 1) {
      Bytes reg;
      auto r = co_await accept_current_put(0, &reg, a.put_size);
      if (r.status != AcceptStatus::kSuccess || reg.size() < 13) co_return;
      const std::size_t name_len = reg.size() - 12;
      std::string name = to_string(Bytes(reg.begin(),
                                         reg.begin() +
                                             static_cast<std::ptrdiff_t>(
                                                 name_len)));
      Bytes sig(reg.end() - 12, reg.end());
      entries_[name] = sig;
    } else if (a.arg == 2) {
      Bytes name_b;
      // Read the name first (EXCHANGE's put half), then answer. SODA
      // cannot inspect the first buffer before sending the second in one
      // ACCEPT (§3.3.2 note 2), so the lookup uses PUT-then-GET like RPC.
      auto r = co_await accept_current_put(0, &name_b, a.put_size);
      if (r.status != AcceptStatus::kSuccess) co_return;
      pending_lookup_[a.asker.mid] = to_string(name_b);
    } else if (a.arg == 3) {
      auto it = pending_lookup_.find(a.asker.mid);
      if (it == pending_lookup_.end()) {
        co_await reject_current();
        co_return;
      }
      auto eit = entries_.find(it->second);
      if (eit == entries_.end()) {
        pending_lookup_.erase(it);
        co_await reject_current();
        co_return;
      }
      Bytes sig = eit->second;
      pending_lookup_.erase(it);
      co_await accept_current_get(0, std::move(sig));
    }
    co_return;
  }

  std::size_t registered() const { return entries_.size(); }

 private:
  Pattern pattern_;
  std::map<std::string, Bytes> entries_;
  std::map<Mid, std::string> pending_lookup_;
};

/// Register `sig` under `name` with the switchboard at `sb`. A signature
/// whose mid is kAnycastMid registers a whole anycast pool
/// (sodal/service.h): lookups then return the pool handle.
inline sim::Future<Status> sb_register(SodalClient& c, ServerSignature sb,
                                       const std::string& name,
                                       ServerSignature sig) {
  co_await c.resume_in_context();
  Bytes payload = to_bytes(name);
  Bytes s = encode_u32(static_cast<std::uint32_t>(sig.mid));
  Bytes p = encode_u64(sig.pattern);
  payload.insert(payload.end(), s.begin(), s.end());
  payload.insert(payload.end(), p.begin(), p.end());
  co_return to_status(co_await c.b_put(sb, 1, std::move(payload)));
}

/// Look up `name`, retrying while it is unregistered. Typed failures:
/// kTimedOut when every attempt found the name unregistered, kCrashed /
/// kUnadvertised / kUnavailable when reaching the switchboard itself
/// failed on the last probe.
inline sim::Future<StatusOr<ServerSignature>> sb_lookup(
    SodalClient& c, ServerSignature sb, std::string name,
    int max_attempts = 40) {
  co_await c.resume_in_context();
  Status last = Status::error(StatusCode::kTimedOut);
  for (int i = 0; i < max_attempts; ++i) {
    Completion done = co_await c.b_put(sb, 2, to_bytes(name));
    if (done.ok()) {
      Bytes sig;
      done = co_await c.b_get(sb, 3, &sig, 12);
      if (done.ok() && sig.size() >= 12) {
        co_return ServerSignature{static_cast<Mid>(decode_u32(sig, 0)),
                                  decode_u64(sig, 4) & kPatternMask};
      }
    }
    // A REJECT just means "not registered yet" — keep polling. Transport
    // failures (the switchboard machine itself unreachable) are worth
    // reporting distinctly if the retries run out.
    if (!done.ok() && !done.rejected()) last = to_status(done);
    co_await c.delay(25 * sim::kMillisecond);
  }
  co_return last;  // gave up
}

}  // namespace soda::sodal
