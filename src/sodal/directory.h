// One client-side face for the two run-time naming services.
//
// SODA grows two directories with different shapes: the hierarchical
// NameServer (§6.14, "/"-separated paths, list/unbind) and the flat
// Switchboard (§4.3.1, name -> signature, block-until-registered). Their
// wire protocols differ (see sodal/nameserver.h and sodal/switchboard.h
// headers, and doc/SODAL.md §3 for the side-by-side format tables), but
// a client that just wants "bind this name" / "what is this name" /
// "wait until this name exists" should not care which daemon answers.
// Directory is that facade: construct it over either backend and use
// bind/resolve/watch uniformly. Since both wire formats move the same
// 12-byte <MID, PATTERN> signature, a pool binding (mid == kAnycastMid,
// sodal/service.h) passes through either backend unchanged.
#pragma once

#include <string>

#include "sodal/nameserver.h"
#include "sodal/service.h"
#include "sodal/switchboard.h"

namespace soda::sodal {

class Directory {
 public:
  enum class Backend : std::uint8_t {
    kNameServer,   // hierarchical paths; resolve fails fast with kNotFound
    kSwitchboard,  // flat names; lookups poll until registration
  };

  /// `server` is the directory daemon's signature — typically
  /// {mid, kNameServerPattern} or {mid, kSwitchboardPattern}.
  Directory(Backend backend, ServerSignature server)
      : backend_(backend), server_(server) {}

  static Directory name_server(ServerSignature server) {
    return Directory(Backend::kNameServer, server);
  }
  static Directory switchboard(ServerSignature server) {
    return Directory(Backend::kSwitchboard, server);
  }

  Backend backend() const { return backend_; }
  ServerSignature server() const { return server_; }

  /// Publish `name` -> `sig`. Rebinding overwrites on both backends.
  sim::Future<Status> bind(SodalClient& c, const std::string& name,
                           ServerSignature sig) const {
    if (backend_ == Backend::kNameServer) {
      return ns_bind(c, server_, name, sig);
    }
    return sb_register(c, server_, name, sig);
  }

  /// Publish a service handle — the pool form of bind.
  sim::Future<Status> bind(SodalClient& c, const std::string& name,
                           ServiceHandle h) const {
    return bind(c, name, h.signature());
  }

  /// One-shot lookup: kNotFound when the name is unbound right now (the
  /// switchboard backend probes exactly once instead of polling).
  sim::Future<StatusOr<ServerSignature>> resolve(
      SodalClient& c, const std::string& name) const {
    if (backend_ == Backend::kNameServer) {
      return ns_resolve(c, server_, name);
    }
    return resolve_once(c, server_, name);
  }

  /// Blocking lookup: poll until the name appears (or the attempt budget
  /// runs out — kTimedOut), the run-time interconnection idiom (§4.3.1).
  sim::Future<StatusOr<ServerSignature>> watch(SodalClient& c,
                                               const std::string& name,
                                               int max_attempts = 40) const {
    if (backend_ == Backend::kSwitchboard) {
      return sb_lookup(c, server_, name, max_attempts);
    }
    return watch_ns(c, server_, name, max_attempts);
  }

 private:
  static sim::Future<StatusOr<ServerSignature>> resolve_once(
      SodalClient& c, ServerSignature sb, const std::string& name) {
    co_await c.resume_in_context();
    StatusOr<ServerSignature> r = co_await sb_lookup(c, sb, name,
                                                     /*max_attempts=*/1);
    if (!r.ok() && r.code() == StatusCode::kTimedOut) {
      // One unregistered probe on the flat backend is this facade's
      // "unbound path".
      co_return StatusCode::kNotFound;
    }
    co_return r;
  }

  static sim::Future<StatusOr<ServerSignature>> watch_ns(
      SodalClient& c, ServerSignature ns, std::string name,
      int max_attempts) {
    co_await c.resume_in_context();
    Status last = Status::error(StatusCode::kTimedOut);
    for (int i = 0; i < max_attempts; ++i) {
      StatusOr<ServerSignature> r = co_await ns_resolve(c, ns, name);
      if (r.ok()) co_return r;
      if (r.code() != StatusCode::kNotFound) last = r.status();
      co_await c.delay(25 * sim::kMillisecond);  // same pace as sb_lookup
    }
    co_return last;
  }

  Backend backend_;
  ServerSignature server_;
};

}  // namespace soda::sodal
