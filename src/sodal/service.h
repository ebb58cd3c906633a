// Service handles: how SODAL programs name the thing they are calling.
//
// The kernel primitives address a concrete <MID, PATTERN> pair
// (ServerSignature). That is the wrong granularity for a replicated
// service: N servers advertising the same pattern form an anycast pool
// (doc/OVERLOAD.md §4), and a caller should say "the print service", not
// "the print server on machine 7". ServiceHandle is that name:
//
//   * ServiceHandle::of(sig)    — a specific server, classic addressing
//   * ServiceHandle::pool(pat)  — any current advertiser of `pat`; the
//     caller's kernel picks the least-shed member per request
//
// A pool handle lowers to ServerSignature{kAnycastMid, pattern}, so it
// flows through every 12-byte signature on the wire — NameServer and
// Switchboard bindings carry pools with no format change — and the
// requester kernel resolves the sentinel to a concrete member at REQUEST
// time. `resolve()` pins a pool to one member up front, which RPC needs:
// the PUT/GET pair of one call must land on the same server.
#pragma once

#include <optional>

#include "sodal/blocking.h"
#include "sodal/status.h"

namespace soda::sodal {

class ServiceHandle {
 public:
  /// A concrete server. A signature whose mid is kAnycastMid (e.g. one
  /// resolved out of a directory that binds names to pools) is treated
  /// as the pool it denotes.
  static ServiceHandle of(ServerSignature sig) { return ServiceHandle(sig); }

  /// The anycast pool of every server currently advertising `pattern`.
  static ServiceHandle pool(Pattern pattern) {
    return ServiceHandle(ServerSignature{kAnycastMid, pattern});
  }

  bool is_pool() const { return sig_.mid == kAnycastMid; }
  Pattern pattern() const { return sig_.pattern; }

  /// The signature this handle lowers to. For a pool handle the mid is
  /// kAnycastMid: usable directly with any REQUEST primitive (the kernel
  /// resolves per request) and storable in directories.
  ServerSignature signature() const { return sig_; }

 private:
  explicit ServiceHandle(ServerSignature sig) : sig_(sig) {}
  ServerSignature sig_;
};

/// Pin a handle to one concrete server: a pass-through for a concrete
/// handle; for a pool, the kernel's current least-shed member (seeding
/// the pool with DISCOVER rounds when it is empty). Use when a multi-step
/// exchange must stay on one server — e.g. an RPC's PUT/GET pair.
inline sim::Future<StatusOr<ServerSignature>> service_resolve(
    SodalClient& c, ServiceHandle h, int max_attempts = 4) {
  co_await c.resume_in_context();
  if (!h.is_pool()) co_return h.signature();
  // The kernel's pool directory is fed by DISCOVER replies; if nothing
  // has been discovered yet, run a DISCOVER round and retry.
  for (int i = 0; i < max_attempts; ++i) {
    if (auto m = c.anycast_resolve(h.pattern())) {
      co_return ServerSignature{*m, h.pattern()};
    }
    co_await c.discover(h.pattern());
  }
  co_return StatusCode::kUnavailable;
}

}  // namespace soda::sodal
