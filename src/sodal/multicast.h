// Reliable multicast as a library (§6.17.1): "if a client wishes to send
// a message reliably to several sites in a group, it must issue a
// separate REQUEST to each site" — the paper declines a kernel primitive
// and points at exactly this construction.
//
// Also here: bidding support (§6.17.5). DISCOVER returns MIDs with no way
// to discriminate; a community of servers can additionally advertise a
// bid entry that a chooser GETs, selecting the least-loaded member.
#pragma once

#include <vector>

#include "sodal/blocking.h"
#include "sodal/util.h"

namespace soda::sodal {

struct MulticastResult {
  int delivered = 0;  // completed successfully
  int rejected = 0;   // REJECTed by the member
  int failed = 0;     // crashed / unadvertised
  std::vector<Completion> completions;  // per-member, in member order

  bool all_delivered(std::size_t members) const {
    return delivered == static_cast<int>(members);
  }
};

/// Send `data` reliably to every member of the group; resolves when all
/// transfers have completed or failed. Requests are issued concurrently
/// (the SODAL layer postpones past MAXREQUESTS transparently).
inline sim::Future<MulticastResult> multicast(
    SodalClient& c, const std::vector<ServerSignature>& group,
    std::int32_t arg, const Bytes& data) {
  co_await c.resume_in_context();
  // Every transfer is issued before the first suspension, the last use of
  // the by-reference `group` and `data`.
  std::vector<sim::Future<Completion>> puts;
  puts.reserve(group.size());
  for (const ServerSignature& member : group) {
    puts.push_back(c.b_put(member, arg, data));
  }
  MulticastResult result;
  result.completions.reserve(puts.size());
  for (auto& put : puts) {
    Completion done = co_await put;
    result.completions.push_back(done);
    if (done.ok()) {
      ++result.delivered;
    } else if (done.rejected()) {
      ++result.rejected;
    } else {
      ++result.failed;
    }
  }
  co_return result;
}

// ------------------------------------------------------------------
// Bidding (§6.17.5)

/// A server-side mixin entry: advertise `bid_pattern` and answer GETs
/// with the current load figure. Call from any SodalClient's on_entry.
class BiddingServer : public SodalClient {
 public:
  BiddingServer(Pattern service, Pattern bid_pattern)
      : service_(service), bid_pattern_(bid_pattern) {}

  sim::Task on_boot(Mid) override {
    advertise(service_);
    advertise(bid_pattern_);
    co_return;
  }

  sim::Task on_entry(HandlerArgs a) final {
    if (a.invoked_pattern == bid_pattern_) {
      co_await accept_current_get(0, encode_u32(load_));
      co_return;
    }
    if (a.invoked_pattern == service_) {
      ++load_;  // trivially: load = requests served
      co_await serve(a);
      co_return;
    }
    co_await reject_current();
  }

  /// Subclass hook: serve one request on the service pattern.
  virtual sim::Task serve(HandlerArgs a) {
    (void)a;
    co_await accept_current_signal(0);
  }

  std::uint32_t load() const { return load_; }
  void set_load(std::uint32_t l) { load_ = l; }

 private:
  Pattern service_;
  Pattern bid_pattern_;
  std::uint32_t load_ = 0;
};

/// Choose the least-loaded member of the community advertising `service`
/// (mid == kBroadcastMid in the result means nobody answered).
inline sim::Future<ServerSignature> pick_least_loaded(SodalClient& c,
                                                      Pattern service,
                                                      Pattern bid_pattern) {
  co_await c.resume_in_context();
  // 1. DISCOVER the community.
  Bytes mids;
  c.discover_request(service, &mids, 64);
  co_await c.delay(c.k().config().timing.discover_window +
                   20 * sim::kMillisecond);
  // 2. GET a bid from each and keep the lowest.
  ServerSignature best{kBroadcastMid, 0};
  std::uint32_t best_load = UINT32_MAX;
  for (std::size_t i = 0; i + 4 <= mids.size(); i += 4) {
    const Mid m = static_cast<Mid>(decode_u32(mids, i));
    Bytes bid;
    Completion done =
        co_await c.b_get(ServerSignature{m, bid_pattern}, 0, &bid, 4);
    if (!done.ok() || bid.size() < 4) continue;
    const std::uint32_t load = decode_u32(bid);
    if (load < best_load) {
      best_load = load;
      best = ServerSignature{m, service};
    }
  }
  co_return best;
}

}  // namespace soda::sodal
