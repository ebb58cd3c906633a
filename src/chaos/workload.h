// The traffic a chaos scenario runs underneath its fault schedule: echo
// servers on MIDs [0, servers) and load generators on the rest.
//
// The load generator mixes blocking EXCHANGEs (one outstanding, measured
// end to end) with non-blocking PUTs (several in flight, completions
// observed in the handler) so the fault schedule hits requests in every
// phase: in transport, delivered-but-unaccepted, mid-ACCEPT, and queued
// behind MAXREQUESTS.
#pragma once

#include <memory>

#include "chaos/scenario.h"
#include "core/node.h"
#include "sodal/blocking.h"

namespace soda::chaos {

/// The pattern every echo server advertises.
inline constexpr Pattern kEchoPattern = kWellKnownBit | 0xC;

class EchoServer final : public sodal::SodalClient {
 public:
  explicit EchoServer(const Scenario& s) : accept_delay_(s.accept_delay) {}

  sim::Task on_boot(Mid) override {
    advertise(kEchoPattern);
    co_return;
  }

  sim::Task on_entry(HandlerArgs a) override {
    // Dawdle before accepting: the request stays delivered-but-unaccepted
    // long enough for crashes, partitions, and probes to interleave.
    if (accept_delay_ > 0) co_await delay(accept_delay_);
    Bytes in;
    co_await accept_current_exchange(a.arg, &in, a.put_size,
                                     Bytes(a.get_size));
  }

 private:
  sim::Duration accept_delay_;
};

class LoadClient final : public sodal::SodalClient {
 public:
  explicit LoadClient(const Scenario& s)
      : servers_(s.servers),
        anycast_(s.anycast),
        stop_at_(s.duration),
        interval_(s.request_interval),
        payload_(s.payload) {}

  sim::Task on_task() override {
    if (anycast_) {
      // Pool mode: seed this kernel's anycast member set with one
      // DISCOVER round (jittered so the boot broadcasts don't share a
      // bus slot), then address the pool — the kernel picks the member
      // it currently rates least shed and drops members whose requests
      // complete CRASHED (doc/OVERLOAD.md §4).
      co_await delay(static_cast<sim::Duration>(
          sim().rng().next_below(static_cast<std::uint64_t>(interval_) + 1)));
      co_await discover(kEchoPattern);
    }
    int op = 0;
    while (sim().now() < stop_at_) {
      const ServerSignature target{anycast_ ? kAnycastMid : pick_server(),
                                   kEchoPattern};
      // Every third op, float an extra non-blocking PUT so several
      // requests are in flight at once (its completion lands in the handler).
      if (++op % 3 == 0) {
        (void)put(target, op, Bytes(payload_));
      }
      Bytes in;
      (void)co_await b_exchange(target, op, Bytes(payload_), &in, payload_);
      const auto jitter = static_cast<sim::Duration>(
          sim().rng().next_below(static_cast<std::uint64_t>(interval_) / 2 +
                                 1));
      co_await delay(interval_ + jitter);
    }
    co_await park_forever();
  }

 private:
  Mid pick_server() {
    if (servers_ <= 1) return 0;
    return static_cast<Mid>(
        sim().rng().next_below(static_cast<std::uint64_t>(servers_)));
  }

  int servers_;
  bool anycast_;
  sim::Time stop_at_;
  sim::Duration interval_;
  std::uint32_t payload_;
};

/// The client a node boots (and re-boots after a crash fault): an echo
/// server below `scenario.servers`, a load generator otherwise.
std::unique_ptr<Client> make_workload_client(const Scenario& s, Mid mid);

}  // namespace soda::chaos
