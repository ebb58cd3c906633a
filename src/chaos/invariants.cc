#include "chaos/invariants.h"

#include <algorithm>
#include <utility>

namespace soda::chaos {

namespace {

/// A kBoot event with DIE/KILLED status marks the end of an incarnation:
/// the node's kernel state (pending requests, delivered table, handler)
/// is gone from this instant on.
bool is_death(const sim::TraceEvent& e) {
  return e.category == sim::TraceCategory::kBoot &&
         (e.status == sim::TraceStatus::kDie ||
          e.status == sim::TraceStatus::kKilled);
}

std::string tid_key_str(int node, std::int32_t tid) {
  return "n" + std::to_string(node) + " tid=" + std::to_string(tid);
}

std::uint64_t mix(std::uint64_t x) {  // SplitMix64 finalizer
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t pack(std::int32_t hi, std::int32_t lo) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi)) << 32 |
         static_cast<std::uint32_t>(lo);
}

}  // namespace

// ------------------------------------------------- ExactlyOnceTermination

void ExactlyOnceTermination::on_event(const sim::TraceEvent& e) {
  using sim::TraceCategory;
  if (is_death(e)) {
    // The dead incarnation's open requests are legitimately abandoned.
    if (Issuer* s = issuers_.find(e.node)) s->open.clear();
    return;
  }
  if (e.category == TraceCategory::kRequestIssued) {
    Issuer& s = issuers_[e.node];
    if (e.tid <= s.last) {
      fail(e.at, "tid reissued: " + tid_key_str(e.node, e.tid));
      return;
    }
    s.first = std::min<std::int64_t>(s.first, e.tid);
    s.last = e.tid;
    s.open.push_back(e.tid);
    return;
  }
  if (e.category == TraceCategory::kRequestCompleted) {
    Issuer* s = issuers_.find(e.node);
    if (s == nullptr || e.tid < s->first || e.tid > s->last) {
      fail(e.at, "completion without issue: " + tid_key_str(e.node, e.tid));
      return;
    }
    auto it = std::find(s->open.begin(), s->open.end(), e.tid);
    if (it == s->open.end()) {
      fail(e.at, "terminated twice: " + tid_key_str(e.node, e.tid));
      return;
    }
    *it = s->open.back();
    s->open.pop_back();
  }
}

void ExactlyOnceTermination::finish(sim::Time end) {
  issuers_.for_each([&](int node, Issuer& s) {
    std::sort(s.open.begin(), s.open.end());
    for (std::int32_t tid : s.open) {
      fail(end, "never terminated after quiescence: " + tid_key_str(node, tid));
    }
  });
}

// --------------------------------------------------- AtMostOnceDelivery

void AtMostOnceDelivery::on_event(const sim::TraceEvent& e) {
  if (is_death(e)) {
    ++deaths_[e.node];
    return;
  }
  if (e.category != sim::TraceCategory::kRequestDelivered) return;
  const int* server_epoch = deaths_.find(e.node);
  const int* requester_epoch = deaths_.find(e.peer);
  const Key key{e.node, e.peer, e.tid, server_epoch ? *server_epoch : 0,
                requester_epoch ? *requester_epoch : 0};
  if (!insert(key)) {
    fail(e.at, "duplicate delivery at n" + std::to_string(e.node) +
                   " of n" + std::to_string(e.peer) +
                   " tid=" + std::to_string(e.tid));
  }
}

bool AtMostOnceDelivery::insert(const Key& k) {
  if (4 * (delivered_count_ + 1) > 3 * delivered_.size()) grow();
  const std::uint64_t hash =
      mix(pack(k.server, k.requester) ^
          mix(pack(k.tid, k.server_epoch) ^
              static_cast<std::uint32_t>(k.requester_epoch)));
  const std::size_t m = delivered_.size() - 1;
  for (std::size_t i = hash & m;; i = (i + 1) & m) {
    Key& slot = delivered_[i];
    if (slot.server_epoch < 0) {
      slot = k;
      ++delivered_count_;
      return true;
    }
    if (slot == k) return false;
  }
}

void AtMostOnceDelivery::grow() {
  std::vector<Key> old = std::move(delivered_);
  delivered_.assign(std::max<std::size_t>(64, 2 * old.size()),
                    Key{0, 0, 0, -1, 0});
  delivered_count_ = 0;
  for (const Key& k : old) {
    if (k.server_epoch >= 0) insert(k);
  }
}

// ------------------------------------------------------- NoStaleAccept

void NoStaleAccept::on_event(const sim::TraceEvent& e) {
  using sim::TraceStatus;
  if (is_death(e)) {
    Requester& r = requesters_[e.node];
    r.last_at_death = r.last;
    return;
  }
  if (e.category == sim::TraceCategory::kHandlerInvoked &&
      e.status == TraceStatus::kBooting) {
    if (Requester* r = requesters_.find(e.node)) {
      r->stale_upto = r->last_at_death;
    }
    return;
  }
  if (e.category == sim::TraceCategory::kRequestIssued) {
    Requester& r = requesters_[e.node];
    r.first = std::min<std::int64_t>(r.first, e.tid);
    r.last = std::max<std::int64_t>(r.last, e.tid);
    return;
  }
  if (e.category != sim::TraceCategory::kAcceptCompleted) return;
  const bool success = e.status == TraceStatus::kCompleted ||
                       e.status == TraceStatus::kPiggybacked ||
                       e.status == TraceStatus::kNone;
  if (!success) return;
  const Requester* r = requesters_.find(e.peer);
  if (r == nullptr || e.tid < r->first) return;  // issued before tracing
  // Only a success after a NEWER incarnation of the requester has booted
  // is a protocol violation; completing while the requester is dead (or
  // gone for good) is the benign piggyback case.
  if (e.tid <= r->stale_upto) {
    fail(e.at, "n" + std::to_string(e.node) +
                   " accepted pre-reboot request " +
                   tid_key_str(e.peer, e.tid));
  }
}

// ---------------------------------------------------- HandlerNeverNests

void HandlerNeverNests::on_event(const sim::TraceEvent& e) {
  using sim::TraceCategory;
  if (is_death(e) || e.category == TraceCategory::kHandlerEnded) {
    // A death tears the handler down as ENDHANDLER does.
    if (std::uint8_t* busy = busy_.find(e.node)) *busy = 0;
    return;
  }
  if (e.category == TraceCategory::kHandlerInvoked) {
    std::uint8_t& busy = busy_[e.node];
    if (busy) {
      fail(e.at, "handler invoked while busy on n" + std::to_string(e.node));
    }
    busy = 1;
  }
}

// ---------------------------------------------------------- InvariantSet

InvariantSet InvariantSet::standard() {
  InvariantSet set;
  set.add(std::make_unique<ExactlyOnceTermination>());
  set.add(std::make_unique<AtMostOnceDelivery>());
  set.add(std::make_unique<NoStaleAccept>());
  set.add(std::make_unique<HandlerNeverNests>());
  return set;
}

std::vector<Violation> InvariantSet::violations() const {
  std::vector<Violation> all;
  for (const auto& c : checkers_) {
    all.insert(all.end(), c->violations().begin(), c->violations().end());
  }
  return all;
}

bool InvariantSet::ok() const {
  for (const auto& c : checkers_) {
    if (!c->violations().empty()) return false;
  }
  return true;
}

}  // namespace soda::chaos
