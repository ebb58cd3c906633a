// Negative tests for the four standard chaos invariant checkers, each fed a
// hand-built TraceEvent sequence that violates it, next to the legal
// near-miss the checker must accept. Plus the properties of the trace
// hash fold (chaos::hash_event) that the pinned hashes rely on.
//
// Hand-built traces pin the checkers' contract independently of what any
// simulated run happens to produce: a checker that silently stopped looking
// (or started over-reporting) would pass every chaos sweep but not these.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "chaos/runner.h"

namespace soda::chaos {
namespace {

using sim::TraceCategory;
using sim::TraceEvent;
using sim::TraceStatus;

constexpr int kBigMid = 70000;  // above 65535: exercises wide MID handling

TraceEvent ev(sim::Time at, TraceCategory c, int node, int peer = -1,
              std::int32_t tid = -1, TraceStatus status = TraceStatus::kNone) {
  TraceEvent e;
  e.at = at;
  e.category = c;
  e.node = node;
  e.peer = peer;
  e.tid = tid;
  e.status = status;
  return e;
}

TraceEvent issued(sim::Time at, int node, std::int32_t tid, int server = 0) {
  return ev(at, TraceCategory::kRequestIssued, node, server, tid);
}
TraceEvent completed(sim::Time at, int node, std::int32_t tid,
                     TraceStatus s = TraceStatus::kCompleted) {
  return ev(at, TraceCategory::kRequestCompleted, node, -1, tid, s);
}
TraceEvent delivered(sim::Time at, int server, int requester,
                     std::int32_t tid) {
  return ev(at, TraceCategory::kRequestDelivered, server, requester, tid);
}
TraceEvent accepted(sim::Time at, int server, int requester, std::int32_t tid,
                    TraceStatus s = TraceStatus::kCompleted) {
  return ev(at, TraceCategory::kAcceptCompleted, server, requester, tid, s);
}
TraceEvent died(sim::Time at, int node,
                TraceStatus s = TraceStatus::kKilled) {
  return ev(at, TraceCategory::kBoot, node, -1, -1, s);
}
TraceEvent booting(sim::Time at, int node) {
  return ev(at, TraceCategory::kHandlerInvoked, node, -1, -1,
            TraceStatus::kBooting);
}
TraceEvent invoked(sim::Time at, int node) {
  return ev(at, TraceCategory::kHandlerInvoked, node, -1, -1,
            TraceStatus::kArrival);
}
TraceEvent ended(sim::Time at, int node) {
  return ev(at, TraceCategory::kHandlerEnded, node);
}

/// Feeds `trace` to a fresh checker through an InvariantSet (so the
/// category mask is honoured exactly as in a run), then finish(end).
template <typename Checker>
std::vector<Violation> check(const std::vector<TraceEvent>& trace,
                             sim::Time end = 1'000'000) {
  InvariantSet set;
  set.add(std::make_unique<Checker>());
  for (const TraceEvent& e : trace) set.on_event(e);
  set.finish(end);
  return set.violations();
}

std::string dump(const std::vector<Violation>& vs) {
  std::string s;
  for (const auto& v : vs) {
    s += v.invariant + " @" + std::to_string(v.at) + ": " + v.detail + "\n";
  }
  return s.empty() ? "(none)" : s;
}

// ------------------------------------------------- ExactlyOnceTermination

TEST(ExactlyOnceTermination, ReissuedTidIsReported) {
  auto vs = check<ExactlyOnceTermination>(
      {issued(10, 1, 5), completed(20, 1, 5), issued(30, 1, 5),
       completed(40, 1, 5)});
  ASSERT_FALSE(vs.empty());
  EXPECT_EQ(vs.front().invariant, "exactly-once-termination");
  EXPECT_EQ(vs.front().at, 30);
  EXPECT_EQ(vs.front().detail, "tid reissued: n1 tid=5");
}

TEST(ExactlyOnceTermination, CompletionWithoutIssueIsReported) {
  auto vs = check<ExactlyOnceTermination>({completed(10, kBigMid, 3)});
  ASSERT_EQ(vs.size(), 1u) << dump(vs);
  EXPECT_EQ(vs[0].at, 10);
  EXPECT_EQ(vs[0].detail, "completion without issue: n70000 tid=3");
}

TEST(ExactlyOnceTermination, TerminatedTwiceIsReported) {
  auto vs = check<ExactlyOnceTermination>(
      {issued(10, 2, 7), completed(20, 2, 7, TraceStatus::kCompleted),
       completed(25, 2, 7, TraceStatus::kCrashed)});
  ASSERT_EQ(vs.size(), 1u) << dump(vs);
  EXPECT_EQ(vs[0].at, 25);
  EXPECT_EQ(vs[0].detail, "terminated twice: n2 tid=7");
}

TEST(ExactlyOnceTermination, NeverTerminatedAfterQuiescenceIsReported) {
  auto vs = check<ExactlyOnceTermination>(
      {issued(10, 3, 1), issued(11, -1, 9), issued(12, 3, 2),
       completed(20, 3, 1)},
      /*end=*/500);
  ASSERT_EQ(vs.size(), 2u) << dump(vs);
  // Reported at the quiescence time, in (node, tid) order.
  EXPECT_EQ(vs[0].at, 500);
  EXPECT_EQ(vs[0].detail, "never terminated after quiescence: n-1 tid=9");
  EXPECT_EQ(vs[1].detail, "never terminated after quiescence: n3 tid=2");
}

TEST(ExactlyOnceTermination, DeadIssuersOpenRequestsAreForgiven) {
  // Near miss: the issuer dies with tids 2 and 3 open; its next
  // incarnation issues fresh (higher) tids and terminates them.
  auto vs = check<ExactlyOnceTermination>(
      {issued(10, kBigMid, 1), completed(15, kBigMid, 1),
       issued(16, kBigMid, 2), issued(17, kBigMid, 3),
       died(20, kBigMid, TraceStatus::kDie), issued(40, kBigMid, 4),
       completed(50, kBigMid, 4), issued(60, -1, 1),
       died(70, -1, TraceStatus::kKilled)});
  EXPECT_TRUE(vs.empty()) << dump(vs);
}

TEST(ExactlyOnceTermination, DistinctNodesMayShareTids) {
  auto vs = check<ExactlyOnceTermination>(
      {issued(10, 1, 1), issued(11, 2, 1), completed(20, 2, 1),
       completed(21, 1, 1)});
  EXPECT_TRUE(vs.empty()) << dump(vs);
}

// --------------------------------------------------- AtMostOnceDelivery

TEST(AtMostOnceDelivery, DuplicateWithinOneIncarnationPairIsReported) {
  auto vs = check<AtMostOnceDelivery>(
      {delivered(10, 4, kBigMid, 12), delivered(30, 4, kBigMid, 12)});
  ASSERT_EQ(vs.size(), 1u) << dump(vs);
  EXPECT_EQ(vs[0].invariant, "at-most-once-delivery");
  EXPECT_EQ(vs[0].at, 30);
  EXPECT_EQ(vs[0].detail, "duplicate delivery at n4 of n70000 tid=12");
}

TEST(AtMostOnceDelivery, DuplicateAfterAnUnrelatedDeathIsReported) {
  // A third node dying changes neither party's incarnation.
  auto vs = check<AtMostOnceDelivery>(
      {delivered(10, -1, 2, 5), died(15, 3), delivered(30, -1, 2, 5)});
  ASSERT_EQ(vs.size(), 1u) << dump(vs);
  EXPECT_EQ(vs[0].detail, "duplicate delivery at n-1 of n2 tid=5");
}

TEST(AtMostOnceDelivery, RedeliveryToARebootedServerIsLegal) {
  // Near miss: the server dies and reboots, and the requester's kernel
  // retransmits the same request to the new incarnation (§3.6.2). A
  // restarted requester is a new incarnation pair as well.
  auto vs = check<AtMostOnceDelivery>(
      {delivered(10, 4, kBigMid, 12), died(20, 4), booting(25, 4),
       delivered(30, 4, kBigMid, 12), died(40, kBigMid),
       delivered(50, 4, kBigMid, 12)});
  EXPECT_TRUE(vs.empty()) << dump(vs);
}

// ------------------------------------------------------- NoStaleAccept

TEST(NoStaleAccept, PreRebootTidAcceptedAfterNewIncarnationBootedIsReported) {
  auto vs = check<NoStaleAccept>(
      {issued(10, 1, 5, 2), died(20, 1), booting(30, 1),
       accepted(40, 2, 1, 5)});
  ASSERT_EQ(vs.size(), 1u) << dump(vs);
  EXPECT_EQ(vs[0].invariant, "no-stale-accept");
  EXPECT_EQ(vs[0].at, 40);
  EXPECT_EQ(vs[0].detail, "n2 accepted pre-reboot request n1 tid=5");
}

TEST(NoStaleAccept, PiggybackedStaleAcceptIsReportedForWideMids) {
  // Two incarnations back: a tid from the first incarnation is accepted
  // after the third one booted.
  auto vs = check<NoStaleAccept>(
      {issued(10, kBigMid, 5, -1), died(20, kBigMid), booting(30, kBigMid),
       issued(35, kBigMid, 6, -1), died(40, kBigMid), booting(50, kBigMid),
       accepted(60, -1, kBigMid, 6, TraceStatus::kPiggybacked),
       accepted(70, -1, kBigMid, 5, TraceStatus::kNone)});
  ASSERT_EQ(vs.size(), 2u) << dump(vs);
  EXPECT_EQ(vs[0].at, 60);
  EXPECT_EQ(vs[0].detail, "n-1 accepted pre-reboot request n70000 tid=6");
  EXPECT_EQ(vs[1].at, 70);
}

TEST(NoStaleAccept, AcceptWhileRequesterIsDeadIsLegal) {
  // Near miss: the accept completes after the requester died but before
  // any new incarnation booted — the benign piggyback case. A failed
  // accept after the reboot is legal too, as is a success for a tid the
  // new incarnation issued.
  auto vs = check<NoStaleAccept>(
      {issued(10, 1, 5, 2), died(20, 1), accepted(25, 2, 1, 5),
       booting(30, 1), accepted(35, 2, 1, 5, TraceStatus::kCancelled),
       issued(40, 1, 6, 2), accepted(45, 2, 1, 6)});
  EXPECT_TRUE(vs.empty()) << dump(vs);
}

TEST(NoStaleAccept, AcceptOfATidIssuedBeforeTracingIsIgnored) {
  // Tid 4 predates the first traced issue (9), so its incarnation is
  // unknown and nothing is judged.
  auto vs = check<NoStaleAccept>(
      {issued(10, 1, 9, 2), died(20, 1), booting(30, 1),
       accepted(40, 2, 1, 4)});
  EXPECT_TRUE(vs.empty()) << dump(vs);
}

// ---------------------------------------------------- HandlerNeverNests

TEST(HandlerNeverNests, InvocationWhileBusyIsReported) {
  auto vs = check<HandlerNeverNests>(
      {invoked(10, kBigMid), invoked(20, kBigMid), ended(30, kBigMid)});
  ASSERT_EQ(vs.size(), 1u) << dump(vs);
  EXPECT_EQ(vs[0].invariant, "handler-never-nests");
  EXPECT_EQ(vs[0].at, 20);
  EXPECT_EQ(vs[0].detail, "handler invoked while busy on n70000");
}

TEST(HandlerNeverNests, ReinvocationAfterEndOrDeathIsLegal) {
  auto vs = check<HandlerNeverNests>(
      {invoked(10, -1), ended(20, -1), invoked(30, -1), died(40, -1),
       booting(50, -1), ended(60, -1), invoked(70, kBigMid),
       ended(80, kBigMid), invoked(90, kBigMid)});
  EXPECT_TRUE(vs.empty()) << dump(vs);
}

// ---------------------------------------------------------- trace hash fold

TraceEvent random_event(std::mt19937_64& rng) {
  // Mostly small values, like real traces, with the -1 "n/a" value and
  // full-width values mixed in.
  auto field = [&rng]() -> std::int64_t {
    switch (rng() % 4) {
      case 0: return -1;
      case 1: return static_cast<std::int64_t>(rng());
      default: return static_cast<std::int64_t>(rng() % 4096);
    }
  };
  TraceEvent e;
  e.at = static_cast<sim::Time>(rng() >> 20);
  e.category = static_cast<TraceCategory>(rng() % sim::kNumTraceCategories);
  e.node = static_cast<int>(field());
  e.peer = static_cast<int>(field());
  e.tid = static_cast<std::int32_t>(field());
  e.pattern = static_cast<std::int32_t>(field());
  e.size = static_cast<std::int32_t>(field());
  e.sections = static_cast<std::uint16_t>(rng());
  e.status = static_cast<TraceStatus>(rng() % 8);
  if (rng() % 2 == 0) e.detail = field();
  return e;
}

/// Change field `i` (hash_event's order) of `e` to a different value.
/// XOR with a nonzero mask cannot overflow, unlike adding.
void perturb(TraceEvent& e, int i, std::mt19937_64& rng) {
  const auto bump = static_cast<std::int64_t>(1 + rng() % 1000);
  switch (i) {
    case 0: e.at ^= bump; break;
    case 1:
      e.category = static_cast<TraceCategory>(
          (static_cast<std::size_t>(e.category) + 1 +
           rng() % (sim::kNumTraceCategories - 1)) %
          sim::kNumTraceCategories);
      break;
    case 2: e.node ^= static_cast<int>(bump); break;
    case 3: e.peer ^= static_cast<int>(bump); break;
    case 4: e.tid ^= static_cast<std::int32_t>(bump); break;
    case 5: e.pattern ^= static_cast<std::int32_t>(bump); break;
    case 6: e.size ^= static_cast<std::int32_t>(bump); break;
    case 7: e.sections ^= static_cast<std::uint16_t>(1u << (rng() % 16)); break;
    case 8:
      e.status = static_cast<TraceStatus>(static_cast<int>(e.status) ^
                                          static_cast<int>(1 + rng() % 7));
      break;
    default: e.detail = e.detail_i64(-1) ^ bump; break;
  }
}

TEST(TraceHashFold, EveryFieldChangesTheHash) {
  // Each field enters the fold through a bijection, so a one-field change
  // must change the hash, and the following event cannot undo it.
  std::mt19937_64 rng(20261017);
  for (int n = 0; n < 100'000; ++n) {
    const std::uint64_t h = rng();
    const TraceEvent e = random_event(rng);
    const TraceEvent next = random_event(rng);
    const std::uint64_t want = hash_event(hash_event(h, e), next);
    for (int i = 0; i < 10; ++i) {
      TraceEvent changed = e;
      perturb(changed, i, rng);
      ASSERT_FALSE(changed == e) << "field " << i << " not perturbed";
      EXPECT_NE(hash_event(hash_event(h, changed), next), want)
          << "event " << n << ": field " << i
          << " does not reach the hash: " << sim::describe(changed);
    }
  }
}

TEST(TraceHashFold, SwappingAdjacentEventsChangesTheHash) {
  std::mt19937_64 rng(1984);
  std::vector<TraceEvent> events;
  for (int i = 0; i < 64; ++i) events.push_back(random_event(rng));
  auto fold = [](const std::vector<TraceEvent>& v) {
    std::uint64_t h = kTraceHashSeed;
    for (const TraceEvent& e : v) h = hash_event(h, e);
    return h;
  };
  for (int trial = 0; trial < 10'000; ++trial) {
    events[rng() % events.size()] = random_event(rng);
    const std::size_t i = rng() % (events.size() - 1);
    if (events[i] == events[i + 1]) continue;
    std::vector<TraceEvent> swapped = events;
    std::swap(swapped[i], swapped[i + 1]);
    EXPECT_NE(fold(swapped), fold(events)) << "swap at " << i;
  }
  // Two events that differ only in time, the commonest neighbours.
  TraceEvent a = ev(100, TraceCategory::kPacketSent, 3);
  TraceEvent b = a;
  b.at = 101;
  EXPECT_NE(hash_event(hash_event(kTraceHashSeed, a), b),
            hash_event(hash_event(kTraceHashSeed, b), a));
}

TEST(TraceHashFold, HashEpochIsUnchanged) { EXPECT_EQ(kHashEpoch, 3); }

}  // namespace
}  // namespace soda::chaos
