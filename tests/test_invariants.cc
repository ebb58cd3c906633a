// Negative tests for the four standard chaos invariant checkers, each fed a
// hand-built TraceEvent sequence that violates it, next to the legal
// near-miss the checker must accept. Plus the bit-identity of the trace
// hash fold (chaos::fnv_u64) against a byte-serial FNV-1a reference.
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

/// FNV-1a over the eight little-endian bytes of `v`, one multiply per
/// byte: the definition chaos::fnv_u64 must reproduce bit for bit.
std::uint64_t fnv_u64_bytewise(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(TraceHashFold, MatchesByteSerialFnvOnEdgeValues) {
  std::vector<std::uint64_t> values = {0, ~0ull};
  for (int k = 1; k <= 7; ++k) {
    values.push_back((1ull << (8 * k)) - 1);
    values.push_back(1ull << (8 * k));
  }
  for (std::int64_t n = -300; n < 0; ++n) {
    values.push_back(static_cast<std::uint64_t>(n));
  }
  for (std::uint64_t v = 1; v < 300; ++v) values.push_back(v);
  const std::uint64_t hs[] = {kTraceHashSeed, 0, ~0ull, 0xff, 0x100,
                              0x8000000000000000ull};
  for (std::uint64_t h : hs) {
    for (std::uint64_t v : values) {
      ASSERT_EQ(fnv_u64(h, v), fnv_u64_bytewise(h, v))
          << "h=" << h << " v=" << v;
    }
  }
}

TEST(TraceHashFold, MatchesByteSerialFnvOnRandomPairs) {
  std::mt19937_64 rng(20240501);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t h = rng();
    std::uint64_t v = rng();
    // Vary the width so every leading-zero-byte count (and -1) is hit.
    switch (i % 10) {
      case 8: v = ~0ull; break;
      case 9:
        v = static_cast<std::uint64_t>(-static_cast<std::int64_t>(v & 0xffff));
        break;
      default: v >>= 8 * (i % 8); break;
    }
    ASSERT_EQ(fnv_u64(h, v), fnv_u64_bytewise(h, v))
        << "h=" << h << " v=" << v;
  }
}

TEST(TraceHashFold, HashEventIsTheTenFieldByteSerialChain) {
  TraceEvent e = ev(123456789, TraceCategory::kRequestDelivered, 7, -1, 42);
  e.size = 1500;
  e.sections = 0x0208;
  e.detail = std::int64_t{-5};
  std::uint64_t h = kTraceHashSeed;
  const std::uint64_t na = ~std::uint64_t{0};  // -1: the "n/a" value
  const std::vector<std::uint64_t> fields = {
      static_cast<std::uint64_t>(e.at),
      static_cast<std::uint64_t>(e.category),
      7,
      na,
      42,
      na,
      1500,
      0x0208,
      static_cast<std::uint64_t>(e.status),
      static_cast<std::uint64_t>(std::int64_t{-5})};
  for (std::uint64_t v : fields) h = fnv_u64_bytewise(h, v);
  EXPECT_EQ(hash_event(kTraceHashSeed, e), h);
}

TEST(TraceHashFold, HashEpochIsUnchanged) { EXPECT_EQ(kHashEpoch, 2); }

}  // namespace
}  // namespace soda::chaos
