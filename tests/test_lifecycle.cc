// The request lifecycle tables (src/core/lifecycle.h): every (state, event)
// pair on both sides is classified, every state is reachable, and every
// request terminates exactly once at the abstract level.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/lifecycle.h"

namespace soda::lifecycle {
namespace {

using RS = RequesterState;
using RE = RequesterEvent;
using SS = ServerState;
using SE = ServerEvent;

template <typename T>
std::vector<T> all(int n) {
  std::vector<T> v;
  for (int i = 0; i < n; ++i) v.push_back(static_cast<T>(i));
  return v;
}

const auto kRStates = all<RS>(kRequesterStates);
const auto kREvents = all<RE>(kRequesterEvents);
const auto kSStates = all<SS>(kServerStates);
const auto kSEvents = all<SE>(kServerEvents);

constexpr unsigned kRequesterTerminal = kComplete | kCancelled;
constexpr unsigned kServerTerminal = kCancelOk | kAcceptDone | kAcceptFailed;

int bits(unsigned x) { return __builtin_popcount(x); }

bool waiting(SS s) { return s == SS::kAcceptingData || s == SS::kAwaitingData; }

// States reachable from `entry` through listed transitions.
template <typename S, typename E, typename F>
std::set<S> reachable(std::vector<S> entry, const std::vector<E>& events,
                      F step) {
  std::set<S> seen(entry.begin(), entry.end());
  while (!entry.empty()) {
    const S s = entry.back();
    entry.pop_back();
    for (E e : events) {
      const auto st = step(s, e);
      if (st.outcome == Outcome::kTransition && seen.insert(st.next).second) {
        entry.push_back(st.next);
      }
    }
  }
  return seen;
}

TEST(Lifecycle, EveryRequesterPairIsClassified) {
  int transitions = 0;
  for (RS s : kRStates) {
    for (RE e : kREvents) {
      const auto st = requester_step(s, e);
      SCOPED_TRACE(testing::Message() << "state " << int(s) << " event "
                                      << int(e));
      if (st.outcome != Outcome::kTransition) {
        // An ignore or an impossible pair changes nothing.
        EXPECT_TRUE(st.outcome == Outcome::kIgnore ||
                    st.outcome == Outcome::kImpossible);
        EXPECT_EQ(st.next, s);
        EXPECT_EQ(st.actions, 0);
        continue;
      }
      ++transitions;
      // A terminal action exactly on the transitions into kDone.
      const int terminal = bits(st.actions & kRequesterTerminal);
      EXPECT_EQ(terminal, st.next == RS::kDone && s != RS::kDone ? 1 : 0);
      // The caller's CANCEL promise exists only for a CANCEL call, and a
      // held one only in the states that hold it.
      const unsigned caller = st.actions & (kHoldCancel | kRefuseCancel);
      EXPECT_EQ(bits(caller), e == RE::kCancel ? 1 : 0);
      const bool holds = s == RS::kSendingCancel || s == RS::kCancelling ||
                         s == RS::kLateDataCancel;
      // ... and a held CANCEL is resolved whenever the request ends.
      if (st.actions & (kFailCancel | kCancelled)) {
        EXPECT_TRUE(holds);
      }
      if (holds && st.next == RS::kDone) {
        EXPECT_EQ(bits(st.actions & (kFailCancel | kCancelled)), 1);
      }
      if (st.actions & kNoteMember) {
        EXPECT_EQ(s, RS::kDiscovering);
      }
    }
  }
  EXPECT_GT(transitions, 0);
}

TEST(Lifecycle, EveryRequesterStateIsReachable) {
  const auto seen =
      reachable<RS, RE>({RS::kSending, RS::kDiscovering}, kREvents,
                        requester_step);
  EXPECT_EQ(seen.size(), kRStates.size());
}

TEST(Lifecycle, EveryRequesterTerminatesExactlyOnce) {
  for (RS s : kRStates) {
    SCOPED_TRACE(int(s));
    const auto seen = reachable<RS, RE>({s}, kREvents, requester_step);
    EXPECT_EQ(seen.count(RS::kDone), 1u);
  }
  // kDone is absorbing, so no walk passes a second terminal action.
  for (RE e : kREvents) {
    const auto st = requester_step(RS::kDone, e);
    EXPECT_EQ(st.next, RS::kDone);
    EXPECT_EQ(st.actions & kRequesterTerminal, 0u);
  }
}

TEST(Lifecycle, RequesterQuirksArePinned) {
  // The ACCEPT's sequenced frame is delivered before the REQUEST ack it
  // carries, so late DATA can start before the ack; the ack then still
  // enrols one probe deadline, which the late state ignores.
  EXPECT_EQ(requester_step(RS::kSending, RE::kAcceptWantsData).next,
            RS::kLateData);
  EXPECT_EQ(requester_step(RS::kLateData, RE::kAcked).actions, kStartProbing);
  EXPECT_EQ(requester_step(RS::kLateData, RE::kProbeDue).outcome,
            Outcome::kIgnore);
  // A CANCEL queued before the ack goes out with it, even when the ACCEPT
  // came first.
  EXPECT_EQ(requester_step(RS::kLateDataCancel, RE::kAcked).actions,
            kStartProbing | kSendCancel);
  EXPECT_EQ(requester_step(RS::kSendingCancel, RE::kAcked).next,
            RS::kCancelling);
}

TEST(Lifecycle, EveryServerPairIsClassified) {
  for (SS s : kSStates) {
    for (SE e : kSEvents) {
      const auto st = server_step(s, e);
      SCOPED_TRACE(testing::Message() << "state " << int(s) << " event "
                                      << int(e));
      if (st.outcome != Outcome::kTransition) {
        EXPECT_TRUE(st.outcome == Outcome::kIgnore ||
                    st.outcome == Outcome::kImpossible);
        EXPECT_EQ(st.next, s);
        EXPECT_EQ(st.actions, 0);
        continue;
      }
      const int terminal = bits(st.actions & kServerTerminal);
      EXPECT_EQ(terminal, st.next == SS::kDone && s != SS::kDone ? 1 : 0);
      if (st.actions & kRefuseAccept) {
        EXPECT_EQ(st.actions, kRefuseAccept);
      }
      EXPECT_EQ(bool(st.actions & kTakeData), e == SE::kLateData &&
                                                  waiting(s));
      EXPECT_EQ(bool(st.actions & kStoreRequest), e == SE::kArrive);
    }
  }
}

TEST(Lifecycle, EveryServerStateIsReachable) {
  const auto seen = reachable<SS, SE>({SS::kNone}, kSEvents, server_step);
  EXPECT_EQ(seen.size(), kSStates.size());
}

TEST(Lifecycle, EveryServerRecordTerminatesExactlyOnce) {
  for (SS s : kSStates) {
    SCOPED_TRACE(int(s));
    const auto seen = reachable<SS, SE>({s}, kSEvents, server_step);
    EXPECT_EQ(seen.count(SS::kDone), 1u);
  }
  // Out of kDone only a REQUEST delivery leads (at-most-once delivery rules
  // it out), and nothing in kDone terminates a second time.
  for (SE e : kSEvents) {
    const auto st = server_step(SS::kDone, e);
    EXPECT_EQ(st.actions & kServerTerminal, 0u);
    EXPECT_EQ(st.next == SS::kDone, e != SE::kArrive);
  }
}

TEST(Lifecycle, ServerDoneDiffersFromNoneOnlyForAccepts) {
  // The kernel resolves an absent key to kDone (a completed_lru_ scan) only
  // for ACCEPTs; every other event takes kNone and kDone alike.
  for (SE e : kSEvents) {
    SCOPED_TRACE(int(e));
    const auto none = server_step(SS::kNone, e);
    const auto done = server_step(SS::kDone, e);
    const bool accept = e == SE::kAcceptPiggyback || e == SE::kAcceptFrame ||
                        e == SE::kAcceptWantsData;
    const bool same = none.outcome == done.outcome &&
                      none.actions == done.actions &&
                      (none.next == done.next ||
                       (none.next == SS::kNone && done.next == SS::kDone));
    EXPECT_EQ(same, !accept);
  }
}

TEST(Lifecycle, OneAcceptPerRequest) {
  // A second ACCEPT while one is in flight, or after the request ended, is
  // refused at once rather than displacing the first.
  for (SS s : {SS::kAccepting, SS::kAcceptingData, SS::kAwaitingData,
               SS::kDone}) {
    for (SE e : {SE::kAcceptPiggyback, SE::kAcceptFrame,
                 SE::kAcceptWantsData}) {
      const auto st = server_step(s, e);
      EXPECT_EQ(st.actions, kRefuseAccept);
      EXPECT_EQ(st.next, s);
    }
  }
  EXPECT_EQ(server_step(SS::kNone, SE::kAcceptFrame).next, SS::kAccepting);
  EXPECT_EQ(server_step(SS::kAccepting, SE::kArrive).next, SS::kAccepting);
}

}  // namespace
}  // namespace soda::lifecycle
