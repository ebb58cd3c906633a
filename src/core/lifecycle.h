// The life of one request as two pure state machines (doc/PROTOCOL.md §4).
//
// The requester kernel keeps one RequesterState per uncompleted REQUEST, the
// server kernel one ServerState per <requester MID, TID>. A step function
// maps (state, event) to the next state and the actions the kernel performs
// in bit order: a transition, an ignore (a stale or duplicate event) or
// impossible (the kernel asserts). Being pure, the functions are enumerated
// pair by pair in tests/test_lifecycle.cc.
#pragma once

#include <cstdint>

namespace soda::lifecycle {

enum class Outcome : std::uint8_t { kTransition, kIgnore, kImpossible };

template <typename S>
struct Step {
  Outcome outcome;
  S next;
  std::uint16_t actions;
};

template <typename S>
constexpr Step<S> go(S next, unsigned actions) {
  return {Outcome::kTransition, next, static_cast<std::uint16_t>(actions)};
}
template <typename S>
constexpr Step<S> ignore(S s) { return {Outcome::kIgnore, s, 0}; }
template <typename S>
constexpr Step<S> impossible(S s) { return {Outcome::kImpossible, s, 0}; }

// ---- Requester side. Entry states: kSending and kDiscovering.

enum class RequesterState : std::uint8_t {
  kSending,         // REQUEST with the transport, not yet acknowledged
  kSendingCancel,   // ... and CANCELled: the query waits for the ack (§5.2.3)
  kDelivered,       // acknowledged; the kernel probes the server (§3.6.2)
  kCancelling,      // ... with a CANCEL query in flight (§3.3.3)
  kLateData,        // ACCEPT seen; late DATA in flight until its DATA_ACK
  kLateDataCancel,  // ... with a CANCEL queued or in flight
  kDiscovering,     // DISCOVER collecting replies (§3.4.4)
  kDone,            // terminal: completion posted, or cancelled
};
inline constexpr int kRequesterStates = 8;

enum class RequesterEvent : std::uint8_t {
  kAcked,            // the transport acknowledged the REQUEST frame
  kRefused,          // the transport gave up on it, or it cannot leave
  kAccept,           // ACCEPT arrived; nothing more to send
  kAcceptWantsData,  // ACCEPT arrived asking for the REQUEST's data
  kDataAck,          // the server acknowledged the late DATA
  kDataTimeout,      // late-DATA timer, retries left
  kDataGiveUp,       // late-DATA timer, retries spent
  kProbeDue,         // probe deadline, misses under the limit
  kProbeGiveUp,      // probe deadline, max_probe_misses in a row
  kProbeKnown,       // probe reply: the server holds the request
  kProbeUnknown,     // probe reply: the server lost it (rebooted)
  kCancel,           // the client called CANCEL
  kCancelOk,         // CANCEL reply: cancelled
  kCancelFailed,     // CANCEL reply: too late, or the query failed
  kDiscoverReply,    // a server matched the DISCOVER
  kDiscoverWindow,   // the DISCOVER collection window closed
};
inline constexpr int kRequesterEvents = 16;

enum RequesterAction : std::uint16_t {
  kRecordAccept = 1 << 0,    // keep the ACCEPT section, copy its reply data
  kResetMisses = 1 << 1,     // the server answered a probe
  kStopProbing = 1 << 2,
  kStartProbing = 1 << 3,    // enrol the first probe deadline
  kHoldCancel = 1 << 4,      // keep the caller's CANCEL promise
  kRefuseCancel = 1 << 5,    // the caller's CANCEL fails at once
  kSendCancel = 1 << 6,      // send the CANCEL query
  kFailCancel = 1 << 7,      // the held CANCEL fails
  kSendLateData = 1 << 8,
  kResendLateData = 1 << 9,  // count and trace a retransmission, then send
  kSendProbe = 1 << 10,      // send a probe and enrol the next deadline
  kNoteMember = 1 << 11,     // remember the DISCOVER reply's MID
  kNoteCrash = 1 << 12,      // count a crash the probes detected
  kComplete = 1 << 13,       // terminal: post the completion interrupt
  kCancelled = 1 << 14,      // terminal: no interrupt; the CANCEL succeeds
};

constexpr Step<RequesterState> requester_step(RequesterState s,
                                              RequesterEvent e) {
  using S = RequesterState;
  using E = RequesterEvent;
  if (s == S::kDone) {
    // Only a CANCEL reaches a finishing request: the continuation of its
    // held CANCEL, resumed inline while the completion is posted.
    return e == E::kCancel ? go(s, kRefuseCancel) : impossible(s);
  }
  if (s == S::kDiscovering) {
    if (e == E::kDiscoverReply) return go(s, kNoteMember);
    if (e == E::kDiscoverWindow) return go(S::kDone, kComplete);
    if (e == E::kCancel) return go(s, kRefuseCancel);
    if (e == E::kAccept || e == E::kAcceptWantsData || e == E::kCancelOk ||
        e == E::kCancelFailed) {
      return ignore(s);  // names no DISCOVER
    }
    return impossible(s);  // never acked, probed or asked for data
  }
  const bool sending = s == S::kSending || s == S::kSendingCancel;
  const bool probing = s == S::kDelivered || s == S::kCancelling;
  const bool late = s == S::kLateData || s == S::kLateDataCancel;
  const bool cancel =
      s == S::kSendingCancel || s == S::kCancelling || s == S::kLateDataCancel;
  const unsigned done = cancel ? kFailCancel | kComplete : kComplete;
  switch (e) {
    case E::kAcked:  // a frame is acknowledged once
      if (probing) return impossible(s);
      if (sending) {
        return cancel ? go(S::kCancelling, kStartProbing | kSendCancel)
                      : go(S::kDelivered, kStartProbing);
      }
      // The ACCEPT overtook the ack (a sequenced frame is delivered before
      // the ack it carries): probing starts although it has nothing to do.
      return go(s, cancel ? kStartProbing | kSendCancel : kStartProbing);
    case E::kRefused:
      return probing ? impossible(s) : go(S::kDone, done);
    case E::kAccept:
      if (late) return ignore(s);  // a duplicate
      return go(S::kDone, kRecordAccept | kStopProbing | done);
    case E::kAcceptWantsData:
      if (late) return ignore(s);
      return go(cancel ? S::kLateDataCancel : S::kLateData,
                kRecordAccept | kStopProbing | kSendLateData);
    case E::kDataAck:
    case E::kDataGiveUp:
      return late ? go(S::kDone, done) : impossible(s);
    case E::kDataTimeout:
      return late ? go(s, kResendLateData) : impossible(s);
    case E::kProbeDue:
    case E::kProbeGiveUp:
      if (late) return ignore(s);  // the deadline the ack above enrolled
      if (!probing) return impossible(s);
      return e == E::kProbeDue ? go(s, kSendProbe)
                               : go(S::kDone, kNoteCrash | done);
    case E::kProbeKnown:
      return sending ? impossible(s) : go(s, kResetMisses);
    case E::kProbeUnknown:
      if (sending) return impossible(s);
      return go(S::kDone, kResetMisses | kNoteCrash | done);
    case E::kCancel:
      if (s == S::kSending) return go(S::kSendingCancel, kHoldCancel);
      if (s == S::kDelivered) {
        return go(S::kCancelling, kHoldCancel | kSendCancel);
      }
      return go(s, kRefuseCancel);  // one at a time, none after an ACCEPT
    case E::kCancelOk:
    case E::kCancelFailed:
      if (s == S::kSendingCancel) return impossible(s);  // query not sent
      if (!cancel) return ignore(s);  // a duplicate reply
      if (e == E::kCancelOk) return go(S::kDone, kCancelled);
      return go(late ? S::kLateData : S::kDelivered, kFailCancel);
    case E::kDiscoverReply: return ignore(s);
    case E::kDiscoverWindow: return impossible(s);
  }
  return impossible(s);
}

// ---- Server side. Entry state: kNone. kDone keys live in the kernel's
// bounded LRU of completed requests (§3.6.1): they differ from kNone only
// in refusing ACCEPTs and in answering probes.

enum class ServerState : std::uint8_t {
  kNone,           // nothing known about the key
  kDelivered,      // REQUEST delivered, awaiting ACCEPT or CANCEL
  kAccepting,      // ACCEPT frame in flight, awaiting its ack
  kAcceptingData,  // ... and the REQUEST's data as late DATA
  kAwaitingData,   // ACCEPT frame acked, awaiting the late DATA
  kDone,           // completed or cancelled
};
inline constexpr int kServerStates = 6;

enum class ServerEvent : std::uint8_t {
  kArrive,           // the REQUEST is delivered
  kAcceptPiggyback,  // ACCEPT riding on the REQUEST's delayed ack (§5.2.3)
  kAcceptFrame,      // ACCEPT as a sequenced frame, nothing to wait for
  kAcceptWantsData,  // ACCEPT as a sequenced frame asking for late DATA
  kFrameAcked,       // the ACCEPT frame was acknowledged
  kFrameFailed,      // the requester refused it, or crashed
  kLateData,         // the REQUEST's data arrived as late DATA
  kDataDeadline,     // the late DATA did not come in time
  kCancelQuery,      // the requester asks to CANCEL
};
inline constexpr int kServerEvents = 9;

enum ServerAction : std::uint16_t {
  kStoreRequest = 1 << 0,     // keep the REQUEST, invoke the handler
  kRefuseAccept = 1 << 1,     // the ACCEPT fails at once: CANCELLED
  kSendAccept = 1 << 2,       // send the ACCEPT
  kArmDataDeadline = 1 << 3,  // bound the wait for late DATA
  kTakeData = 1 << 4,         // hand the late DATA to the ACCEPT
  kCancelOk = 1 << 5,         // terminal: the CANCEL wins
  kAcceptDone = 1 << 6,       // terminal: the ACCEPT succeeds
  kAcceptFailed = 1 << 7,     // terminal: the ACCEPT fails
};

constexpr Step<ServerState> server_step(ServerState s, ServerEvent e) {
  using S = ServerState;
  using E = ServerEvent;
  const bool in_flight = s == S::kAccepting || s == S::kAcceptingData;
  const bool waiting = s == S::kAcceptingData || s == S::kAwaitingData;
  switch (e) {
    case E::kArrive:
      // An ACCEPT offered before its REQUEST arrived stays in flight. A
      // second delivery of one key, which at-most-once delivery rules out,
      // is taken as a fresh one.
      return go(s == S::kNone || s == S::kDone ? S::kDelivered : s,
                kStoreRequest);
    case E::kAcceptPiggyback:
    case E::kAcceptFrame:
    case E::kAcceptWantsData:
      // From kNone: a guessed signature, judged by the requester's kernel
      // (§3.3.2 item 6), or the kernel's own LOAD accept.
      if (s != S::kDelivered && s != S::kNone) {
        return go(s, kRefuseAccept);  // one ACCEPT per request
      }
      if (e == E::kAcceptFrame) return go(S::kAccepting, kSendAccept);
      if (e == E::kAcceptWantsData) {
        return go(S::kAcceptingData, kSendAccept | kArmDataDeadline);
      }
      if (s == S::kNone) return impossible(s);  // nothing to piggyback on
      return go(S::kDone, kSendAccept | kAcceptDone);
    case E::kFrameAcked:
    case E::kFrameFailed:  // a frame is acknowledged or refused once
      if (s == S::kAwaitingData) return impossible(s);
      if (!in_flight) return ignore(s);  // the ACCEPT already ended
      if (e == E::kFrameFailed) return go(S::kDone, kAcceptFailed);
      return waiting ? go(S::kAwaitingData, 0) : go(S::kDone, kAcceptDone);
    case E::kLateData:
      if (!waiting) return ignore(s);  // a duplicate
      return in_flight ? go(S::kAccepting, kTakeData)
                       : go(S::kDone, kTakeData | kAcceptDone);
    case E::kDataDeadline:
      return waiting ? go(S::kDone, kAcceptFailed) : ignore(s);
    case E::kCancelQuery:
      return s == S::kDelivered ? go(S::kDone, kCancelOk) : ignore(s);
  }
  return impossible(s);
}

}  // namespace soda::lifecycle
