#include "core/kernel.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "core/node.h"

namespace soda {

using net::Frame;
using sim::TraceCategory;

namespace {

Bytes pattern_to_bytes(Pattern p) {
  Bytes b(8);
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<std::byte>((p >> (8 * i)) & 0xFF);
  }
  return b;
}

Pattern pattern_from_bytes(const Bytes& b) {
  Pattern p = 0;
  for (std::size_t i = 0; i < 8 && i < b.size(); ++i) {
    p |= static_cast<Pattern>(std::to_integer<std::uint8_t>(b[i])) << (8 * i);
  }
  return p & kPatternMask;
}

// One alpha = 1/8 step of a non-negative integer EWMA. The first sample
// (or one after the average decayed to 0) seeds it, and integer division
// must not stick it short of a small target.
template <typename T>
void ewma_step(T& avg, T sample) {
  if (avg <= 0) {
    avg = sample;
    return;
  }
  T delta = (sample - avg) / 8;
  if (delta == 0 && sample != avg) delta = sample > avg ? 1 : -1;
  avg += delta;
}

// An ACCEPT for `tid` carrying `reply`, already cut to the size the
// requester asked for, as ACCEPT data.
Frame accept_frame(Tid tid, std::int32_t arg, std::uint32_t put_n,
                   bool needs_put, Bytes reply) {
  Frame af;
  const auto get_n = static_cast<std::uint32_t>(reply.size());
  af.accept = net::AcceptSection{tid, arg, put_n, get_n, needs_put, get_n > 0};
  if (get_n > 0) {
    af.data = std::move(reply);
    af.data_tag = net::DataTag::kAcceptData;
    af.data_tid = tid;
  }
  return af;
}

using RE = lifecycle::RequesterEvent;
using SE = lifecycle::ServerEvent;

/// Admission control (doc/OVERLOAD.md §3): shed REQUEST offers with an
/// early BUSY-NACK (before any section processing) once the pending-accept
/// backlog reaches this depth. The NACK carries a shed hint the requester
/// folds into its backoff floor. Never trips under the paper's workloads:
/// a serial handler keeps the backlog at 1-2.
constexpr std::size_t kAdmitBacklogWatermark = 8;
/// Shed hint scale for the incoming-offer rate: when more than this many
/// REQUEST offers land within one admission window (eight busy retry
/// intervals, so the window tracks the timing preset), BUSY NACKs start
/// carrying a hint of offers/watermark (capped at 3).
constexpr int kAdmitOfferWatermark = 48;
constexpr std::uint32_t kShedScoreCap = 1024;
/// Anycast distance penalty (doc/INTERNET.md): a pool member seeded from
/// a DISCOVER reply that crossed gateways starts with a shed score of
/// hops * kAnycastHopBias, so the least-shed pick prefers same-segment
/// members until local pressure outweighs the extra hops. Local replies
/// arrive with hops == 0, so single-segment behaviour (and the pinned
/// trace hashes) are untouched.
constexpr std::uint32_t kAnycastHopBias = 4;

}  // namespace

Kernel::Kernel(sim::Simulator& sim, net::Bus& bus, Mid mid, NodeConfig config,
               UniqueIdSource& uids, NodeCpu& cpu, Node& node)
    : sim_(sim),
      config_(std::move(config)),
      mid_(mid),
      uids_(uids),
      cpu_(cpu),
      node_(node),
      metrics_(sim.metrics().node(mid)),
      transport_(
          sim, bus, mid, config_.timing, cpu,
          proto::TransportCallbacks{
              [this](const Frame& f) { return classify(f); },
              [this](const Frame& f) { deliver(f); },
              [this](Mid peer, const Frame& sent) { on_acked(peer, sent); },
              [this](Mid peer, const Frame& sent, net::NackReason reason) {
                on_failed(peer, sent, reason);
              },
              [this](Mid peer, const Frame& sent, std::uint8_t hint) {
                on_busy(peer, sent, hint);
              }}) {
  boot_patterns_.insert(kDefaultBootPattern);
  if (config_.initial_tid > 1) {
    next_tid_ = config_.initial_tid;
    boot_min_tid_ = config_.initial_tid;
  }
  if (config_.nic_pattern_filter) {
    // The predicate reads live kernel state, so advertise/unadvertise and
    // client death are reflected without re-registering.
    bus.set_interest_filter(mid_, [this](const Frame& f) {
      return !f.discover || f.discover->is_reply ||
             matches_discover(f.discover->pattern);
    });
  }
}

void Kernel::trace_op(TraceCategory c, Mid peer, Tid tid, sim::TraceStatus s) {
  sim_.trace().record(sim_.now(), c, mid_,
                      sim::TracePayload{}
                          .with_peer(peer)
                          .with_tid(static_cast<std::int32_t>(tid))
                          .with_status(s));
}

// ===================================================================
// Naming primitives (§3.4)

bool Kernel::advertise(Pattern p) {
  cpu_.charge(config_.timing.client_trap, CostCategory::kClientOverhead);
  if (net::is_reserved_pattern(p)) return false;
  p &= kPatternMask;
  if (config_.indexed_pattern_table) {
    // §5.4: the low 8 bits index a 256-entry array; a colliding advertise
    // overwrites the previous occupant — the 1984 artefact, reproduced.
    const auto slot = static_cast<std::size_t>(p & 0xFF);
    indexed_table_[slot] = p;
    indexed_used_[slot] = true;
    return true;
  }
  client_patterns_.insert(p);
  return true;
}

bool Kernel::unadvertise(Pattern p) {
  cpu_.charge(config_.timing.client_trap, CostCategory::kClientOverhead);
  if (net::is_reserved_pattern(p)) return false;
  p &= kPatternMask;
  if (config_.indexed_pattern_table) {
    if (!pattern_bound(p)) return false;
    indexed_used_[static_cast<std::size_t>(p & 0xFF)] = false;
    return true;
  }
  return client_patterns_.erase(p) > 0;
}

bool Kernel::pattern_bound(Pattern p) const {
  p &= kPatternMask;
  if (config_.indexed_pattern_table) {
    const auto slot = static_cast<std::size_t>(p & 0xFF);
    return indexed_used_[slot] && indexed_table_[slot] == p;
  }
  return client_patterns_.count(p) > 0;
}

bool Kernel::matches_discover(Pattern p) const {
  p &= kPatternMask;
  return (node_.has_client() && pattern_bound(p)) || reserved_bound(p);
}

Pattern Kernel::get_unique_id() {
  cpu_.charge(config_.timing.client_trap, CostCategory::kClientOverhead);
  Pattern p = uids_.next(mid_);
  if (config_.randomized_unique_ids) {
    // §6.15: GETUNIQUEID returns fewer than PATTERNSIZE bits, so a random
    // component can ride above the serial/counter pair, keeping patterns
    // unique but hard to guess.
    const Pattern random_bits = sim_.rng().next_below(1u << 6);
    p |= (random_bits << 40);
    p &= ~(kReservedBit | kWellKnownBit) & kPatternMask;
  }
  return p;
}

// ===================================================================
// REQUEST (§3.3.1)

std::optional<Tid> Kernel::request(RequestParams params) {
  cpu_.charge(config_.timing.client_trap, CostCategory::kClientOverhead);
  if (live_requests() >= config_.max_requests) {
    // "If MAXREQUESTS remain uncompleted, a REQUEST is ignored by the
    // kernel" (§3.7.4).
    return std::nullopt;
  }
  if (params.put_data.size() > config_.max_message_bytes ||
      params.get_size > config_.max_message_bytes) {
    return std::nullopt;
  }

  bool anycast_unresolved = false;
  if (params.server.mid == net::kAnycastMid) {
    // Anycast (doc/OVERLOAD.md §4): pick the least-shed pool member for
    // this pattern. Resolution happens before the trace record so the
    // traced peer is the concrete server chosen.
    if (auto m = anycast_pick(params.server.pattern & kPatternMask)) {
      params.server.mid = *m;
    } else {
      anycast_unresolved = true;  // empty pool: fail like unknown pattern
    }
  }

  const Tid tid = next_tid_++;
  PendingRequest& p = pending_[tid];
  p.tid = tid;
  p.server = params.server;
  p.put_data = std::move(params.put_data);
  p.get_size = params.get_size;
  p.get_into = params.get_into;
  p.issued_at = sim_.now();

  metrics_.add(stats::Counter::kRequestsIssued);
  trace_op(TraceCategory::kRequestIssued, params.server.mid, tid);

  if (params.server.mid == kBroadcastMid) {
    // DISCOVER (§3.4.4): broadcast the query, collect staggered replies
    // for a window, then complete like a GET.
    p.state = lifecycle::RequesterState::kDiscovering;
    Frame f;
    f.discover = net::DiscoverSection{params.server.pattern, tid, false};
    transport_.broadcast(std::move(f));
    sim_.after(config_.timing.discover_window,
               [this, tid]() { advance(tid, RE::kDiscoverWindow); });
    return tid;
  }

  if (params.server.mid == mid_ || anycast_unresolved) {
    // "There is no provision for local messages" (§3.3): fail the request
    // the same way an unknown pattern would. An anycast request against an
    // empty pool (no DISCOVER reply seen yet) fails identically.
    sim_.after(0, [this, tid]() {
      advance(tid, RE::kRefused, nullptr, CompletionStatus::kUnadvertised);
    });
    return tid;
  }

  Frame f;
  f.request = net::RequestSection{
      tid, params.server.pattern, params.arg,
      static_cast<std::uint32_t>(p.put_data.size()), p.get_size,
      /*carries_data=*/!p.put_data.empty()};
  if (!p.put_data.empty()) {
    f.data = p.put_data;  // the pending entry keeps a copy for a late DATA
    f.data_tag = net::DataTag::kRequestData;
    f.data_tid = tid;
  }
  transport_.send_sequenced(
      p.server.mid, std::move(f),
      {.strip_data_on_retransmit = true,
       .urgent = false,
       .response_allowance = static_cast<sim::Duration>(p.get_size) *
                             config_.timing.retransmit_per_byte});
  return tid;
}

// ===================================================================
// ACCEPT (§3.3.2)

sim::Future<AcceptResult> Kernel::accept(AcceptParams params) {
  cpu_.charge(config_.timing.client_trap, CostCategory::kClientOverhead);
  sim::Promise<AcceptResult> pr;
  const RequesterSignature rs = params.requester;
  metrics_.add(stats::Counter::kAcceptsIssued);
  trace_op(TraceCategory::kAcceptIssued, rs.mid, rs.tid);

  const ServerKey key{rs.mid, rs.tid};
  auto it = served_.find(key);
  const lifecycle::ServerState s = served_state(key, it);
  // From kNone the ACCEPT goes on the wire for the requester's kernel to
  // judge (guessed signatures fail there with CANCELLED / WRONG_CLIENT /
  // CRASHED, §3.3.2 item 6), so it offers no data either way.
  auto e = SE::kAcceptFrame;
  std::uint32_t put_n = 0;
  std::uint32_t get_n = 0;
  bool needs_put = false;
  if (s == lifecycle::ServerState::kDelivered) {
    const ServerRecord::Request& rq = *it->second.request;
    put_n = std::min(rq.put_size, params.max_take);
    get_n = std::min(static_cast<std::uint32_t>(params.reply_data.size()),
                     rq.get_size);
    const bool have_data = rq.data.has_value();
    needs_put = put_n > 0 && !have_data;
    if (have_data && put_n > 0 && params.take_into) {
      // The receive-side copy was already charged when the frame landed in
      // the input buffer; handing the bytes to the client is the same copy.
      params.take_into->assign(rq.data->begin(), rq.data->begin() + put_n);
    }
    if (needs_put) {
      // The REQUEST data did not survive: ask for a late DATA frame.
      e = SE::kAcceptWantsData;
    } else if (get_n == 0 && transport_.ack_pending(rs.mid)) {
      // The ACCEPT rides on the delayed ACK of the REQUEST — the paper's
      // two-packet PUT (§5.2.3). Reliable because a lost ACCEPT+ACK is
      // replayed when the requester retransmits.
      e = SE::kAcceptPiggyback;
    }
  }
  const auto step = lifecycle::server_step(s, e);
  if (rs.mid == mid_ || rs.mid == kBroadcastMid || rs.tid == kNoTid ||
      (step.actions & lifecycle::kRefuseAccept)) {
    // A signature that names no remote request, or one already accepted,
    // completed or cancelled (§3.6.1).
    pr.set(AcceptResult{AcceptStatus::kCancelled, 0, 0});
    return pr.future();
  }
  if (it == served_.end()) it = served_.try_emplace(key).first;
  ServerRecord& r = it->second;
  r.promise = pr;
  r.take_into = params.take_into;
  r.max_take = params.max_take;
  r.result = AcceptResult{AcceptStatus::kSuccess, needs_put ? 0 : put_n, get_n};
  r.issued_at = sim_.now();
  params.reply_data.resize(get_n);
  start_accept(it, step,
               accept_frame(rs.tid, params.arg, put_n, needs_put,
                            std::move(params.reply_data)));
  return pr.future();
}

lifecycle::ServerState Kernel::served_state(ServerKey key,
                                            ServerRecords::iterator it) const {
  if (it != served_.end()) return it->second.state;
  return is_recently_completed(key) ? lifecycle::ServerState::kDone
                                    : lifecycle::ServerState::kNone;
}

void Kernel::start_accept(ServerRecords::iterator it,
                          lifecycle::Step<lifecycle::ServerState> step,
                          net::Frame af) {
  const ServerKey key = it->first;
  it->second.state = step.next;
  if (step.actions & lifecycle::kAcceptDone) {
    // Piggybacked: sent as the response the REQUEST's ack carries.
    transport_.send_control(key.first, std::move(af),
                            /*store_as_response=*/true);
    finish_accept(it, AcceptStatus::kSuccess, sim::TraceStatus::kPiggybacked);
    return;
  }
  transport_.send_sequenced(key.first, std::move(af));
  if (step.actions & lifecycle::kArmDataDeadline) arm_accept_data_deadline(key);
}

void Kernel::arm_accept_data_deadline(ServerKey key) {
  // A waiting ACCEPT must not outlive the requester's willingness to
  // supply the late data: once the requester's DATA retransmission budget
  // (or its own view of this exchange) is spent it completes the request
  // as CRASHED and forgets the TID, and nothing it sends afterwards can
  // release this handler. Give the data one record lifetime plus a full
  // retransmission span to arrive, then declare the requester crashed
  // (§3.3.2: an ACCEPT fails if the requesting machine crashed).
  const sim::Duration grace =
      config_.timing.record_lifetime() + config_.timing.retransmit_span();
  const sim::Time issued = sim_.now();
  sim_.after(grace, [this, key, issued, epoch = death_epoch_]() {
    if (epoch != death_epoch_) return;
    auto it = served_.find(key);
    if (it == served_.end() || it->second.issued_at != issued) return;
    if (serve_step(it->second, SE::kDataDeadline) &
        lifecycle::kAcceptFailed) {
      finish_accept(it, AcceptStatus::kCrashed, sim::TraceStatus::kCrashed);
    }
  });
}

void Kernel::finish_accept(ServerRecords::iterator it, AcceptStatus status,
                           sim::TraceStatus ts) {
  ServerRecord& r = it->second;
  const bool ok = status == AcceptStatus::kSuccess;
  if (ok) {
    metrics_.add(stats::Counter::kAcceptsCompleted);
    metrics_.observe(stats::Latency::kAcceptWait, sim_.now() - r.issued_at);
  }
  trace_op(TraceCategory::kAcceptCompleted, it->first.first, it->first.second,
           ts);
  if (ok && r.request) {
    note_service_sample(sim_.now() - r.request->delivered_at);
  }
  const AcceptResult result = ok ? r.result : AcceptResult{status, 0, 0};
  auto promise = std::move(r.promise);
  forget_served(it);
  if (promise) promise->set(result);
}

unsigned Kernel::serve_step(ServerRecord& r, lifecycle::ServerEvent e) {
  const auto step = lifecycle::server_step(r.state, e);
  assert(step.outcome != lifecycle::Outcome::kImpossible);
  r.state = step.next;
  return step.actions;
}

void Kernel::forget_served(ServerRecords::iterator it) {
  if (it->second.request) --delivered_count_;
  note_completed(it->first);
  served_.erase(it);
}

void Kernel::handle_late_data(const net::Frame& f) {
  auto it = served_.find(ServerKey{f.src, f.data_tid});
  if (it != served_.end()) {
    ServerRecord& r = it->second;
    const unsigned a = serve_step(r, SE::kLateData);
    if (a & lifecycle::kTakeData) {
      const std::uint32_t n =
          std::min(r.max_take, static_cast<std::uint32_t>(f.data.size()));
      if (r.take_into) r.take_into->assign(f.data.begin(), f.data.begin() + n);
      if (r.on_data) r.on_data(f.data);
      r.result.put_received = n;
    }
    if (a & lifecycle::kAcceptDone) {
      finish_accept(it, AcceptStatus::kSuccess, sim::TraceStatus::kCompleted);
    }
  }
  // Acknowledge in all cases (duplicates included): the requester's
  // exchange finishes on this DATA_ACK — the paper's final "ACK (by
  // server)" packet.
  Frame ackf;
  ackf.data_ack = f.data_tid;
  transport_.send_control(f.src, std::move(ackf));
}

// ===================================================================
// CANCEL (§3.3.3)

sim::Future<CancelStatus> Kernel::cancel(Tid tid) {
  cpu_.charge(config_.timing.client_trap, CostCategory::kClientOverhead);
  sim::Promise<CancelStatus> pr;
  auto it = pending_.find(tid);
  if (it == pending_.end()) {
    pr.set(CancelStatus::kFail);
  } else {
    // A REQUEST is only eligible for cancellation once acknowledged
    // (§5.2.3): before that the query waits for the delivery ack.
    advance(it->second, RE::kCancel, nullptr, CompletionStatus::kCompleted,
            &pr);
  }
  return pr.future();
}

// ===================================================================
// Handler control (§3.3.4)

void Kernel::open() { set_open(true); }

void Kernel::close() { set_open(false); }

void Kernel::set_open(bool open) {
  if (handler_busy_) {
    pending_open_ = open;  // from inside the handler: at ENDHANDLER
    return;
  }
  handler_open_ = open;
  if (open) {
    try_dispatch();
    release_held_frame();
  }
}

void Kernel::endhandler() {
  handler_busy_ = false;
  sim_.trace().record(sim_.now(), TraceCategory::kHandlerEnded, mid_);
  if (pending_open_) handler_open_ = *pending_open_;
  pending_open_.reset();
  if (config_.pipelined) {
    // The pipelined kernel's ENDHANDLER checks the input buffer for a
    // REQUEST that arrived while the handler was busy (§5.2.3).
    cpu_.charge(config_.timing.pipeline_check, CostCategory::kProtocol);
  }
  try_dispatch();
  release_held_frame();
  if (!handler_busy_) node_.drain_client_deferred();
}

bool Kernel::handler_available_for_arrival() const {
  // "As long as queued completion interrupts are present, the handler is
  // considered BUSY" for arrivals (§3.7.5).
  return node_.has_client() && handler_open_ && !handler_busy_ &&
         completions_.empty();
}

void Kernel::post_completion(HandlerArgs args) {
  if (!node_.has_client()) return;
  completions_.push_back(args);
  try_dispatch();
}

void Kernel::try_dispatch() {
  if (!node_.has_client()) {
    completions_.clear();
    return;
  }
  if (!handler_open_ || handler_busy_ || completions_.empty()) return;
  const HandlerArgs args = completions_.front();
  completions_.pop_front();
  run_handler(args, sim::TraceStatus::kCompletion);
}

void Kernel::run_handler(const HandlerArgs& args, sim::TraceStatus ts) {
  handler_busy_ = true;
  cpu_.run(config_.timing.context_switch, CostCategory::kContextSwitch,
           [this, args, ts, epoch = death_epoch_]() {
             if (epoch != death_epoch_) return;
             if (!node_.has_client()) {
               handler_busy_ = false;
               return;
             }
             metrics_.add(stats::Counter::kHandlerInvocations);
             trace_op(TraceCategory::kHandlerInvoked, -1, kNoTid, ts);
             node_.invoke_handler(args);
           });
}

void Kernel::set_held_frame(const net::Frame& f) {
  held_frame_ = f;
  // Cancelling a fired or never-armed id is a no-op (sim::EventQueue).
  sim_.cancel(hold_timer_);
  hold_timer_ = sim_.after(
      config_.input_buffer_hold, [this, epoch = death_epoch_]() {
        if (epoch != death_epoch_ || !held_frame_) return;
        Frame f = *held_frame_;
        held_frame_.reset();
        transport_.reject_held(f);
      });
}

void Kernel::release_held_frame() {
  if (!held_frame_ || !handler_available_for_arrival()) return;
  Frame f = *held_frame_;
  clear_held_frame();
  transport_.accept_held(f);
}

void Kernel::clear_held_frame() {
  held_frame_.reset();
  sim_.cancel(hold_timer_);
}

// ===================================================================
// Process control (§3.5)

void Kernel::client_booted(Mid parent) {
  handler_open_ = true;
  HandlerArgs args;
  args.reason = HandlerReason::kBooting;
  args.parent = parent;
  run_handler(args, sim::TraceStatus::kBooting);
}

void Kernel::die() {
  cpu_.charge(config_.timing.client_trap, CostCategory::kClientOverhead);
  reset_for_death(/*client_initiated=*/true);
}

void Kernel::crash() { reset_for_death(/*client_initiated=*/false); }

bool Kernel::client_dead() const { return !node_.has_client(); }

void Kernel::reset_for_death(bool client_initiated) {
  trace_op(TraceCategory::kBoot, -1, kNoTid,
           client_initiated ? sim::TraceStatus::kDie
                            : sim::TraceStatus::kKilled);
  node_.kill_client();
  client_patterns_.clear();
  indexed_used_.fill(false);
  for (auto& [tid, p] : pending_) stop_probing(p);
  sim_.cancel(probe_wheel_timer_);
  probe_wheel_at_ = 0;
  pending_.clear();
  completions_.clear();
  served_.clear();
  delivered_count_ = 0;
  completed_lru_.clear();
  clear_held_frame();
  handler_busy_ = false;
  handler_open_ = true;
  pending_open_.reset();
  core_image_.clear();
  load_pattern_ = 0;
  boot_min_tid_ = next_tid_;
  ++death_epoch_;
  admit_window_start_ = 0;
  admit_offers_ = 0;
  anycast_.clear();
  ewma_service_ = 0;
  ewma_offers_ = 0;
  transport_.reset();
}

// ===================================================================
// Transport callbacks

proto::DispositionResult Kernel::classify(const net::Frame& f) {
  if (f.request) {
    const Pattern p = f.request->pattern & kPatternMask;
    const Tid tid = f.request->tid;
    if (net::is_reserved_pattern(p)) {
      // Reserved patterns are bound to kernel routines whose execution
      // "cannot be impeded by the client handler state" (§3.4.3). Only
      // machine 0 may administer reserved patterns (§3.5.4).
      if (!reserved_bound(p) || (p == kSystemPattern && f.src != 0)) {
        return {proto::Disposition::kError, net::NackReason::kUnadvertised,
                tid};
      }
      return {proto::Disposition::kDeliver, {}, kNoTid};
    }
    if (!node_.has_client() || !pattern_bound(p)) {
      return {proto::Disposition::kError, net::NackReason::kUnadvertised, tid};
    }
    const std::uint8_t hint = note_offer_pressure();
    if (delivered_count_ >= effective_backlog_watermark()) {
      // Admission control: the pending-accept backlog is past the
      // watermark, so shed this offer before any section processing and
      // tell the requester how hard to back off.
      metrics_.add(stats::Counter::kShedOffers);
      sim_.trace().record(sim_.now(), sim::TraceCategory::kOther, mid_,
                          sim::TracePayload{}
                              .with_peer(f.src)
                              .with_status(sim::TraceStatus::kShed)
                              .with_detail(static_cast<std::int64_t>(
                                  delivered_count_)));
      return {proto::Disposition::kBusy, {}, kNoTid,
              std::max<std::uint8_t>(hint, 1)};
    }
    if (handler_available_for_arrival() && !held_frame_) {
      return {proto::Disposition::kDeliver, {}, kNoTid};
    }
    if (config_.pipelined) {
      if (held_frame_ && held_frame_->src == f.src && held_frame_->request &&
          held_frame_->request->tid == tid) {
        return {proto::Disposition::kHold, {}, kNoTid};  // already holding it
      }
      if (!held_frame_) {
        set_held_frame(f);
        return {proto::Disposition::kHold, {}, kNoTid};
      }
    }
    if (hint > 0) metrics_.add(stats::Counter::kShedOffers);
    return {proto::Disposition::kBusy, {}, kNoTid, hint};
  }

  if (f.accept) {
    const Tid tid = f.accept->tid;
    auto it = pending_.find(tid);
    if (it == pending_.end()) {
      // Stale or forged ACCEPT (§3.6.1, §5.4): requests from before this
      // incarnation report CRASHED; completed/cancelled/forged report
      // CANCELLED.
      return {proto::Disposition::kError,
              tid < boot_min_tid_ ? net::NackReason::kCrashed
                                  : net::NackReason::kCancelled,
              tid};
    }
    if (it->second.server.mid != f.src) {
      // "An ACCEPT will fail if issued by a different client than that
      // named in the matching REQUEST" (§3.3.2 item 6).
      return {proto::Disposition::kError, net::NackReason::kWrongClient, tid};
    }
    return {proto::Disposition::kDeliver, {}, kNoTid};
  }

  // Late DATA frames and CANCEL queries are kernel-level: always deliver.
  return {proto::Disposition::kDeliver, {}, kNoTid};
}

std::uint8_t Kernel::note_offer_pressure() {
  // The window is eight busy-retry intervals so it scales with the timing
  // preset (40 ms calibrated, 400 us fast) and with injected timer skew.
  const sim::Duration window = 8 * config_.timing.busy_retry_interval;
  if (window <= 0) return 0;
  if (sim_.now() - admit_window_start_ >= window) {
    // Fold the closing window's offered load into the EWMA before the
    // counter resets (doc/OVERLOAD.md §3.2).
    if (config_.adaptive_admission) ewma_step(ewma_offers_, admit_offers_);
    admit_window_start_ = sim_.now();
    admit_offers_ = 0;
  }
  ++admit_offers_;
  const int watermark = effective_offer_watermark();
  const int level = admit_offers_ / watermark;
  std::uint8_t hint = static_cast<std::uint8_t>(std::min(level, 3));
  if (config_.adaptive_admission && hint == 0 && ewma_offers_ >= watermark) {
    // Sustained pressure remembered from earlier windows keeps a floor
    // under the hint even right after the counter reset.
    hint = 1;
  }
  return hint;
}

// Accepts this node completes per admission window at the measured service
// rate (none while the fixed watermarks apply). The watermarks derived from
// it are clamped so a pathological sample can neither close admission
// entirely nor disable shedding.
std::optional<sim::Duration> Kernel::window_capacity() const {
  if (!config_.adaptive_admission || ewma_service_ <= 0) return std::nullopt;
  const sim::Duration window = 8 * config_.timing.busy_retry_interval;
  return window / std::max<sim::Duration>(ewma_service_, 1);
}

std::size_t Kernel::effective_backlog_watermark() const {
  const auto capacity = window_capacity();
  if (!capacity) return kAdmitBacklogWatermark;
  return static_cast<std::size_t>(std::clamp<sim::Duration>(*capacity, 2, 64));
}

int Kernel::effective_offer_watermark() const {
  const auto capacity = window_capacity();
  if (!capacity) return kAdmitOfferWatermark;
  return static_cast<int>(std::clamp<sim::Duration>(2 * *capacity, 8, 512));
}

void Kernel::note_service_sample(sim::Duration d) {
  if (config_.adaptive_admission && d >= 0) ewma_step(ewma_service_, d);
}

// ===================================================================
// Anycast pool directory (doc/OVERLOAD.md §4)
//
// The directory is observational state: DISCOVER replies add members,
// BUSY-NACK shed hints and completion outcomes adjust per-member shed
// scores. It never touches timers, the RNG, or the trace, so seeding it
// cannot perturb trace hashes of workloads that never issue an anycast
// request.

std::vector<Mid> Kernel::anycast_members(Pattern pattern) const {
  auto it = anycast_.find(pattern & kPatternMask);
  if (it == anycast_.end()) return {};
  return it->second.members;
}

std::optional<Mid> Kernel::anycast_pick(Pattern pattern) {
  auto it = anycast_.find(pattern & kPatternMask);
  if (it == anycast_.end() || it->second.members.empty()) return std::nullopt;
  AnycastPool& pool = it->second;
  const std::size_t n = pool.members.size();
  // Scan starting one past the previous pick so equal-score members are
  // visited round-robin; the first strictly-smaller score wins outright.
  std::size_t best = (pool.cursor + 1) % n;
  for (std::size_t step = 1; step < n; ++step) {
    const std::size_t i = (pool.cursor + 1 + step) % n;
    if (pool.shed[i] < pool.shed[best]) best = i;
  }
  pool.cursor = best;
  return pool.members[best];
}

void Kernel::anycast_note_member(Pattern pattern, Mid server,
                                 std::uint8_t hops) {
  if (server < 0 || server == mid_) return;  // never pool ourselves (§3.3)
  AnycastPool& pool = anycast_[pattern & kPatternMask];
  auto it = std::lower_bound(pool.members.begin(), pool.members.end(), server);
  if (it != pool.members.end() && *it == server) return;
  const auto idx = static_cast<std::size_t>(it - pool.members.begin());
  // Remote members start handicapped by their relay distance so the
  // least-shed pick keeps traffic on-segment until local members are
  // genuinely more loaded (doc/INTERNET.md). Local replies have hops 0.
  const std::uint32_t seed_score = std::min<std::uint32_t>(
      static_cast<std::uint32_t>(hops) * kAnycastHopBias,
      kShedScoreCap);
  pool.members.insert(it, server);
  pool.shed.insert(pool.shed.begin() + static_cast<std::ptrdiff_t>(idx),
                   seed_score);
}

void Kernel::anycast_note_shed(Pattern pattern, Mid server,
                               std::uint8_t hint) {
  auto it = anycast_.find(pattern & kPatternMask);
  if (it == anycast_.end()) return;
  AnycastPool& pool = it->second;
  auto mit = std::lower_bound(pool.members.begin(), pool.members.end(),
                              server);
  if (mit == pool.members.end() || *mit != server) return;
  const auto idx = static_cast<std::size_t>(mit - pool.members.begin());
  pool.shed[idx] = std::min<std::uint32_t>(
      pool.shed[idx] + 1 + hint, kShedScoreCap);
}

void Kernel::anycast_note_result(Pattern pattern, Mid server,
                                 CompletionStatus status) {
  auto it = anycast_.find(pattern & kPatternMask);
  if (it == anycast_.end()) return;
  AnycastPool& pool = it->second;
  auto mit = std::lower_bound(pool.members.begin(), pool.members.end(),
                              server);
  if (mit == pool.members.end() || *mit != server) return;
  const auto idx = static_cast<std::size_t>(mit - pool.members.begin());
  switch (status) {
    case CompletionStatus::kCompleted:
      pool.shed[idx] /= 2;  // success decays accumulated pressure quickly
      break;
    case CompletionStatus::kCrashed:
      // Drop the member; the next DISCOVER after its reboot re-seeds it.
      pool.members.erase(mit);
      pool.shed.erase(pool.shed.begin() + static_cast<std::ptrdiff_t>(idx));
      if (pool.cursor >= pool.members.size()) pool.cursor = 0;
      break;
    case CompletionStatus::kTimedOut:
      pool.shed[idx] =
          std::min<std::uint32_t>(pool.shed[idx] + 16, kShedScoreCap);
      break;
    default:
      break;  // cancel / unadvertised say nothing about the member's load
  }
}

void Kernel::on_busy(Mid peer, const net::Frame& sent, std::uint8_t hint) {
  if (!sent.request) return;  // only REQUEST offers feed pool shed scores
  anycast_note_shed(sent.request->pattern & kPatternMask, peer, hint);
}

void Kernel::deliver(const net::Frame& f) {
  if (f.discover) {
    const auto& d = *f.discover;
    if (!d.is_reply) {
      if (matches_discover(d.pattern)) {
        // Stagger replies by MID so they do not collide on the bus (§5.3).
        const sim::Duration delay =
            config_.timing.discover_stagger * (mid_ + 1);
        sim_.after(delay, [this, d, peer = f.src,
                           epoch = death_epoch_]() {
          if (epoch != death_epoch_) return;
          Frame rf;
          rf.discover = net::DiscoverSection{d.pattern, d.tid, true};
          transport_.send_control(peer, std::move(rf));
        });
      }
    } else {
      // Every DISCOVER reply seeds the anycast directory for its pattern,
      // even when the originating request already completed: a reply is
      // positive evidence that `src` serves the pattern right now.
      anycast_note_member(d.pattern & kPatternMask, f.src, f.hops);
      advance(d.tid, RE::kDiscoverReply, &f);
    }
    return;  // DISCOVER frames carry nothing else
  }

  if (f.probe) {
    const auto& pb = *f.probe;
    if (!pb.is_reply) {
      const ServerKey key{f.src, pb.tid};
      const bool known = served_.count(key) > 0 || is_recently_completed(key);
      Frame rf;
      rf.probe = net::ProbeSection{pb.tid, true, known};
      transport_.send_control(f.src, std::move(rf));
      metrics_.add(stats::Counter::kProbeRepliesSent);
      trace_op(TraceCategory::kProbe, f.src, pb.tid,
               known ? sim::TraceStatus::kReplyKnown
                     : sim::TraceStatus::kReplyUnknown);
    } else {
      // An unknown reply means the server rebooted and lost the request:
      // it cannot escape detection (§3.6.2).
      advance(pb.tid, pb.known ? RE::kProbeKnown : RE::kProbeUnknown, nullptr,
              CompletionStatus::kCrashed);
    }
  }

  if (f.cancel) {
    const auto& c = *f.cancel;
    if (!c.is_reply) {
      auto it = served_.find(ServerKey{f.src, c.tid});
      const bool ok = it != served_.end() &&
                      (serve_step(it->second, SE::kCancelQuery) &
                       lifecycle::kCancelOk);
      if (ok) forget_served(it);
      Frame rf;
      rf.cancel = net::CancelSection{c.tid, true, ok};
      transport_.send_control(f.src, std::move(rf));
    } else {
      advance(c.tid, c.ok ? RE::kCancelOk : RE::kCancelFailed);
    }
  }

  if (f.accept) {
    // When the REQUEST data did not survive (stripped after a BUSY
    // encounter) it goes now as a DATA frame, and the server's DATA_ACK
    // completes the exchange: the paper's DATA+ACK packet followed by the
    // final ACK (§5.2.3). A stale or forged ACCEPT finds no request.
    auto it = pending_.find(f.accept->tid);
    if (it != pending_.end() && it->second.server.mid == f.src) {
      PendingRequest& p = it->second;
      const bool wants = f.accept->needs_put_data && !p.put_data.empty();
      advance(p, wants ? RE::kAcceptWantsData : RE::kAccept, &f);
    }
  }
  if (f.request) on_request_delivered(f);
  if (!f.request && f.data_tag == net::DataTag::kRequestData) {
    handle_late_data(f);
  }
  if (f.data_ack != kNoTid) advance(f.data_ack, RE::kDataAck);
}

void Kernel::on_acked(Mid peer, const net::Frame& sent) {
  if (sent.request) advance(sent.request->tid, RE::kAcked);
  if (sent.accept) {
    auto it = served_.find(ServerKey{peer, sent.accept->tid});
    if (it != served_.end() &&
        (serve_step(it->second, SE::kFrameAcked) & lifecycle::kAcceptDone)) {
      finish_accept(it, AcceptStatus::kSuccess, sim::TraceStatus::kCompleted);
    }
  }
}

void Kernel::on_failed(Mid peer, const net::Frame& sent,
                       net::NackReason reason) {
  if (sent.request) {
    using R = net::NackReason;
    advance(sent.request->tid, RE::kRefused, nullptr,
            reason == R::kUnadvertised ? CompletionStatus::kUnadvertised
            : reason == R::kTimedOut   ? CompletionStatus::kTimedOut
                                       : CompletionStatus::kCrashed);
  }
  if (sent.accept) {
    auto it = served_.find(ServerKey{peer, sent.accept->tid});
    if (it != served_.end() &&
        (serve_step(it->second, SE::kFrameFailed) & lifecycle::kAcceptFailed)) {
      const bool crashed = reason == net::NackReason::kCrashed;
      finish_accept(it,
                    crashed ? AcceptStatus::kCrashed : AcceptStatus::kCancelled,
                    crashed ? sim::TraceStatus::kCrashed
                            : sim::TraceStatus::kCancelled);
    }
  }
  if (sent.cancel && !sent.cancel->is_reply) {
    advance(sent.cancel->tid, RE::kCancelFailed);  // the query itself failed
  }
}

// ===================================================================
// Requester-side completion assembly

void Kernel::advance(Tid tid, RE e, const net::Frame* f,
                     CompletionStatus status) {
  auto it = pending_.find(tid);
  if (it != pending_.end()) advance(it->second, e, f, status);
}

void Kernel::advance(PendingRequest& p, RE e,
                     const net::Frame* f, CompletionStatus status,
                     sim::Promise<CancelStatus>* cancel) {
  const auto step = lifecycle::requester_step(p.state, e);
  assert(step.outcome != lifecycle::Outcome::kImpossible);
  const unsigned a = step.actions;
  p.state = step.next;
  if (a & lifecycle::kRecordAccept) {
    p.accept = *f->accept;
    if (f->accept->carries_data && p.get_into) {
      const std::uint32_t n =
          std::min(p.get_size, static_cast<std::uint32_t>(f->data.size()));
      p.get_into->assign(f->data.begin(), f->data.begin() + n);
    }
  }
  if (a & lifecycle::kResetMisses) p.unanswered_probes = 0;
  if (a & lifecycle::kStopProbing) stop_probing(p);
  if (a & lifecycle::kStartProbing) {
    p.unanswered_probes = 0;
    arm_probe(p);
  }
  if (a & lifecycle::kHoldCancel) p.cancel_promise = *cancel;
  if (a & lifecycle::kRefuseCancel) cancel->set(CancelStatus::kFail);
  if (a & lifecycle::kSendCancel) {
    Frame cf;
    cf.cancel = net::CancelSection{p.tid, false, false};
    transport_.send_sequenced(p.server.mid, std::move(cf));
  }
  if (a & lifecycle::kFailCancel) {
    auto promise = std::move(*p.cancel_promise);
    p.cancel_promise.reset();
    const std::uint64_t epoch = death_epoch_;
    promise.set(CancelStatus::kFail);
    // The CANCEL's continuation runs inline; if it DIEs (say, its task
    // ends) the node has forgotten this request, `p` included.
    if (epoch != death_epoch_) return;
  }
  if (a & lifecycle::kSendLateData) send_late_data(p);
  if (a & lifecycle::kResendLateData) {
    metrics_.add(stats::Counter::kRetransmits);
    trace_op(TraceCategory::kRetransmit, -1, p.tid,
             sim::TraceStatus::kLateData);
    send_late_data(p);
  }
  if (a & lifecycle::kSendProbe) {
    Frame pf;
    pf.probe = net::ProbeSection{p.tid, false, false};
    transport_.send_control(p.server.mid, std::move(pf));
    metrics_.add(stats::Counter::kProbesSent);
    trace_op(TraceCategory::kProbe, p.server.mid, p.tid,
             sim::TraceStatus::kQuery);
    ++p.unanswered_probes;
    arm_probe(p);
  }
  if (a & lifecycle::kNoteMember) {
    if (std::find(p.discovered.begin(), p.discovered.end(), f->src) ==
        p.discovered.end()) {
      p.discovered.push_back(f->src);
    }
  }
  if (a & lifecycle::kNoteCrash) metrics_.add(stats::Counter::kCrashesDetected);
  if (a & lifecycle::kComplete) complete_request(p, status);
  if (a & lifecycle::kCancelled) {
    // Cancellation is the third way a REQUEST terminates; trace it so
    // invariant checkers see exactly one terminal event per tid. There is
    // no completion interrupt for a cancelled request.
    stop_probing(p);
    sim_.cancel(p.data_timer);
    trace_op(TraceCategory::kRequestCompleted, p.server.mid, p.tid,
             sim::TraceStatus::kCancelled);
    auto promise = std::move(*p.cancel_promise);
    pending_.erase(p.tid);
    promise.set(CancelStatus::kSuccess);
  }
}

void Kernel::send_late_data(PendingRequest& p) {
  Bytes chunk = p.put_data;
  if (chunk.size() > p.accept.put_transferred) {
    chunk.resize(p.accept.put_transferred);  // what the server can take
  }
  Frame df;
  df.data = std::move(chunk);
  df.data_tag = net::DataTag::kRequestData;
  df.data_tid = p.tid;
  transport_.send_control(p.server.mid, std::move(df));
  ++p.data_attempts;
  sim_.cancel(p.data_timer);
  const sim::Duration timeout =
      config_.timing.retransmit_interval +
      static_cast<sim::Duration>(p.put_data.size()) *
          config_.timing.retransmit_per_byte;
  p.data_timer = sim_.after(timeout, [this, tid = p.tid,
                                      epoch = death_epoch_]() {
    if (epoch != death_epoch_) return;
    auto it = pending_.find(tid);
    if (it == pending_.end()) return;
    const bool spent =
        it->second.data_attempts > config_.timing.max_ack_retries;
    advance(it->second, spent ? RE::kDataGiveUp : RE::kDataTimeout, nullptr,
            CompletionStatus::kCrashed);
  });
}

void Kernel::complete_request(PendingRequest& p, CompletionStatus status) {
  stop_probing(p);
  sim_.cancel(p.data_timer);
  HandlerArgs args;
  args.reason = HandlerReason::kRequestCompletion;
  args.asker = RequesterSignature{mid_, p.tid};
  args.status = status;
  if (p.server.mid == kBroadcastMid) {
    // DISCOVER (§3.4.4): the matching MIDs, 32-bit little-endian.
    const std::uint32_t n = std::min<std::uint32_t>(
        p.get_size / 4, static_cast<std::uint32_t>(p.discovered.size()));
    if (p.get_into) {
      p.get_into->resize(n * 4);
      for (std::uint32_t i = 0; i < n * 4; ++i) {
        const auto m = static_cast<std::uint32_t>(p.discovered[i / 4]);
        (*p.get_into)[i] = static_cast<std::byte>(m >> (8 * (i % 4)));
      }
    }
    args.get_size = n * 4;
  } else if (status == CompletionStatus::kCompleted) {
    args.arg = p.accept.arg;
    args.put_size = p.accept.put_transferred;
    args.get_size = p.accept.get_transferred;
  }
  metrics_.add(stats::Counter::kRequestsCompleted);
  metrics_.observe(stats::Latency::kRequestLatency, sim_.now() - p.issued_at);
  sim::TraceStatus ts = sim::TraceStatus::kCompleted;
  if (status == CompletionStatus::kCrashed) ts = sim::TraceStatus::kCrashed;
  if (status == CompletionStatus::kUnadvertised)
    ts = sim::TraceStatus::kUnadvertised;
  if (status == CompletionStatus::kTimedOut) ts = sim::TraceStatus::kTimedOut;
  trace_op(TraceCategory::kRequestCompleted, p.server.mid, p.tid, ts);
  anycast_note_result(p.server.pattern & kPatternMask, p.server.mid, status);
  pending_.erase(p.tid);
  post_completion(args);
}

// ===================================================================
// Probes (§3.6.2)

void Kernel::arm_probe(PendingRequest& p) {
  p.next_probe_at = sim_.now() + config_.timing.probe_interval;
  if (config_.timing.batched_timer_bookkeeping) {
    probe_wheel_schedule(p.next_probe_at);
    return;
  }
  const Tid tid = p.tid;
  p.probe_timer = sim_.after(
      config_.timing.probe_interval, [this, tid, epoch = death_epoch_]() {
        if (epoch != death_epoch_) return;
        auto it = pending_.find(tid);
        if (it != pending_.end()) probe_fire(it->second);
      });
}

void Kernel::stop_probing(PendingRequest& p) {
  p.next_probe_at = 0;  // the wheel skips de-enrolled entries lazily
  sim_.cancel(p.probe_timer);
}

void Kernel::probe_fire(PendingRequest& p) {
  p.next_probe_at = 0;
  // "If several successive probes fail, a crash is reported" (§3.6.2).
  const bool give_up = p.unanswered_probes > 0 &&
                       p.unanswered_probes >= config_.timing.max_probe_misses;
  advance(p, give_up ? RE::kProbeGiveUp : RE::kProbeDue, nullptr,
          CompletionStatus::kCrashed);
}

void Kernel::probe_wheel_schedule(sim::Time at) {
  if (probe_wheel_at_ != 0 && probe_wheel_at_ <= at) return;
  sim_.cancel(probe_wheel_timer_);
  probe_wheel_at_ = at;
  probe_wheel_timer_ = sim_.at(at, [this, epoch = death_epoch_]() {
    if (epoch != death_epoch_) return;
    probe_wheel_fire();
  });
}

void Kernel::probe_wheel_fire() {
  probe_wheel_at_ = 0;
  // Collect due TIDs first: a probe may fail a request and erase it from
  // pending_ mid-scan. The scratch vector is a member so steady-state
  // probe churn reuses its buffer instead of allocating per fire.
  const auto due_now = [this](const PendingRequest& p) {
    return p.next_probe_at != 0 && p.next_probe_at <= sim_.now();
  };
  std::vector<Tid>& due = probe_due_scratch_;
  due.clear();
  for (auto& [tid, p] : pending_) {
    if (due_now(p)) due.push_back(tid);
  }
  for (Tid tid : due) {
    auto it = pending_.find(tid);
    if (it != pending_.end() && due_now(it->second)) probe_fire(it->second);
  }
  sim::Time next = 0;
  for (auto& [tid, p] : pending_) {
    if (p.next_probe_at != 0 && (next == 0 || p.next_probe_at < next)) {
      next = p.next_probe_at;
    }
  }
  if (next != 0) probe_wheel_schedule(next);
}

// ===================================================================
// Server-side arrival handling

void Kernel::on_request_delivered(const net::Frame& f) {
  const Pattern p = f.request->pattern & kPatternMask;
  if (net::is_reserved_pattern(p)) {
    serve_reserved(f);
    return;
  }
  // An absent key is kNone or kDone; the two take an arrival alike.
  ServerRecord& r = served_[ServerKey{f.src, f.request->tid}];
  if (!(serve_step(r, SE::kArrive) & lifecycle::kStoreRequest)) return;
  if (!r.request) ++delivered_count_;
  r.request = ServerRecord::Request{
      f.request->put_size, f.request->get_size,
      f.request->carries_data ? std::optional<Bytes>(f.data) : std::nullopt,
      sim_.now()};
  trace_op(TraceCategory::kRequestDelivered, f.src, f.request->tid);
  HandlerArgs args;
  args.reason = HandlerReason::kRequestArrival;
  args.asker = RequesterSignature{f.src, f.request->tid};
  args.arg = f.request->arg;
  args.invoked_pattern = p;
  args.put_size = f.request->put_size;
  args.get_size = f.request->get_size;
  run_handler(args, sim::TraceStatus::kArrival);
}

// ===================================================================
// Kernel-served reserved patterns: booting & killing (§3.5)

bool Kernel::reserved_bound(Pattern p) const {
  if (p == kill_pattern_ || p == kSystemPattern) return true;
  if (load_pattern_ != 0 && p == load_pattern_) return true;
  // Boot patterns are advertised only while the node is clientless and not
  // already being loaded (§3.5.2-§3.5.3).
  return boot_patterns_.count(p) && !node_.has_client() && load_pattern_ == 0;
}

void Kernel::respond_kernel_accept(const net::Frame& f, std::int32_t arg,
                                   Bytes reply_data) {
  const auto& rq = *f.request;
  reply_data.resize(std::min(static_cast<std::uint32_t>(reply_data.size()),
                             rq.get_size));
  // The kernel answers synchronously, so the REQUEST's ack is still owed
  // and the composite response is reliable via duplicate replay.
  transport_.send_control(f.src,
                          accept_frame(rq.tid, arg,
                                       rq.carries_data ? rq.put_size : 0,
                                       false, std::move(reply_data)),
                          /*store_as_response=*/true);
}

void Kernel::arm_load_deadline() {
  // While load_pattern_ is set the boot pattern stops matching (§3.5.2),
  // so a parent that dies or gives up mid-LOAD would otherwise leave the
  // free machine unbootable forever — the same wedge class as the
  // unbounded-ACCEPT wait of §3.3.2. Every load step (the boot GET and
  // each core-image PUT chunk) re-arms a deadline of one record lifetime
  // plus two retransmission spans; if the sequence stalls that long with
  // no client booted, the load is abandoned and the machine returns to
  // the free pool.
  const sim::Duration grace = config_.timing.record_lifetime() +
                              2 * config_.timing.retransmit_span();
  load_started_at_ = sim_.now();
  sim_.after(grace, [this, started = load_started_at_,
                     epoch = death_epoch_]() {
    if (epoch != death_epoch_) return;
    if (load_pattern_ == 0 || node_.has_client()) return;
    if (load_started_at_ != started) return;  // a later step re-armed it
    trace_op(TraceCategory::kBoot, -1, kNoTid,
             sim::TraceStatus::kLoadAbandoned);
    metrics_.add(stats::Counter::kLoadsAbandoned);
    load_pattern_ = 0;
    core_image_.clear();
  });
}

void Kernel::serve_reserved(const net::Frame& f) {
  const Pattern p = f.request->pattern & kPatternMask;
  const auto& rq = *f.request;

  if (boot_patterns_.count(p) && !node_.has_client() && load_pattern_ == 0) {
    // GET <MID, BOOT_PATTERN>: allocate a LOAD pattern and return it
    // (§3.5.2). Boot patterns stop matching until the client dies.
    load_pattern_ = (uids_.next(mid_) | kReservedBit) &
                    ~kWellKnownBit & kPatternMask;
    core_image_.clear();
    trace_op(TraceCategory::kBoot, f.src, kNoTid,
             sim::TraceStatus::kLoadAllocated);
    respond_kernel_accept(f, 0, pattern_to_bytes(load_pattern_));
    arm_load_deadline();
    return;
  }

  if (load_pattern_ != 0 && p == load_pattern_) {
    if (rq.put_size > 0) {
      // PUT <MID, LOAD_PATTERN>: the next chunk of the core image.
      if (rq.carries_data) {
        core_image_.insert(core_image_.end(), f.data.begin(), f.data.end());
        respond_kernel_accept(f, 0, {});
        arm_load_deadline();
      } else {
        // The chunk was stripped en route: ask for a late DATA frame.
        const ServerKey key{f.src, rq.tid};
        auto it = served_.find(key);
        const auto step = lifecycle::server_step(
            served_state(key, it), SE::kAcceptWantsData);
        if (step.actions & lifecycle::kRefuseAccept) return;
        if (it == served_.end()) it = served_.try_emplace(key).first;
        it->second.issued_at = sim_.now();
        it->second.on_data = [this](const Bytes& d) {
          core_image_.insert(core_image_.end(), d.begin(), d.end());
          arm_load_deadline();
        };
        start_accept(it, step, accept_frame(rq.tid, 0, rq.put_size, true, {}));
      }
      return;
    }
    // SIGNAL <MID, LOAD_PATTERN>: first = start the client; second = the
    // parent kills it (§3.5.2).
    respond_kernel_accept(f, 0, {});
    if (!node_.has_client()) {
      ++boots_;
      metrics_.add(stats::Counter::kBoots);
      trace_op(TraceCategory::kBoot, f.src, kNoTid, sim::TraceStatus::kBooting);
      Bytes image = core_image_;
      const Mid parent = f.src;
      sim_.after(0, [this, image, parent, epoch = death_epoch_]() {
        if (epoch != death_epoch_) return;
        node_.boot_client(image, parent);
      });
    } else {
      die_after_response();
    }
    return;
  }

  if (p == kill_pattern_) {
    // SIGNAL <MID, KILL_PATTERN>: unconditional death (§3.5.3).
    respond_kernel_accept(f, 0, {});
    if (node_.has_client() || load_pattern_ != 0) {
      die_after_response();
    }
    return;
  }

  if (p == kSystemPattern) {
    // Machine 0 administers reserved patterns (§3.5.4).
    const Pattern target = pattern_from_bytes(f.data);
    const Pattern reserved = (target | kReservedBit) & kPatternMask;
    if (rq.arg == kSystemAddBoot) boot_patterns_.insert(reserved);
    if (rq.arg == kSystemDeleteBoot) boot_patterns_.erase(reserved);
    if (rq.arg == kSystemReplaceKill) kill_pattern_ = reserved;
    respond_kernel_accept(f, 0, {});
    return;
  }

  // A reserved pattern that stopped being bound between classify and
  // deliver: answer nothing; the requester's probes will sort it out.
}

// ===================================================================

void Kernel::die_after_response() {
  // Let the response leave before tearing the node down.
  sim_.after(2'500, [this, epoch = death_epoch_]() {
    if (epoch != death_epoch_) return;
    reset_for_death(/*client_initiated=*/false);
  });
}

bool Kernel::is_recently_completed(ServerKey k) const {
  return std::find(completed_lru_.begin(), completed_lru_.end(), k) !=
         completed_lru_.end();
}

void Kernel::note_completed(ServerKey k) {
  completed_lru_.push_back(k);
  while (completed_lru_.size() > config_.completed_lru) {
    completed_lru_.pop_front();
  }
}

}  // namespace soda
