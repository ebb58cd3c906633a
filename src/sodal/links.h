// Virtual circuits with transparent link moving (§4.2.4).
//
// A link end is a table entry: the pattern we advertise for it plus the
// remote end's <MID, PATTERN>. One end is MASTER, the other SLAVE; the
// SLAVE must become MASTER to move its end. While an end moves, regular
// requests on it are REJECTed and reissued once the move-notice arrives.
//
// The paper's pseudocode (Implementation of Link Moving) leaves the new
// master's view of the far end underspecified; this implementation
// completes it: the move EXCHANGE to the new host carries the far end's
// full signature, so the new host can populate its table directly.
//
// Control traffic shares the link patterns, distinguished by argument:
//   -1  request to become MASTER                (GET: 1 byte grant flag)
//   -2  link has moved; update your table       (PUT: NewLink record)
//   -3  newly-moved end is fully installed      (SIGNAL)
// Application messages use arguments >= 0.
#pragma once

#include <optional>
#include <vector>

#include "sodal/blocking.h"
#include "sodal/util.h"

namespace soda::sodal {

constexpr Pattern kLinkServicePattern = kWellKnownBit | 0x71EE;

constexpr std::int32_t kLinkBecomeMaster = -1;
constexpr std::int32_t kLinkMoved = -2;
constexpr std::int32_t kLinkInstalled = -3;
constexpr std::int32_t kLinkIntroduce = -4;

using LinkId = int;
constexpr LinkId kNoLink = -1;

class LinkClient : public SodalClient {
 public:
  enum class EndState { kMaster, kSlave };

  struct LinkEntry {
    bool used = false;
    Pattern my_pattern = 0;    // advertised locally for this link
    Mid peer_mid = kBroadcastMid;
    Pattern peer_pattern = 0;  // remote end's advertised pattern
    EndState state = EndState::kSlave;
    bool installed = true;     // BEING_INSTALLED until the -3 SIGNAL
    bool moving = false;
    bool dead = false;         // far end destroyed / crashed
    std::optional<RequesterSignature> want_to_move;  // delayed -1 asker
  };

  sim::Task on_boot(Mid parent) override {
    advertise(kLinkServicePattern);
    co_await link_boot(parent);
  }

  /// Subclass boot hook (on_boot is taken by the link machinery).
  virtual sim::Task link_boot(Mid) { co_return; }

  /// An application request arrived over `link`; the subclass should
  /// ACCEPT_CURRENT it (or reject).
  virtual sim::Task on_link_request(LinkId link, HandlerArgs a) {
    (void)link;
    (void)a;
    co_await reject_current();
  }

  // ---------------------------------------------------------------
  /// Establish a link to the LinkClient on `peer`. We hold the MASTER
  /// end. Resolves to kNoLink on failure.
  sim::Future<LinkId> connect_link(Mid peer) {
    co_await resume_in_context();
    Pattern mine = unique_id();
    advertise(mine);
    Bytes reply;
    Completion c = co_await b_exchange(
        ServerSignature{peer, kLinkServicePattern}, 0,
        encode_sig(my_mid(), mine), &reply, 12);
    if (!c.ok() || reply.size() < 12) {
      unadvertise(mine);
      co_return kNoLink;
    }
    const auto peer_sig = decode_sig(reply);
    const Mid pmid = peer_sig.first;
    const Pattern ppat = peer_sig.second;
    LinkId id = alloc();
    LinkEntry& e = links_[static_cast<std::size_t>(id)];
    e.my_pattern = mine;
    e.peer_mid = pmid;
    e.peer_pattern = ppat;
    e.state = EndState::kMaster;
    e.installed = true;
    co_return id;
  }

  /// Send over a link (argument must be >= 0). Retries transparently when
  /// the far end is mid-move (REJECTED) until `attempts` runs out.
  sim::Future<Completion> link_put(LinkId id, std::int32_t arg, Bytes data,
                                   int attempts = 20) {
    return link_io(id, arg, std::move(data), nullptr, 0, attempts);
  }
  sim::Future<Completion> link_get(LinkId id, std::int32_t arg, Bytes* into,
                                   std::uint32_t n, int attempts = 20) {
    return link_io(id, arg, {}, into, n, attempts);
  }
  sim::Future<Completion> link_exchange(LinkId id, std::int32_t arg,
                                        Bytes out, Bytes* in, std::uint32_t n,
                                        int attempts = 20) {
    return link_io(id, arg, std::move(out), in, n, attempts);
  }

  /// Move our end of `id` to the LinkClient on machine `new_host`,
  /// transparently to the far end. Resolves true on success; afterwards
  /// this client no longer holds the link.
  sim::Future<bool> move_link(LinkId id, Mid new_host) {
    co_await resume_in_context();
    if (!valid(id) || links_[static_cast<std::size_t>(id)].dead) {
      co_return false;
    }
    LinkEntry& e = links_[static_cast<std::size_t>(id)];
    e.moving = true;

    // Become MASTER if we are the SLAVE end (§4.2.4 BecomeMaster).
    while (e.state == EndState::kSlave) {
      Bytes grant;
      Completion c = co_await b_get(
          ServerSignature{e.peer_mid, e.peer_pattern}, kLinkBecomeMaster,
          &grant, 1);
      if (c.ok() && !grant.empty() && grant[0] == std::byte{1}) {
        e.state = EndState::kMaster;
        break;
      }
      if (c.status != CompletionStatus::kCompleted) {
        e.moving = false;
        e.dead = true;
        co_return false;
      }
      co_await delay(10 * sim::kMillisecond);  // master end is moving; retry
    }

    // Install the new MASTER end at new_host (carrying the far end's
    // signature), learn its pattern.
    Bytes reply;
    Completion c = co_await b_exchange(
        ServerSignature{new_host, kLinkServicePattern}, 1,
        encode_sig(e.peer_mid, e.peer_pattern), &reply, 12);
    if (!c.ok() || reply.size() < 12) {
      e.moving = false;
      co_return false;
    }
    const auto new_sig = decode_sig(reply);
    const Mid nmid = new_sig.first;
    const Pattern npat = new_sig.second;

    // Tell the far end to retarget its table (-2), then tell the new end
    // the move is complete (-3).
    c = co_await b_put(ServerSignature{e.peer_mid, e.peer_pattern},
                       kLinkMoved, encode_sig(nmid, npat));
    const bool told_peer = c.ok();
    c = co_await b_signal(ServerSignature{nmid, npat}, kLinkInstalled);

    // Release our end.
    if (e.want_to_move) {
      // A delayed become-master request: grant FAILED so it retries
      // against the new master.
      Bytes denied(1, std::byte{0});
      co_await accept_get(*e.want_to_move, 0, std::move(denied));
      e.want_to_move.reset();
    }
    unadvertise(e.my_pattern);
    e.used = false;
    co_return told_peer && c.ok();
  }

  /// INTRODUCE (§4.2.4): "A process that possesses two links may
  /// INTRODUCE the two associated processes. As a result, the two
  /// processes have a link between themselves." We tell the process at
  /// the end of `a` to connect to the machine at the end of `b`.
  sim::Future<bool> introduce(LinkId a, LinkId b) {
    co_await resume_task_gated();
    if (!valid(a) || !valid(b)) co_return false;
    const Mid target = links_[static_cast<std::size_t>(b)].peer_mid;
    LinkEntry& ea = links_[static_cast<std::size_t>(a)];
    Completion c = co_await b_put(
        ServerSignature{ea.peer_mid, ea.peer_pattern}, kLinkIntroduce,
        encode_u32(static_cast<std::uint32_t>(target)));
    co_return c.ok();
  }

  /// Destroy our end: the far end's next request fails UNADVERTISED and
  /// its entry is marked dead.
  void destroy_link(LinkId id) {
    if (!valid(id)) return;
    unadvertise(links_[static_cast<std::size_t>(id)].my_pattern);
    links_[static_cast<std::size_t>(id)].used = false;
  }

  bool link_alive(LinkId id) const {
    return valid(id) && !links_[static_cast<std::size_t>(id)].dead;
  }
  const LinkEntry* link(LinkId id) const {
    return valid(id) ? &links_[static_cast<std::size_t>(id)] : nullptr;
  }
  std::size_t live_links() const {
    std::size_t n = 0;
    for (const auto& e : links_) n += e.used && !e.dead;
    return n;
  }

  // ---------------------------------------------------------------
  sim::Task on_entry(HandlerArgs a) final {
    if (a.invoked_pattern == kLinkServicePattern) {
      // Install a new end: the EXCHANGE data is the far end's signature.
      Bytes far;
      Pattern mine = unique_id();
      advertise(mine);
      auto r = co_await accept_current_exchange(0, &far, a.put_size,
                                                encode_sig(my_mid(), mine));
      if (r.status != AcceptStatus::kSuccess || far.size() < 12) {
        unadvertise(mine);
        co_return;
      }
      const auto far_sig = decode_sig(far);
      const Mid fmid = far_sig.first;
      const Pattern fpat = far_sig.second;
      LinkId id = alloc();
      LinkEntry& e = links_[static_cast<std::size_t>(id)];
      e.my_pattern = mine;
      e.peer_mid = fmid;
      e.peer_pattern = fpat;
      // arg 1 in the EXCHANGE marks a move-install: the new end is MASTER
      // and must wait for the -3 SIGNAL; a fresh connect makes us SLAVE.
      if (a.arg == 1) {
        e.state = EndState::kMaster;
        e.installed = false;
      } else {
        e.state = EndState::kSlave;
        e.installed = true;
      }
      on_link_established(id);
      co_return;
    }

    const LinkId id = find_by_pattern(a.invoked_pattern);
    if (id == kNoLink) {
      co_await reject_current();
      co_return;
    }
    LinkEntry& e = links_[static_cast<std::size_t>(id)];

    if (a.arg >= 0) {
      if (e.moving) {
        co_await reject_current();  // reissue after the move (§4.2.4)
      } else {
        co_await on_link_request(id, a);
      }
      co_return;
    }

    switch (a.arg) {
      case kLinkBecomeMaster: {
        if (!e.moving) {
          Bytes grant(1, std::byte{1});
          co_await accept_current_get(0, std::move(grant));
          e.state = EndState::kSlave;
        } else {
          // Delay the grant until our own move completes (§4.2.4).
          e.want_to_move = a.asker;
        }
        break;
      }
      case kLinkMoved: {
        Bytes rec;
        auto r = co_await accept_current_put(0, &rec, a.put_size);
        if (r.status == AcceptStatus::kSuccess && rec.size() >= 12) {
          const auto new_sig = decode_sig(rec);
          const Mid nmid = new_sig.first;
          const Pattern npat = new_sig.second;
          e.peer_mid = nmid;
          e.peer_pattern = npat;
          // The mover held MASTER to move; we are (now) the slave side.
          e.state = EndState::kSlave;
          moved_.notify_all();  // wake rejected senders to retry
        }
        break;
      }
      case kLinkInstalled: {
        co_await accept_current_signal(0);
        e.installed = true;
        installed_.notify_all();
        break;
      }
      case kLinkIntroduce: {
        // An introduction: the payload names a machine to link with.
        Bytes who;
        auto r = co_await accept_current_put(0, &who, a.put_size);
        if (r.status == AcceptStatus::kSuccess && who.size() >= 4) {
          introduce_to(static_cast<Mid>(decode_u32(who))).detach();
        }
        break;
      }
      default:
        co_await reject_current();
    }
    co_return;
  }

  /// Notification that a peer established a link to us.
  virtual void on_link_established(LinkId) {}

 protected:
  static Bytes encode_sig(Mid m, Pattern p) {
    Bytes b(12);
    for (int i = 0; i < 4; ++i) {
      b[static_cast<std::size_t>(i)] =
          static_cast<std::byte>((static_cast<std::uint32_t>(m) >> (8 * i)) &
                                 0xFF);
    }
    for (int i = 0; i < 8; ++i) {
      b[static_cast<std::size_t>(4 + i)] =
          static_cast<std::byte>((p >> (8 * i)) & 0xFF);
    }
    return b;
  }
  static std::pair<Mid, Pattern> decode_sig(const Bytes& b) {
    std::uint32_t m = 0;
    Pattern p = 0;
    for (int i = 0; i < 4; ++i) {
      m |= std::to_integer<std::uint32_t>(b[static_cast<std::size_t>(i)])
           << (8 * i);
    }
    for (int i = 0; i < 8; ++i) {
      p |= static_cast<Pattern>(std::to_integer<std::uint8_t>(
               b[static_cast<std::size_t>(4 + i)]))
           << (8 * i);
    }
    return {static_cast<Mid>(m), p & kPatternMask};
  }

 private:
  bool valid(LinkId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < links_.size() &&
           links_[static_cast<std::size_t>(id)].used;
  }

  LinkId alloc() {
    for (std::size_t i = 0; i < links_.size(); ++i) {
      if (!links_[i].used) {
        links_[i] = LinkEntry{};
        links_[i].used = true;
        return static_cast<LinkId>(i);
      }
    }
    links_.push_back(LinkEntry{});
    links_.back().used = true;
    return static_cast<LinkId>(links_.size() - 1);
  }

  LinkId find_by_pattern(Pattern p) const {
    for (std::size_t i = 0; i < links_.size(); ++i) {
      if (links_[i].used && links_[i].my_pattern == p) {
        return static_cast<LinkId>(i);
      }
    }
    return kNoLink;
  }

  sim::Future<Completion> link_io(LinkId id, std::int32_t arg, Bytes out,
                                  Bytes* in, std::uint32_t n, int attempts) {
    co_await resume_in_context();
    for (int i = 0; i < attempts; ++i) {
      if (!valid(id) || links_[static_cast<std::size_t>(id)].dead) {
        co_return Completion{CompletionStatus::kCrashed, 0, 0, 0};
      }
      LinkEntry& e = links_[static_cast<std::size_t>(id)];
      ServerSignature sig{e.peer_mid, e.peer_pattern};
      Completion c = co_await b_exchange(sig, arg, out, in, n);
      if (c.status == CompletionStatus::kUnadvertised ||
          c.status == CompletionStatus::kCrashed) {
        links_[static_cast<std::size_t>(id)].dead = true;
        co_return c;
      }
      if (!c.rejected()) co_return c;
      // REJECTED: the far end is mid-move. Wait for a -2 notice (or just
      // a beat) and retry against the updated table entry.
      co_await delay(10 * sim::kMillisecond);
    }
    co_return Completion{CompletionStatus::kCompleted, kRejectArg, 0, 0};
  }

  sim::Task introduce_to(Mid peer) {
    LinkId id = co_await connect_link(peer);
    if (id != kNoLink) on_link_established(id);
  }

  std::vector<LinkEntry> links_;
  sim::CondVar moved_;
  sim::CondVar installed_;
};

}  // namespace soda::sodal
