#include "fleet/driver.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chaos/observer.h"
#include "chaos/workload.h"
#include "core/node.h"
#include "fleet/control.h"
#include "posix/udp_bus.h"
#include "sodal/sodal.h"
#include "stats/metrics.h"

namespace soda::fleet {

namespace {

/// TID stride between process incarnations of one MID: a re-exec'd kernel
/// starts issuing at 1 + epoch * stride, far above anything the previous
/// incarnation can have issued (NodeConfig::initial_tid).
constexpr std::int64_t kTidStride = 1 << 20;

/// The driver's own node (boot parent) takes the MID just past the
/// scenario's — workload clients never address it, but it shares the bus.
int boot_mid(const chaos::Scenario& s) { return s.nodes; }

bool set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC) == 0;
}

pid_t spawn_worker(const std::string& path, int mid, int epoch,
                   std::uint16_t control_port, std::uint64_t seed) {
  const std::string mid_s = std::to_string(mid);
  const std::string epoch_s = std::to_string(epoch);
  const std::string port_s = std::to_string(control_port);
  const std::string seed_s = std::to_string(seed);
  const char* argv[] = {path.c_str(),      "--mid",  mid_s.c_str(),
                        "--epoch",         epoch_s.c_str(),
                        "--control",       port_s.c_str(),
                        "--seed",          seed_s.c_str(),
                        nullptr};
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(path.c_str(), const_cast<char* const*>(argv));
    _exit(127);
  }
  return pid;
}

/// The §3.5 boot parent: a SODAL program on the driver's node that LOADs
/// the "workload" core image into rebooted free machines — GET the boot
/// pattern (-> a fresh LOAD pattern), PUT the image, SIGNAL start — with
/// bounded retries while the re-exec'd kernel comes up.
class BootParent final : public sodal::SodalClient {
 public:
  sim::Task on_task() override {
    for (;;) {
      while (jobs_.empty()) co_await wait_on(work_);
      const Mid target = jobs_.front();
      jobs_.pop_front();
      ++in_flight_;
      bool ok = false;
      // A freshly exec'd worker has to bind, join the control plane and
      // receive its config before the boot pattern answers; under a large
      // fleet that can take hundreds of wall milliseconds, which at the
      // default speedup is seconds of simulated time.  Budget generously:
      // each failed B_GET already burns a full retransmission span, so 40
      // attempts is ~12 simulated seconds of patience.
      for (int attempt = 0; attempt < 40 && !ok; ++attempt) {
        Bytes load_b;
        auto g = co_await b_get(
            ServerSignature{target, Kernel::kDefaultBootPattern}, 0,
            &load_b, 8);
        if (!g.ok() || load_b.size() < 8) {
          co_await delay(100 * sim::kMillisecond);
          continue;
        }
        const Pattern load = sodal::decode_u64(load_b) & kPatternMask;
        auto p = co_await b_put(ServerSignature{target, load}, 0,
                                sodal::to_bytes(std::string("workload")));
        if (!p.ok()) {
          co_await delay(100 * sim::kMillisecond);
          continue;
        }
        auto sg = co_await b_signal(ServerSignature{target, load}, 0);
        ok = sg.ok();
      }
      --in_flight_;
      if (ok) {
        ++boots_;
      } else {
        ++failures_;
      }
    }
  }

  void enqueue(Mid m) {
    jobs_.push_back(m);
    work_.notify_all();
  }
  bool busy() const { return in_flight_ > 0 || !jobs_.empty(); }
  int boots() const { return boots_; }
  int failures() const { return failures_; }

 private:
  std::deque<Mid> jobs_;
  sim::CondVar work_;
  int in_flight_ = 0;
  int boots_ = 0;
  int failures_ = 0;
};

/// One control connection (one worker incarnation).
struct Conn {
  int fd = -1;
  LineBuffer lines;
  std::string outq;
  int mid = -1;  // -1 until HELLO identifies the incarnation
  int epoch = 0;
  std::uint16_t udp_port = 0;
  sim::Time last_ev_at = -1;
  bool bye = false;
  bool stat_seen = false;
  WorkerStats stats;
  bool eof = false;
  bool killed = false;  // this incarnation was SIGKILLed on schedule
  sim::Time kill_est = 0;
  bool death_synthesized = false;
};

/// One live process slot per MID.
struct Proc {
  pid_t pid = -1;
  int epoch = 0;
  Conn* conn = nullptr;
  bool exited = false;
  bool respawn_pending = false;
};

struct Action {
  enum Kind { kKill, kRespawn, kStop, kCont } kind;
  sim::Time at;  // on the shared timeline
  int mid;
  int epoch;  // kRespawn: epoch of the new incarnation
};

/// Which part of the run a control line arrives in (see `handle`).
enum class Phase { kJoin, kRun, kDrain };

}  // namespace

void merge_trace(std::vector<sim::TraceEvent> events, sim::Time end,
                 FleetResult& r) {
  // Per-node order is exact (each worker stamps its own monotone sim
  // clock; the synthesized death lands after the last streamed event of
  // the killed incarnation). Cross-node order is approximate — bounded by
  // the START delivery skew — which is the documented merge caveat
  // (doc/FLEET.md): sort by shared-timeline time, arrival order on ties.
  std::stable_sort(events.begin(), events.end(),
                   [](const sim::TraceEvent& a, const sim::TraceEvent& b) {
                     return a.at < b.at;
                   });
  chaos::RunObserver observer;
  for (const sim::TraceEvent& e : events) observer.on_event(e);
  r.sim_end = events.empty() ? end : std::max(events.back().at, end);
  observer.finish(r.sim_end);
  r.violations = observer.violations();
  const chaos::RunStats& st = observer.stats();
  r.events = st.events;
  r.issued = st.requests_issued;
  r.terminal = st.requests_completed;
  r.completed = st.ok_completions;
  r.crashed = st.crashed_completions;
  r.timedout = st.timedout_completions;
  r.deliveries = st.deliveries;
}

FleetResult run_fleet(const FleetOptions& o) {
  FleetResult r;
  const chaos::Scenario& s = o.scenario;
  if (s.segments > 1) {
    r.skipped = true;
    r.skip_reason = "multi-segment scenarios not supported by the fleet";
    return r;
  }
  if (s.nodes < 2 || s.servers < 1 || s.servers >= s.nodes ||
      o.speedup <= 0) {
    r.skipped = true;
    r.skip_reason = "bad topology/speedup options";
    return r;
  }
  if (::access(o.worker_path.c_str(), X_OK) != 0) {
    r.skipped = true;
    r.skip_reason = "worker binary not executable: " + o.worker_path;
    return r;
  }
  ::signal(SIGPIPE, SIG_IGN);

  std::uint16_t control_port = 0;
  const int listen_fd = listen_loopback(&control_port);
  if (listen_fd < 0) {
    r.skipped = true;
    r.skip_reason = "cannot open a loopback TCP socket";
    return r;
  }
  set_cloexec(listen_fd);
  set_nonblocking(listen_fd);

  // --- the driver's own node: boot parent over the shared UDP medium ---
  sim::Simulator dsim(o.seed ^ 0x9e3779b97f4a7c15ull);
  posix::UdpBus dbus(dsim);
  const int bmid = boot_mid(s);
  if (!dbus.open_station(static_cast<net::Mid>(bmid))) {
    ::close(listen_fd);
    r.skipped = true;
    r.skip_reason = "cannot open a loopback UDP socket";
    return r;
  }

  std::vector<sim::TraceEvent> events;
  dsim.trace().disable_all();
  for (const auto c : kStreamedCategories) dsim.trace().enable(c);
  dsim.trace().set_store(false);
  dsim.trace().set_observer(
      [&](const sim::TraceEvent& e) { events.push_back(e); });

  UniqueIdSource uids;
  NodeConfig boot_config;
  Node driver_node(dsim, dbus, static_cast<net::Mid>(bmid), boot_config,
                   uids);
  auto boot_client = std::make_unique<BootParent>();
  BootParent& boot = *boot_client;
  driver_node.install_client(std::move(boot_client),
                             static_cast<net::Mid>(bmid));

  // --- spawn the epoch-0 fleet -----------------------------------------
  const std::string scenario_lines = chaos::to_jsonl(s);
  std::vector<Proc> procs(static_cast<std::size_t>(s.nodes));
  std::map<pid_t, int> pid_to_mid;
  std::vector<std::unique_ptr<Conn>> conns;
  bool fork_failed = false;
  for (int mid = 0; mid < s.nodes && !fork_failed; ++mid) {
    const std::uint64_t wseed =
        o.seed * 1000003ull + static_cast<std::uint64_t>(mid) * 7919ull;
    const pid_t pid =
        spawn_worker(o.worker_path, mid, /*epoch=*/0, control_port, wseed);
    if (pid < 0) {
      fork_failed = true;
      break;
    }
    procs[static_cast<std::size_t>(mid)].pid = pid;
    pid_to_mid[pid] = mid;
  }
  auto kill_all = [&] {
    for (auto& p : procs) {
      if (p.pid > 0 && !p.exited) ::kill(p.pid, SIGKILL);
    }
    int st;
    while (::waitpid(-1, &st, WNOHANG) > 0) {
    }
  };
  if (fork_failed) {
    kill_all();
    ::close(listen_fd);
    dsim.trace().set_observer(nullptr);
    r.skipped = true;
    r.skip_reason = "fork failed (sandboxed environment?)";
    return r;
  }

  // --- shared loop plumbing --------------------------------------------
  const double speedup = o.speedup;
  auto now_wall = [] { return std::chrono::steady_clock::now(); };
  auto accept_conns = [&] {
    for (;;) {
      const int cfd = ::accept(listen_fd, nullptr, nullptr);
      if (cfd < 0) break;
      set_cloexec(cfd);
      set_nonblocking(cfd);
      const int one = 1;
      (void)::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto c = std::make_unique<Conn>();
      c->fd = cfd;
      conns.push_back(std::move(c));
    }
  };
  auto flush_conn = [&](Conn& c) {
    while (!c.outq.empty() && c.fd >= 0) {
      const ssize_t n =
          ::send(c.fd, c.outq.data(), c.outq.size(), MSG_NOSIGNAL);
      if (n > 0) {
        c.outq.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // EAGAIN (stopped worker) or dead peer: retry next tick
    }
  };
  auto reap = [&] {
    int st;
    pid_t pid;
    while ((pid = ::waitpid(-1, &st, WNOHANG)) > 0) {
      const auto it = pid_to_mid.find(pid);
      if (it == pid_to_mid.end()) continue;
      Proc& p = procs[static_cast<std::size_t>(it->second)];
      if (p.pid == pid) p.exited = true;
    }
  };

  // --- configuration + the shared timeline -----------------------------
  auto config_blob = [&](int mid, int epoch, sim::Time offset) {
    std::string blob = scenario_lines;
    if (!blob.empty() && blob.back() != '\n') blob += '\n';
    for (const auto& cp : conns) {
      if (cp->mid >= 0 && cp->mid != mid && !cp->eof && !cp->killed) {
        blob += peer_line(cp->mid, cp->udp_port);
      }
    }
    blob += peer_line(bmid, dbus.port_of(static_cast<net::Mid>(bmid)));
    blob += start_line(offset, speedup, 1 + epoch * kTidStride, o.drop);
    return blob;
  };
  // The shared timeline's clock, anchored at START: the driver's node
  // advances through it, and its target() estimates every worker's clock.
  std::optional<posix::RealtimeRunner> clock;

  // --- the one control-message dispatch ---------------------------------
  // HELLO identifies an incarnation. In the join phase that is all it
  // does; during the run it also re-announces the membership, configures
  // the newcomer and, past epoch 0, queues its network boot; once the run
  // drains, a late HELLO is ignored.
  int joined = 0;
  auto handle = [&](Conn& c, const Message& msg, Phase phase) {
    switch (msg.kind) {
      case Message::Kind::kHello: {
        if (phase == Phase::kDrain || c.mid >= 0 || msg.mid < 0 ||
            msg.mid >= s.nodes) {
          break;
        }
        c.mid = msg.mid;
        c.epoch = msg.epoch;
        c.udp_port = msg.port;
        procs[static_cast<std::size_t>(c.mid)].conn = &c;
        dbus.set_peer(static_cast<net::Mid>(c.mid), c.udp_port);
        if (phase == Phase::kJoin) {
          ++joined;
          break;
        }
        const std::string pl = peer_line(c.mid, c.udp_port);
        for (auto& other : conns) {
          if (other->fd >= 0 && other->mid >= 0 && other->mid != c.mid) {
            other->outq += pl;
          }
        }
        c.outq += config_blob(c.mid, c.epoch, clock->target());
        if (c.epoch > 0) {
          ++r.reboots;
          boot.enqueue(static_cast<net::Mid>(c.mid));
        }
        break;
      }
      case Message::Kind::kTrace:
        if (msg.event) {
          events.push_back(*msg.event);
          c.last_ev_at = std::max(c.last_ev_at, msg.event->at);
        }
        break;
      case Message::Kind::kStat:
        c.stats = msg.stats;
        c.stat_seen = true;
        break;
      case Message::Kind::kBye:
        c.bye = true;
        break;
      default:
        break;
    }
  };
  // Read everything `c` has sent and handle each complete line. EOF or a
  // hard read error closes the connection.
  auto pump = [&](Conn& c, Phase phase) {
    if (c.fd < 0) return;
    if (!c.lines.fill_from(c.fd)) {
      c.eof = true;
      ::close(c.fd);
      c.fd = -1;
    }
    while (auto line = c.lines.next_line()) {
      if (auto msg = parse_message(*line)) handle(c, *msg, phase);
    }
  };

  // --- join phase: wait for every epoch-0 HELLO ------------------------
  const auto join_deadline = now_wall() + std::chrono::seconds(20);
  while (joined < s.nodes && now_wall() < join_deadline) {
    pollfd pfd{listen_fd, POLLIN, 0};
    (void)::poll(&pfd, 1, 50);
    accept_conns();
    for (auto& cp : conns) pump(*cp, Phase::kJoin);
    reap();
  }
  if (joined < s.nodes) {
    kill_all();
    for (auto& cp : conns) {
      if (cp->fd >= 0) ::close(cp->fd);
    }
    ::close(listen_fd);
    dsim.trace().set_observer(nullptr);
    if (joined == 0) {
      r.skipped = true;
      r.skip_reason = "no worker joined (fork/exec or sockets forbidden?)";
    } else {
      r.ran = true;
      r.finished = false;
      r.wedged = s.nodes - joined;
    }
    return r;
  }

  // --- start -----------------------------------------------------------
  for (auto& cp : conns) {
    if (cp->mid >= 0) {
      cp->outq += config_blob(cp->mid, cp->epoch, 0);
      flush_conn(*cp);
    }
  }
  clock.emplace(dsim, dbus, speedup);
  r.ran = true;

  // --- fault schedule -> process actions on the shared timeline ---------
  std::vector<Action> actions;
  {
    std::map<int, int> kill_count;
    for (const auto& f : s.faults) {
      if (f.kind == chaos::FaultKind::kCrash && f.node >= 0 &&
          f.node < s.nodes) {
        actions.push_back({Action::kKill, f.at, f.node, 0});
        if (f.reboot_after > 0) {
          const int epoch = ++kill_count[f.node];
          actions.push_back(
              {Action::kRespawn, f.at + f.reboot_after, f.node, epoch});
          procs[static_cast<std::size_t>(f.node)].respawn_pending = true;
        }
      } else if (f.kind == chaos::FaultKind::kDelay && f.node >= 0 &&
                 f.node < s.nodes) {
        // A paused process delays everything it would have sent — the
        // closest real-process analog of a link-delay window.
        actions.push_back({Action::kStop, f.at, f.node, 0});
        actions.push_back({Action::kCont, s.window_end(f), f.node, 0});
      }
    }
    std::sort(actions.begin(), actions.end(),
              [](const Action& a, const Action& b) {
                return a.at < b.at;
              });
  }
  std::size_t next_action = 0;

  auto synthesize_death = [&](Conn& c) {
    if (c.death_synthesized) return;
    c.death_synthesized = true;
    sim::TraceEvent e;
    e.at = std::max<sim::Time>(c.kill_est, c.last_ev_at + 1);
    e.category = sim::TraceCategory::kBoot;
    e.node = c.mid;
    e.status = sim::TraceStatus::kKilled;
    events.push_back(e);
  };

  // --- main loop --------------------------------------------------------
  const sim::Time end = s.end_time();
  // Wall budget end/speedup * wall_factor + 5 s, on the shared timeline.
  const auto deadline = static_cast<sim::Time>(
      static_cast<double>(end) * o.wall_factor + 5'000'000.0 * speedup);
  for (;;) {
    const sim::Time now = clock->target();
    if (now > deadline) break;

    // Fire due chaos actions.
    while (next_action < actions.size() &&
           actions[next_action].at <= now) {
      const Action& a = actions[next_action++];
      Proc& p = procs[static_cast<std::size_t>(a.mid)];
      switch (a.kind) {
        case Action::kKill:
          if (p.pid > 0 && !p.exited) {
            ::kill(p.pid, SIGKILL);
            if (p.conn) {
              p.conn->killed = true;
              p.conn->kill_est = clock->target();
            }
            if (o.verbose) {
              std::fprintf(stderr, "fleet: SIGKILL n%d (pid %d)\n", a.mid,
                           static_cast<int>(p.pid));
            }
          }
          break;
        case Action::kRespawn: {
          const std::uint64_t wseed =
              o.seed * 1000003ull + static_cast<std::uint64_t>(a.mid) *
                                        7919ull +
              static_cast<std::uint64_t>(a.epoch) * 104729ull;
          const pid_t pid = spawn_worker(o.worker_path, a.mid, a.epoch,
                                         control_port, wseed);
          p.respawn_pending = false;
          if (pid > 0) {
            p.pid = pid;
            p.epoch = a.epoch;
            p.exited = false;
            p.conn = nullptr;  // the new incarnation will HELLO
            pid_to_mid[pid] = a.mid;
            if (o.verbose) {
              std::fprintf(stderr, "fleet: respawn n%d epoch %d\n", a.mid,
                           a.epoch);
            }
          }
          break;
        }
        case Action::kStop:
          if (p.pid > 0 && !p.exited) ::kill(p.pid, SIGSTOP);
          break;
        case Action::kCont:
          if (p.pid > 0 && !p.exited) ::kill(p.pid, SIGCONT);
          break;
      }
    }

    // Poll every open fd.
    std::vector<pollfd> pfds;
    pfds.push_back({listen_fd, POLLIN, 0});
    for (auto& cp : conns) {
      if (cp->fd >= 0) {
        pfds.push_back({cp->fd,
                        static_cast<short>(POLLIN | (cp->outq.empty()
                                                         ? 0
                                                         : POLLOUT)),
                        0});
      }
    }
    (void)::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 2);
    accept_conns();

    // Drain every connection.
    for (auto& cp : conns) {
      Conn& c = *cp;
      pump(c, Phase::kRun);
      if (c.eof && c.killed) synthesize_death(c);
      if (c.eof && !c.killed && !c.bye && c.mid >= 0 &&
          !c.death_synthesized) {
        // A death we did not schedule: count it, and record the death so
        // the merged invariants stay honest about the lost incarnation.
        ++r.unexpected_exits;
        c.kill_est = clock->target();
        synthesize_death(c);
      }
    }

    reap();
    clock->advance_to(clock->target());
    for (auto& cp : conns) flush_conn(*cp);

    // Done?
    bool all_done = !boot.busy();
    for (int mid = 0; mid < s.nodes && all_done; ++mid) {
      const Proc& p = procs[static_cast<std::size_t>(mid)];
      if (p.respawn_pending) {
        all_done = false;
        break;
      }
      const Conn* c = p.conn;
      if (!c) {
        all_done = false;  // respawned, HELLO not yet seen
        break;
      }
      if (c->killed) {
        all_done = c->eof;  // scheduled death: just drain the stream
      } else {
        all_done = c->bye;
      }
    }
    if (all_done && next_action >= actions.size()) break;
  }

  // --- teardown ---------------------------------------------------------
  for (auto& cp : conns) {
    Conn& c = *cp;
    if (c.mid < 0) continue;
    const Proc& p = procs[static_cast<std::size_t>(c.mid)];
    if (p.conn == &c && !c.bye && !c.killed) {
      ++r.wedged;  // never reported back: wedged or starved
    }
  }
  kill_all();
  // Brief drain for tail events still in flight on the control streams.
  const auto drain_deadline = now_wall() + std::chrono::milliseconds(500);
  while (now_wall() < drain_deadline) {
    bool any_open = false;
    for (auto& cp : conns) {
      any_open = any_open || cp->fd >= 0;
      pump(*cp, Phase::kDrain);
    }
    if (!any_open) break;
    std::this_thread::yield();
  }
  for (auto& cp : conns) {
    if (cp->killed) synthesize_death(*cp);
    if (cp->fd >= 0) {
      ::close(cp->fd);
      cp->fd = -1;
    }
  }
  ::close(listen_fd);
  dsim.trace().set_observer(nullptr);

  merge_trace(std::move(events), std::max(dsim.now(), end), r);
  r.boots_completed = boot.boots();
  r.boots_failed = boot.failures();

  bool all_finished = true;
  for (const auto& cp : conns) {
    const Conn& c = *cp;
    if (c.mid < 0) continue;
    if (c.stat_seen) {
      r.datagrams_out += c.stats.datagrams_out;
      r.datagrams_in += c.stats.datagrams_in;
      r.dropped += c.stats.dropped;
      r.send_drops += c.stats.send_drops;
      r.decode_failures += c.stats.decode_failures;
      r.duplicates_suppressed += c.stats.duplicates_suppressed;
      r.events_shed += c.stats.events_dropped;
      const Proc& p = procs[static_cast<std::size_t>(c.mid)];
      if (p.conn == &c && !c.stats.finished) all_finished = false;
    }
  }
  r.datagrams_out += dbus.datagrams_out();
  r.datagrams_in += dbus.datagrams_in();
  r.send_drops += dbus.send_drops();
  r.decode_failures += dbus.decode_failures();
  r.duplicates_suppressed +=
      dsim.metrics().total(stats::Counter::kDuplicatesSuppressed);
  r.finished = all_finished && r.wedged == 0;
  return r;
}

}  // namespace soda::fleet
