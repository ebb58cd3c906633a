#include "fleet/worker.h"

#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chaos/scenario.h"
#include "chaos/windows.h"
#include "chaos/workload.h"
#include "core/node.h"
#include "fleet/control.h"
#include "posix/udp_bus.h"
#include "stats/metrics.h"

namespace soda::fleet {

int run_worker(const WorkerOptions& opts) {
  sim::Simulator sim(opts.seed);
  posix::UdpBus bus(sim);
  if (!bus.open_station(static_cast<net::Mid>(opts.mid))) {
    std::fprintf(stderr, "soda_node[%d]: no UDP sockets\n", opts.mid);
    return 3;
  }
  const int fd = connect_loopback(opts.control_port);
  if (fd < 0) {
    std::fprintf(stderr, "soda_node[%d]: cannot reach driver on port %u\n",
                 opts.mid, opts.control_port);
    return 3;
  }
  if (!write_fully(fd, hello_line(opts.mid, opts.epoch,
                                  bus.port_of(static_cast<net::Mid>(
                                      opts.mid))),
                   10'000)) {
    ::close(fd);
    return 3;
  }

  // The one control-message dispatch: scenario lines and START configure
  // the run (only the first START counts), PEER updates may arrive at any
  // time.
  std::string scenario_text;
  std::optional<Message> start;
  auto handle = [&](const Message& msg) {
    switch (msg.kind) {
      case Message::Kind::kScenarioLine:
        if (!start) scenario_text += msg.raw + '\n';
        break;
      case Message::Kind::kPeer:
        if (msg.mid != opts.mid) {
          bus.set_peer(static_cast<net::Mid>(msg.mid), msg.port);
        }
        break;
      case Message::Kind::kStart:
        if (!start) start = msg;
        break;
      default:
        break;
    }
  };

  // ---- configuration phase: scenario + peers, ended by START ----------
  set_nonblocking(fd);
  LineBuffer lines;
  const auto cfg_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!start) {
    if (std::chrono::steady_clock::now() > cfg_deadline) {
      ::close(fd);
      return 4;
    }
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    if (!lines.fill_from(fd)) {
      ::close(fd);
      return 4;  // driver vanished during configuration
    }
    while (auto line = lines.next_line()) {
      if (auto msg = parse_message(*line)) handle(*msg);
      if (start) break;
    }
  }

  auto scenario = chaos::scenario_from_jsonl(scenario_text);
  if (!scenario) {
    std::fprintf(stderr, "soda_node[%d]: malformed scenario\n", opts.mid);
    ::close(fd);
    return 4;
  }

  NodeConfig config = chaos::node_config(*scenario, opts.mid);
  config.initial_tid = start->initial_tid;

  // Anchor this incarnation's clock on the shared fleet timeline before
  // any node state exists: everything the kernel schedules, and every
  // trace event it records, happens at >= sim_offset.
  sim.run_until(start->sim_offset);

  // Trace streaming: encode each invariant-relevant event as one JSONL
  // line in an outbound buffer the main loop flushes opportunistically.
  std::string outbuf;
  std::uint64_t events_dropped = 0;
  constexpr std::size_t kOutbufFlushAt = 1 << 20;   // try a blocking flush
  constexpr std::size_t kOutbufHardCap = 64u << 20; // beyond this: shed
  sim.trace().disable_all();
  for (const auto c : kStreamedCategories) sim.trace().enable(c);
  sim.trace().set_store(false);
  sim.trace().set_observer([&](const sim::TraceEvent& e) {
    if (outbuf.size() > kOutbufHardCap) {
      ++events_dropped;
      return;
    }
    outbuf += sim::to_json(e);
    outbuf += '\n';
  });

  // One loss filter: the uniform --drop draw first, then the scenario's
  // receive-side loss windows and partitions, matched exactly as the
  // simulated bus matches them (chaos/windows.h). Crash and delay faults
  // are the driver's job (real signals); corruption and duplication are
  // not modeled on the real medium (doc/FLEET.md).
  bus.set_loss_filter([drop = start->drop,
                       loss = chaos::LossWindows(*scenario, /*segment=*/0),
                       &sim](const net::Frame& fr, net::Mid dst) {
    return sim.rng().chance(drop) || loss.drops(sim, fr.src, dst);
  });

  UniqueIdSource uids;
  Node node(sim, bus, static_cast<net::Mid>(opts.mid), config, uids);
  node.register_program("workload", [&scenario, &opts] {
    return chaos::make_workload_client(*scenario,
                                       static_cast<net::Mid>(opts.mid));
  });
  if (opts.epoch == 0) {
    // Initial boot: install directly, as the simulator does at t=0.
    node.install_client(chaos::make_workload_client(
                            *scenario, static_cast<net::Mid>(opts.mid)),
                        static_cast<net::Mid>(opts.mid));
  }
  // epoch > 0: stay a free machine. The kernel advertises the §3.5 boot
  // pattern and the driver's boot parent LOADs "workload" over the wire.

  // ---- run phase: RealtimeRunner cadence + control I/O ----------------
  const double speedup = start->speedup > 0 ? start->speedup : 10.0;
  const sim::Time end = scenario->end_time();
  const auto t0 = std::chrono::steady_clock::now();
  const auto wall_budget = std::chrono::microseconds(static_cast<std::int64_t>(
      static_cast<double>(end - start->sim_offset) / speedup * 1.5 +
      10'000'000.0));
  posix::RealtimeRunner clock(sim, bus, speedup);
  bool finished = false;
  bool driver_gone = false;
  while (!driver_gone) {
    if (std::chrono::steady_clock::now() - t0 > wall_budget) {
      break;  // wedged: report finished=0
    }
    clock.advance_to(std::min(clock.target(), end));
    if (sim.now() >= end) {
      finished = true;
      break;
    }
    // Drain driver commands (peer updates after reboots).
    if (!lines.fill_from(fd)) driver_gone = true;
    while (auto line = lines.next_line()) {
      if (auto msg = parse_message(*line)) handle(*msg);
    }
    // Opportunistic event flush; block (with a deadline) only when the
    // buffer has grown past the flush threshold. Shedding events is never
    // acceptable while the driver lives: the merged invariant stream
    // would report false violations.
    if (!outbuf.empty() && !driver_gone) {
      if (outbuf.size() >= kOutbufFlushAt) {
        if (!write_fully(fd, outbuf, 30'000)) driver_gone = true;
        outbuf.clear();
      } else {
        const ssize_t n = ::write(fd, outbuf.data(), outbuf.size());
        if (n > 0) outbuf.erase(0, static_cast<std::size_t>(n));
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  sim.trace().set_observer(nullptr);

  // ---- teardown: final events + stat + bye ----------------------------
  WorkerStats st;
  st.datagrams_out = bus.datagrams_out();
  st.datagrams_in = bus.datagrams_in();
  st.dropped = bus.frames_lost();
  st.send_drops = bus.send_drops();
  st.decode_failures = bus.decode_failures();
  st.duplicates_suppressed =
      sim.metrics().total(stats::Counter::kDuplicatesSuppressed);
  st.events_dropped = events_dropped;
  st.finished = finished;

  if (!driver_gone) {
    outbuf += stat_line(st);
    outbuf += bye_line();
    (void)write_fully(fd, outbuf, 30'000);
  }
  ::close(fd);
  return 0;
}

}  // namespace soda::fleet
