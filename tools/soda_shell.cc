// soda_shell — a scriptable console for poking at a SODA network.
//
// Reads commands from stdin (interactive or piped), drives a simulated
// network, and prints what the kernels do. Useful for exploring the
// primitives without writing a program.
//
//   node [seg]                 create a node (console client) on a segment
//   free [seg]                 create a clientless node (bootable)
//   segment                    append a new empty bus segment
//   gateway [seg...]           create a gateway bridging the listed
//                              segments (none listed = all current ones)
//   advertise <mid> <hexpat>   advertise a pattern on a node
//   signal <from> <to> <hexpat> <arg>
//   put <from> <to> <hexpat> <arg> <text>
//   get <from> <to> <hexpat> <arg> <nbytes>
//   discover <from> <hexpat>
//   crash <mid>                hard-fail a node
//   run <ms>                   advance simulated time
//   trace on|off               packet tracing for subsequent runs
//   stats [json]               bus + per-node metrics (json: JSONL dump)
//   routes [json]              topology dump: segments, gateway egress
//                              queue depths, learned MID/pattern routes
//                              (alias: topology)
//   chaos <scenario> [seeds]   sweep a chaos scenario (builtin name or
//                              JSONL file) across seeds, report violations
//   help / quit
//
// Example session:
//   $ printf 'node\nnode\nadvertise 0 42\nput 1 0 42 7 hello\nrun 50\nquit\n' |
//     ./tools/soda_shell
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "inet/internet.h"
#include "sodal/sodal.h"
#include "stats/json.h"
#include "stats/metrics.h"

namespace {

using namespace soda;
using namespace soda::sodal;

/// The console client: prints every handler event; auto-accepts arrivals
/// as an exchange echoing "ok:<arg>".
class ConsoleClient : public SodalClient {
 public:
  sim::Task on_entry(HandlerArgs a) override {
    std::printf("  [n%d %.1fms] REQUEST arrival: pattern=%#llx arg=%d "
                "put=%u get=%u from n%d\n",
                my_mid(), sim::to_ms(sim().now()),
                static_cast<unsigned long long>(a.invoked_pattern), a.arg,
                a.put_size, a.get_size, a.asker.mid);
    Bytes in;
    auto r = co_await accept_current_exchange(
        a.arg, &in, a.put_size, to_bytes("ok:" + std::to_string(a.arg)));
    if (r.status == AcceptStatus::kSuccess && !in.empty()) {
      std::printf("  [n%d] took %zu bytes: \"%s\"\n", my_mid(), in.size(),
                  to_string(in).c_str());
    }
  }
  sim::Task on_completion(HandlerArgs a) override {
    std::printf("  [n%d %.1fms] completion tid=%lld: %s arg=%d put=%u "
                "get=%u\n",
                my_mid(), sim::to_ms(sim().now()),
                static_cast<long long>(a.asker.tid), to_string(a.status),
                a.arg, a.put_size, a.get_size);
    co_return;
  }
};

Pattern parse_pattern(const std::string& s) {
  return (std::stoull(s, nullptr, 16) | kWellKnownBit) & kPatternMask;
}

}  // namespace

int main() {
  // One segment by default — `segment` + `gateway` grow it into an
  // internetwork (doc/INTERNET.md). Single-segment sessions behave
  // exactly like the old Network-backed shell.
  inet::Internet net;
  std::vector<Mid> node_mids;      // nodes in creation order (not gateways)
  std::vector<Bytes> get_buffers;  // keep GET targets alive
  get_buffers.reserve(1024);
  bool tracing = false;
  std::size_t trace_cursor = 0;

  std::printf("soda_shell — type 'help' for commands\n");
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') continue;
    try {
      if (cmd == "quit" || cmd == "exit") {
        break;
      } else if (cmd == "help") {
        std::printf("node free segment gateway advertise signal put get "
                    "discover crash run trace stats routes chaos quit\n");
      } else if (cmd == "node") {
        int seg = 0;
        in >> seg;
        Node& n = net.add_node(seg);
        n.install_client(std::make_unique<ConsoleClient>(), n.mid());
        node_mids.push_back(n.mid());
        std::printf("node %d created on segment %d (console client)\n",
                    n.mid(), seg);
      } else if (cmd == "free") {
        int seg = 0;
        in >> seg;
        Node& n = net.add_node(seg);
        node_mids.push_back(n.mid());
        std::printf("node %d created on segment %d (clientless, bootable)\n",
                    n.mid(), seg);
      } else if (cmd == "segment") {
        std::printf("segment %d created\n", net.add_segment());
      } else if (cmd == "gateway") {
        std::vector<int> segs;
        int s;
        while (in >> s) segs.push_back(s);
        auto& g = net.add_gateway(segs);
        std::printf("gateway %d created bridging segments [", g.mid());
        const auto ids = g.segment_ids();
        for (std::size_t i = 0; i < ids.size(); ++i) {
          std::printf("%s%d", i ? " " : "", ids[i]);
        }
        std::printf("]\n");
      } else if (cmd == "advertise") {
        int mid;
        std::string pat;
        in >> mid >> pat;
        const bool ok = net.node(mid).kernel().advertise(parse_pattern(pat));
        std::printf("advertise -> %s\n", ok ? "ok" : "refused");
      } else if (cmd == "signal" || cmd == "put" || cmd == "get") {
        int from, to, arg;
        std::string pat;
        in >> from >> to >> pat >> arg;
        const ServerSignature server{to, parse_pattern(pat)};
        Kernel::RequestParams rp = Kernel::RequestParams::signal(server, arg);
        if (cmd == "put") {
          std::string text;
          std::getline(in, text);
          if (!text.empty() && text[0] == ' ') text.erase(0, 1);
          rp = Kernel::RequestParams::put(server, to_bytes(text), arg);
        } else if (cmd == "get") {
          unsigned n = 0;
          in >> n;
          get_buffers.emplace_back();
          rp = Kernel::RequestParams::get(server, n, &get_buffers.back(),
                                          arg);
        }
        auto tid = net.node(from).kernel().request(rp);
        if (tid) {
          std::printf("%s issued, tid=%lld\n", cmd.c_str(),
                      static_cast<long long>(*tid));
        } else {
          std::printf("%s refused (MAXREQUESTS?)\n", cmd.c_str());
        }
      } else if (cmd == "discover") {
        int from;
        std::string pat;
        in >> from >> pat;
        get_buffers.emplace_back();
        net.node(from).kernel().request(Kernel::RequestParams::discover(
            parse_pattern(pat), 64, &get_buffers.back()));
        std::printf("discover broadcast issued\n");
      } else if (cmd == "crash") {
        int mid;
        in >> mid;
        net.node(mid).crash();
        std::printf("node %d crashed\n", mid);
      } else if (cmd == "run") {
        long ms = 0;
        in >> ms;
        net.run_for(ms * sim::kMillisecond);
        net.check_clients();
        if (tracing) {
          const auto& ev = net.sim().trace().events();
          for (; trace_cursor < ev.size(); ++trace_cursor) {
            const auto& e = ev[trace_cursor];
            std::printf("  %9.2f ms %s\n", sim::to_ms(e.at),
                        sim::describe(e).c_str());
          }
        }
        std::printf("t=%.1f ms\n", sim::to_ms(net.sim().now()));
      } else if (cmd == "trace") {
        std::string mode;
        in >> mode;
        tracing = (mode == "on");
        if (tracing) {
          net.sim().trace().enable_all();
          trace_cursor = net.sim().trace().events().size();
        } else {
          net.sim().trace().disable_all();
        }
        std::printf("trace %s\n", tracing ? "on" : "off");
      } else if (cmd == "stats") {
        std::string mode;
        in >> mode;
        if (mode == "json") {
          // JSONL dump of every node's metrics registry (plus aggregate).
          stats::dump_json(std::cout, net.sim().metrics(), "soda_shell");
        } else {
          std::size_t frames = 0, bytes = 0, lost = 0, corrupted = 0;
          for (int s = 0; s < net.segments(); ++s) {
            frames += net.bus(s).frames_sent();
            bytes += net.bus(s).bytes_sent();
            lost += net.bus(s).frames_lost();
            corrupted += net.bus(s).frames_corrupted();
          }
          std::printf("frames=%zu bytes=%zu lost=%zu corrupted=%zu nodes=%zu "
                      "segments=%d t=%.1fms\n",
                      frames, bytes, lost, corrupted, net.size(),
                      net.segments(), sim::to_ms(net.sim().now()));
          for (const auto& [mid, reg] : net.sim().metrics().nodes()) {
            using stats::Counter;
            std::printf(
                "  n%d: sent=%llu recv=%llu dropped=%llu retrans=%llu "
                "busy_nacks=%llu reqs=%llu/%llu accepts=%llu/%llu "
                "handler_runs=%llu\n",
                mid,
                static_cast<unsigned long long>(reg.counter(Counter::kFramesSent)),
                static_cast<unsigned long long>(
                    reg.counter(Counter::kFramesReceived)),
                static_cast<unsigned long long>(
                    reg.counter(Counter::kFramesDropped)),
                static_cast<unsigned long long>(
                    reg.counter(Counter::kRetransmits)),
                static_cast<unsigned long long>(
                    reg.counter(Counter::kBusyNacks)),
                static_cast<unsigned long long>(
                    reg.counter(Counter::kRequestsCompleted)),
                static_cast<unsigned long long>(
                    reg.counter(Counter::kRequestsIssued)),
                static_cast<unsigned long long>(
                    reg.counter(Counter::kAcceptsCompleted)),
                static_cast<unsigned long long>(
                    reg.counter(Counter::kAcceptsIssued)),
                static_cast<unsigned long long>(
                    reg.counter(Counter::kHandlerInvocations)));
          }
        }
      } else if (cmd == "routes" || cmd == "topology") {
        std::string mode;
        in >> mode;
        if (mode == "json") {
          // JSONL: one row per segment, one per gateway, one per learned
          // route — same flat-JSON idiom as `stats json`.
          for (int s = 0; s < net.segments(); ++s) {
            std::string members;
            for (Mid m : node_mids) {
              if (net.segment_of(m) != s) continue;
              if (!members.empty()) members += ' ';
              members += std::to_string(m);
            }
            std::cout << stats::JsonObject()
                             .set("kind", "segment")
                             .set("segment", static_cast<std::int64_t>(s))
                             .set("frames_sent", net.bus(s).frames_sent())
                             .set("nodes", members)
                             .str()
                      << '\n';
          }
          for (const auto& g : net.gateways()) {
            const auto depths = g->queue_depths();
            const auto ids = g->segment_ids();
            std::string segs, queues;
            for (std::size_t i = 0; i < ids.size(); ++i) {
              if (i) segs += ' ', queues += ' ';
              segs += std::to_string(ids[i]);
              queues += std::to_string(depths[i]);
            }
            std::cout << stats::JsonObject()
                             .set("kind", "gateway")
                             .set("mid", static_cast<std::int64_t>(g->mid()))
                             .set("alive", g->alive())
                             .set("segments", segs)
                             .set("queue_depths", queues)
                             .set("forwarded", g->forwarded())
                             .set("ttl_drops", g->ttl_drops())
                             .set("overflow_drops", g->overflow_drops())
                             .set("no_route_drops", g->no_route_drops())
                             .set("coalesced", g->coalesced())
                             .str()
                      << '\n';
            for (const auto& r : g->mid_routes()) {
              std::cout << stats::JsonObject()
                               .set("kind", "mid_route")
                               .set("gateway",
                                    static_cast<std::int64_t>(g->mid()))
                               .set("mid", static_cast<std::int64_t>(r.mid))
                               .set("segment",
                                    static_cast<std::int64_t>(r.segment))
                               .set("hops", static_cast<std::int64_t>(r.hops))
                               .str()
                        << '\n';
            }
            for (const auto& r : g->pattern_routes()) {
              char pat[32];
              std::snprintf(pat, sizeof pat, "%#llx",
                            static_cast<unsigned long long>(r.pattern));
              std::cout << stats::JsonObject()
                               .set("kind", "pattern_route")
                               .set("gateway",
                                    static_cast<std::int64_t>(g->mid()))
                               .set("pattern", pat)
                               .set("segment",
                                    static_cast<std::int64_t>(r.segment))
                               .set("hops", static_cast<std::int64_t>(r.hops))
                               .str()
                        << '\n';
            }
          }
        } else {
          std::printf("topology: %d segment(s), %zu node(s), %zu gateway(s)\n",
                      net.segments(), net.size(), net.gateways().size());
          for (int s = 0; s < net.segments(); ++s) {
            std::printf("  segment %d: frames=%zu nodes=[", s,
                        net.bus(s).frames_sent());
            bool first = true;
            for (Mid m : node_mids) {
              if (net.segment_of(m) != s) continue;
              std::printf("%s%d", first ? "" : " ", m);
              first = false;
            }
            std::printf("]\n");
          }
          for (const auto& g : net.gateways()) {
            const auto depths = g->queue_depths();
            const auto ids = g->segment_ids();
            std::printf("  gateway %d (%s): segments=[", g->mid(),
                        g->alive() ? "alive" : "down");
            for (std::size_t i = 0; i < ids.size(); ++i) {
              std::printf("%s%d", i ? " " : "", ids[i]);
            }
            std::printf("] queues=[");
            for (std::size_t i = 0; i < depths.size(); ++i) {
              std::printf("%s%zu", i ? " " : "", depths[i]);
            }
            std::printf("] forwarded=%zu drops[ttl=%zu ovfl=%zu noroute=%zu]"
                        " coalesced=%zu\n",
                        g->forwarded(), g->ttl_drops(), g->overflow_drops(),
                        g->no_route_drops(), g->coalesced());
            for (const auto& r : g->mid_routes()) {
              std::printf("    mid %d -> segment %d (hops %u)\n", r.mid,
                          r.segment, r.hops);
            }
            for (const auto& r : g->pattern_routes()) {
              std::printf("    pattern %#llx -> segment %d (hops %u)\n",
                          static_cast<unsigned long long>(r.pattern),
                          r.segment, r.hops);
            }
          }
        }
      } else if (cmd == "chaos") {
        // Runs on fresh simulations — the shell's own network is untouched.
        std::string which;
        int seeds = 50;
        in >> which >> seeds;
        std::string error;
        const auto sc = chaos::load_scenario(which, &error);
        if (!sc) {
          std::printf("chaos: %s\n", error.c_str());
          continue;
        }
        chaos::SweepOptions so;
        so.seeds = seeds > 0 ? seeds : 50;
        so.on_failure = [](const chaos::RunResult& r) {
          for (const auto& v : r.violations) {
            std::printf("  FAIL seed=%llu [%s] %s\n",
                        static_cast<unsigned long long>(r.seed),
                        v.invariant.c_str(), v.detail.c_str());
          }
        };
        auto res = chaos::sweep_scenario(*sc, so);
        std::printf("chaos %s: %d seed(s), %zu failure(s)\n",
                    sc->name.c_str(), res.ran, res.failures.size());
      } else {
        std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
      }
    } catch (const std::exception& e) {
      std::printf("error: %s\n", e.what());
    }
  }
  return 0;
}
