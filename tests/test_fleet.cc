// The soda::fleet real-process harness: control-protocol codecs, the
// worker/driver handshake, and a small end-to-end fleet (4 OS processes
// with a SIGKILL + network-boot reboot). The e2e tests fork the soda_node
// binary (path injected at compile time) and skip gracefully when the
// environment forbids fork or sockets.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string>

#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "fleet/control.h"
#include "fleet/driver.h"

namespace soda::fleet {
namespace {

TEST(FleetControl, LineBufferSplitsAndReassembles) {
  LineBuffer lb;
  lb.feed("abc", 3);
  EXPECT_FALSE(lb.next_line().has_value());
  lb.feed("\ndef\r\ngh", 8);
  auto a = lb.next_line();
  ASSERT_TRUE(a);
  EXPECT_EQ(*a, "abc");
  auto b = lb.next_line();
  ASSERT_TRUE(b);
  EXPECT_EQ(*b, "def");  // CR stripped
  EXPECT_FALSE(lb.next_line().has_value());
  lb.feed("\n", 1);
  auto c = lb.next_line();
  ASSERT_TRUE(c);
  EXPECT_EQ(*c, "gh");

  // The same framing through fill_from on a nonblocking stream: a line
  // split across two fills, CRLF, and EOF reported as false with the
  // buffered lines still drainable.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(set_nonblocking(sv[0]));
  LineBuffer rb;
  EXPECT_TRUE(rb.fill_from(sv[0]));  // nothing sent yet: would block
  EXPECT_FALSE(rb.next_line().has_value());
  ASSERT_EQ(::write(sv[1], "hel", 3), 3);
  EXPECT_TRUE(rb.fill_from(sv[0]));
  EXPECT_FALSE(rb.next_line().has_value());
  ASSERT_EQ(::write(sv[1], "lo\r\nwor", 7), 7);
  EXPECT_TRUE(rb.fill_from(sv[0]));
  auto d = rb.next_line();
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, "hello");
  EXPECT_FALSE(rb.next_line().has_value());
  ASSERT_EQ(::write(sv[1], "ld\n", 3), 3);
  ::close(sv[1]);
  EXPECT_FALSE(rb.fill_from(sv[0]));  // EOF
  auto e = rb.next_line();
  ASSERT_TRUE(e);
  EXPECT_EQ(*e, "world");
  EXPECT_FALSE(rb.next_line().has_value());
  ::close(sv[0]);
}

// One fill_from can hold whatever a control socket has buffered (say, a
// worker's backlog after a SIGSTOP window). Draining must stay linear in
// the bytes held: 16 MiB of 150-byte lines, fed in read-sized chunks,
// drains in well under a second; erasing the consumed prefix per line
// took tens of seconds.
TEST(FleetControl, LineBufferDrainsLargeBacklogLinearly) {
  constexpr std::size_t kLine = 150;
  constexpr std::size_t kLines = (16u << 20) / kLine;
  std::string line(kLine - 1, 'x');
  line += '\n';
  std::string backlog;
  backlog.reserve(kLines * kLine);
  for (std::size_t i = 0; i < kLines; ++i) backlog += line;

  const auto t0 = std::chrono::steady_clock::now();
  LineBuffer lb;
  constexpr std::size_t kChunk = 65536;
  for (std::size_t off = 0; off < backlog.size(); off += kChunk) {
    lb.feed(backlog.data() + off, std::min(kChunk, backlog.size() - off));
  }
  std::size_t drained = 0;
  while (auto l = lb.next_line()) {
    ASSERT_EQ(l->size(), kLine - 1);
    ++drained;
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_EQ(drained, kLines);
  EXPECT_LT(secs, 5.0);
}

TEST(FleetControl, MessageRoundTrips) {
  auto h = parse_message(hello_line(3, 2, 40123));
  ASSERT_TRUE(h);
  EXPECT_EQ(h->kind, Message::Kind::kHello);
  EXPECT_EQ(h->mid, 3);
  EXPECT_EQ(h->epoch, 2);
  EXPECT_EQ(h->port, 40123);

  auto p = parse_message(peer_line(7, 50001));
  ASSERT_TRUE(p);
  EXPECT_EQ(p->kind, Message::Kind::kPeer);
  EXPECT_EQ(p->mid, 7);
  EXPECT_EQ(p->port, 50001);

  auto s = parse_message(
      start_line(/*sim_offset=*/3500000, /*speedup=*/12.5,
                 /*initial_tid=*/1 + (1 << 20), /*drop=*/0.02));
  ASSERT_TRUE(s);
  EXPECT_EQ(s->kind, Message::Kind::kStart);
  EXPECT_EQ(s->sim_offset, 3500000);
  EXPECT_DOUBLE_EQ(s->speedup, 12.5);
  EXPECT_EQ(s->initial_tid, 1 + (1 << 20));
  EXPECT_DOUBLE_EQ(s->drop, 0.02);

  WorkerStats st;
  st.datagrams_out = 1234;
  st.datagrams_in = 1200;
  st.dropped = 17;
  st.send_drops = 3;
  st.decode_failures = 5;
  st.duplicates_suppressed = 8;
  st.events_dropped = 0;
  st.finished = true;
  auto t = parse_message(stat_line(st));
  ASSERT_TRUE(t);
  EXPECT_EQ(t->kind, Message::Kind::kStat);
  EXPECT_EQ(t->stats.datagrams_out, 1234u);
  EXPECT_EQ(t->stats.dropped, 17u);
  EXPECT_EQ(t->stats.send_drops, 3u);
  EXPECT_EQ(t->stats.decode_failures, 5u);
  EXPECT_EQ(t->stats.duplicates_suppressed, 8u);
  EXPECT_TRUE(t->stats.finished);

  auto b = parse_message(bye_line());
  ASSERT_TRUE(b);
  EXPECT_EQ(b->kind, Message::Kind::kBye);

  EXPECT_FALSE(parse_message("not json"));
  EXPECT_FALSE(parse_message("{\"kind\":\"martian\"}"));
}

TEST(FleetControl, ScenarioAndTraceLinesPassThrough) {
  // Scenario/fault rows from chaos::to_jsonl are forwarded raw.
  auto sc = parse_message(
      "{\"kind\":\"scenario\",\"name\":\"x\",\"nodes\":4,\"servers\":1}");
  ASSERT_TRUE(sc);
  EXPECT_EQ(sc->kind, Message::Kind::kScenarioLine);
  EXPECT_NE(sc->raw.find("\"nodes\":4"), std::string::npos);

  // Trace rows decode into sim::TraceEvent via the sim JSONL codec.
  sim::TraceEvent e;
  e.at = 123456;
  e.category = sim::TraceCategory::kRequestCompleted;
  e.node = 2;
  e.peer = 0;
  e.tid = 17;
  e.status = sim::TraceStatus::kCompleted;
  auto tr = parse_message(sim::to_json(e));
  ASSERT_TRUE(tr);
  EXPECT_EQ(tr->kind, Message::Kind::kTrace);
  ASSERT_TRUE(tr->event);
  EXPECT_EQ(tr->event->at, 123456);
  EXPECT_EQ(tr->event->node, 2);
  EXPECT_EQ(tr->event->tid, 17);
  EXPECT_EQ(tr->event->status, sim::TraceStatus::kCompleted);
}

#ifndef TEST_SODA_NODE_BIN
#define TEST_SODA_NODE_BIN ""
#endif

// The live-fleet tests depend on the real-time envelope (doc/FLEET.md
// "Timing envelope"): worker clocks advance at wall rate x speedup, so a
// 10-20x sanitizer slowdown genuinely violates the Delta-t deployment
// assumptions — and LeakSanitizer fails the worker processes on the
// intentionally-unreclaimed coroutine frames at sim cutoff. The codec
// tests above still run; the cluster itself is exercised by the
// unsanitized fleet CI job.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

FleetOptions small_fleet_options() {
  FleetOptions o;
  chaos::Scenario s;
  s.name = "fleet_test";
  s.nodes = 4;
  s.servers = 1;
  s.duration = 1500 * sim::kMillisecond;
  s.drain = 1500 * sim::kMillisecond;
  s.request_interval = 100 * sim::kMillisecond;
  s.payload = 32;
  o.scenario = s;
  o.seed = 11;
  o.speedup = 10.0;
  o.worker_path = TEST_SODA_NODE_BIN;
  return o;
}

TEST(FleetE2E, FourProcessStarRpc) {
  if (kSanitized) GTEST_SKIP() << "live fleet skipped under sanitizers";
  FleetOptions o = small_fleet_options();
  const FleetResult r = run_fleet(o);
  if (r.skipped) GTEST_SKIP() << r.skip_reason;
  EXPECT_TRUE(r.ran);
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(r.wedged, 0);
  EXPECT_EQ(r.unexpected_exits, 0);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front().invariant << ": "
      << r.violations.front().detail;
  EXPECT_GT(r.issued, 0u);
  EXPECT_GT(r.completed, 0u);
  EXPECT_GT(r.datagrams_out, 0u);
  EXPECT_EQ(r.events_shed, 0u);
}

TEST(FleetE2E, SigkillAndNetworkBootReboot) {
  if (kSanitized) GTEST_SKIP() << "live fleet skipped under sanitizers";
  FleetOptions o = small_fleet_options();
  // Kill a client mid-run; it must re-exec, come up as a free machine,
  // and be network-booted back into the workload by the driver (§3.5).
  o.scenario.crash(/*node=*/2, /*at=*/600 * sim::kMillisecond,
                   /*reboot_after=*/800 * sim::kMillisecond);
  const FleetResult r = run_fleet(o);
  if (r.skipped) GTEST_SKIP() << r.skip_reason;
  EXPECT_TRUE(r.ran);
  EXPECT_EQ(r.wedged, 0);
  EXPECT_EQ(r.unexpected_exits, 0);
  EXPECT_EQ(r.reboots, 1);
  EXPECT_EQ(r.boots_completed, 1);
  EXPECT_EQ(r.boots_failed, 0);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front().invariant << ": "
      << r.violations.front().detail;
}

// The driver's merge, fed one simulated run's full trace in order, must
// answer exactly what run_scenario's live observer answered: the same
// trace-derived tallies and the same violations. This covers the merge
// without forking, so it runs where the e2e tests skip.
void expect_merge_matches_run(const chaos::Scenario& s, std::uint64_t seed,
                              bool expect_violations) {
  chaos::RunOptions keep;
  keep.keep_events = true;
  const chaos::RunResult run = chaos::run_scenario(s, seed, nullptr, keep);
  ASSERT_EQ(run.events.size(), run.stats.events);
  ASSERT_EQ(run.violations.empty(), !expect_violations);
  FleetResult merged;
  merge_trace(run.events, s.end_time(), merged);
  EXPECT_EQ(merged.events, run.stats.events);
  EXPECT_EQ(merged.issued, run.stats.requests_issued);
  EXPECT_EQ(merged.terminal, run.stats.requests_completed);
  EXPECT_EQ(merged.completed, run.stats.ok_completions);
  EXPECT_EQ(merged.crashed, run.stats.crashed_completions);
  EXPECT_EQ(merged.timedout, run.stats.timedout_completions);
  EXPECT_EQ(merged.deliveries, run.stats.deliveries);
  EXPECT_EQ(merged.sim_end, s.end_time());
  ASSERT_EQ(merged.violations.size(), run.violations.size());
  for (std::size_t i = 0; i < run.violations.size(); ++i) {
    EXPECT_EQ(merged.violations[i].invariant, run.violations[i].invariant);
    EXPECT_EQ(merged.violations[i].at, run.violations[i].at);
    EXPECT_EQ(merged.violations[i].detail, run.violations[i].detail);
  }
}

TEST(FleetMerge, ReproducesRunScenarioOnFleetSmoke) {
  const auto s = chaos::builtin_scenario("fleet_smoke");
  ASSERT_TRUE(s.has_value());
  expect_merge_matches_run(*s, 1, /*expect_violations=*/false);
}

TEST(FleetMerge, ReproducesRunScenarioViolations) {
  // Timers skewed far outside the Delta-t envelope under heavy loss and
  // duplication: duplicate deliveries and unterminated requests, so the
  // violation lists compared are not empty.
  chaos::Scenario s;
  s.name = "skew_outside_envelope";
  s.nodes = 4;
  s.duration = 4 * sim::kSecond;
  s.drain = 6 * sim::kSecond;
  s.request_interval = 70 * sim::kMillisecond;
  s.accept_delay = 2 * sim::kMillisecond;
  s.lose(0.3).duplicate(0.1).skew_timers(0, 0.3).skew_timers(2, 3.0);
  expect_merge_matches_run(s, 1, /*expect_violations=*/true);
}

TEST(FleetE2E, BadWorkerPathSkips) {
  FleetOptions o = small_fleet_options();
  o.worker_path = "/nonexistent/soda_node";
  const FleetResult r = run_fleet(o);
  EXPECT_TRUE(r.skipped);
  EXPECT_FALSE(r.ran);
  EXPECT_FALSE(r.skip_reason.empty());
}

}  // namespace
}  // namespace soda::fleet
