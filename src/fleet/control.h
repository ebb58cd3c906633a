// Control protocol between the soda_fleet driver and its soda_node
// workers (doc/FLEET.md).
//
// Every worker holds one TCP connection to the driver and the two sides
// exchange newline-delimited flat JSON objects ("kind" names the message):
//
//   worker -> driver   {"kind":"hello","mid":M,"epoch":E,"port":P}
//                      {"kind":"trace",...}        (sim::to_json event)
//                      {"kind":"stat",...}         (final counters)
//                      {"kind":"bye"}
//   driver -> worker   {"kind":"scenario",...} / {"kind":"fault",...}
//                      (the chaos::to_jsonl lines, streamed verbatim)
//                      {"kind":"peer","mid":M,"port":P}
//                      {"kind":"start","sim_offset":T,"speedup":X,
//                       "initial_tid":N,"drop":P}
//
// The trace stream reuses the sim::TraceEvent JSONL codec, so the driver
// replays worker events straight into chaos::InvariantSet. Everything is
// loopback-only; a failure to open sockets is reported, never fatal to
// the caller (CI sandboxes forbid them).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sim/trace.h"

namespace soda::fleet {

// ---------------------------------------------------------------- sockets

/// Bind + listen on an ephemeral loopback TCP port. Returns the fd (and
/// the port via `port_out`) or -1.
int listen_loopback(std::uint16_t* port_out);

/// Connect to a loopback TCP port, retrying EINTR. Returns fd or -1.
int connect_loopback(std::uint16_t port);

bool set_nonblocking(int fd);

/// Write all of `data`, polling a (possibly nonblocking) fd until done or
/// `timeout_ms` elapses. Returns false on error/timeout.
bool write_fully(int fd, std::string_view data, int timeout_ms);

// ----------------------------------------------------------------- lines

/// Accumulates stream bytes and yields complete '\n'-terminated lines
/// (a trailing '\r' is stripped). Draining is linear in the bytes held:
/// next_line() advances an offset, and the consumed prefix is dropped once
/// per feed, not once per line.
class LineBuffer {
 public:
  void feed(const char* data, std::size_t n);
  /// Read a nonblocking stream `fd` until it would block, retrying EINTR.
  /// Returns false on EOF or a hard error (the stream is finished; lines
  /// already buffered can still be drained).
  bool fill_from(int fd);
  /// Next complete line (without the newline), or nullopt.
  std::optional<std::string> next_line();

 private:
  std::string buf_;
  std::size_t head_ = 0;  // start of the first unconsumed line
  std::size_t scan_ = 0;  // bytes before this hold no '\n' past head_
};

// -------------------------------------------------------------- messages

/// Trace categories a worker streams to the driver (and the driver's own
/// node records): exactly the set the chaos invariant checkers consume
/// (chaos/invariants.cc) — boot/death epochs, handler nesting, request
/// issue/delivery/termination, accept outcomes.
inline constexpr sim::TraceCategory kStreamedCategories[] = {
    sim::TraceCategory::kBoot,
    sim::TraceCategory::kHandlerInvoked,
    sim::TraceCategory::kHandlerEnded,
    sim::TraceCategory::kRequestIssued,
    sim::TraceCategory::kRequestDelivered,
    sim::TraceCategory::kRequestCompleted,
    sim::TraceCategory::kAcceptCompleted,
};

/// Final per-worker medium counters, reported in the "stat" line. The
/// driver's op accounting comes from the merged trace stream.
struct WorkerStats {
  std::uint64_t datagrams_out = 0, datagrams_in = 0;
  std::uint64_t dropped = 0, send_drops = 0, decode_failures = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t events_dropped = 0;  // trace lines shed by the outbuf cap
  bool finished = false;  // sim reached scenario end inside the wall budget
};

struct Message {
  enum class Kind {
    kHello,
    kScenarioLine,  // "scenario" or "fault": raw line for reassembly
    kPeer,
    kStart,
    kTrace,
    kStat,
    kBye,
  };
  Kind kind = Kind::kBye;
  int mid = -1;
  int epoch = 0;
  std::uint16_t port = 0;
  sim::Time sim_offset = 0;
  double speedup = 10.0;
  std::int64_t initial_tid = 1;
  double drop = 0.0;
  std::string raw;  // kScenarioLine: the verbatim line
  std::optional<sim::TraceEvent> event;  // kTrace
  WorkerStats stats;                     // kStat
};

std::string hello_line(int mid, int epoch, std::uint16_t udp_port);
std::string peer_line(int mid, std::uint16_t udp_port);
std::string start_line(sim::Time sim_offset, double speedup,
                       std::int64_t initial_tid, double drop);
std::string stat_line(const WorkerStats& s);
std::string bye_line();

/// Parse one control line. Returns nullopt on malformed input or an
/// unknown kind (forward compatibility: callers skip those).
std::optional<Message> parse_message(std::string_view line);

}  // namespace soda::fleet
