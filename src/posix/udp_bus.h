// A real-socket medium for SODA: the same kernels, transport and SODAL
// programs, but frames travel as UDP datagrams on the loopback interface
// instead of through the simulated Megalink.
//
// This is the "systems-level IPC over sockets" realization: every node
// gets its own bound UDP socket; send() wire-encodes the frame
// (net/wire.h) and sendto()s it; a poll loop decodes arrivals and injects
// them into the receiving kernel at the current simulated instant. The
// RealtimeRunner advances the simulation clock against the wall clock
// (optionally scaled), so kernel timers — retransmission, Delta-t record
// expiry, probes — run in real time.
//
// Two deployment shapes share this class:
//   - in-process (tests): open_station() once per MID, all
//     kernels in one process, datagrams loop back between the stations;
//   - fleet (src/fleet): ONE local station (this process's node) plus a
//     peer map of MID -> UDP port for every other worker process, kept
//     current by the soda_fleet driver as workers die and reboot.
//
// UDP gives the same failure model the paper assumes of the Megalink:
// datagrams may be dropped or reordered, never corrupted past the
// checksum; the alternating-bit machinery recovers exactly as in the
// simulator. Syscall-level hardening: EINTR is retried, transient send
// failures (ENOBUFS/EAGAIN) count as drops rather than aborting the run,
// and SO_RCVBUF is sized explicitly so burst loss is measurable.
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <optional>

#include "net/bus.h"
#include "net/wire.h"

namespace soda::posix {

class UdpBus final : public net::Bus {
 public:
  /// Creates the bus; call open_station() for every MID before use.
  explicit UdpBus(sim::Simulator& sim);
  ~UdpBus() override;

  UdpBus(const UdpBus&) = delete;
  UdpBus& operator=(const UdpBus&) = delete;

  /// Bind a loopback UDP socket for `mid`. Returns false on socket
  /// failure (tests skip gracefully).
  bool open_station(net::Mid mid);

  /// Encode and transmit over UDP (unicast, or one datagram per station
  /// and registered peer for broadcast — loopback needs no real multicast
  /// configuration).
  void send_ref(net::FrameRef frame) override;

  /// Drain every socket; decode and deliver arrivals to the attached
  /// sinks at the current simulated time, dropping through net::Bus's
  /// loss decision, so a drop is traced and counted as a simulated one
  /// is. Returns frames delivered.
  int pump();

  /// Register (or re-register, after a reboot rebinds the socket) the UDP
  /// port another process's station listens on. Unicasts to `mid` and
  /// broadcast fan-out then include that endpoint. A MID with a local
  /// station ignores its peer entry.
  void set_peer(net::Mid mid, std::uint16_t port);
  void forget_peer(net::Mid mid);

  /// Local station port for `mid` (0 when that MID has no local socket).
  std::uint16_t port_of(net::Mid mid) const;

  std::size_t stations() const { return sockets_.size(); }
  std::size_t datagrams_in() const { return datagrams_in_; }
  std::size_t datagrams_out() const { return datagrams_out_; }
  std::size_t decode_failures() const { return decode_failures_; }

  /// Datagrams sendto() could not queue (ENOBUFS / EAGAIN — the kernel
  /// socket buffer was full). Transient by design: the frame is treated
  /// as lost on the wire and retransmission recovers it.
  std::size_t send_drops() const { return send_drops_; }

 private:
  struct Station {
    int fd = -1;
    std::uint16_t port = 0;
  };
  void send_datagram(int from_fd, std::uint16_t port, const void* data,
                     std::size_t size);

  std::map<net::Mid, Station> sockets_;
  std::map<net::Mid, std::uint16_t> peers_;
  std::size_t datagrams_in_ = 0;
  std::size_t datagrams_out_ = 0;
  std::size_t decode_failures_ = 0;
  std::size_t send_drops_ = 0;
};

/// Drives a Simulator against the wall clock while pumping a UdpBus: the
/// one wall-clock cadence of the real medium (the in-process UdpNetwork,
/// the fleet worker and the fleet driver's boot-parent node all advance
/// through it).
class RealtimeRunner {
 public:
  /// speedup: how many simulated microseconds pass per wall microsecond
  /// (100 = the 1984 hardware runs 100x faster than real time). The clock
  /// is anchored here: sim.now() now corresponds to this wall instant.
  RealtimeRunner(sim::Simulator& sim, UdpBus& bus, double speedup = 50.0)
      : sim_(sim),
        bus_(bus),
        speedup_(speedup),
        wall_anchor_(std::chrono::steady_clock::now()),
        sim_anchor_(sim.now()) {}

  /// The simulated instant the scaled wall clock has reached.
  sim::Time target() const;

  /// Advance the simulation to `target` in 1 ms slices, pumping the
  /// sockets after each: a datagram must land within about a simulated
  /// millisecond of its arrival or retransmission timers fire spuriously
  /// at high speedups. When frames arrived, the current instant runs
  /// again so the kernels react before time moves on; one last pump
  /// follows.
  void advance_to(sim::Time target);

  /// Re-anchor the clock at this call, then advance until `until` returns
  /// true or `wall_budget` elapses. Returns whether the predicate held.
  bool run_until(std::function<bool()> until,
                 std::chrono::milliseconds wall_budget);

 private:
  sim::Simulator& sim_;
  UdpBus& bus_;
  double speedup_;
  std::chrono::steady_clock::time_point wall_anchor_;
  sim::Time sim_anchor_;
};

}  // namespace soda::posix
