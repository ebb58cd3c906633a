#include "posix/udp_bus.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

namespace soda::posix {

namespace {

constexpr int kRcvbufBytes = 1 << 20;  // SO_RCVBUF asked for each station

}  // namespace

UdpBus::UdpBus(sim::Simulator& sim) : net::Bus(sim, net::BusConfig{}) {}

UdpBus::~UdpBus() {
  for (auto& [mid, st] : sockets_) {
    if (st.fd >= 0) ::close(st.fd);
  }
}

bool UdpBus::open_station(net::Mid mid) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return false;
  // Size the receive buffer explicitly: the default varies per host, and
  // at high speedups one pump() gap can see a burst of hundreds of
  // datagrams. An explicit request makes overflow loss a measured,
  // reproducible property instead of a silent per-machine variable.
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kRcvbufBytes,
                     sizeof(kRcvbufBytes));
  // Bind to an ephemeral loopback port; record what we got.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return false;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  sockets_[mid] = Station{fd, ntohs(addr.sin_port)};
  return true;
}

void UdpBus::set_peer(net::Mid mid, std::uint16_t port) {
  peers_[mid] = port;
}

void UdpBus::forget_peer(net::Mid mid) { peers_.erase(mid); }

std::uint16_t UdpBus::port_of(net::Mid mid) const {
  const auto it = sockets_.find(mid);
  return it == sockets_.end() ? 0 : it->second.port;
}

void UdpBus::send_datagram(int from_fd, std::uint16_t port, const void* data,
                           std::size_t size) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ssize_t n;
  do {
    n = ::sendto(from_fd, data, size, 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (n < 0 && errno == EINTR);
  if (n < 0 && (errno == ENOBUFS || errno == EAGAIN ||
                errno == EWOULDBLOCK)) {
    // Kernel socket buffer full: the datagram is lost on the wire, the
    // same as any other drop — count it and let retransmission recover.
    ++send_drops_;
    return;
  }
  ++datagrams_out_;
}

void UdpBus::send_ref(net::FrameRef fref) {
  const net::Frame& frame = *fref;
  const auto wire = net::encode_frame(frame);
  // Send from the source's socket when we have one (any works on
  // loopback; the frame itself names src/dst).
  const auto src_it = sockets_.find(frame.src);
  const int default_fd =
      sockets_.empty() ? -1 : sockets_.begin()->second.fd;
  const int from_fd =
      src_it != sockets_.end() ? src_it->second.fd : default_fd;
  if (from_fd < 0) return;

  count_sent(frame.wire_size());
  if (frame.dst == net::kBroadcastMid) {
    for (const auto& [mid, st] : sockets_) {
      if (mid != frame.src) {
        send_datagram(from_fd, st.port, wire.data(), wire.size());
      }
    }
    for (const auto& [mid, port] : peers_) {
      if (mid != frame.src && sockets_.find(mid) == sockets_.end()) {
        send_datagram(from_fd, port, wire.data(), wire.size());
      }
    }
    return;
  }
  if (const auto it = sockets_.find(frame.dst); it != sockets_.end()) {
    send_datagram(from_fd, it->second.port, wire.data(), wire.size());
    return;
  }
  if (const auto it = peers_.find(frame.dst); it != peers_.end()) {
    send_datagram(from_fd, it->second, wire.data(), wire.size());
  }
}

int UdpBus::pump() {
  int delivered = 0;
  std::uint8_t buf[65536];
  for (auto& [mid, st] : sockets_) {
    for (;;) {
      const ssize_t n = ::recv(st.fd, buf, sizeof(buf), 0);
      if (n < 0) {
        if (errno == EINTR) continue;  // signal landed mid-recv: retry
        break;  // EWOULDBLOCK or error: done with this socket
      }
      ++datagrams_in_;
      auto frame = net::decode_frame(buf, static_cast<std::size_t>(n));
      if (!frame) {
        ++decode_failures_;  // the "CRC discard" path
        continue;
      }
      // Deliver only if this socket's owner is the addressee (broadcast
      // datagrams were fanned out one per station already, so each is
      // consumed by exactly the socket it landed on).
      if (frame->dst != mid && frame->dst != net::kBroadcastMid) continue;
      if (lose(*frame, mid)) continue;  // injected loss, traced + counted
      simulator().trace().record(simulator().now(),
                                 sim::TraceCategory::kPacketReceived, mid,
                                 net::trace_payload(*frame));
      deliver_to_one(mid, pool().make(std::move(*frame)));
      ++delivered;
    }
  }
  return delivered;
}

sim::Time RealtimeRunner::target() const {
  const auto wall_elapsed = std::chrono::duration_cast<
      std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                 wall_anchor_);
  return sim_anchor_ +
         static_cast<sim::Time>(static_cast<double>(wall_elapsed.count()) *
                                speedup_);
}

void RealtimeRunner::advance_to(sim::Time target) {
  constexpr sim::Duration kSlice = 1 * sim::kMillisecond;
  while (sim_.now() < target) {
    sim_.run_until(std::min(sim_.now() + kSlice, target));
    if (bus_.pump() > 0) sim_.run_until(sim_.now());
  }
  bus_.pump();
}

bool RealtimeRunner::run_until(std::function<bool()> until,
                               std::chrono::milliseconds wall_budget) {
  wall_anchor_ = std::chrono::steady_clock::now();
  sim_anchor_ = sim_.now();
  for (;;) {
    advance_to(target());
    if (until()) return true;
    if (std::chrono::steady_clock::now() - wall_anchor_ > wall_budget) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

}  // namespace soda::posix
