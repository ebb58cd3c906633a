#include "fleet/control.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "stats/json.h"

namespace soda::fleet {

// ---------------------------------------------------------------- sockets

int listen_loopback(std::uint16_t* port_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 128) != 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  if (port_out) *port_out = ntohs(addr.sin_port);
  return fd;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool write_fully(int fd, std::string_view data, int timeout_ms) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      const int pr = ::poll(&p, 1, timeout_ms);
      if (pr <= 0) return false;  // timeout or poll error
      continue;
    }
    return false;  // hard error (EPIPE: peer gone)
  }
  return true;
}

// ----------------------------------------------------------------- lines

void LineBuffer::feed(const char* data, std::size_t n) {
  buf_.erase(0, head_);
  scan_ -= head_;
  head_ = 0;
  buf_.append(data, n);
}

bool LineBuffer::fill_from(int fd) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      feed(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

std::optional<std::string> LineBuffer::next_line() {
  const auto nl = buf_.find('\n', scan_);
  if (nl == std::string::npos) {
    scan_ = buf_.size();
    return std::nullopt;
  }
  std::string line = buf_.substr(head_, nl - head_);
  head_ = scan_ = nl + 1;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

// -------------------------------------------------------------- messages

namespace {

std::int64_t read_i64(const std::map<std::string, std::string>& m,
                      const char* key, std::int64_t fallback = 0) {
  const auto it = m.find(key);
  if (it == m.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double read_f64(const std::map<std::string, std::string>& m, const char* key,
                double fallback = 0.0) {
  const auto it = m.find(key);
  if (it == m.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

}  // namespace

std::string hello_line(int mid, int epoch, std::uint16_t udp_port) {
  stats::JsonObject o;
  o.set("kind", "hello").set("mid", mid).set("epoch", epoch);
  o.set("port", static_cast<int>(udp_port));
  return o.str() + "\n";
}

std::string peer_line(int mid, std::uint16_t udp_port) {
  stats::JsonObject o;
  o.set("kind", "peer").set("mid", mid);
  o.set("port", static_cast<int>(udp_port));
  return o.str() + "\n";
}

std::string start_line(sim::Time sim_offset, double speedup,
                       std::int64_t initial_tid, double drop) {
  stats::JsonObject o;
  o.set("kind", "start");
  o.set("sim_offset", static_cast<std::int64_t>(sim_offset));
  o.set("speedup", speedup);
  o.set("initial_tid", initial_tid);
  o.set("drop", drop);
  return o.str() + "\n";
}

std::string stat_line(const WorkerStats& s) {
  stats::JsonObject o;
  o.set("kind", "stat");
  o.set("datagrams_out", s.datagrams_out).set("datagrams_in", s.datagrams_in);
  o.set("dropped", s.dropped).set("send_drops", s.send_drops);
  o.set("decode_failures", s.decode_failures);
  o.set("duplicates_suppressed", s.duplicates_suppressed);
  o.set("events_dropped", s.events_dropped);
  o.set("finished", s.finished);
  return o.str() + "\n";
}

std::string bye_line() { return "{\"kind\":\"bye\"}\n"; }

std::optional<Message> parse_message(std::string_view line) {
  const auto fields = stats::parse_json_line(line);
  if (!fields) return std::nullopt;
  const auto kind_it = fields->find("kind");
  if (kind_it == fields->end()) return std::nullopt;
  const std::string& kind = kind_it->second;

  Message m;
  if (kind == "hello") {
    m.kind = Message::Kind::kHello;
    m.mid = static_cast<int>(read_i64(*fields, "mid", -1));
    m.epoch = static_cast<int>(read_i64(*fields, "epoch"));
    m.port = static_cast<std::uint16_t>(read_i64(*fields, "port"));
    return m;
  }
  if (kind == "scenario" || kind == "fault") {
    m.kind = Message::Kind::kScenarioLine;
    m.raw = std::string(line);
    return m;
  }
  if (kind == "peer") {
    m.kind = Message::Kind::kPeer;
    m.mid = static_cast<int>(read_i64(*fields, "mid", -1));
    m.port = static_cast<std::uint16_t>(read_i64(*fields, "port"));
    return m;
  }
  if (kind == "start") {
    m.kind = Message::Kind::kStart;
    m.sim_offset = read_i64(*fields, "sim_offset");
    m.speedup = read_f64(*fields, "speedup", 10.0);
    m.initial_tid = read_i64(*fields, "initial_tid", 1);
    m.drop = read_f64(*fields, "drop");
    return m;
  }
  if (kind == "trace") {
    m.kind = Message::Kind::kTrace;
    m.event = sim::trace_event_from_json(line);
    if (!m.event) return std::nullopt;
    return m;
  }
  if (kind == "stat") {
    m.kind = Message::Kind::kStat;
    WorkerStats& s = m.stats;
    s.datagrams_out =
        static_cast<std::uint64_t>(read_i64(*fields, "datagrams_out"));
    s.datagrams_in =
        static_cast<std::uint64_t>(read_i64(*fields, "datagrams_in"));
    s.dropped = static_cast<std::uint64_t>(read_i64(*fields, "dropped"));
    s.send_drops =
        static_cast<std::uint64_t>(read_i64(*fields, "send_drops"));
    s.decode_failures =
        static_cast<std::uint64_t>(read_i64(*fields, "decode_failures"));
    s.duplicates_suppressed = static_cast<std::uint64_t>(
        read_i64(*fields, "duplicates_suppressed"));
    s.events_dropped =
        static_cast<std::uint64_t>(read_i64(*fields, "events_dropped"));
    const auto fin = fields->find("finished");
    s.finished = fin != fields->end() && fin->second == "true";
    return m;
  }
  if (kind == "bye") {
    m.kind = Message::Kind::kBye;
    return m;
  }
  return std::nullopt;
}

}  // namespace soda::fleet
