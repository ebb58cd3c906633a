#include "net/wire.h"

#include <cstring>

namespace soda::net {

namespace {

// Section-presence bits.
constexpr std::uint16_t kHasSeq = 1 << 0;
constexpr std::uint16_t kHasAck = 1 << 1;
constexpr std::uint16_t kHasNack = 1 << 2;
constexpr std::uint16_t kHasRequest = 1 << 3;
constexpr std::uint16_t kHasAccept = 1 << 4;
constexpr std::uint16_t kHasProbe = 1 << 5;
constexpr std::uint16_t kHasDiscover = 1 << 6;
constexpr std::uint16_t kHasCancel = 1 << 7;
constexpr std::uint16_t kHasData = 1 << 8;
constexpr std::uint16_t kHasDataAck = 1 << 9;
constexpr std::uint16_t kConnOpen = 1 << 10;
constexpr std::uint16_t kHasRelay = 1 << 11;  // gateway-relayed (hops > 0)

// Fletcher-16 with the mod-255 reduction deferred: a and b are exact
// 64-bit sums, reduced once per kRun bytes and at the end. Reducing a sum
// mod 255 gives what reducing every step would, so the value is the
// textbook per-byte Fletcher-16; a run of kRun bytes from reduced a, b
// cannot overflow b (it stays under 255 * kRun^2).
class Fletcher16 {
 public:
  void add(std::uint8_t v) {
    a_ += v;
    b_ += a_;
  }
  void add(const std::uint8_t* p, std::size_t n) {
    while (n > 0) {
      const std::size_t run = n < kRun ? n : kRun;
      for (std::size_t i = 0; i < run; ++i) add(p[i]);
      a_ %= 255;
      b_ %= 255;
      p += run;
      n -= run;
    }
  }
  std::uint16_t value() const {
    return static_cast<std::uint16_t>(((b_ % 255) << 8) | (a_ % 255));
  }

 private:
  static constexpr std::size_t kRun = std::size_t{1} << 20;
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
};

// Writes frame fields little-endian into `Sink` (put(byte) and
// put(data, n)), checksumming every byte on the way so the trailer needs
// no second pass. encode_frame's sink appends to a buffer; wire_hash's
// folds the bytes into FNV-1a and stores none.
template <typename Sink>
class Writer {
 public:
  explicit Writer(Sink& sink) : sink_(sink) {}
  void u8(std::uint8_t v) {
    ck_.add(v);
    sink_.put(v);
  }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v & 0xFF));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v & 0xFFFF));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v & 0xFFFFFFFFull));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void bytes(const std::vector<std::byte>& b) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(b.data());
    ck_.add(p, b.size());
    sink_.put(p, b.size());
  }
  /// The trailer: Fletcher-16 over every byte written so far.
  void checksum() { u16(ck_.value()); }

 private:
  Sink& sink_;
  Fletcher16 ck_;
};

struct BufferSink {
  std::vector<std::uint8_t>& out;
  void put(std::uint8_t v) { out.push_back(v); }
  void put(const std::uint8_t* p, std::size_t n) {
    out.insert(out.end(), p, p + n);
  }
};

// 64-bit FNV-1a.
struct HashSink {
  std::uint64_t h = 1469598103934665603ull;
  void put(std::uint8_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  void put(const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) put(p[i]);
  }
};

// Bytes of an encoding other than the data block, with every section
// present: 13 header + 1 seq + 1 ack + 11 nack + 29 request + 21 accept +
// 9 probe + 17 discover + 9 cancel + 13 data header + 8 data ack +
// 5 relay + 2 checksum. Only a reserve() hint.
constexpr std::size_t kMaxOverheadBytes = 139;

class Reader {
 public:
  Reader(const std::uint8_t* d, std::size_t n) : d_(d), n_(n) {}
  bool ok() const { return ok_; }
  std::uint8_t u8() {
    if (at_ + 1 > n_) return fail();
    return d_[at_++];
  }
  std::uint16_t u16() {
    const auto lo = u8();
    const auto hi = u8();
    return static_cast<std::uint16_t>(lo | (hi << 8));
  }
  std::uint32_t u32() {
    const std::uint32_t lo = u16();
    const std::uint32_t hi = u16();
    return lo | (hi << 16);
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::vector<std::byte> bytes(std::size_t n) {
    if (at_ + n > n_) {
      fail();
      return {};
    }
    std::vector<std::byte> b(n);
    if (n > 0) std::memcpy(b.data(), d_ + at_, n);
    at_ += n;
    return b;
  }
  std::size_t remaining() const { return n_ - at_; }

 private:
  std::uint8_t fail() {
    ok_ = false;
    return 0;
  }
  const std::uint8_t* d_;
  std::size_t n_;
  std::size_t at_ = 0;
  bool ok_ = true;
};

// The one wire layout. `hops` and `relay_src` stand in for the frame's
// own fields, so a gateway can hash the restamped frame it would relay
// without building it.
template <typename Sink>
void write_frame(Sink& sink, const Frame& f, std::uint8_t hops,
                 Mid relay_src) {
  Writer<Sink> w(sink);
  w.u16(kWireMagic);
  w.u8(kWireVersion);

  std::uint16_t present = 0;
  if (f.seq) present |= kHasSeq;
  if (f.ack) present |= kHasAck;
  if (f.nack) present |= kHasNack;
  if (f.request) present |= kHasRequest;
  if (f.accept) present |= kHasAccept;
  if (f.probe) present |= kHasProbe;
  if (f.discover) present |= kHasDiscover;
  if (f.cancel) present |= kHasCancel;
  if (f.data_tag != DataTag::kNone || !f.data.empty()) present |= kHasData;
  if (f.data_ack != kNoTid) present |= kHasDataAck;
  if (f.conn_open) present |= kConnOpen;
  if (hops > 0) present |= kHasRelay;
  w.u16(present);

  w.i32(f.src);
  w.i32(f.dst);

  if (f.seq) w.u8(*f.seq);
  if (f.ack) w.u8(f.ack->seq);
  if (f.nack) {
    w.u8(static_cast<std::uint8_t>(f.nack->reason));
    w.u8(f.nack->seq);
    w.i64(f.nack->tid);
    w.u8(f.nack->hint);
  }
  if (f.request) {
    w.i64(f.request->tid);
    w.u64(f.request->pattern);
    w.i32(f.request->arg);
    w.u32(f.request->put_size);
    w.u32(f.request->get_size);
    w.u8(f.request->carries_data ? 1 : 0);
  }
  if (f.accept) {
    w.i64(f.accept->tid);
    w.i32(f.accept->arg);
    w.u32(f.accept->put_transferred);
    w.u32(f.accept->get_transferred);
    w.u8(static_cast<std::uint8_t>((f.accept->needs_put_data ? 1 : 0) |
                                   (f.accept->carries_data ? 2 : 0)));
  }
  if (f.probe) {
    w.i64(f.probe->tid);
    w.u8(static_cast<std::uint8_t>((f.probe->is_reply ? 1 : 0) |
                                   (f.probe->known ? 2 : 0)));
  }
  if (f.discover) {
    w.u64(f.discover->pattern);
    w.i64(f.discover->tid);
    w.u8(f.discover->is_reply ? 1 : 0);
  }
  if (f.cancel) {
    w.i64(f.cancel->tid);
    w.u8(static_cast<std::uint8_t>((f.cancel->is_reply ? 1 : 0) |
                                   (f.cancel->ok ? 2 : 0)));
  }
  if (present & kHasData) {
    w.u8(static_cast<std::uint8_t>(f.data_tag));
    w.i64(f.data_tid);
    w.u32(static_cast<std::uint32_t>(f.data.size()));
    w.bytes(f.data);
  }
  if (present & kHasDataAck) w.i64(f.data_ack);
  if (present & kHasRelay) {
    w.u8(hops);
    w.i32(relay_src);
  }

  w.checksum();
}

}  // namespace

std::uint16_t fletcher16(const std::uint8_t* data, std::size_t size) {
  Fletcher16 ck;
  ck.add(data, size);
  return ck.value();
}

std::vector<std::uint8_t> encode_frame(const Frame& f) {
  std::vector<std::uint8_t> out;
  out.reserve(kMaxOverheadBytes + f.data.size());
  BufferSink sink{out};
  write_frame(sink, f, f.hops, f.relay_src);
  return out;
}

std::uint64_t wire_hash(const Frame& f, std::uint8_t hops, Mid relay_src) {
  HashSink sink;
  write_frame(sink, f, hops, relay_src);
  return sink.h;
}

std::optional<Frame> decode_frame(const std::uint8_t* data,
                                  std::size_t size) {
  if (size < 2 + 1 + 2 + 8 + 2) return std::nullopt;
  // Verify checksum first (the interface's CRC discard).
  const std::uint16_t stored =
      static_cast<std::uint16_t>(data[size - 2] | (data[size - 1] << 8));
  if (fletcher16(data, size - 2) != stored) return std::nullopt;

  Reader r(data, size - 2);
  if (r.u16() != kWireMagic) return std::nullopt;
  if (r.u8() != kWireVersion) return std::nullopt;
  const std::uint16_t present = r.u16();

  Frame f;
  f.src = r.i32();
  f.dst = r.i32();
  f.conn_open = (present & kConnOpen) != 0;

  if (present & kHasSeq) f.seq = r.u8();
  if (present & kHasAck) f.ack = AckSection{r.u8()};
  if (present & kHasNack) {
    NackSection n;
    n.reason = static_cast<NackReason>(r.u8());
    n.seq = r.u8();
    n.tid = r.i64();
    n.hint = r.u8();
    f.nack = n;
  }
  if (present & kHasRequest) {
    RequestSection q;
    q.tid = r.i64();
    q.pattern = r.u64();
    q.arg = r.i32();
    q.put_size = r.u32();
    q.get_size = r.u32();
    q.carries_data = r.u8() != 0;
    f.request = q;
  }
  if (present & kHasAccept) {
    AcceptSection a;
    a.tid = r.i64();
    a.arg = r.i32();
    a.put_transferred = r.u32();
    a.get_transferred = r.u32();
    const auto flags = r.u8();
    a.needs_put_data = (flags & 1) != 0;
    a.carries_data = (flags & 2) != 0;
    f.accept = a;
  }
  if (present & kHasProbe) {
    ProbeSection p;
    p.tid = r.i64();
    const auto flags = r.u8();
    p.is_reply = (flags & 1) != 0;
    p.known = (flags & 2) != 0;
    f.probe = p;
  }
  if (present & kHasDiscover) {
    DiscoverSection d;
    d.pattern = r.u64();
    d.tid = r.i64();
    d.is_reply = r.u8() != 0;
    f.discover = d;
  }
  if (present & kHasCancel) {
    CancelSection c;
    c.tid = r.i64();
    const auto flags = r.u8();
    c.is_reply = (flags & 1) != 0;
    c.ok = (flags & 2) != 0;
    f.cancel = c;
  }
  if (present & kHasData) {
    f.data_tag = static_cast<DataTag>(r.u8());
    f.data_tid = r.i64();
    const std::uint32_t n = r.u32();
    if (n > (1u << 20)) return std::nullopt;  // sanity bound
    f.data = r.bytes(n);
  }
  if (present & kHasDataAck) f.data_ack = r.i64();
  if (present & kHasRelay) {
    f.hops = r.u8();
    f.relay_src = r.i32();
  }

  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return f;
}

}  // namespace soda::net
