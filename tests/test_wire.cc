// Wire-codec round-trip and corruption-rejection properties.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "sim/random.h"

namespace soda::net {
namespace {

bool frames_equal(const Frame& a, const Frame& b) {
  if (a.src != b.src || a.dst != b.dst || a.conn_open != b.conn_open) {
    return false;
  }
  if (a.seq.has_value() != b.seq.has_value()) return false;
  if (a.seq && *a.seq != *b.seq) return false;
  if (a.ack.has_value() != b.ack.has_value()) return false;
  if (a.ack && a.ack->seq != b.ack->seq) return false;
  if (a.nack.has_value() != b.nack.has_value()) return false;
  if (a.nack && (a.nack->reason != b.nack->reason ||
                 a.nack->seq != b.nack->seq || a.nack->tid != b.nack->tid)) {
    return false;
  }
  if (a.request.has_value() != b.request.has_value()) return false;
  if (a.request) {
    const auto &x = *a.request, &y = *b.request;
    if (x.tid != y.tid || x.pattern != y.pattern || x.arg != y.arg ||
        x.put_size != y.put_size || x.get_size != y.get_size ||
        x.carries_data != y.carries_data) {
      return false;
    }
  }
  if (a.accept.has_value() != b.accept.has_value()) return false;
  if (a.accept) {
    const auto &x = *a.accept, &y = *b.accept;
    if (x.tid != y.tid || x.arg != y.arg ||
        x.put_transferred != y.put_transferred ||
        x.get_transferred != y.get_transferred ||
        x.needs_put_data != y.needs_put_data ||
        x.carries_data != y.carries_data) {
      return false;
    }
  }
  if (a.probe.has_value() != b.probe.has_value()) return false;
  if (a.probe && (a.probe->tid != b.probe->tid ||
                  a.probe->is_reply != b.probe->is_reply ||
                  a.probe->known != b.probe->known)) {
    return false;
  }
  if (a.discover.has_value() != b.discover.has_value()) return false;
  if (a.discover && (a.discover->pattern != b.discover->pattern ||
                     a.discover->tid != b.discover->tid ||
                     a.discover->is_reply != b.discover->is_reply)) {
    return false;
  }
  if (a.cancel.has_value() != b.cancel.has_value()) return false;
  if (a.cancel &&
      (a.cancel->tid != b.cancel->tid ||
       a.cancel->is_reply != b.cancel->is_reply ||
       a.cancel->ok != b.cancel->ok)) {
    return false;
  }
  return a.data_tag == b.data_tag && a.data_tid == b.data_tid &&
         a.data == b.data && a.data_ack == b.data_ack;
}

Frame random_frame(sim::Rng& rng) {
  Frame f;
  f.src = static_cast<Mid>(rng.next_below(16));
  f.dst = rng.chance(0.1) ? kBroadcastMid
                          : static_cast<Mid>(rng.next_below(16));
  f.conn_open = rng.chance(0.5);
  if (rng.chance(0.6)) f.seq = static_cast<std::uint8_t>(rng.next_below(2));
  if (rng.chance(0.4)) {
    f.ack = AckSection{static_cast<std::uint8_t>(rng.next_below(2))};
  }
  if (rng.chance(0.2)) {
    f.nack = NackSection{static_cast<NackReason>(rng.next_below(5)),
                         static_cast<std::uint8_t>(rng.next_below(2)),
                         static_cast<Tid>(rng.next_below(1000))};
  }
  if (rng.chance(0.5)) {
    f.request = RequestSection{
        static_cast<Tid>(rng.next_below(100000)),
        rng.next_u64() & kPatternMask,
        static_cast<std::int32_t>(rng.next_range(-100, 100)),
        static_cast<std::uint32_t>(rng.next_below(2000)),
        static_cast<std::uint32_t>(rng.next_below(2000)),
        rng.chance(0.5)};
  }
  if (rng.chance(0.4)) {
    f.accept = AcceptSection{static_cast<Tid>(rng.next_below(100000)),
                             static_cast<std::int32_t>(rng.next_range(-5, 5)),
                             static_cast<std::uint32_t>(rng.next_below(2000)),
                             static_cast<std::uint32_t>(rng.next_below(2000)),
                             rng.chance(0.3), rng.chance(0.5)};
  }
  if (rng.chance(0.2)) {
    f.probe = ProbeSection{static_cast<Tid>(rng.next_below(1000)),
                           rng.chance(0.5), rng.chance(0.5)};
  }
  if (rng.chance(0.2)) {
    f.discover = DiscoverSection{rng.next_u64() & kPatternMask,
                                 static_cast<Tid>(rng.next_below(1000)),
                                 rng.chance(0.5)};
  }
  if (rng.chance(0.2)) {
    f.cancel = CancelSection{static_cast<Tid>(rng.next_below(1000)),
                             rng.chance(0.5), rng.chance(0.5)};
  }
  if (rng.chance(0.5)) {
    f.data_tag = rng.chance(0.5) ? DataTag::kRequestData
                                 : DataTag::kAcceptData;
    f.data_tid = static_cast<Tid>(rng.next_below(100000));
    f.data.resize(rng.next_below(600));
    for (auto& b : f.data) {
      b = static_cast<std::byte>(rng.next_below(256));
    }
  }
  if (rng.chance(0.3)) f.data_ack = static_cast<Tid>(rng.next_below(1000));
  return f;
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// What wire_hash must equal: FNV-1a over the encoding of `f` restamped
/// the way a gateway relays it.
std::uint64_t hash_of_encoding(Frame f, std::uint8_t hops, Mid relay_src) {
  f.hops = hops;
  f.relay_src = relay_src;
  return fnv1a(encode_frame(f));
}

/// Fletcher-16 reduced mod 255 at every byte, the textbook form.
std::uint16_t fletcher16_per_byte(const std::uint8_t* data, std::size_t n) {
  std::uint32_t a = 0, b = 0;
  for (std::size_t i = 0; i < n; ++i) {
    a = (a + data[i]) % 255;
    b = (b + a) % 255;
  }
  return static_cast<std::uint16_t>((b << 8) | a);
}

TEST(Wire, EmptyFrameRoundTrips) {
  Frame f;
  f.src = 1;
  f.dst = 2;
  auto buf = encode_frame(f);
  auto back = decode_frame(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(frames_equal(f, *back));
}

TEST(Wire, FullySectionedFrameRoundTrips) {
  Frame f;
  f.src = 3;
  f.dst = 4;
  f.conn_open = true;
  f.seq = 1;
  f.ack = AckSection{0};
  f.nack = NackSection{NackReason::kCancelled, 1, 77};
  f.request = RequestSection{42, 0xDEADBEEF, -7, 100, 200, true};
  f.accept = AcceptSection{42, 9, 100, 200, true, true};
  f.probe = ProbeSection{11, true, true};
  f.discover = DiscoverSection{0x123, 5, false};
  f.cancel = CancelSection{13, true, true};
  f.data_tag = net::DataTag::kAcceptData;
  f.data_tid = 42;
  f.data = std::vector<std::byte>(257, std::byte{0xAB});
  f.data_ack = 99;
  auto back = decode_frame(encode_frame(f));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(frames_equal(f, *back));
}

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzz, RandomFramesRoundTrip) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Frame f = random_frame(rng);
    auto buf = encode_frame(f);
    auto back = decode_frame(buf);
    ASSERT_TRUE(back.has_value()) << "iteration " << i;
    EXPECT_TRUE(frames_equal(f, *back)) << "iteration " << i;
  }
}

TEST_P(WireFuzz, SingleBitFlipsRejectedOrBenign) {
  // Any single bit flip must either fail the checksum (discarded) — we
  // do not require detection of every multi-bit pattern, matching real
  // CRC behaviour, but a 1-bit flip must never produce a *different*
  // frame that passes.
  sim::Rng rng(GetParam() + 1000);
  Frame f = random_frame(rng);
  auto buf = encode_frame(f);
  for (std::size_t trial = 0; trial < 64; ++trial) {
    auto damaged = buf;
    const std::size_t bit = rng.next_below(damaged.size() * 8);
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    auto back = decode_frame(damaged);
    if (back.has_value()) {
      // Fletcher16 catches all single-bit errors; a decode success here
      // means the flip landed... nowhere it may.
      ADD_FAILURE() << "single-bit flip at bit " << bit
                    << " produced a frame that passed the checksum";
    }
  }
}

TEST_P(WireFuzz, TruncationsRejected) {
  sim::Rng rng(GetParam() + 2000);
  Frame f = random_frame(rng);
  auto buf = encode_frame(f);
  for (std::size_t n = 0; n < buf.size(); n += 3) {
    EXPECT_FALSE(decode_frame(buf.data(), n).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull));

TEST(Wire, GarbageRejected) {
  std::vector<std::uint8_t> garbage(64, 0x5A);
  EXPECT_FALSE(decode_frame(garbage).has_value());
  EXPECT_FALSE(decode_frame(nullptr, 0).has_value());
}

TEST(Wire, Fletcher16KnownVector) {
  const std::uint8_t abcde[] = {'a', 'b', 'c', 'd', 'e'};
  EXPECT_EQ(fletcher16(abcde, 5), 0xC8F0);
}

TEST(Wire, Fletcher16MatchesPerByteReference) {
  sim::Rng rng(28);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (int i = 0; i < 40; ++i) lengths.push_back(rng.next_below(70001));
  lengths.push_back(65535);
  lengths.push_back(65536);
  lengths.push_back(70000);
  for (std::size_t n : lengths) {
    std::vector<std::uint8_t> buf(n);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
    ASSERT_EQ(fletcher16(buf.data(), n), fletcher16_per_byte(buf.data(), n))
        << "length " << n;
  }
  // All-0xFF grows the unreduced sums fastest; past a few MiB it also
  // crosses the periodic reduction.
  const std::vector<std::uint8_t> ones((3u << 20) + 7, 0xFF);
  EXPECT_EQ(fletcher16(ones.data(), ones.size()),
            fletcher16_per_byte(ones.data(), ones.size()));
}

// A gateway coalesces a relayed frame by wire_hash, so it must stay the
// FNV-1a of the exact relayed wire image: every optional section, with
// payloads of several sizes, and restamps that add or keep the relay
// section.
TEST(Wire, HashIsFnvOfTheRestampedEncoding) {
  const std::vector<std::function<void(Frame&)>> sections = {
      [](Frame&) {},
      [](Frame& f) { f.seq = 1; },
      [](Frame& f) { f.ack = AckSection{1}; },
      [](Frame& f) { f.nack = NackSection{NackReason::kBusy, 1, 77, 3}; },
      [](Frame& f) {
        f.request = RequestSection{42, 0xDEADBEEF, -7, 100, 200, true};
      },
      [](Frame& f) { f.accept = AcceptSection{42, 9, 100, 200, true, true}; },
      [](Frame& f) { f.probe = ProbeSection{11, true, true}; },
      [](Frame& f) { f.discover = DiscoverSection{0x123, 5, true}; },
      [](Frame& f) { f.cancel = CancelSection{13, true, false}; },
      [](Frame& f) {
        f.data_tag = DataTag::kRequestData;
        f.data_tid = 42;
      },
      [](Frame& f) { f.data_ack = 99; },
      [](Frame& f) {
        f.hops = 2;
        f.relay_src = 9;
      },
      [](Frame& f) { f.conn_open = true; },
  };
  const std::pair<std::uint8_t, Mid> restamps[] = {{0, 0}, {1, 7}, {3, -5}};
  sim::Rng rng(7);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    for (std::size_t payload : {0u, 1u, 64u, 1500u}) {
      Frame f;
      f.src = 3;
      f.dst = 4;
      sections[i](f);
      if (payload > 0) {
        f.data_tag = DataTag::kAcceptData;
        f.data.resize(payload);
        for (auto& b : f.data) b = static_cast<std::byte>(rng.next_below(256));
      }
      for (const auto& [hops, relay] : restamps) {
        EXPECT_EQ(wire_hash(f, hops, relay), hash_of_encoding(f, hops, relay))
            << "section " << i << " payload " << payload << " hops "
            << int{hops};
      }
    }
  }
}

TEST_P(WireFuzz, HashMatchesRandomFramesRestamped) {
  sim::Rng rng(GetParam() + 3000);
  for (int i = 0; i < 200; ++i) {
    Frame f = random_frame(rng);
    if (rng.chance(0.3)) {  // already relayed: the encoding has the section
      f.hops = static_cast<std::uint8_t>(1 + rng.next_below(4));
      f.relay_src = static_cast<Mid>(rng.next_below(16));
    }
    const auto hops = static_cast<std::uint8_t>(f.hops + 1);
    const auto relay = static_cast<Mid>(rng.next_below(32));
    ASSERT_EQ(wire_hash(f, hops, relay), hash_of_encoding(f, hops, relay))
        << "iteration " << i;
    ASSERT_EQ(wire_hash(f, f.hops, f.relay_src), fnv1a(encode_frame(f)))
        << "iteration " << i;
  }
}

}  // namespace
}  // namespace soda::net
