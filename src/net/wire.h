// Wire serialization of frames.
//
// The simulator passes Frame structs around directly; a real deployment
// (the posix/ UDP backend, or hardware like the paper's Megalink) needs
// bytes. The format is a tagged section layout mirroring the Frame
// struct: fixed header, presence bitmap, then each present section in a
// fixed order, then the data block. A Fletcher-16 checksum stands in for
// the Megalink's CRC (§5.2.2): decode() rejects damaged buffers the way
// the receiving interface silently discarded bad frames.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.h"

namespace soda::net {

/// Serialize a frame. The encoding is self-contained and versioned.
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// 64-bit FNV-1a over the bytes encode_frame() would emit for `frame`
/// restamped with `hops` and `relay_src`, computed as they are laid out:
/// no buffer, no copy of the frame. Equal frames hash equal, so a gateway
/// keys its egress queue on this to recognise a retransmission.
std::uint64_t wire_hash(const Frame& frame, std::uint8_t hops, Mid relay_src);

/// Parse a frame. Returns nullopt for short/corrupt/checksum-failing
/// buffers (the hardware-CRC discard path).
std::optional<Frame> decode_frame(const std::uint8_t* data,
                                  std::size_t size);

inline std::optional<Frame> decode_frame(
    const std::vector<std::uint8_t>& buf) {
  return decode_frame(buf.data(), buf.size());
}

/// The checksum used by the codec (exposed for tests): Fletcher-16, the
/// low byte the byte sum mod 255 and the high byte the sum of those sums.
std::uint16_t fletcher16(const std::uint8_t* data, std::size_t size);

constexpr std::uint8_t kWireVersion = 2;  // v2: NACK carries a shed-hint byte
constexpr std::uint16_t kWireMagic = 0x50DA;

}  // namespace soda::net
