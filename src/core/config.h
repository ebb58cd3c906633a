// Per-node configuration and network-wide unique-id generation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "proto/timing.h"

namespace soda {

/// Configuration of one SODA node.
struct NodeConfig {
  /// Maximum uncompleted REQUESTs a requester may hold (§3.3.2 item 5).
  /// The paper's measurements use 3.
  int max_requests = 3;

  /// Maximum message (buffer) size in bytes. 1000 PDP-11 words.
  std::uint32_t max_message_bytes = 2000;

  /// Pipelined kernel: hold a REQUEST that meets a BUSY handler in the
  /// input buffer instead of NACKing, and have ENDHANDLER re-check the
  /// buffer (§5.2.3 "the pipelined version").
  bool pipelined = false;

  /// How long a held REQUEST may sit in the input buffer before the
  /// kernel gives up and BUSY-NACKs after all.
  sim::Duration input_buffer_hold = 6'000;

  /// Size of the server-side LRU of recently completed requester
  /// signatures (backs stale-ACCEPT and probe answers).
  std::size_t completed_lru = 64;

  /// Faithful §5.4 pattern table: the paper's implementation lacked
  /// associative hardware, so the first 8 bits of a pattern index a
  /// 256-entry array and "if two patterns are advertised that are
  /// identical in the first eight bits, the second overwrites the first."
  /// Off by default (the clean §3.4 semantics); switch on to reproduce
  /// the 1984 artefact.
  bool indexed_pattern_table = false;

  /// §6.15: mix a per-node random component into GETUNIQUEID patterns so
  /// they are hard to guess while staying network-wide unique.
  bool randomized_unique_ids = false;

  /// First transaction id this kernel incarnation may issue (also the
  /// stale-accept floor, §6). Inside one process the kernel object
  /// survives crash() and next_tid_ stays monotone; a *re-executed*
  /// process starts from scratch, so a real-process harness (src/fleet)
  /// must seed each incarnation above every TID the previous one could
  /// have issued — the analog of the paper's clock-derived §5.4 counter.
  /// Values < 1 are clamped to 1.
  net::Tid initial_tid = 1;

  /// Load-adaptive admission (doc/OVERLOAD.md §3.2): derive the kernel's
  /// two admission watermarks (kAdmitBacklogWatermark and
  /// kAdmitOfferWatermark, src/core/kernel.cc) from EWMAs of measured
  /// per-accept service time and per-window offered load instead of using
  /// them as fixed constants. Capacity per window C = window /
  /// ewma_service; the effective backlog watermark is clamp(C, 2, 64) and
  /// the effective offer watermark is clamp(2*C, 8, 512). The fixed values
  /// act as the pre-measurement seed. Off by default: the constants are
  /// what the pinned trace hashes were recorded under.
  bool adaptive_admission = false;

  /// Model the NIC's pattern-address filter (§5.3): the station tells the
  /// bus which broadcast DISCOVER queries it matches, and non-matching
  /// queries never interrupt the kernel at all. Without it every DISCOVER
  /// costs protocol_recv CPU and a scheduled event at all N-1 stations —
  /// the dominant O(N^2) wall in all-to-all discovery at scale. Off by
  /// default: the promiscuous path is the 1984-faithful model.
  bool nic_pattern_filter = false;

  TimingModel timing;
};

/// Network-wide unique pattern source (§5.4): the paper concatenates an
/// 8-bit machine serial number with a 32-bit counter whose initial value
/// comes from a monotonic clock on the development VAX.
///
/// Epoch 2: the counter is per-serial, not shared. A shared monotone
/// counter consumed at runtime (get_unique_id, the reboot load-pattern
/// path) would make every pattern depend on the global cross-partition
/// execution order — exactly the coupling the partition-local RNG
/// streams remove. Per-serial sequences make each node's patterns a pure
/// function of its own call count, and the layout below keeps them
/// injective across (serial, seq), so network-wide uniqueness survives.
class UniqueIdSource {
 public:
  /// A fresh pattern for machine `serial`. Never has the RESERVED or
  /// WELL-KNOWN bits set, so client-made names cannot collide with either
  /// kernel patterns or published names (§3.4.2). Layout (low to high):
  /// serial bits 0-7, a 24-bit per-serial sequence, serial bits 8-15 —
  /// bits 40+ stay clear for the kernel's uniqueness-salt rider.
  net::Pattern next(net::Mid serial) {
    const auto s =
        static_cast<std::size_t>(static_cast<std::uint32_t>(serial));
    if (s >= seq_.size()) seq_.resize(s + 1, 1);
    const std::uint64_t seq = seq_[s]++;
    const auto serial_bits = static_cast<std::uint64_t>(serial);
    net::Pattern p = ((serial_bits >> 8) & 0xFFull) << 32 |
                     (seq & 0xFFFFFFull) << 8 | (serial_bits & 0xFFull);
    return p & ~(net::kReservedBit | net::kWellKnownBit) & net::kPatternMask;
  }

  /// Pre-size the per-serial table for serials [0, count). Topology
  /// constructors (Network/Internetwork::add_node) call this at setup so
  /// runtime next() calls from concurrently executing partitions touch
  /// disjoint, already-allocated slots — next() growing the table mid-run
  /// would be a data race.
  void reserve_serials(std::size_t count) {
    if (count > seq_.size()) seq_.resize(count, 1);
  }

 private:
  std::vector<std::uint32_t> seq_;  // next sequence value per serial
};

}  // namespace soda
