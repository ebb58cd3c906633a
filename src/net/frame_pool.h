// Pooled, refcounted, immutable frames for the broadcast-bus hot path.
//
// A broadcast on an N-station bus used to copy the Frame once per
// receiver (plus once more into the delivery closure): O(N) allocations
// and payload copies per send. FramePool hands out FrameRef handles to a
// single immutable Frame instead — every receiver's delivery event shares
// the same storage, and the slab recycles nodes so steady-state traffic
// stops allocating. Corruption (the chaos CorruptFilter / random CRC
// damage) is per-delivery metadata carried alongside the ref, never a
// mutation of the shared frame, so no copy-on-write is needed on today's
// filters; a future mutating filter would copy the frame into a fresh
// pooled node (CoW) rather than touch the shared one.
//
// A ref is moved, not copied, along a frame's path wherever there is one
// next owner: the sender's CPU completion moves it into Bus::send_ref, the
// bus moves it into the delivery event and on to the receiver's sink
// (FrameRefSink takes it by value), and the transport moves it into its
// deferred protocol work. A copy is made only where two owners really
// exist: one per broadcast receiver, for a duplicated delivery, and for
// every relay tap but the last. A unicast frame on a fault-free bus so
// reaches its receiver as the sole owner (use_count() == 1).
//
// Lifetime: delivery events legitimately outlive the Bus (core::Network
// tears the bus down while the simulator still holds scheduled events
// whose closures own FrameRefs). The pool's core is therefore heap-
// allocated and reference-counted: `owners` counts the pool handle plus
// every live node (one with refs > 0), not every ref. A node joins when
// make() hands out its first ref and leaves when its last ref drops, so
// copying or dropping a ref that is not the last touches only the node's
// own count. Whichever owner dies last frees the core.
//
// Thread model (epoch 2): refs to one frame are created and dropped from
// different partition workers inside a concurrent execution window, so
// the node refcounts and the owner count are atomics, and the free list /
// slab growth sit behind a tiny spinlock. The slab itself is a fixed
// array of chunk pointers — growth installs a new chunk but never moves
// existing nodes and never reallocates the pointer table, so a reader
// dereferencing an established FrameRef is untouched by concurrent
// make() calls (std::deque could not promise that: its block map
// reallocates on growth).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "net/packet.h"

namespace soda::net {

namespace detail {

struct FramePoolCore {
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr int kChunkBits = 8;
  static constexpr std::uint32_t kChunkNodes = 1u << kChunkBits;  // 256
  static constexpr std::uint32_t kChunkMask = kChunkNodes - 1;
  static constexpr std::size_t kMaxChunks = 8192;  // 2M concurrent frames

  struct Node {
    Frame frame;
    std::atomic<std::uint32_t> refs{0};
    std::uint32_t next_free = kNil;
  };

  std::array<Node*, kMaxChunks> chunks{};
  std::uint32_t size = 0;          // guarded by lock
  std::uint32_t free_head = kNil;  // guarded by lock
  // 1 for the FramePool handle + 1 per live node (refs > 0).
  std::atomic<std::uint64_t> owners{1};
  std::atomic_flag lock_flag = ATOMIC_FLAG_INIT;

  ~FramePoolCore() {
    for (Node* chunk : chunks) delete[] chunk;
  }

  Node& node(std::uint32_t i) {
    return chunks[i >> kChunkBits][i & kChunkMask];
  }

  void lock() {
    while (lock_flag.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() { lock_flag.clear(std::memory_order_release); }
};

}  // namespace detail

/// Shared-ownership handle to an immutable pooled Frame. Copying is one
/// atomic bump of the node's refcount; the node returns to the pool's free
/// list when the last ref drops.
class FrameRef {
 public:
  FrameRef() = default;
  FrameRef(const FrameRef& o) : core_(o.core_), idx_(o.idx_) {
    if (core_ != nullptr) {
      core_->node(idx_).refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  FrameRef(FrameRef&& o) noexcept : core_(o.core_), idx_(o.idx_) {
    o.core_ = nullptr;
  }
  FrameRef& operator=(const FrameRef& o) {
    FrameRef tmp(o);
    swap(tmp);
    return *this;
  }
  FrameRef& operator=(FrameRef&& o) noexcept {
    swap(o);
    return *this;
  }
  ~FrameRef() { release(); }

  void swap(FrameRef& o) noexcept {
    std::swap(core_, o.core_);
    std::swap(idx_, o.idx_);
  }

  explicit operator bool() const { return core_ != nullptr; }
  const Frame& operator*() const { return core_->node(idx_).frame; }
  const Frame* operator->() const { return &core_->node(idx_).frame; }
  const Frame* get() const {
    return core_ == nullptr ? nullptr : &core_->node(idx_).frame;
  }

  /// Refs sharing this frame, this one included (0 for an empty ref).
  /// Exact only while no other thread copies or drops one.
  std::uint32_t use_count() const {
    return core_ == nullptr
               ? 0
               : core_->node(idx_).refs.load(std::memory_order_relaxed);
  }

  void reset() {
    release();
    core_ = nullptr;
  }

 private:
  friend class FramePool;
  FrameRef(detail::FramePoolCore* core, std::uint32_t idx)
      : core_(core), idx_(idx) {}

  void release() {
    if (core_ == nullptr) return;
    auto& node = core_->node(idx_);
    if (node.refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    // Last ref to this node: reset sections outside the lock (nobody else
    // can reach it), keeping the payload vector's buffer so a reused node
    // can often take the next frame without reallocating.
    std::vector<std::byte> data = std::move(node.frame.data);
    data.clear();
    node.frame = Frame{};
    node.frame.data = std::move(data);
    core_->lock();
    node.next_free = core_->free_head;
    core_->free_head = idx_;
    core_->unlock();
    // The node no longer owns the core.
    if (core_->owners.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete core_;
    }
  }

  detail::FramePoolCore* core_ = nullptr;
  std::uint32_t idx_ = 0;
};

class FramePool {
 public:
  FramePool() : core_(new detail::FramePoolCore) {}
  ~FramePool() {
    if (core_->owners.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete core_;
    }
  }
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// Move `f` into a pooled node and return the first ref to it.
  FrameRef make(Frame&& f) {
    detail::FramePoolCore& core = *core_;
    core.lock();
    std::uint32_t idx;
    if (core.free_head != detail::FramePoolCore::kNil) {
      idx = core.free_head;
      core.free_head = core.node(idx).next_free;
    } else {
      idx = core.size;
      const auto chunk = static_cast<std::size_t>(
          idx >> detail::FramePoolCore::kChunkBits);
      if (chunk >= detail::FramePoolCore::kMaxChunks) {
        core.unlock();
        throw std::length_error("FramePool slab exhausted");
      }
      if (core.chunks[chunk] == nullptr) {
        core.chunks[chunk] =
            new detail::FramePoolCore::Node[detail::FramePoolCore::kChunkNodes];
      }
      ++core.size;
    }
    core.unlock();
    auto& node = core.node(idx);
    // Preserve the recycled node's payload capacity when the incoming
    // frame has no payload of its own (the common control-frame case).
    if (f.data.empty() && node.frame.data.capacity() > 0) {
      std::vector<std::byte> keep = std::move(node.frame.data);
      keep.clear();
      node.frame = std::move(f);
      node.frame.data = std::move(keep);
    } else {
      node.frame = std::move(f);
    }
    node.refs.store(1, std::memory_order_relaxed);
    core.owners.fetch_add(1, std::memory_order_relaxed);  // node is live
    return FrameRef(core_, idx);
  }

 private:
  detail::FramePoolCore* core_;
};

}  // namespace soda::net
