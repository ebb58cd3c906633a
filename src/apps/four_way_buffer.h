// Four-way bounded buffer (§4.4.2): two clients, each attached to a
// byte-producing/consuming device, relay each other's output with
// CTRL-S/CTRL-Q flow control in both directions. The interesting move is
// the blocking EXCHANGE used to ship a byte: its reply immediately tells
// the producer whether the remote buffer just filled, so the producing
// device can be stopped without an extra round trip.
#pragma once

#include <deque>

#include "sodal/sodal.h"

namespace soda::apps {

constexpr Pattern kBufferData = kWellKnownBit | 0x4B01;
constexpr Pattern kRestart = kWellKnownBit | 0x4B02;

constexpr std::int32_t kFlowContinue = 0;
constexpr std::int32_t kFlowFull = 1;

/// A simulated character device: produces `to_produce` bytes, one every
/// `in_interval`, unless stopped (CTRL-S); drains one byte every
/// `out_interval` from its output side.
struct Device {
  int to_produce = 0;
  sim::Duration in_interval = sim::kMillisecond;
  sim::Duration out_interval = sim::kMillisecond;
  bool stopped = false;  // CTRL-S sent to the device
  int produced = 0;
  Bytes received;  // what the device was given to output
};

class RelayClient : public sodal::SodalClient {
 public:
  RelayClient(Mid other, Device device, std::size_t queue_cap)
      : other_(other), dev_(device), queue_(queue_cap) {}

  sim::Task on_boot(Mid) override {
    advertise(kBufferData);
    advertise(kRestart);
    co_return;
  }

  sim::Task on_entry(HandlerArgs a) override {
    if (a.invoked_pattern == kBufferData) {
      // Buffer a byte from the other client; the EXCHANGE reply carries
      // the flow-control verdict (§4.4.2).
      Bytes data;
      std::int32_t verdict = kFlowContinue;
      if (queue_.almost_full() || queue_.is_full()) {
        verdict = kFlowFull;
        remote_stopped_ = true;
      }
      Bytes reply(1, static_cast<std::byte>(verdict));
      auto r = co_await accept_current_exchange(verdict, &data, a.put_size,
                                                std::move(reply));
      if (r.status == AcceptStatus::kSuccess && !data.empty() &&
          !queue_.is_full()) {
        queue_.enqueue(data[0]);
        drain_.notify_all();
      }
    } else if (a.invoked_pattern == kRestart) {
      co_await accept_current_signal(0);
      dev_.stopped = false;
      produce_.notify_all();
    }
    co_return;
  }

  sim::Task on_task() override {
    // Two loops run "concurrently" in the paper's single polling task;
    // here they are two coroutine strands over the same state.
    reader_done_ = false;
    read_loop().detach();
    for (;;) {
      // WRITE loop: move buffered bytes into the device's output side.
      while (queue_.is_empty()) co_await wait_on(drain_);
      co_await delay(dev_.out_interval);
      dev_.received.push_back(queue_.dequeue());
      if (remote_stopped_ && queue_.is_empty()) {
        remote_stopped_ = false;
        co_await b_signal(ServerSignature{other_, kRestart}, 0);
      }
    }
  }

  const Device& device() const { return dev_; }
  bool relay_finished() const { return reader_done_; }
  std::size_t buffered() const { return queue_.size(); }

 private:
  sim::Task read_loop() {
    // READ loop: take bytes the device produced and ship them across.
    for (int i = 0; i < dev_.to_produce; ++i) {
      while (dev_.stopped) co_await wait_on(produce_);
      co_await delay(dev_.in_interval);
      const auto b = static_cast<std::byte>((seed_ + i) & 0xFF);
      ++dev_.produced;
      Bytes status;
      auto c = co_await b_exchange(ServerSignature{other_, kBufferData}, 0,
                                   Bytes(1, b), &status, 1);
      if (!c.ok()) break;
      if (!status.empty() && status[0] == std::byte{kFlowFull}) {
        dev_.stopped = true;  // CTRL-S: stop producing until RESTART
      }
    }
    reader_done_ = true;
    drain_.notify_all();
    co_return;
  }

  Mid other_;
  Device dev_;
  sodal::Queue<std::byte> queue_;
  bool remote_stopped_ = false;
  bool reader_done_ = false;
  int seed_ = 0;
  sim::CondVar drain_;
  sim::CondVar produce_;
};

}  // namespace soda::apps
