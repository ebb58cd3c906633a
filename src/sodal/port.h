// Input ports and priority queues (§4.2.1).
//
// A port is a queueing point for incoming messages: many writers, one
// reader. SODA's kernel never buffers messages, so the port server client
// queues REQUESTER SIGNATURES in its handler and ACCEPTs them from its
// task — flow control comes from CLOSE-ing the handler when the signature
// queue fills. Priority ports order entries by the REQUEST argument.
#pragma once

#include <functional>
#include <vector>

#include "sodal/blocking.h"
#include "sodal/queue.h"

namespace soda::sodal {

class PortServer : public SodalClient {
 public:
  struct Message {
    RequesterSignature from;
    std::int32_t arg = 0;  // doubles as the priority
    Bytes data;
  };
  using Sink = std::function<void(const Message&)>;

  PortServer(Pattern port, std::size_t queue_max, Sink sink,
             bool priority = false)
      : port_(port),
        queue_max_(queue_max),
        sink_(std::move(sink)),
        priority_(priority) {}

  sim::Task on_boot(Mid) override {
    advertise(port_);
    co_return;
  }

  sim::Task on_entry(HandlerArgs a) override {
    if (a.invoked_pattern != port_) co_return;
    waiting_.push_back(Entry{a.asker, a.arg, a.put_size});
    if (waiting_.size() >= queue_max_) {
      close();  // §4.2.1: no room for more signatures
      closed_ = true;
    }
    ready_.notify_all();
    co_return;
  }

  sim::Task on_task() override {
    for (;;) {
      while (waiting_.empty()) co_await wait_on(ready_);
      std::size_t pick = 0;
      if (priority_) {
        for (std::size_t i = 1; i < waiting_.size(); ++i) {
          if (waiting_[i].arg > waiting_[pick].arg) pick = i;
        }
      }
      Entry e = waiting_[pick];
      waiting_.erase(waiting_.begin() +
                     static_cast<std::ptrdiff_t>(pick));
      if (closed_) {
        open();  // room again
        closed_ = false;
      }
      Message m;
      m.from = e.from;
      m.arg = e.arg;
      auto r = co_await accept_put(e.from, 0, &m.data, e.put_size);
      if (r.status == AcceptStatus::kSuccess) {
        ++delivered_;
        if (sink_) sink_(m);
      }
    }
  }

  std::size_t delivered() const { return delivered_; }
  Pattern pattern() const { return port_; }

 private:
  struct Entry {
    RequesterSignature from;
    std::int32_t arg;
    std::uint32_t put_size;
  };

  Pattern port_;
  std::size_t queue_max_;
  Sink sink_;
  bool priority_;
  bool closed_ = false;
  std::vector<Entry> waiting_;
  sim::CondVar ready_;
  std::size_t delivered_ = 0;
};

/// Write one message into a port: B_PUT with the argument doubling as the
/// priority (§4.2.1). Backpressure is invisible to the sender beyond the
/// extra latency while the port's handler is CLOSEd.
inline sim::Future<Status> port_send(SodalClient& c, ServerSignature port,
                                     std::int32_t priority, Bytes data) {
  co_await c.resume_in_context();
  co_return to_status(co_await c.b_put(port, priority, std::move(data)));
}

}  // namespace soda::sodal
