// A SODA node: one kernel (co)processor plus at most one client program,
// sharing a single multiplexed CPU as in the paper's implementation (§5.2).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/client.h"
#include "core/kernel.h"

namespace soda {

/// Stands in for the development VAX's program store: a "core image" on
/// the wire is the program's registered name, and booting instantiates the
/// registered factory (see DESIGN.md on this substitution).
using ProgramFactory = std::function<std::unique_ptr<Client>()>;

class Node final {
 public:
  Node(sim::Simulator& sim, net::Bus& bus, Mid mid, NodeConfig config,
       UniqueIdSource& uids)
      : sim_(sim),
        partition_(sim.current_partition()),
        cpu_(sim, ledger_),
        kernel_(sim, bus, mid, std::move(config), uids, cpu_, *this) {
    cpu_.bind_metrics(&sim.metrics().node(mid));
  }

  Mid mid() const { return kernel_.mid(); }
  Kernel& kernel() { return kernel_; }
  NodeCpu& cpu() { return cpu_; }
  CostLedger& ledger() { return ledger_; }
  Client* client() { return client_.get(); }

  /// Directly install a client program (tests and examples use this in
  /// place of the network boot protocol).
  void install_client(std::unique_ptr<Client> c, Mid parent) {
    // Boot-time client scheduling belongs on this node's wheel even when
    // triggered from outside an event (tests, chaos reboot injections).
    sim::ScopedPartition guard(sim_, partition_);
    client_ = std::move(c);
    client_->bind(this);
    kernel_.client_booted(parent);
  }

  /// Make a program bootable over the network via the LOAD protocol.
  void register_program(std::string name, ProgramFactory factory) {
    programs_[std::move(name)] = std::move(factory);
  }

  /// Hard failure: lose all kernel and client state (§3.6).
  void crash() {
    sim::ScopedPartition guard(sim_, partition_);
    kernel_.crash();
  }

  sim::Simulator& simulator() { return sim_; }

  /// Partition wheel this node's events live on (captured at construction;
  /// 0 on an unpartitioned simulator). Fault injectors schedule their
  /// crash/reboot events here so external interventions don't register as
  /// cross-partition lookahead violations.
  int partition() const { return partition_; }

  // ---- Called by the kernel ----
  /// Load and start a client from a core image (invokes its boot handler).
  void boot_client(const Bytes& image, Mid parent) {
    std::string name(image.size(), '\0');
    for (std::size_t i = 0; i < image.size(); ++i) {
      name[i] = static_cast<char>(std::to_integer<unsigned char>(image[i]));
    }
    auto it = programs_.find(name);
    if (it == programs_.end()) {
      sim_.trace().record(sim_.now(), sim::TraceCategory::kBoot, mid(),
                          sim::TracePayload{}.with_status(
                              sim::TraceStatus::kUnknownImage));
      return;
    }
    install_client(it->second(), parent);
  }

  /// Destroy the running client (kill / DIE).
  void kill_client() {
    if (!client_) return;
    client_->mark_dead();
    // The dead program's memory persists on the node (its core image is
    // only replaced by the next boot) — which also keeps test/example
    // inspection of a finished client's state valid, and lets coroutines
    // still unwinding on it do so safely.
    dead_clients_.push_back(std::move(client_));
    client_.reset();
  }

  bool has_client() const { return client_ != nullptr; }

  /// Run the client handler (the kernel has already charged the context
  /// switch and marked the handler BUSY).
  void invoke_handler(const HandlerArgs& args) {
    if (client_) client_->invoke_handler(args);
  }

  /// Resume client-task continuations deferred while the handler ran.
  void drain_client_deferred() {
    if (client_) client_->drain_deferred();
  }

 private:
  sim::Simulator& sim_;
  int partition_ = 0;
  CostLedger ledger_;
  NodeCpu cpu_;
  Kernel kernel_;
  std::unique_ptr<Client> client_;
  std::vector<std::unique_ptr<Client>> dead_clients_;
  std::unordered_map<std::string, ProgramFactory> programs_;
};

}  // namespace soda
