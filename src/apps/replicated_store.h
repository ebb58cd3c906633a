// A replicated key-value store composed from the library's parts: the
// kind of "utility process" system the paper imagines living on a SODA
// network (database servers in the §1.3 figure). Replicas are plain SODA
// servers; a coordinator client writes through reliable multicast
// (§6.17.1) and reads from any replica, surviving replica crashes via
// the kernel's failure reporting — no extra machinery.
//
// Wire protocol on kStoreReplica (argument = opcode):
//   1 SET      PUT  "key\0value"
//   2 READ     PUT  "key"        (stage 1)
//   3 FETCH    GET  value        (stage 2; REJECTed when absent)
#pragma once

#include <map>
#include <string>

#include "sodal/sodal.h"

namespace soda::apps {

constexpr Pattern kStoreReplica = kWellKnownBit | 0x57DB;

class StoreReplica : public sodal::SodalClient {
 public:
  sim::Task on_boot(Mid) override {
    advertise(kStoreReplica);
    co_return;
  }

  sim::Task on_entry(HandlerArgs a) override {
    if (a.invoked_pattern != kStoreReplica) co_return;
    switch (a.arg) {
      case 1: {  // SET
        Bytes kv;
        auto r = co_await accept_current_put(0, &kv, a.put_size);
        if (r.status != AcceptStatus::kSuccess) break;
        const auto nul = std::find(kv.begin(), kv.end(), std::byte{0});
        if (nul == kv.end()) break;
        const std::string key =
            sodal::to_string(Bytes(kv.begin(), nul));
        data_[key] = Bytes(nul + 1, kv.end());
        ++writes_;
        break;
      }
      case 2: {  // READ stage 1: stage the key
        Bytes key;
        auto r = co_await accept_current_put(0, &key, a.put_size);
        if (r.status == AcceptStatus::kSuccess) {
          staged_[a.asker.mid] = sodal::to_string(key);
        }
        break;
      }
      case 3: {  // READ stage 2: deliver the value
        auto sit = staged_.find(a.asker.mid);
        if (sit == staged_.end()) {
          co_await reject_current();
          break;
        }
        auto dit = data_.find(sit->second);
        staged_.erase(sit);
        if (dit == data_.end()) {
          co_await reject_current();  // absent key
          break;
        }
        Bytes value = dit->second;
        ++reads_;
        co_await accept_current_get(0, std::move(value));
        break;
      }
      default:
        co_await reject_current();
    }
    co_return;
  }

  std::size_t keys() const { return data_.size(); }
  int writes() const { return writes_; }
  int reads() const { return reads_; }
  const Bytes* value(const std::string& key) const {
    auto it = data_.find(key);
    return it == data_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::string, Bytes> data_;
  std::map<Mid, std::string> staged_;
  int writes_ = 0;
  int reads_ = 0;
};

/// Coordinator-side operations, usable from any SodalClient coroutine.
struct StoreWriteResult {
  int replicas_written = 0;
  int replicas_failed = 0;
  bool quorum(std::size_t group) const {
    return replicas_written > static_cast<int>(group) / 2;
  }
};

/// Replicate a write to the whole group (resolves with the write count).
inline sim::Future<StoreWriteResult> store_set(
    sodal::SodalClient& c, const std::vector<ServerSignature>& group,
    const std::string& key, Bytes value) {
  co_await c.resume_task_gated();
  Bytes kv = sodal::to_bytes(key);
  kv.push_back(std::byte{0});
  kv.insert(kv.end(), value.begin(), value.end());
  auto mc = co_await sodal::multicast(c, group, /*arg=*/1, kv);
  StoreWriteResult r;
  r.replicas_written = mc.delivered;
  r.replicas_failed = mc.rejected + mc.failed;
  co_return r;
}

/// Read from the first live replica (nullopt: key absent everywhere).
inline sim::Future<std::optional<Bytes>> store_get(
    sodal::SodalClient& c, std::vector<ServerSignature> group,
    std::string key) {
  co_await c.resume_task_gated();
  // Try replicas in order until one answers; a crashed or key-less
  // replica fails the two-stage read and we move on.
  for (const auto& replica : group) {
    auto s1 = co_await c.b_put(replica, 2, sodal::to_bytes(key));
    if (!s1.ok()) continue;
    Bytes value;
    auto s2 = co_await c.b_get(replica, 3, &value, 2000);
    if (s2.ok()) co_return value;
    if (s2.rejected()) co_return std::nullopt;  // authoritative: key absent
  }
  co_return std::nullopt;
}

/// DISCOVER the replica group.
inline sim::Future<std::vector<ServerSignature>> store_find_replicas(
    sodal::SodalClient& c) {
  co_await c.resume_task_gated();
  Bytes mids;
  c.discover_request(kStoreReplica, &mids, 64);
  co_await c.delay(c.k().config().timing.discover_window +
                   20 * sim::kMillisecond);
  std::vector<ServerSignature> group;
  for (std::size_t i = 0; i + 4 <= mids.size(); i += 4) {
    group.push_back(ServerSignature{
        static_cast<Mid>(sodal::decode_u32(mids, i)), kStoreReplica});
  }
  co_return group;
}

}  // namespace soda::apps
