#include "ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

using sim::TraceCategory;
using sim::TraceStatus;

double process_cpu_s() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

double SpanLog::total_s(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.dur_ns;
  }
  return static_cast<double>(ns) / 1e9;
}

void TraceLedger::on_event(const sim::TraceEvent& e) {
  ++by_category[static_cast<std::size_t>(e.category)];
  switch (e.category) {
    case TraceCategory::kRequestIssued: {
      const std::uint64_t k = key(e.node, e.tid);
      auto [it, inserted] = req_.try_emplace(k);
      if (inserted) order_.push_back(k);
      it->second = Stamps{};
      it->second.issued = e.at;
      OpRecord* op = linked_.empty() || e.node < 0 ||
                             static_cast<std::size_t>(e.node) >= linked_.size()
                         ? nullptr
                         : linked_[static_cast<std::size_t>(e.node)];
      if (op != nullptr) {
        if (op->first_tid < 0) op->first_tid = e.tid;
        op->last_tid = e.tid;
      }
      break;
    }
    case TraceCategory::kRequestDelivered: {
      ++delivered;
      auto it = req_.find(key(e.peer, e.tid));
      if (it != req_.end() && it->second.delivered < 0) {
        it->second.delivered = e.at;
      }
      break;
    }
    case TraceCategory::kAcceptIssued: {
      // The server's kernel takes the ACCEPT here; its completion waits
      // for the requester's acknowledgement, which lands after the
      // requester has already resumed, so it cannot bound the server part.
      auto it = req_.find(key(e.peer, e.tid));
      if (it != req_.end() && it->second.accepted < 0) {
        it->second.accepted = e.at;
      }
      break;
    }
    case TraceCategory::kRequestCompleted: {
      auto it = req_.find(key(e.node, e.tid));
      if (it != req_.end()) {
        it->second.completed = e.at;
        it->second.status = e.status;
      }
      break;
    }
    case TraceCategory::kRetransmit:
      if (e.status == TraceStatus::kBusyRetry) {
        busy_wait_us += static_cast<std::uint64_t>(e.detail_i64(0));
      } else if (e.status == TraceStatus::kTimeout) {
        rto_wait_us += static_cast<std::uint64_t>(e.detail_i64(0));
      }
      break;
    case TraceCategory::kOther:
      if (e.status == TraceStatus::kShed) ++shed;
      break;
    case TraceCategory::kPacketDropped:
      if (e.status == TraceStatus::kCrcDropped) ++crc_dropped;
      break;
    case TraceCategory::kProbe:
      if (e.status == TraceStatus::kQuery) ++probes;
      break;
    case TraceCategory::kHandlerInvoked:
      ++handlers;
      break;
    case TraceCategory::kRelay:
      if (e.status == TraceStatus::kForwarded) {
        ++relayed;
      } else if (e.status != TraceStatus::kNoRoute) {
        ++relay_drops;
      }
      break;
    default:
      break;
  }
}

const TraceLedger::Stamps* TraceLedger::find(int node,
                                             std::int32_t tid) const {
  if (tid < 0) return nullptr;
  auto it = req_.find(key(node, tid));
  return it == req_.end() ? nullptr : &it->second;
}

OpSplit TraceLedger::split(const OpRecord& op) const {
  OpSplit s;
  s.t0 = op.t0;
  s.t4 = op.t4;
  // Each boundary is clamped into [previous boundary, t4], so the parts
  // are never negative and always sum to t4 - t0; a missing stamp (an op
  // that never reached the server) collapses its part to zero.
  auto place = [&](sim::Time stamp, sim::Time lo) {
    if (stamp < 0) return lo;
    if (stamp < lo || stamp > s.t4) s.clamped = true;
    return std::clamp(stamp, lo, s.t4);
  };
  const Stamps* first = find(op.node, op.first_tid);
  const Stamps* last = find(op.node, op.last_tid);
  s.t1 = place(first ? first->issued : -1, s.t0);
  s.t2 = place(last ? last->delivered : -1, s.t1);
  s.t3 = place(last ? last->accepted : -1, s.t2);
  return s;
}

std::vector<OpRecord> TraceLedger::requests_as_ops() const {
  std::vector<OpRecord> ops;
  ops.reserve(order_.size());
  for (std::uint64_t k : order_) {
    const Stamps& st = req_.at(k);
    OpRecord op;
    op.node = static_cast<int>(k >> 32);
    op.first_tid = op.last_tid = static_cast<std::int32_t>(k & 0xffffffffu);
    op.t0 = st.issued;
    op.t4 = st.completed;
    if (st.completed >= 0) {
      switch (st.status) {
        case TraceStatus::kCompleted: op.outcome = Outcome::kOk; break;
        case TraceStatus::kTimedOut: op.outcome = Outcome::kTimedOut; break;
        case TraceStatus::kCrashed: op.outcome = Outcome::kCrashed; break;
        default: op.outcome = Outcome::kOther; break;
      }
    }
    ops.push_back(op);
  }
  return ops;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace perfbench
