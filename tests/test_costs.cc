// Units for the cost-accounting substrate: NodeCpu FIFO semantics,
// CostLedger totals, trace filtering, and the TimingModel invariants the
// calibration relies on.
#include <gtest/gtest.h>

#include "proto/timing.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace soda {
namespace {

TEST(NodeCpu, WorkRunsAfterItsDuration) {
  sim::Simulator s;
  CostLedger ledger;
  NodeCpu cpu(s, ledger);
  sim::Time done_at = -1;
  cpu.run(500, CostCategory::kProtocol, [&] { done_at = s.now(); });
  s.run();
  EXPECT_EQ(done_at, 500);
}

TEST(NodeCpu, WorkSerializesFifo) {
  sim::Simulator s;
  CostLedger ledger;
  NodeCpu cpu(s, ledger);
  std::vector<std::pair<int, sim::Time>> finishes;
  cpu.run(300, CostCategory::kProtocol,
          [&] { finishes.emplace_back(1, s.now()); });
  cpu.run(200, CostCategory::kProtocol,
          [&] { finishes.emplace_back(2, s.now()); });
  s.run();
  ASSERT_EQ(finishes.size(), 2u);
  EXPECT_EQ(finishes[0], std::make_pair(1, sim::Time{300}));
  EXPECT_EQ(finishes[1], std::make_pair(2, sim::Time{500}));
}

TEST(NodeCpu, ChargeDelaysLaterWork) {
  sim::Simulator s;
  CostLedger ledger;
  NodeCpu cpu(s, ledger);
  cpu.charge(1000, CostCategory::kClientOverhead);
  sim::Time done_at = -1;
  cpu.run(100, CostCategory::kProtocol, [&] { done_at = s.now(); });
  s.run();
  EXPECT_EQ(done_at, 1100);
}

TEST(NodeCpu, IdleCpuStartsWorkNow) {
  sim::Simulator s;
  CostLedger ledger;
  NodeCpu cpu(s, ledger);
  sim::Time done_at = -1;
  s.after(5000, [&] {
    cpu.run(100, CostCategory::kProtocol, [&] { done_at = s.now(); });
  });
  s.run();
  EXPECT_EQ(done_at, 5100);  // not 100: free_at does not run backwards
}

TEST(CostLedgerTest, AccumulatesByCategory) {
  CostLedger l;
  l.charge(CostCategory::kProtocol, 100);
  l.charge(CostCategory::kProtocol, 50);
  l.charge(CostCategory::kDataCopy, 7);
  EXPECT_EQ(l.total(CostCategory::kProtocol), 150);
  EXPECT_EQ(l.total(CostCategory::kDataCopy), 7);
  EXPECT_EQ(l.total(CostCategory::kContextSwitch), 0);
  EXPECT_EQ(l.grand_total(), 157);
  l.reset();
  EXPECT_EQ(l.grand_total(), 0);
}

TEST(TraceTest, FiltersByCategory) {
  sim::Trace t;
  t.enable(sim::TraceCategory::kRetransmit);
  t.record(1, sim::TraceCategory::kRetransmit, 0,
           sim::TracePayload{}.with_detail(7));
  t.record(2, sim::TraceCategory::kPacketSent, 0);  // disabled
  ASSERT_EQ(t.events().size(), 1u);
  EXPECT_EQ(t.events()[0].detail_i64(), 7);
  EXPECT_EQ(t.events()[0].category, sim::TraceCategory::kRetransmit);
}

TEST(TimingModelTest, SignalBudgetMatchesPaperTable) {
  // The calibration identity: per 2-packet SIGNAL the charges must sum to
  // the paper's categories (DESIGN.md §5). Guards against constant drift.
  TimingModel t;
  EXPECT_EQ(2 * (t.protocol_send + t.protocol_recv), 2000);
  EXPECT_EQ(2 * (t.conn_timer_send + t.conn_timer_recv), 1000);
  EXPECT_EQ(t.retransmit_timer, 700);  // one sequenced send per SIGNAL
  EXPECT_EQ(2 * t.context_switch, 800);
  EXPECT_EQ(2 * t.client_trap, 2200);
  // 40 us/word = 16 wire + 2 x 12 copy.
  EXPECT_EQ(t.copy_per_byte, 6);
}

TEST(TimingModelTest, RetransmitBudgetBelowRecordLifetime) {
  TimingModel t;
  // A peer is declared dead strictly before its connection record could
  // expire, so "crashed" and "take-any" can never race incoherently.
  EXPECT_LT(static_cast<sim::Duration>(t.max_ack_retries) *
                (t.retransmit_interval + t.retransmit_jitter),
            t.record_lifetime());
}

TEST(TimingModelTest, BusyPaceSlowerThanAckPace) {
  TimingModel t;
  // §5.2.2: "the retransmission rate to obtain an acknowledgement ... is
  // faster" than the busy-retry rate only in the *adaptive* sense; the
  // base busy pace must at least not exceed the loss-retransmit pace.
  EXPECT_LT(t.busy_retry_interval, t.retransmit_interval);
  EXPECT_LE(t.busy_retry_interval +
                t.busy_retry_growth * t.max_ack_retries,
            t.busy_retry_max + t.busy_retry_growth);
}

}  // namespace
}  // namespace soda
