// Scaling beyond the paper's eight PDP-11s: run the star-RPC, DISCOVER-
// storm, replicated-store, name-storm and contention workloads at 8..64
// nodes under the fast timing preset and report the deterministic cost
// counters, one row per configuration, then push contention and star-RPC
// to 128/256 nodes with exponential retransmit backoff. Rows land in
// BENCH_scale.jsonl for the trend tooling; wall-clock columns (wall_ms,
// events_per_wall_s, peak_rss_kb) are host-dependent and gated only
// loosely.
#include <cstdio>
#include <cstring>

#include "benchsupport/report.h"
#include "scale/harness.h"

using namespace soda;
using namespace soda::bench;
using namespace soda::scale;

namespace {

int servers_for(Workload w, int nodes) {
  switch (w) {
    case Workload::kStarRpc: return nodes >= 16 ? nodes / 8 : 1;
    case Workload::kDiscoverStorm: return 2;
    case Workload::kReplicatedStore: return 3;
    case Workload::kNameStorm: return 1;
    case Workload::kContention: return 1;
  }
  return 1;
}

HarnessResult run(Workload w, int nodes, double loss, std::uint64_t seed,
                  bool backoff = false, int pool_size = 0, int segments = 1) {
  HarnessOptions o;
  o.workload = w;
  o.nodes = nodes;
  o.servers = servers_for(w, nodes);
  o.pool_size = pool_size;
  o.ops_per_client = 12;
  o.segments = segments;
  o.loss = loss;
  o.seed = seed;
  o.retransmit_backoff = backoff;
  return run_harness(o);
}

}  // namespace

int main(int argc, char** argv) {
  // --quick: one workload at two sizes, for smoke runs.
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;

  JsonlReport report("scale");
  auto emit = [&report](Workload w, int nodes, int servers, double loss,
                        const HarnessResult& r, bool backoff = false,
                        int pool_size = 0, int segments = 1) {
    report.row(stats::JsonObject()
                   .set("kind", "scale")
                   .set("workload", to_string(w))
                   .set("nodes", nodes)
                   .set("servers", servers)
                   .set("retransmit_backoff", backoff)
                   .set("pool_size", pool_size)
                   .set("segments", segments)
                   .set("frames_relayed", r.frames_relayed)
                   .set("relay_drops", r.relay_drops)
                   .set("loss", loss)
                   .set("sim_ms", sim::to_ms(r.sim_elapsed))
                   .set("wall_ms", r.wall_ms)
                   .set("events_per_wall_s", r.events_per_wall_s)
                   .set("peak_rss_kb", r.peak_rss_kb)
                   .set("events_executed", r.events_executed)
                   .set("events_scheduled", r.events_scheduled)
                   .set("events_cancelled", r.events_cancelled)
                   .set("frames_sent", r.frames_sent)
                   .set("frames_filtered", r.frames_filtered)
                   .set("requests_issued", r.requests_issued)
                   .set("requests_completed", r.requests_completed)
                   .set("cpu_busy_us", r.cpu_busy_micros)
                   .set("ops_done", r.ops_done)
                   .set("ops_expected", r.ops_expected)
                   .set("ops_min", r.ops_min)
                   .set("ops_max", r.ops_max)
                   .set("goodput_ops_s", r.goodput_ops_per_s)
                   .set("timedout", r.requests_timedout)
                   .set("shed_offers", r.shed_offers)
                   .set("violations", r.violations)
                   .set("trace_hash", r.trace_hash));
  };

  std::printf("Scaling past the 1984 model\n");
  std::printf("===========================\n");
  std::printf("fast timing preset, NIC pattern filter, batched timers, "
              "indexed name table.\n");

  const Workload all[] = {Workload::kStarRpc, Workload::kDiscoverStorm,
                          Workload::kReplicatedStore, Workload::kNameStorm,
                          Workload::kContention};
  const int sizes[] = {8, 16, 32, 64};

  for (Workload w : all) {
    // --quick keeps star_rpc at 8/16 plus the 64-node contention row —
    // the overload row the trend gate watches.
    if (quick && w != Workload::kStarRpc && w != Workload::kContention) {
      continue;
    }
    std::printf("\n[%s]\n", to_string(w));
    std::printf("  %5s %9s %12s %12s %12s %10s %9s %4s\n", "nodes",
                "sim_ms", "events", "sched", "filtered", "frames", "ops",
                "viol");
    for (int nodes : sizes) {
      if (quick && (w == Workload::kContention ? nodes != 64 : nodes > 16)) {
        continue;
      }
      const int servers = servers_for(w, nodes);
      const HarnessResult r = run(w, nodes, /*loss=*/0.0, /*seed=*/1);
      emit(w, nodes, servers, 0.0, r);
      std::printf("  %5d %9.1f %12llu %12llu %12llu %10llu %5llu/%-3llu"
                  " %4llu\n",
                  nodes, sim::to_ms(r.sim_elapsed),
                  static_cast<unsigned long long>(r.events_executed),
                  static_cast<unsigned long long>(r.events_scheduled),
                  static_cast<unsigned long long>(r.frames_filtered),
                  static_cast<unsigned long long>(r.frames_sent),
                  static_cast<unsigned long long>(r.ops_done),
                  static_cast<unsigned long long>(r.ops_expected),
                  static_cast<unsigned long long>(r.violations));
      if (w == Workload::kContention) {
        std::printf("        goodput=%.0f ops/s  fairness min/max="
                    "%llu/%llu  timedout=%llu shed=%llu\n",
                    r.goodput_ops_per_s,
                    static_cast<unsigned long long>(r.ops_min),
                    static_cast<unsigned long long>(r.ops_max),
                    static_cast<unsigned long long>(r.requests_timedout),
                    static_cast<unsigned long long>(r.shed_offers));
      }
    }
  }

  // 128/256-node tiers: contention and star-RPC with exponential
  // retransmit backoff — the fixed silence window is what collapses these
  // sizes (a queue-saturated but healthy server gets declared CRASHED en
  // masse). One backoff-off 128-node contention row rides along so the
  // before/after stays on record.
  std::printf("\n[beyond 64 nodes]\n");
  std::printf("  %5s %10s %6s %9s %12s %10s %9s %4s %12s\n", "nodes",
              "workload", "bkoff", "sim_ms", "events", "frames", "ops",
              "viol", "ev/wall_s");
  const struct {
    Workload w;
    int nodes;
  } big[] = {
      {Workload::kContention, 128},
      {Workload::kStarRpc, 128},
      {Workload::kContention, 256},
      {Workload::kStarRpc, 256},
  };
  for (const auto& tier : big) {
    if (quick && !(tier.w == Workload::kContention && tier.nodes == 128)) {
      continue;
    }
    for (bool backoff : {false, true}) {
      if (!backoff &&
          !(tier.w == Workload::kContention && tier.nodes == 128)) {
        continue;  // base row only at the 128-node contention tier
      }
      const HarnessResult r =
          run(tier.w, tier.nodes, /*loss=*/0.0, /*seed=*/1, backoff);
      emit(tier.w, tier.nodes, servers_for(tier.w, tier.nodes), 0.0, r,
           backoff);
      std::printf("  %5d %10s %6s %9.1f %12llu %10llu %5llu/%-3llu %4llu"
                  " %12.0f\n",
                  tier.nodes, to_string(tier.w), backoff ? "on" : "off",
                  sim::to_ms(r.sim_elapsed),
                  static_cast<unsigned long long>(r.events_executed),
                  static_cast<unsigned long long>(r.frames_sent),
                  static_cast<unsigned long long>(r.ops_done),
                  static_cast<unsigned long long>(r.ops_expected),
                  static_cast<unsigned long long>(r.violations),
                  r.events_per_wall_s);
    }
  }

  // Anycast pool sweep: the 128-node contention storm re-run with the
  // clients addressing a server *pool* ({kAnycastMid, pattern}) instead
  // of one machine, pool sizes 1/2/4/8, adaptive admission on. This is
  // the shed-cliff headline (doc/OVERLOAD.md §4): goodput should scale
  // with pool size where the single server could only degrade gracefully
  // toward zero. The trend gate asserts pool8 >= 4x pool1.
  std::printf("\n[contention, 128 nodes, anycast pool sweep]\n");
  std::printf("  %5s %9s %9s %9s %13s %9s %4s\n", "pool", "sim_ms",
              "goodput", "ops", "min/max", "timedout", "viol");
  for (int pool : {1, 2, 4, 8}) {
    const HarnessResult r = run(Workload::kContention, 128, /*loss=*/0.0,
                                /*seed=*/1, /*backoff=*/true, pool);
    emit(Workload::kContention, 128, pool, 0.0, r, /*backoff=*/true, pool);
    std::printf("  %5d %9.1f %9.0f %5llu/%-3llu %6llu/%-6llu %9llu %4llu\n",
                pool, sim::to_ms(r.sim_elapsed), r.goodput_ops_per_s,
                static_cast<unsigned long long>(r.ops_done),
                static_cast<unsigned long long>(r.ops_expected),
                static_cast<unsigned long long>(r.ops_min),
                static_cast<unsigned long long>(r.ops_max),
                static_cast<unsigned long long>(r.requests_timedout),
                static_cast<unsigned long long>(r.violations));
  }

  // Internetwork tiers (doc/INTERNET.md): the same workloads split across
  // 2 and 4 bus segments joined by a hub gateway, so roughly
  // (segments-1)/segments of all operations cross the store-and-forward
  // relay. The headline row — 1024 nodes on two segments — must complete
  // 100% of its ops with zero invariant violations: the single shared
  // medium was the last O(N) wall, and segmentation is the fix the paper's
  // own "local network" framing invites. --quick keeps one 128-node
  // two-segment row for the trend gate.
  std::printf("\n[internetwork: segmented topologies]\n");
  std::printf("  %5s %4s %10s %6s %9s %12s %10s %9s %4s\n", "nodes", "seg",
              "workload", "pool", "sim_ms", "relayed", "frames", "ops",
              "viol");
  const struct {
    Workload w;
    int nodes;
    int segments;
    int pool;
    bool in_quick;
  } inet_tiers[] = {
      {Workload::kStarRpc, 128, 2, 0, true},
      {Workload::kStarRpc, 512, 2, 0, false},
      {Workload::kStarRpc, 1024, 2, 0, false},
      {Workload::kStarRpc, 1024, 4, 0, false},
      {Workload::kContention, 128, 2, 8, false},
  };
  for (const auto& tier : inet_tiers) {
    if (quick && !tier.in_quick) continue;
    const HarnessResult r = run(tier.w, tier.nodes, /*loss=*/0.0, /*seed=*/1,
                                /*backoff=*/true, tier.pool, tier.segments);
    emit(tier.w, tier.nodes, servers_for(tier.w, tier.nodes), 0.0, r,
         /*backoff=*/true, tier.pool, tier.segments);
    std::printf("  %5d %4d %10s %6d %9.1f %12llu %10llu %5llu/%-5llu %4llu\n",
                tier.nodes, tier.segments, to_string(tier.w), tier.pool,
                sim::to_ms(r.sim_elapsed),
                static_cast<unsigned long long>(r.frames_relayed),
                static_cast<unsigned long long>(r.frames_sent),
                static_cast<unsigned long long>(r.ops_done),
                static_cast<unsigned long long>(r.ops_expected),
                static_cast<unsigned long long>(r.violations));
  }

  // One lossy row at 32 nodes: workload completion under 5% frame loss.
  if (!quick) {
    std::printf("\n[star_rpc, 5%% loss, 32 nodes]\n");
    const HarnessResult r = run(Workload::kStarRpc, 32, 0.05, 7);
    emit(Workload::kStarRpc, 32, servers_for(Workload::kStarRpc, 32), 0.05,
         r);
    std::printf("  sim_ms=%.1f ops=%llu/%llu violations=%llu\n",
                sim::to_ms(r.sim_elapsed),
                static_cast<unsigned long long>(r.ops_done),
                static_cast<unsigned long long>(r.ops_expected),
                static_cast<unsigned long long>(r.violations));
  }

  if (report.enabled()) {
    std::printf("\nJSONL rows -> %s\n", report.path().c_str());
  }
  return 0;
}
