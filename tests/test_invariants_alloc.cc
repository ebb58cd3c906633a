// Bounded-state audit of the chaos invariant checkers: one requester runs
// through 10^6 issue -> complete pairs and 100 deaths, and after the first
// incarnation (the warm-up) ExactlyOnceTermination, NoStaleAccept and
// HandlerNeverNests must not touch the heap again. Their state is per-node
// watermarks plus the node's open TIDs, so it stays flat however long a
// run is. (AtMostOnceDelivery is exempt: it keeps every delivery forever
// because a delayed duplicate can land after its request completed.)
//
// Own binary because it replaces the global operator new with a counting
// hook, as `bench_sim_engine --check-allocs` does.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>

#include "chaos/invariants.h"

namespace {
bool g_count_allocs = false;
std::size_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs) ++g_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// free() pairs with the malloc() in the replacement operator new; GCC
// can't see that and assumes a library new.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
#pragma GCC diagnostic pop
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace soda::chaos {
namespace {

using sim::TraceCategory;
using sim::TraceEvent;
using sim::TraceStatus;

constexpr int kRequester = 1;
constexpr int kServer = 0;
constexpr int kDeaths = 100;
constexpr int kPairsPerIncarnation = 10'000;  // 10^6 pairs in total

TraceEvent ev(sim::Time at, TraceCategory c, int node, int peer,
              std::int32_t tid, TraceStatus status = TraceStatus::kNone) {
  TraceEvent e;
  e.at = at;
  e.category = c;
  e.node = node;
  e.peer = peer;
  e.tid = tid;
  e.status = status;
  return e;
}

/// Feeds one incarnation of the requester to `set`: boot, then
/// kPairsPerIncarnation requests each issued, accepted by the server,
/// answered through the requester's handler and completed; then one more
/// request left open, and the death that forgives it.
void run_incarnation(InvariantSet& set, sim::Time& t, std::int32_t& tid) {
  set.on_event(ev(++t, TraceCategory::kHandlerInvoked, kRequester, -1, -1,
                  TraceStatus::kBooting));
  set.on_event(ev(++t, TraceCategory::kHandlerEnded, kRequester, -1, -1));
  for (int i = 0; i < kPairsPerIncarnation; ++i, ++tid) {
    set.on_event(ev(++t, TraceCategory::kRequestIssued, kRequester, kServer,
                    tid));
    set.on_event(ev(++t, TraceCategory::kAcceptCompleted, kServer,
                    kRequester, tid, TraceStatus::kCompleted));
    set.on_event(ev(++t, TraceCategory::kHandlerInvoked, kRequester, -1, -1,
                    TraceStatus::kCompletion));
    set.on_event(ev(++t, TraceCategory::kRequestCompleted, kRequester, -1,
                    tid, TraceStatus::kCompleted));
    set.on_event(ev(++t, TraceCategory::kHandlerEnded, kRequester, -1, -1));
  }
  set.on_event(ev(++t, TraceCategory::kRequestIssued, kRequester, kServer,
                  tid++));
  set.on_event(ev(++t, TraceCategory::kBoot, kRequester, -1, -1,
                  TraceStatus::kKilled));
}

/// Heap allocations `make()`'s checker performs after its warm-up
/// incarnation, over the remaining kDeaths - 1.
std::size_t steady_state_allocs(
    const std::function<std::unique_ptr<Invariant>()>& make) {
  InvariantSet set;
  set.add(make());
  sim::Time t = 0;
  std::int32_t tid = 1;
  run_incarnation(set, t, tid);  // warm-up: grows every table once

  g_allocs = 0;
  g_count_allocs = true;
  for (int d = 1; d < kDeaths; ++d) run_incarnation(set, t, tid);
  g_count_allocs = false;

  set.finish(t + 1);
  EXPECT_TRUE(set.ok()) << set.violations().front().detail;
  return g_allocs;
}

TEST(InvariantState, ExactlyOnceTerminationIsAllocationFreeAfterWarmUp) {
  EXPECT_EQ(steady_state_allocs(
                [] { return std::make_unique<ExactlyOnceTermination>(); }),
            0u);
}

TEST(InvariantState, NoStaleAcceptIsAllocationFreeAfterWarmUp) {
  EXPECT_EQ(
      steady_state_allocs([] { return std::make_unique<NoStaleAccept>(); }),
      0u);
}

TEST(InvariantState, HandlerNeverNestsIsAllocationFreeAfterWarmUp) {
  EXPECT_EQ(steady_state_allocs(
                [] { return std::make_unique<HandlerNeverNests>(); }),
            0u);
}

TEST(InvariantState, HookCountsAllocations) {
  // The audit is only as good as the hook: a checker that keeps one
  // record per request (as a std::map would) must show up.
  g_allocs = 0;
  g_count_allocs = true;
  void* volatile p = ::operator new(sizeof(std::uint64_t));
  g_count_allocs = false;
  ::operator delete(p);
  EXPECT_EQ(g_allocs, 1u);
}

}  // namespace
}  // namespace soda::chaos
