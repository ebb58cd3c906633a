// The hierarchical name service (§6.14): bind/resolve/list/unbind over a
// directory tree, layered entirely on SODA primitives, plus the
// Directory facade that fronts it and the Switchboard uniformly.
#include <gtest/gtest.h>

#include "core/network.h"
#include "sodal/directory.h"
#include "sodal/nameserver.h"
#include "sodal/service.h"
#include "sodal/util.h"

namespace soda::sodal {
namespace {

class Driver : public SodalClient {
 public:
  using Script = std::function<sim::Task(Driver&)>;
  explicit Driver(Script s) : script_(std::move(s)) {}
  sim::Task on_task() override {
    co_await script_(*this);
    done = true;
    co_await park_forever();
  }
  Script script_;
  bool done = false;
};

ServerSignature ns_sig() { return ServerSignature{0, kNameServerPattern}; }

TEST(NameService, BindThenResolve) {
  Network net;
  net.spawn<NameServer>(NodeConfig{});
  auto& d = net.spawn<Driver>(NodeConfig{}, [](Driver& self) -> sim::Task {
    Status st = co_await ns_bind(self, ns_sig(), "/services/print/laser",
                                 ServerSignature{7, 0x1234});
    EXPECT_TRUE(st.ok());
    auto sig = co_await ns_resolve(self, ns_sig(), "/services/print/laser");
    EXPECT_TRUE(sig.ok());
    if (sig.ok()) {
      EXPECT_EQ(sig->mid, 7);
      EXPECT_EQ(sig->pattern, 0x1234u);
    }
  });
  net.run_for(10 * sim::kSecond);
  net.check_clients();
  EXPECT_TRUE(d.done);
}

TEST(NameService, UnboundPathResolvesToNotFound) {
  Network net;
  net.spawn<NameServer>(NodeConfig{});
  auto& d = net.spawn<Driver>(NodeConfig{}, [](Driver& self) -> sim::Task {
    auto sig = co_await ns_resolve(self, ns_sig(), "/nope");
    EXPECT_FALSE(sig.ok());
    EXPECT_EQ(sig.code(), StatusCode::kNotFound);
  });
  net.run_for(10 * sim::kSecond);
  net.check_clients();
  EXPECT_TRUE(d.done);
}

TEST(NameService, ListsImmediateChildrenOnly) {
  Network net;
  net.spawn<NameServer>(NodeConfig{});
  auto& d = net.spawn<Driver>(NodeConfig{}, [](Driver& self) -> sim::Task {
    co_await ns_bind(self, ns_sig(), "/svc/a", ServerSignature{1, 1});
    co_await ns_bind(self, ns_sig(), "/svc/b", ServerSignature{2, 2});
    co_await ns_bind(self, ns_sig(), "/svc/b/deep", ServerSignature{3, 3});
    co_await ns_bind(self, ns_sig(), "/other/c", ServerSignature{4, 4});
    auto names = co_await ns_list(self, ns_sig(), "/svc");
    EXPECT_TRUE(names.ok());
    EXPECT_EQ(names.value_or({}), (std::vector<std::string>{"a", "b"}));
    auto root = co_await ns_list(self, ns_sig(), "/");
    EXPECT_TRUE(root.ok());
    EXPECT_EQ(root.value_or({}), (std::vector<std::string>{"other", "svc"}));
  });
  net.run_for(20 * sim::kSecond);
  net.check_clients();
  EXPECT_TRUE(d.done);
}

TEST(NameService, UnbindRemovesBinding) {
  Network net;
  auto& ns = net.spawn<NameServer>(NodeConfig{});
  auto& d = net.spawn<Driver>(NodeConfig{}, [](Driver& self) -> sim::Task {
    co_await ns_bind(self, ns_sig(), "/x", ServerSignature{1, 1});
    Status st = co_await ns_unbind(self, ns_sig(), "/x");
    EXPECT_TRUE(st.ok());
    auto sig = co_await ns_resolve(self, ns_sig(), "/x");
    EXPECT_EQ(sig.code(), StatusCode::kNotFound);
  });
  net.run_for(10 * sim::kSecond);
  net.check_clients();
  EXPECT_TRUE(d.done);
  EXPECT_EQ(ns.bindings(), 0u);
}

TEST(NameService, RebindReplaces) {
  Network net;
  net.spawn<NameServer>(NodeConfig{});
  auto& d = net.spawn<Driver>(NodeConfig{}, [](Driver& self) -> sim::Task {
    co_await ns_bind(self, ns_sig(), "/x", ServerSignature{1, 1});
    co_await ns_bind(self, ns_sig(), "/x", ServerSignature{2, 9});
    auto sig = co_await ns_resolve(self, ns_sig(), "x");  // normalization
    EXPECT_TRUE(sig.ok());
    if (sig.ok()) {
      EXPECT_EQ(sig->mid, 2);
      EXPECT_EQ(sig->pattern, 9u);
    }
  });
  net.run_for(10 * sim::kSecond);
  net.check_clients();
  EXPECT_TRUE(d.done);
}

TEST(NameService, FlatTableIsTheIndexReference) {
  // The flat table (indexed = false) derives each listing by scanning
  // every binding; the indexed table keeps refcounted per-directory child
  // sets. The same bind/rebind/unbind sequence must list the same
  // children from both. Unbinding one of two bindings under a/b must keep
  // "b" listed under "a" until the second goes too.
  std::vector<std::vector<std::string>> listings[2];
  for (const bool indexed : {false, true}) {
    Network net;
    net.spawn<NameServer>(NodeConfig{}, kNameServerPattern, indexed);
    auto& out = listings[indexed ? 1 : 0];
    auto& d = net.spawn<Driver>(NodeConfig{}, [&out](Driver& self)
                                                  -> sim::Task {
      const auto list_all = [&]() -> sim::Task {
        for (const char* dir : {"/", "/a", "/a/b", "/f"}) {
          auto names = co_await ns_list(self, ns_sig(), dir);
          EXPECT_TRUE(names.ok());
          out.push_back(names.value_or({}));
        }
      };
      co_await ns_bind(self, ns_sig(), "/a/b/c", ServerSignature{1, 1});
      co_await ns_bind(self, ns_sig(), "/a/b/d", ServerSignature{2, 2});
      co_await ns_bind(self, ns_sig(), "/a/e", ServerSignature{3, 3});
      co_await ns_bind(self, ns_sig(), "/f", ServerSignature{4, 4});
      co_await ns_bind(self, ns_sig(), "/a/b/c", ServerSignature{5, 5});
      co_await list_all();
      co_await ns_unbind(self, ns_sig(), "/a/b/c");
      co_await list_all();
      co_await ns_unbind(self, ns_sig(), "/a/b/d");
      co_await list_all();
      co_await ns_unbind(self, ns_sig(), "/f");
      co_await list_all();
    });
    net.run_for(60 * sim::kSecond);
    net.check_clients();
    EXPECT_TRUE(d.done) << "indexed=" << indexed;
  }
  EXPECT_EQ(listings[0], listings[1]);
  using Names = std::vector<std::string>;
  ASSERT_EQ(listings[1].size(), 16u);
  EXPECT_EQ(listings[1][2], (Names{"c", "d"}));  // after the rebind
  EXPECT_EQ(listings[1][5], (Names{"b", "e"}));  // a/b/d still binds b
  EXPECT_EQ(listings[1][6], (Names{"d"}));
  EXPECT_EQ(listings[1][9], (Names{"e"}));  // last binding under a/b gone
  EXPECT_EQ(listings[1][12], (Names{"a"}));
}

TEST(NameService, PathNormalization) {
  Network net;
  net.spawn<NameServer>(NodeConfig{});
  auto& d = net.spawn<Driver>(NodeConfig{}, [](Driver& self) -> sim::Task {
    co_await ns_bind(self, ns_sig(), "//a///b/", ServerSignature{5, 5});
    auto sig = co_await ns_resolve(self, ns_sig(), "a/b");
    EXPECT_TRUE(sig.ok());
    if (sig.ok()) {
      EXPECT_EQ(sig->mid, 5);
    }
  });
  net.run_for(10 * sim::kSecond);
  net.check_clients();
  EXPECT_TRUE(d.done);
}

TEST(NameService, PoolBindingRoundTrips) {
  // A name bound to an anycast pool (mid == kAnycastMid) survives the
  // 12-byte wire signature and comes back as a pool handle.
  Network net;
  net.spawn<NameServer>(NodeConfig{});
  auto& d = net.spawn<Driver>(NodeConfig{}, [](Driver& self) -> sim::Task {
    const ServiceHandle pool = ServiceHandle::pool(kWellKnownBit | 0xABC);
    Status st = co_await ns_bind(self, ns_sig(), "/services/workers",
                                 pool.signature());
    EXPECT_TRUE(st.ok());
    auto sig = co_await ns_resolve(self, ns_sig(), "/services/workers");
    EXPECT_TRUE(sig.ok());
    if (sig.ok()) {
      const ServiceHandle h = ServiceHandle::of(*sig);
      EXPECT_TRUE(h.is_pool());
      EXPECT_EQ(h.pattern(), kWellKnownBit | 0xABC);
    }
  });
  net.run_for(10 * sim::kSecond);
  net.check_clients();
  EXPECT_TRUE(d.done);
}

TEST(NameService, EndToEndServiceLookupAndCall) {
  // A service binds itself under a path; a client watches the Directory
  // facade until the binding appears, then calls the service.
  Network net;
  net.spawn<NameServer>(NodeConfig{});
  class Service : public SodalClient {
   public:
    sim::Task on_task() override {
      const Pattern p = unique_id();
      advertise(p);
      co_await ns_bind(*this, ns_sig(), "/services/echo",
                       ServerSignature{my_mid(), p});
      co_await park_forever();
    }
    sim::Task on_entry(HandlerArgs) override {
      co_await accept_current_signal(1234);
    }
  };
  net.spawn<Service>(NodeConfig{});
  auto& d = net.spawn<Driver>(NodeConfig{}, [](Driver& self) -> sim::Task {
    const Directory dir = Directory::name_server(ns_sig());
    auto sig = co_await dir.watch(self, "/services/echo", 20);
    EXPECT_TRUE(sig.ok());
    if (sig.ok()) {
      auto c = co_await self.b_signal(*sig, 0);
      EXPECT_TRUE(c.ok());
      EXPECT_EQ(c.arg, 1234);
    }
  });
  net.run_for(30 * sim::kSecond);
  net.check_clients();
  EXPECT_TRUE(d.done);
}

}  // namespace
}  // namespace soda::sodal
