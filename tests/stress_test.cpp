// Deterministic concurrency stress suite.
//
// Each scenario deliberately provokes the interleavings the DO/CT runtime is
// most likely to get wrong: raise/raise_and_wait storms converging on one
// target, handler registration racing with delivery, node shutdown racing
// with in-flight messages, TERMINATE-chain teardown under load, and pager
// faults from many threads at once.  Workloads are driven by seeded
// SplitMix64 streams (one per storm thread) so a failing interleaving can be
// replayed.  The suite is the workload for the DOCT_SANITIZE=thread and
// DOCT_SANITIZE=address;undefined CI legs.
//
// Every scenario ends with quiesce_and_check(): Network::quiesce() must
// return (no lost in-flight token can hang it) and Network::in_flight() must
// then read exactly 0 — shutdown races that leak or double-release tokens
// regress loudly here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "events/event_system.hpp"
#include "net/network.hpp"
#include "obs_dump.hpp"
#include "runtime/runtime.hpp"
#include "services/pager/pager.hpp"
#include "services/termination/termination.hpp"

namespace doct {
namespace {

using namespace std::chrono_literals;
using events::OWN_CONTEXT;
using kernel::Verdict;
using runtime::Cluster;
using runtime::ClusterConfig;

constexpr std::uint64_t kSuiteSeed = 0xD0C7'57E5'5EEDULL;

// Sanitizer instrumentation serializes aggressively; keep iteration counts
// interleaving-dense but wall-clock modest.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr int kStormThreads = 4;
constexpr int kStormIters = 40;
#else
constexpr int kStormThreads = 6;
constexpr int kStormIters = 120;
#endif

void quiesce_and_check(net::Network& network) {
  network.quiesce();
  EXPECT_EQ(network.in_flight(), 0)
      << "in-flight accounting leaked a token: quiesce() returned while "
         "messages were still outstanding";
}

ClusterConfig stress_config() {
  ClusterConfig config;
  // Short sync timeout: a storm thread that loses a rendezvous race must not
  // stall the whole scenario for the default 10s.
  config.node.events.sync_timeout = 3s;
  return config;
}

// --- 1. raise / raise_and_wait storm on a single thread target --------------

TEST(Stress, ThreadTargetRaiseStorm) {
  Cluster cluster(2, stress_config());
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  const EventId ev = cluster.registry().register_event("STORM_POKE");

  std::atomic<int> handled{0};
  cluster.procedures().register_procedure("storm_count",
                                          [&](events::PerThreadCallCtx&) {
                                            handled++;
                                            return Verdict::kResume;
                                          });

  std::atomic<bool> armed{false};
  std::atomic<bool> stop{false};
  const ThreadId victim = n0.kernel.spawn([&] {
    ASSERT_TRUE(n0.events.attach_handler(ev, "storm_count", OWN_CONTEXT).is_ok());
    armed = true;
    // Tight delivery-point loop: every sleep slice is a chance to interleave
    // with an incoming storm raise.
    while (!stop.load(std::memory_order_acquire)) {
      if (!n0.kernel.sleep_for(100us).is_ok()) return;
    }
  });
  while (!armed.load()) std::this_thread::sleep_for(1ms);

  std::atomic<int> sync_ok{0};
  std::vector<std::thread> raisers;
  for (int t = 0; t < kStormThreads; ++t) {
    raisers.emplace_back([&, t] {
      SplitMix64 rng(kSuiteSeed + static_cast<std::uint64_t>(t));
      // Half the threads raise from node 0 (local), half from node 1
      // (remote: locate + kernel.deliver RPC under storm).
      auto& node = (t % 2 == 0) ? n0 : n1;
      for (int i = 0; i < kStormIters; ++i) {
        if (rng.chance(0.25)) {
          auto verdict = node.events.raise_and_wait(ev, victim);
          if (verdict.is_ok()) sync_ok++;
        } else {
          node.events.raise(ev, victim);
        }
      }
    });
  }
  for (auto& t : raisers) t.join();

  // Let the victim drain its queue before stopping it.
  for (int i = 0; i < 2000 && cluster.network().in_flight() > 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  stop = true;
  ASSERT_TRUE(n0.kernel.join_thread(victim, 30s).is_ok());

  EXPECT_GT(handled.load(), 0);
  EXPECT_GT(sync_ok.load(), 0);
  quiesce_and_check(cluster.network());
}

// --- 2. group storm with mixed sync/async and TERMINATE mid-flight ----------

TEST(Stress, GroupTargetStormThenTerminate) {
  ClusterConfig config = stress_config();
  // Most sync raises here land after the group is TERMINATEd and nobody will
  // ever resume them; a short timeout keeps those losses cheap.
  config.node.events.sync_timeout = 100ms;
  Cluster cluster(2, config);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  const EventId ev = cluster.registry().register_event("GROUP_STORM");

  std::atomic<int> handled{0};
  cluster.procedures().register_procedure("group_count",
                                          [&](events::PerThreadCallCtx&) {
                                            handled++;
                                            return Verdict::kResume;
                                          });

  const GroupId group = n0.kernel.create_group();
  std::atomic<int> armed{0};
  std::vector<ThreadId> members;
  // Members spread across both nodes; each runs until TERMINATEd.
  for (int i = 0; i < 4; ++i) {
    auto& node = (i % 2 == 0) ? n0 : n1;
    members.push_back(node.kernel.spawn(
        [&, i] {
          auto& self = (i % 2 == 0) ? n0 : n1;
          ASSERT_TRUE(
              self.events.attach_handler(ev, "group_count", OWN_CONTEXT).is_ok());
          armed++;
          while (self.kernel.sleep_for(100us).is_ok()) {
          }
        },
        {.group = group}));
  }
  while (armed.load() < 4) std::this_thread::sleep_for(1ms);

  std::vector<std::thread> raisers;
  for (int t = 0; t < kStormThreads; ++t) {
    raisers.emplace_back([&, t] {
      SplitMix64 rng(kSuiteSeed ^ (0x1000u + static_cast<std::uint64_t>(t)));
      auto& node = (t % 2 == 0) ? n1 : n0;
      for (int i = 0; i < kStormIters; ++i) {
        if (rng.chance(0.2)) {
          (void)node.events.raise_and_wait(ev, group);
        } else {
          node.events.raise(ev, group);
        }
      }
    });
  }
  // Let at least one storm raise land before the TERMINATE joins the race:
  // on a loaded single-core runner the TERMINATE can otherwise win outright
  // and the handled>0 assertion below has nothing to observe.
  for (int i = 0; i < 10000 && handled.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  // TERMINATE the whole group while the storm is still raising at it: late
  // notices must hit tombstones / dead targets without leaking tokens.
  n0.events.raise(events::sys::kTerminate, group);
  for (auto& t : raisers) t.join();

  for (std::size_t i = 0; i < members.size(); ++i) {
    auto& node = (i % 2 == 0) ? n0 : n1;
    ASSERT_TRUE(node.kernel.join_thread(members[i], 30s).is_ok());
  }
  EXPECT_GT(handled.load(), 0);
  quiesce_and_check(cluster.network());

  auto census = n0.kernel.group_census(group);
  ASSERT_TRUE(census.is_ok());
  EXPECT_TRUE(census.value().empty());
}

// --- 3. object-target storm, both dispatch modes -----------------------------

void object_storm(events::ObjectDispatchMode mode) {
  ClusterConfig config = stress_config();
  config.node.events.dispatch_mode = mode;
  Cluster cluster(2, config);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  const EventId ev = cluster.registry().register_event("OBJ_STORM");

  std::atomic<int> handled{0};
  auto target = std::make_shared<objects::PassiveObject>("storm_target");
  target->define_entry(
      "on_storm",
      [&](objects::CallCtx&) -> Result<objects::Payload> {
        handled++;
        return objects::Payload{static_cast<std::uint8_t>(Verdict::kResume)};
      },
      objects::Visibility::kPrivate);
  target->define_handler("OBJ_STORM", "on_storm");
  // Object lives on node 1; node-0 raisers exercise the remote
  // events.object_notify path, node-1 raisers the local dispatch path.
  const ObjectId obj = n1.objects.add_object(target);

  std::atomic<int> sync_ok{0};
  std::vector<std::thread> raisers;
  for (int t = 0; t < kStormThreads; ++t) {
    raisers.emplace_back([&, t] {
      SplitMix64 rng(kSuiteSeed ^ (0x2000u + static_cast<std::uint64_t>(t)));
      auto& node = (t % 2 == 0) ? n0 : n1;
      for (int i = 0; i < kStormIters; ++i) {
        if (rng.chance(0.3)) {
          auto verdict = node.events.raise_and_wait(ev, obj);
          if (verdict.is_ok()) sync_ok++;
        } else {
          ASSERT_TRUE(node.events.raise(ev, obj).is_ok());
        }
      }
    });
  }
  for (auto& t : raisers) t.join();
  quiesce_and_check(cluster.network());
  EXPECT_GT(handled.load(), 0);
  EXPECT_GT(sync_ok.load(), 0);
}

TEST(Stress, ObjectTargetStormMasterThread) {
  object_storm(events::ObjectDispatchMode::kMasterThread);
}

TEST(Stress, ObjectTargetStormThreadPerEvent) {
  object_storm(events::ObjectDispatchMode::kThreadPerEvent);
}

// --- 4. handler attach/detach racing with delivery ---------------------------

TEST(Stress, AttachDetachRacesDelivery) {
  Cluster cluster(1, stress_config());
  auto& n0 = cluster.node(0);
  const EventId ev = cluster.registry().register_event("FLICKER");

  std::atomic<int> handled{0};
  cluster.procedures().register_procedure("flicker_count",
                                          [&](events::PerThreadCallCtx&) {
                                            handled++;
                                            return Verdict::kResume;
                                          });

  std::atomic<bool> started{false};
  std::atomic<bool> stop{false};
  const ThreadId victim = n0.kernel.spawn([&] {
    started = true;
    SplitMix64 rng(kSuiteSeed ^ 0x3000u);
    // The chain mutates at every delivery point while raisers keep firing:
    // execute_chain's snapshot must never observe a half-written chain.
    while (!stop.load(std::memory_order_acquire)) {
      auto id = n0.events.attach_handler(ev, "flicker_count", OWN_CONTEXT);
      ASSERT_TRUE(id.is_ok());
      if (!n0.kernel.sleep_for(rng.below(200) * 1us).is_ok()) return;
      ASSERT_TRUE(n0.events.detach_handler(id.value()).is_ok());
      if (!n0.kernel.poll_events().is_ok()) return;
    }
  });
  while (!started.load()) std::this_thread::sleep_for(1ms);

  std::vector<std::thread> raisers;
  for (int t = 0; t < kStormThreads; ++t) {
    raisers.emplace_back([&, t] {
      SplitMix64 rng(kSuiteSeed ^ (0x4000u + static_cast<std::uint64_t>(t)));
      for (int i = 0; i < kStormIters; ++i) {
        n0.events.raise(ev, victim);
        if (rng.chance(0.1)) std::this_thread::yield();
      }
    });
  }
  for (auto& t : raisers) t.join();
  stop = true;
  ASSERT_TRUE(n0.kernel.join_thread(victim, 30s).is_ok());
  quiesce_and_check(cluster.network());
}

// --- 5a. network node churn with traffic in flight ---------------------------

TEST(Stress, NetworkNodeChurnWithInFlightTraffic) {
  net::NetworkConfig config;
  config.base_latency = 30us;
  net::Network network(config);

  constexpr int kNodes = 4;
  std::atomic<int> received{0};
  for (int n = 1; n <= kNodes; ++n) {
    ASSERT_TRUE(network
                    .register_node(NodeId{static_cast<std::uint64_t>(n)},
                                   [&](const net::Message&) { received++; })
                    .is_ok());
  }
  const GroupId group{77};
  ASSERT_TRUE(network.create_multicast_group(group).is_ok());
  for (int n = 1; n <= kNodes; ++n) {
    ASSERT_TRUE(network.join(group, NodeId{static_cast<std::uint64_t>(n)}).is_ok());
  }

  std::atomic<bool> stop{false};
  // Churn thread: node 3 flaps in and out of existence, and partitions to it
  // flap too, while senders keep addressing it.
  std::thread churn([&] {
    SplitMix64 rng(kSuiteSeed ^ 0x5000u);
    const NodeId flappy{3};
    while (!stop.load(std::memory_order_acquire)) {
      network.unregister_node(flappy);
      if (rng.chance(0.5)) network.partition(NodeId{1}, flappy);
      std::this_thread::sleep_for(rng.below(300) * 1us);
      network.heal(NodeId{1}, flappy);
      network.register_node(flappy, [&](const net::Message&) { received++; });
      network.join(group, flappy);
      std::this_thread::sleep_for(rng.below(300) * 1us);
    }
  });

  std::vector<std::thread> senders;
  for (int t = 0; t < kStormThreads; ++t) {
    senders.emplace_back([&, t] {
      SplitMix64 rng(kSuiteSeed ^ (0x6000u + static_cast<std::uint64_t>(t)));
      const NodeId self{static_cast<std::uint64_t>(1 + (t % kNodes))};
      for (int i = 0; i < kStormIters * 4; ++i) {
        net::Message m;
        m.from = self;
        m.to = NodeId{1 + rng.below(kNodes)};
        m.kind = 0x7E57;
        m.payload = std::vector<std::uint8_t>(rng.below(64),
                                              static_cast<std::uint8_t>(i));
        switch (rng.below(3)) {
          case 0:
            network.send(std::move(m));
            break;
          case 1:
            network.broadcast(std::move(m));
            break;
          default:
            network.multicast(group, std::move(m));
            break;
        }
      }
    });
  }
  for (auto& t : senders) t.join();
  stop = true;
  churn.join();

  quiesce_and_check(network);
  const auto stats = network.stats();
  EXPECT_GT(stats.delivered, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(received.load()), stats.delivered);
}

// --- 5b. cluster teardown with raise traffic still in flight -----------------

TEST(Stress, ClusterTeardownUnderLoad) {
  SplitMix64 rng(kSuiteSeed ^ 0x7000u);
  for (int round = 0; round < 3; ++round) {
    auto cluster = std::make_unique<Cluster>(3, stress_config());
    // Storm bodies must not read the unique_ptr slot itself — reset() writes
    // it concurrently.  The pointee stays alive until ~Cluster joins them.
    Cluster* cl = cluster.get();
    const EventId ev = cluster->registry().register_event("TEARDOWN_STORM");
    cluster->procedures().register_procedure(
        "teardown_noop",
        [](events::PerThreadCallCtx&) { return Verdict::kResume; });

    // Every node hosts storm threads that raise at threads on OTHER nodes
    // until the kernel terminates them at destruction.
    std::vector<std::pair<int, ThreadId>> storms;
    std::vector<ThreadId> victims;
    std::atomic<int> armed{0};
    for (int n = 0; n < 3; ++n) {
      auto& node = cluster->node(static_cast<std::size_t>(n));
      victims.push_back(node.kernel.spawn([cl, &armed, ev, n] {
        auto& self = cl->node(static_cast<std::size_t>(n));
        ASSERT_TRUE(
            self.events.attach_handler(ev, "teardown_noop", OWN_CONTEXT).is_ok());
        armed++;
        while (self.kernel.sleep_for(100us).is_ok()) {
        }
      }));
    }
    while (armed.load() < 3) std::this_thread::sleep_for(1ms);
    for (int n = 0; n < 3; ++n) {
      auto& node = cluster->node(static_cast<std::size_t>(n));
      const ThreadId target = victims[static_cast<std::size_t>((n + 1) % 3)];
      storms.emplace_back(n, node.kernel.spawn([cl, ev, n, target] {
        auto& self = cl->node(static_cast<std::size_t>(n));
        while (self.kernel.sleep_for(50us).is_ok()) {
          // Statuses are deliberately ignored: mid-teardown these fail with
          // kNoSuchNode/kNoSuchThread/kTimeout, and that must be safe.
          self.events.raise(ev, target);
          (void)self.events.raise_and_wait(ev, target);
        }
      }));
    }

    // Tear the whole cluster down while the storm is hot.  Unregister +
    // terminate + join must cope with raisers mid-RPC and messages on the
    // wire; ASan/TSan turn any use-after-free or race here into a failure.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(10 + rng.below(40)));
    cluster.reset();
  }
  SUCCEED();
}

// --- 6. TERMINATE-chain teardown under load (§6.3 recipe) --------------------

TEST(Stress, TerminateChainTeardownUnderLoad) {
  Cluster cluster(2, stress_config());
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  services::TerminationService termination(n0.events);
  services::TerminationService termination1(n1.events);
  const EventId ev = cluster.registry().register_event("WORK_PULSE");
  cluster.procedures().register_procedure(
      "pulse_noop", [](events::PerThreadCallCtx&) { return Verdict::kResume; });

  const GroupId group = n0.kernel.create_group();
  std::atomic<int> armed{0};
  std::vector<ThreadId> workers;
  const ThreadId root = n0.kernel.spawn(
      [&] {
        ASSERT_TRUE(termination.arm_current_thread().is_ok());
        ASSERT_TRUE(
            n0.events.attach_handler(ev, "pulse_noop", OWN_CONTEXT).is_ok());
        armed++;
        while (n0.kernel.sleep_for(100us).is_ok()) {
        }
      },
      {.group = group});
  for (int i = 0; i < 3; ++i) {
    auto& node = (i % 2 == 0) ? n1 : n0;
    workers.push_back(node.kernel.spawn(
        [&, i] {
          auto& self = (i % 2 == 0) ? n1 : n0;
          auto& my_term = (i % 2 == 0) ? termination1 : termination;
          ASSERT_TRUE(my_term.arm_current_thread().is_ok());
          ASSERT_TRUE(
              self.events.attach_handler(ev, "pulse_noop", OWN_CONTEXT).is_ok());
          armed++;
          while (self.kernel.sleep_for(100us).is_ok()) {
          }
        },
        {.group = group}));
  }
  while (armed.load() < 4) std::this_thread::sleep_for(1ms);

  // Load: raisers pound the group while ^C lands on the root.
  std::vector<std::thread> raisers;
  std::atomic<bool> stop{false};
  for (int t = 0; t < kStormThreads; ++t) {
    raisers.emplace_back([&, t] {
      SplitMix64 rng(kSuiteSeed ^ (0x8000u + static_cast<std::uint64_t>(t)));
      while (!stop.load(std::memory_order_acquire)) {
        n0.events.raise(ev, group);
        std::this_thread::sleep_for(rng.below(100) * 1us);
      }
    });
  }
  std::this_thread::sleep_for(5ms);
  ASSERT_TRUE(termination.request_termination(root).is_ok());

  // The §6.3 chain: root handler raises QUIT to the group; every member
  // terminates.  All joins must complete despite the ongoing storm.
  ASSERT_TRUE(n0.kernel.join_thread(root, 30s).is_ok());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    auto& node = (i % 2 == 0) ? n1 : n0;
    ASSERT_TRUE(node.kernel.join_thread(workers[i], 30s).is_ok());
  }
  stop = true;
  for (auto& t : raisers) t.join();
  quiesce_and_check(cluster.network());

  auto census = n0.kernel.group_census(group);
  ASSERT_TRUE(census.is_ok());
  EXPECT_TRUE(census.value().empty());
}

// --- 7. pager fault storm from many threads (§6.4) ---------------------------

TEST(Stress, PagerFaultStormManyThreads) {
  Cluster cluster(3, stress_config());
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);  // pager server node
  auto& n2 = cluster.node(2);

  const ObjectId server =
      n1.objects.add_object(services::PagerServer::make(n1.rpc));
  services::PagerClient client0(n0.events, n0.objects, n0.dsm, n0.rpc);
  services::PagerClient client2(n2.events, n2.objects, n2.dsm, n2.rpc);

  constexpr int kFaulters = 4;
  constexpr int kPages = 4;
  // One segment per faulting thread: concurrent VM_FAULT storms through the
  // surrogate pool + buddy-handler RPC path, without DSM ownership conflicts.
  for (int i = 0; i < kFaulters; ++i) {
    const SegmentId seg{900u + static_cast<std::uint64_t>(i)};
    auto& client = (i % 2 == 0) ? client0 : client2;
    ASSERT_TRUE(client.create_paged_segment(seg, kPages, server).is_ok());
  }

  std::vector<ThreadId> faulters;
  std::atomic<int> ok{0};
  for (int i = 0; i < kFaulters; ++i) {
    auto& node = (i % 2 == 0) ? n0 : n2;
    faulters.push_back(node.kernel.spawn([&, i] {
      auto& self = (i % 2 == 0) ? n0 : n2;
      auto& my_client = (i % 2 == 0) ? client0 : client2;
      const SegmentId seg{900u + static_cast<std::uint64_t>(i)};
      const std::size_t page_size = self.dsm.page_size();
      ASSERT_TRUE(my_client.arm_current_thread(server).is_ok());
      SplitMix64 rng(kSuiteSeed ^ (0x9000u + static_cast<std::uint64_t>(i)));
      for (int p = 0; p < kPages; ++p) {
        // First touch faults the page in via the buddy handler.
        auto data = self.dsm.read(seg, p * page_size, 8);
        ASSERT_TRUE(data.is_ok()) << data.status().to_string();
        std::vector<std::uint8_t> payload(8, static_cast<std::uint8_t>(i + p));
        ASSERT_TRUE(self.dsm.write(seg, p * page_size, payload).is_ok());
        ASSERT_TRUE(my_client.writeback(seg, static_cast<std::size_t>(p), server)
                        .is_ok());
        if (rng.chance(0.5)) std::this_thread::yield();
      }
      // Re-read through the pager and verify what this thread wrote.
      for (int p = 0; p < kPages; ++p) {
        auto data = self.dsm.read(seg, p * page_size, 8);
        ASSERT_TRUE(data.is_ok());
        ASSERT_EQ(data.value(),
                  std::vector<std::uint8_t>(8, static_cast<std::uint8_t>(i + p)));
      }
      ok++;
    }));
  }
  for (std::size_t i = 0; i < faulters.size(); ++i) {
    auto& node = (i % 2 == 0) ? n0 : n2;
    ASSERT_TRUE(node.kernel.join_thread(faulters[i], 60s).is_ok());
  }
  EXPECT_EQ(ok.load(), kFaulters);
  quiesce_and_check(cluster.network());
}

}  // namespace
}  // namespace doct
