// Seeded chaos suite: the acceptance scenarios for the deterministic
// fault-injection layer, runnable under any seed.
//
//   DOCT_CHAOS_SEED=42 ./tests/chaos_test
//
// The seed feeds the FaultPlan (which message is dropped/duplicated/delayed)
// and the RPC retry jitter.  The CI chaos lane runs this binary across a
// seed matrix; a failure prints the seed so the exact run replays locally.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "obs_dump.hpp"
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "runtime/runtime.hpp"
#include "services/locks/lock_manager.hpp"

namespace doct {
namespace {

using namespace std::chrono_literals;
using runtime::Cluster;
using runtime::ClusterConfig;

// Timing-sensitive exactly-once assertions are relaxed under sanitizers:
// instrumentation can stall the detector's heartbeat timer past any
// reasonable suspicion threshold, which fakes (or swallows) a transition.
// The fault decisions themselves stay fully deterministic either way.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

std::uint64_t chaos_seed() {
  static const std::uint64_t seed = [] {
    const char* env = std::getenv("DOCT_CHAOS_SEED");
    const std::uint64_t s =
        (env != nullptr && *env != '\0') ? std::strtoull(env, nullptr, 0) : 1;
    std::fprintf(stderr, "[chaos] DOCT_CHAOS_SEED=%llu\n",
                 static_cast<unsigned long long>(s));
    return s;
  }();
  return seed;
}

// --- 1. the full scenario ----------------------------------------------------
//
// Seeded drops + duplication + one partition/heal + one node crash/restart,
// with retried RPC traffic throughout.  Every call() must either succeed via
// retry or fail with a definite timeout; no method may execute twice for one
// call; NODE_DOWN fires exactly once for the crash; the network is quiescent
// at teardown.

TEST(Chaos, FullScenario) {
  const std::uint64_t seed = chaos_seed();
  ClusterConfig config;
  config.node.rpc.default_timeout = 3s;
  config.node.rpc.max_retries = 40;
  config.node.rpc.retry_base_delay = 10ms;
  config.node.rpc.retry_max_delay = 60ms;
  config.node.rpc.retry_seed = seed;
  config.node.health.enabled = true;
  config.node.health.heartbeat_interval = 25ms;
  // Far above the partition window below so the partition never produces a
  // spurious suspicion, and far below the crash outage so the real crash is
  // always detected.
  config.node.health.suspect_after = 800ms;

  // NODE_DOWN / NODE_UP accounting, per peer, as seen from n0.  Declared
  // before the cluster: a late transition can still be delivered while the
  // cluster tears down, so the maps must outlive it.
  std::mutex transitions_mu;
  std::map<NodeId, int> downs;
  std::map<NodeId, int> ups;

  Cluster cluster(3, config);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  auto& n2 = cluster.node(2);
  n0.health()->on_node_down([&](NodeId peer) {
    std::lock_guard<std::mutex> lock(transitions_mu);
    downs[peer]++;
  });
  n0.health()->on_node_up([&](NodeId peer) {
    std::lock_guard<std::mutex> lock(transitions_mu);
    ups[peer]++;
  });

  // At-most-once accounting: each call carries a unique token; the CallId
  // reuse across retransmissions must keep every token's execution count at
  // one even though the wire duplicates and the client retransmits.
  struct ExecLog {
    std::mutex mu;
    std::set<std::uint64_t> seen;
    int duplicate_executions = 0;
  };
  ExecLog logs[2];
  auto install = [](runtime::NodeRuntime& node, ExecLog& log) {
    node.rpc.register_method(
        "work", [&log](NodeId, Reader& args) -> Result<rpc::Payload> {
          const auto token = args.get<std::uint64_t>();
          std::lock_guard<std::mutex> lock(log.mu);
          if (!log.seen.insert(token).second) log.duplicate_executions++;
          return rpc::Payload{};
        });
  };
  install(n1, logs[0]);
  install(n2, logs[1]);

  net::FaultPlan plan;
  plan.seed = seed;
  plan.link_defaults.drop_probability = 0.10;
  plan.link_defaults.duplicate_probability = 0.10;
  plan.link_defaults.delay_spike_probability = 0.05;
  plan.link_defaults.delay_spike_min = 500us;
  plan.link_defaults.delay_spike_max = 3ms;
  plan.partitions.push_back(net::PartitionEvent{
      .a = n0.id, .b = n1.id, .at = 300ms, .heal_at = 450ms});
  plan.crashes.push_back(
      net::CrashEvent{.node = n2.id, .at = 300ms, .restart_at = 2000ms});
  cluster.network().load_fault_plan(plan);

  std::atomic<std::uint64_t> next_token{1};
  std::atomic<int> ok{0};
  std::atomic<int> timeouts{0};
  std::atomic<int> other_failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 24; ++i) {
        const NodeId target = (i % 2 == 0) ? n1.id : n2.id;
        Writer w;
        w.put(next_token.fetch_add(1));
        auto result = n0.rpc.call(target, "work", std::move(w).take());
        if (result.is_ok()) {
          ok++;
        } else if (result.status().code() == StatusCode::kTimeout) {
          timeouts++;
        } else {
          other_failures++;
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  // Every outcome is definite: success or timeout, nothing else.
  EXPECT_EQ(other_failures.load(), 0);
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(n0.rpc.stats().retries_sent, 0u);

  // Zero duplicate method executions despite duplication + retransmission.
  EXPECT_EQ(logs[0].duplicate_executions, 0);
  EXPECT_EQ(logs[1].duplicate_executions, 0);

  // The crash/restart must have fired, and the detector must have seen it.
  // The schedule runs on wall-clock time, so a fast client phase can finish
  // before 300ms; wait on the monotonic restart counter (the transient
  // crashed state itself can be missed entirely) while heartbeats keep
  // traffic flowing through the partition and outage windows.
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  while (cluster.network().stats().restarts == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  while (cluster.network().is_crashed(n2.id) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_FALSE(cluster.network().is_crashed(n2.id));
  if (!kSanitized) {
    auto transitions_settled = [&] {
      std::lock_guard<std::mutex> lock(transitions_mu);
      return downs[n2.id] >= 1 && ups[n2.id] >= downs[n2.id];
    };
    while (!transitions_settled() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(5ms);
    }
    std::lock_guard<std::mutex> lock(transitions_mu);
    EXPECT_EQ(downs[n2.id], 1);  // exactly once per crash
    EXPECT_EQ(ups[n2.id], 1);    // exactly once per restart
    EXPECT_EQ(downs[n1.id], 0);  // the 150ms partition is no crash
  }

  // Seeded faults actually happened.
  const auto stats = cluster.network().stats();
  EXPECT_GT(stats.dropped_by_fault, 0u);
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(stats.dropped_by_partition, 0u);
  EXPECT_GT(stats.dropped_crashed, 0u);
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.restarts, 1u);

  // In-flight quiescence at teardown.
  cluster.network().quiesce();
  EXPECT_EQ(cluster.network().in_flight(), 0);
}

// --- 2. determinism ----------------------------------------------------------
//
// The injector's guarantee: fault fates are a pure function of (seed, stream,
// per-stream sequence).  The same seed over the same traffic sequence must
// reproduce the identical NetworkStats fault counts, run after run.

TEST(Chaos, SameSeedIdenticalFaultCounts) {
  const std::uint64_t seed = chaos_seed();
  auto run = [seed] {
    net::Network net;
    net::FaultPlan plan;
    plan.seed = seed;
    plan.link_defaults.drop_probability = 0.20;
    plan.link_defaults.duplicate_probability = 0.15;
    plan.link_defaults.reorder_probability = 0.10;
    plan.link_defaults.delay_spike_probability = 0.10;
    plan.link_defaults.delay_spike_min = 100us;
    plan.link_defaults.delay_spike_max = 2ms;
    net.load_fault_plan(plan);
    for (std::uint64_t id = 1; id <= 4; ++id) {
      EXPECT_TRUE(
          net.register_node(NodeId{id}, [](const net::Message&) {}).is_ok());
    }
    auto msg = [](std::uint64_t from, std::uint64_t to) {
      return net::Message{.from = NodeId{from},
                          .to = NodeId{to},
                          .kind = 7,
                          .call = CallId{},
                          .payload = {}};
    };
    for (int i = 0; i < 300; ++i) {
      EXPECT_TRUE(net.send(msg(1, 2)).is_ok());
      EXPECT_TRUE(net.send(msg(2, 3)).is_ok());
      if (i % 10 == 0) EXPECT_TRUE(net.broadcast(msg(4, 0)).is_ok());
    }
    net.quiesce();
    const auto stats = net.stats();
    return std::make_tuple(stats.dropped_by_fault, stats.duplicated,
                           stats.reordered, stats.delay_spikes,
                           stats.delivered);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_GT(std::get<0>(first), 0u);
  EXPECT_GT(std::get<1>(first), 0u);
  EXPECT_GT(std::get<2>(first), 0u);
  EXPECT_GT(std::get<3>(first), 0u);
}

// --- 2b. cached delivery under seeded faults ---------------------------------
//
// The thread-location cache rides the same raise path the chaos lane beats
// on: hinted deliveries must survive seeded drops/duplicates (RPC retries
// disprove stale hints, the fallback locator recovers), and the fault
// determinism guarantee must hold with the cache in play.

TEST(Chaos, CachedDeliverySurvivesSeededFaults) {
  const std::uint64_t seed = chaos_seed();
  ClusterConfig config;
  config.node.rpc.default_timeout = 2s;
  config.node.rpc.max_retries = 4;
  config.node.rpc.retry_base_delay = 10ms;
  config.node.kernel.locate_timeout = 1s;
  Cluster cluster(3, config);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  auto& n2 = cluster.node(2);

  std::atomic<bool> release{false};
  auto parked = [&release](runtime::NodeRuntime& node) {
    return [&release, &node] {
      while (!release.load()) {
        if (!node.kernel.sleep_for(1ms).is_ok()) return;
      }
    };
  };
  const ThreadId on_n1 = n1.kernel.spawn(parked(n1));
  const ThreadId on_n2 = n2.kernel.spawn(parked(n2));

  // Warm n0's cache before the faults arm.
  ASSERT_EQ(n0.kernel.locate(on_n1).value(), n1.id);
  ASSERT_EQ(n0.kernel.locate(on_n2).value(), n2.id);
  EXPECT_GE(n0.kernel.location_cache().stats().inserts, 2u);

  net::FaultPlan plan;
  plan.seed = seed;
  plan.link_defaults.drop_probability = 0.15;
  plan.link_defaults.duplicate_probability = 0.10;
  plan.link_defaults.delay_spike_probability = 0.10;
  plan.link_defaults.delay_spike_min = 100us;
  plan.link_defaults.delay_spike_max = 1ms;
  cluster.network().load_fault_plan(plan);

  // Terminate both parked threads through the lossy fabric.  Each raise may
  // ride the hint or re-locate after a refused retry; either way it must
  // land within the deadline.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  for (const auto& [tid, home] :
       {std::pair{on_n1, &n1}, std::pair{on_n2, &n2}}) {
    Status status{StatusCode::kInternal, "unsent"};
    while (std::chrono::steady_clock::now() < deadline) {
      status = n0.events.raise(events::sys::kTerminate, tid);
      if (status.is_ok() && home->kernel.join_thread(tid, 2s).is_ok()) break;
    }
    EXPECT_TRUE(status.is_ok()) << status.to_string();
  }
  release = true;

  // The two raises alone are too little traffic to guarantee a seeded drop
  // under every seed; pump enough datagrams that the armed plan must bite.
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(cluster.network()
                    .send(net::Message{.from = n0.id,
                                       .to = n1.id,
                                       .kind = 0x7E57,
                                       .call = CallId{},
                                       .payload = {}})
                    .is_ok());
  }
  EXPECT_GT(cluster.network().stats().dropped_by_fault, 0u);
  cluster.network().quiesce();
  EXPECT_EQ(cluster.network().in_flight(), 0);
}

// --- 3. orphaned-lock cleanup on holder crash --------------------------------
//
// The holder's TERMINATE chain lives on the crashed node and can never run;
// the lock server's NODE_DOWN handler must free the lock instead.

TEST(Chaos, LockCleanupOnHolderCrash) {
  ClusterConfig config;
  config.node.rpc.default_timeout = 2s;
  config.node.health.enabled = true;
  config.node.health.heartbeat_interval = 20ms;
  config.node.health.suspect_after = 300ms;
  Cluster cluster(2, config);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);

  const ObjectId server = n0.objects.add_object(services::LockServer::make());
  n0.health()->subscribe(server);
  services::LockClient client0(n0.events, n0.objects, server);
  services::LockClient client1(n1.events, n1.objects, server);

  std::atomic<bool> acquired{false};
  const ThreadId holder = n1.kernel.spawn([&] {
    ASSERT_TRUE(client1.acquire("chaos_lock", 5s).is_ok());
    acquired = true;
    while (n1.kernel.sleep_for(1ms).is_ok()) {
    }
  });
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  while (!acquired.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(acquired.load());

  ASSERT_TRUE(cluster.network().crash_node(n1.id).is_ok());

  // NODE_DOWN at the subscribed lock server must free the orphaned lock.
  auto lock_free = [&] {
    auto result = client0.holder("chaos_lock");
    return result.is_ok() && !result.value().valid();
  };
  while (!lock_free() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(lock_free());
  if (!kSanitized) {
    EXPECT_EQ(n0.health()->stats().node_down_raised, 1u);
  }

  // Restart and terminate the stranded holder cleanly: its chained unlock
  // handler finds the lock already freed and must stay a no-op.
  ASSERT_TRUE(cluster.network().restart_node(n1.id).is_ok());
  ASSERT_TRUE(n1.events.raise(events::sys::kTerminate, holder).is_ok());
  ASSERT_TRUE(n1.kernel.join_thread(holder, 15s).is_ok());
  EXPECT_TRUE(lock_free());
  cluster.network().quiesce();
  EXPECT_EQ(cluster.network().in_flight(), 0);
}

// --- 4. TERMINATE-chain unlock across a partition ----------------------------
//
// §4.2's chained unlock fires while the link to the lock server is cut; the
// retry layer must carry the unlock across the heal so the chain completes
// instead of leaking the lock.

TEST(Chaos, TerminateChainUnlockBridgesPartition) {
  const std::uint64_t seed = chaos_seed();
  ClusterConfig config;
  config.node.rpc.default_timeout = 5s;
  config.node.rpc.max_retries = 40;
  config.node.rpc.retry_base_delay = 10ms;
  config.node.rpc.retry_max_delay = 50ms;
  config.node.rpc.retry_seed = seed;
  Cluster cluster(2, config);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);

  const ObjectId server = n0.objects.add_object(services::LockServer::make());
  services::LockClient client0(n0.events, n0.objects, server);
  services::LockClient client1(n1.events, n1.objects, server);

  std::atomic<bool> acquired{false};
  const ThreadId holder = n1.kernel.spawn([&] {
    ASSERT_TRUE(client1.acquire("chaos_lock", 5s).is_ok());
    acquired = true;
    while (n1.kernel.sleep_for(1ms).is_ok()) {
    }
  });
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  while (!acquired.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(acquired.load());

  // Cut the link now (plus seeded background loss), healing after 250ms;
  // then TERMINATE the holder while the server is unreachable.
  net::FaultPlan plan;
  plan.seed = seed;
  plan.link_defaults.drop_probability = 0.05;
  plan.partitions.push_back(net::PartitionEvent{
      .a = n0.id, .b = n1.id, .at = Duration{0}, .heal_at = 250ms});
  cluster.network().load_fault_plan(plan);

  ASSERT_TRUE(n1.events.raise(events::sys::kTerminate, holder).is_ok());
  ASSERT_TRUE(n1.kernel.join_thread(holder, 15s).is_ok());

  auto lock_free = [&] {
    auto result = client0.holder("chaos_lock");
    return result.is_ok() && !result.value().valid();
  };
  while (!lock_free() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(lock_free());
  EXPECT_GT(cluster.network().stats().dropped_by_partition, 0u);
  cluster.network().quiesce();
  EXPECT_EQ(cluster.network().in_flight(), 0);
}

// --- 5. multicast locator vs. a crashed member -------------------------------
//
// §7.1's sophisticated locator multicasts to the nodes a thread has visited.
// A crashed member must neither break locating a live thread (the live host
// still answers) nor turn locating a thread stranded on the dead node into
// anything but a definite, bounded failure.

TEST(Chaos, MulticastLocatorSurvivesMemberCrash) {
  ClusterConfig config;
  config.node.kernel.locate_timeout = 400ms;
  config.node.rpc.default_timeout = 2s;
  Cluster cluster(3, config);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  auto& n2 = cluster.node(2);

  std::atomic<bool> release{false};
  auto parked = [&release](runtime::NodeRuntime& node) {
    return [&release, &node] {
      while (!release.load()) {
        if (!node.kernel.sleep_for(1ms).is_ok()) return;
      }
    };
  };
  const ThreadId on_n1 = n1.kernel.spawn(parked(n1));
  const ThreadId on_n2 = n2.kernel.spawn(parked(n2));

  // Both threads locatable before any fault.
  ASSERT_EQ(n0.kernel.locate(on_n1, kernel::LocatorKind::kMulticast).value(),
            n1.id);
  ASSERT_EQ(n0.kernel.locate(on_n2, kernel::LocatorKind::kMulticast).value(),
            n2.id);

  // Make n2 a (stale) member of on_n1's locate group, as if the thread had
  // once visited n2.  The group id mirrors Kernel::thread_multicast_group's
  // reserved-range scheme.
  const GroupId n1_thread_group{0x8000000000000000ULL ^ on_n1.value()};
  ASSERT_TRUE(cluster.network().join(n1_thread_group, n2.id).is_ok());

  ASSERT_TRUE(cluster.network().crash_node(n2.id).is_ok());

  // Live thread: the dead member's probe leg is silently lost, the live
  // host's reply still lands.
  auto located = n0.kernel.locate(on_n1, kernel::LocatorKind::kMulticast);
  ASSERT_TRUE(located.is_ok()) << located.status().to_string();
  EXPECT_EQ(located.value(), n1.id);

  // Stranded thread: a definite, bounded miss — not a hang, not a crash.
  const auto start = std::chrono::steady_clock::now();
  auto stranded = n0.kernel.locate(on_n2, kernel::LocatorKind::kMulticast);
  EXPECT_FALSE(stranded.is_ok());
  EXPECT_EQ(stranded.status().code(), StatusCode::kNoSuchThread);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);

  // After restart the stranded thread (which never stopped running on its
  // kernel) is locatable again: group membership survived the crash.
  ASSERT_TRUE(cluster.network().restart_node(n2.id).is_ok());
  auto recovered = n0.kernel.locate(on_n2, kernel::LocatorKind::kMulticast);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  EXPECT_EQ(recovered.value(), n2.id);

  release = true;
  ASSERT_TRUE(n1.kernel.join_thread(on_n1, 15s).is_ok());
  ASSERT_TRUE(n2.kernel.join_thread(on_n2, 15s).is_ok());
  cluster.network().quiesce();
  EXPECT_EQ(cluster.network().in_flight(), 0);
}

}  // namespace
}  // namespace doct
