// Hot-path spine suite: the sharded network core, the zero-copy payload
// fan-out, batched queue drains, the kernel's thread-location cache, and the
// per-node thread budget.
//
// These tests pin the semantic edges of the perf work:
//   * zero-latency traffic must bypass the wire thread entirely
//     (wire_queued stays 0) yet still respect partitions and fault plans;
//   * broadcast legs and injected duplicates must carry the SAME payload
//     buffer, not copies;
//   * a stale location hint must cost one failed delivery, never a wrong
//     answer or a hang — migration re-locates transparently, a crashed
//     hinted host degrades to the configured locator within RPC timeouts;
//   * a node runs its executor's workers, one delivery thread and ONE timer
//     wheel — no per-layer timing threads;
//   * a remote resume frees the handler's worker at once, and a lost one is
//     retransmitted.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/mpsc_queue.hpp"
#include "kernel/location_cache.hpp"
#include "net/network.hpp"
#include "runtime/runtime.hpp"

namespace doct {
namespace {

using namespace std::chrono_literals;
using net::Message;
using net::Network;
using net::NetworkConfig;
using runtime::Cluster;
using runtime::ClusterConfig;

// --- Mailbox::pop_all ----------------------------------------------------------

TEST(SpineQueue, PopAllDrainsEverythingInOrder) {
  common::Mailbox<int> q;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.push(i));
  const auto batch = q.pop_all();
  ASSERT_EQ(batch.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(batch[static_cast<size_t>(i)], i);
}

TEST(SpineQueue, PopAllReturnsResidueThenEmptyAfterClose) {
  common::Mailbox<int> q;
  ASSERT_TRUE(q.push(7));
  ASSERT_TRUE(q.push(8));
  q.close();
  const auto residue = q.pop_all();
  ASSERT_EQ(residue.size(), 2u);
  EXPECT_EQ(residue.front(), 7);
  // Closed and drained: the empty batch is the shutdown signal.
  EXPECT_TRUE(q.pop_all().empty());
}

TEST(SpineQueue, PopAllWakesOnPush) {
  common::Mailbox<int> q;
  std::atomic<int> got{0};
  std::thread consumer([&] {
    const auto batch = q.pop_all();
    got = static_cast<int>(batch.size());
  });
  std::this_thread::sleep_for(10ms);
  ASSERT_TRUE(q.push(1));
  consumer.join();
  EXPECT_GE(got.load(), 1);
  q.close();
}

// --- zero-latency direct push --------------------------------------------------

TEST(SpineNetwork, ZeroLatencyTrafficNeverTouchesWireQueue) {
  Network net;  // default config: base_latency == 0
  std::atomic<int> received{0};
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(
      net.register_node(NodeId{2}, [&](const Message&) { received++; })
          .is_ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(net.send(Message{.from = NodeId{1},
                                 .to = NodeId{2},
                                 .kind = 0x1,
                                 .call = CallId{},
                                 .payload = {1, 2, 3}})
                    .is_ok());
  }
  net.quiesce();
  EXPECT_EQ(received.load(), 50);
  const auto stats = net.stats();
  EXPECT_EQ(stats.delivered, 50u);
  EXPECT_EQ(stats.wire_queued, 0u);
}

TEST(SpineNetwork, LatentTrafficGoesThroughWireQueue) {
  NetworkConfig config;
  config.base_latency = 1ms;
  Network net(config);
  std::atomic<int> received{0};
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(
      net.register_node(NodeId{2}, [&](const Message&) { received++; })
          .is_ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(net.send(Message{.from = NodeId{1},
                                 .to = NodeId{2},
                                 .kind = 0x1,
                                 .call = CallId{},
                                 .payload = {}})
                    .is_ok());
  }
  net.quiesce();
  EXPECT_EQ(received.load(), 5);
  EXPECT_EQ(net.stats().wire_queued, 5u);
}

TEST(SpineNetwork, DirectPushStillRespectsPartitions) {
  Network net;  // zero latency: sends take the direct-push path
  std::atomic<int> received{0};
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(
      net.register_node(NodeId{2}, [&](const Message&) { received++; })
          .is_ok());
  net.partition(NodeId{1}, NodeId{2});
  ASSERT_TRUE(net.send(Message{.from = NodeId{1},
                               .to = NodeId{2},
                               .kind = 0x1,
                               .call = CallId{},
                               .payload = {}})
                  .is_ok());
  net.quiesce();
  EXPECT_EQ(received.load(), 0);
  EXPECT_EQ(net.stats().dropped_by_partition, 1u);
  EXPECT_EQ(net.stats().wire_queued, 0u);
}

// --- zero-copy payload fan-out -------------------------------------------------

TEST(SpineNetwork, BroadcastLegsShareOnePayloadBuffer) {
  Network net;
  std::mutex mu;
  std::vector<const std::uint8_t*> seen;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(net.register_node(NodeId{i},
                                  [&](const Message& m) {
                                    std::lock_guard<std::mutex> lock(mu);
                                    seen.push_back(m.payload.data());
                                  })
                    .is_ok());
  }
  net::SharedPayload body(std::vector<std::uint8_t>(1024, 0xCD));
  const std::uint8_t* source = body.data();
  ASSERT_TRUE(net.broadcast(Message{.from = NodeId{1},
                                    .to = NodeId{},
                                    .kind = 0x2,
                                    .call = CallId{},
                                    .payload = body})
                  .is_ok());
  net.quiesce();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(seen.size(), 3u);  // every node but the sender
  for (const std::uint8_t* p : seen) EXPECT_EQ(p, source);
}

TEST(SpineNetwork, InjectedDuplicateSharesThePayloadBuffer) {
  Network net;
  net::FaultPlan plan;
  plan.seed = 11;
  plan.link_defaults.duplicate_probability = 1.0;
  net.load_fault_plan(plan);
  std::mutex mu;
  std::vector<const std::uint8_t*> seen;
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(net.register_node(NodeId{2},
                                [&](const Message& m) {
                                  std::lock_guard<std::mutex> lock(mu);
                                  seen.push_back(m.payload.data());
                                })
                  .is_ok());
  ASSERT_TRUE(net.send(Message{.from = NodeId{1},
                               .to = NodeId{2},
                               .kind = 0x3,
                               .call = CallId{},
                               .payload = std::vector<std::uint8_t>(64, 0xEE)})
                  .is_ok());
  net.quiesce();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(seen.size(), 2u);  // original + duplicate
  EXPECT_EQ(seen[0], seen[1]);
}

// --- LocationCache unit behaviour ----------------------------------------------

TEST(SpineLocationCache, MissThenNoteThenHit) {
  kernel::LocationCache cache;
  EXPECT_FALSE(cache.lookup(ThreadId{42}).has_value());
  cache.note(ThreadId{42}, NodeId{3});
  auto hit = cache.lookup(ThreadId{42});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, NodeId{3});
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.inserts, 1u);
}

TEST(SpineLocationCache, NoteStaleDropsAndCounts) {
  kernel::LocationCache cache;
  cache.note(ThreadId{1}, NodeId{2});
  cache.note_stale(ThreadId{1});
  EXPECT_FALSE(cache.lookup(ThreadId{1}).has_value());
  EXPECT_EQ(cache.stats().stale, 1u);
  // note_stale on an absent entry is a no-op, not a count.
  cache.note_stale(ThreadId{1});
  EXPECT_EQ(cache.stats().stale, 1u);
}

TEST(SpineLocationCache, InvalidateNodeDropsEveryHintAtThatNode) {
  kernel::LocationCache cache;
  for (std::uint64_t t = 1; t <= 20; ++t) {
    cache.note(ThreadId{t}, NodeId{1 + (t % 2)});
  }
  cache.invalidate_node(NodeId{2});
  for (std::uint64_t t = 1; t <= 20; ++t) {
    const auto hit = cache.lookup(ThreadId{t});
    if (t % 2 == 1) {
      // Odd tids pointed at NodeId{2}: gone.
      EXPECT_FALSE(hit.has_value()) << t;
    } else {
      ASSERT_TRUE(hit.has_value()) << t;
      EXPECT_EQ(*hit, NodeId{1});
    }
  }
  EXPECT_EQ(cache.stats().invalidations, 10u);
}

TEST(SpineLocationCache, CapacityEvictsInsteadOfGrowing) {
  kernel::LocationCache cache(
      kernel::LocationCacheConfig{.enabled = true, .capacity = 16});
  for (std::uint64_t t = 1; t <= 200; ++t) {
    cache.note(ThreadId{t}, NodeId{1});
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.inserts, 200u);
  EXPECT_GE(stats.evictions, 200u - 16u);
}

TEST(SpineLocationCache, DisabledCacheIsInert) {
  kernel::LocationCache cache(
      kernel::LocationCacheConfig{.enabled = false, .capacity = 16});
  cache.note(ThreadId{1}, NodeId{2});
  EXPECT_FALSE(cache.lookup(ThreadId{1}).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts, 0u);
}

// --- kernel integration: hints, staleness, migration, crashes -------------------

TEST(SpineKernel, CachedDeliverySkipsTheLocate) {
  Cluster cluster(2);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);

  std::atomic<bool> release{false};
  const ThreadId parked = n1.kernel.spawn([&] {
    while (!release.load()) {
      if (!n1.kernel.sleep_for(1ms).is_ok()) return;
    }
  });

  // Populate n0's cache with an authoritative locate...
  ASSERT_EQ(n0.kernel.locate(parked).value(), n1.id);
  ASSERT_GE(n0.kernel.location_cache().stats().inserts, 1u);

  // ...then the raise rides the hint: no locate, one delivery RPC.
  ASSERT_TRUE(n0.events.raise(events::sys::kTerminate, parked).is_ok());
  EXPECT_EQ(n0.kernel.stats().cached_deliveries, 1u);
  EXPECT_GE(n0.kernel.location_cache().stats().hits, 1u);

  ASSERT_TRUE(n1.kernel.join_thread(parked, 15s).is_ok());
}

TEST(SpineKernel, StaleHintAfterMigrationRelocatesTransparently) {
  Cluster cluster(3);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  auto& n2 = cluster.node(2);

  std::atomic<bool> parked_remote{false};
  std::atomic<bool> release_remote{false};
  std::atomic<bool> home_again{false};
  std::atomic<bool> release_home{false};

  // An object on n1 whose entry parks the visiting thread there.
  auto station = std::make_shared<objects::PassiveObject>("station");
  station->define_entry(
      "park", [&](objects::CallCtx& ctx) -> Result<objects::Payload> {
        parked_remote = true;
        while (!release_remote.load()) {
          if (!ctx.manager.kernel().sleep_for(1ms).is_ok()) break;
        }
        return objects::Payload{};
      });
  const ObjectId station_id = n1.objects.add_object(station);

  const ThreadId traveller = n0.kernel.spawn([&] {
    (void)n0.objects.invoke(station_id, "park", {});
    home_again = true;
    while (!release_home.load()) {
      if (!n0.kernel.sleep_for(1ms).is_ok()) return;
    }
  });
  while (!parked_remote.load()) std::this_thread::sleep_for(1ms);

  // n2 learns (correctly, for now) that the traveller is at n1.
  ASSERT_EQ(n2.kernel.locate(traveller).value(), n1.id);

  // The traveller goes home; n2's hint is now stale.
  release_remote = true;
  while (!home_again.load()) std::this_thread::sleep_for(1ms);

  // The raise from n2 must succeed anyway: the hinted delivery fails with
  // kNoSuchThread, the hint is dropped, and the fresh locate finds n0.
  release_home = true;  // raise is async; let the thread also exit naturally
  ASSERT_TRUE(n2.events.raise(events::sys::kTerminate, traveller).is_ok());
  EXPECT_GE(n2.kernel.location_cache().stats().stale, 1u);

  ASSERT_TRUE(n0.kernel.join_thread(traveller, 15s).is_ok());
  cluster.network().quiesce();
}

TEST(SpineKernel, CrashedHintedHostDegradesToBoundedFailure) {
  ClusterConfig config;
  config.node.rpc.default_timeout = 500ms;
  config.node.kernel.locate_timeout = 300ms;
  Cluster cluster(3, config);
  auto& n0 = cluster.node(0);
  auto& n2 = cluster.node(2);

  std::atomic<bool> release{false};
  const ThreadId stranded = n2.kernel.spawn([&] {
    while (!release.load()) {
      if (!n2.kernel.sleep_for(1ms).is_ok()) return;
    }
  });

  ASSERT_EQ(n0.kernel.locate(stranded).value(), n2.id);

  // The failure-detector hook clears every hint pointing at the dead peer.
  n0.kernel.note_peer_down(n2.id);
  EXPECT_GE(n0.kernel.location_cache().stats().invalidations, 1u);

  // Re-learn the hint, then crash the hinted host for real.
  ASSERT_EQ(n0.kernel.locate(stranded).value(), n2.id);
  ASSERT_TRUE(cluster.network().crash_node(n2.id).is_ok());

  // A cached entry for a crashed node must not wedge delivery: the hinted
  // RPC times out, the hint is dropped, the fallback locate fails — all
  // within the configured timeouts.
  const auto start = std::chrono::steady_clock::now();
  const Status failed = n0.events.raise(events::sys::kTerminate, stranded);
  EXPECT_FALSE(failed.is_ok());
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);

  // After restart the thread (which never stopped running on its kernel) is
  // reachable again through a fresh locate.
  ASSERT_TRUE(cluster.network().restart_node(n2.id).is_ok());
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  Status status = Status::ok();
  do {
    status = n0.events.raise(events::sys::kTerminate, stranded);
    if (status.is_ok()) break;
    std::this_thread::sleep_for(10ms);
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_TRUE(status.is_ok()) << status.to_string();

  ASSERT_TRUE(n2.kernel.join_thread(stranded, 15s).is_ok());
  cluster.network().quiesce();
  EXPECT_EQ(cluster.network().in_flight(), 0);
}

TEST(SpineKernel, CacheAblationViaConfig) {
  ClusterConfig config;
  config.node.kernel.location_cache.enabled = false;
  Cluster cluster(2, config);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);

  std::atomic<bool> release{false};
  const ThreadId parked = n1.kernel.spawn([&] {
    while (!release.load()) {
      if (!n1.kernel.sleep_for(1ms).is_ok()) return;
    }
  });
  ASSERT_EQ(n0.kernel.locate(parked).value(), n1.id);
  ASSERT_TRUE(n0.events.raise(events::sys::kTerminate, parked).is_ok());
  // With the cache off nothing is counted and nothing rides hints.
  const auto stats = n0.kernel.location_cache().stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts, 0u);
  EXPECT_EQ(n0.kernel.stats().cached_deliveries, 0u);
  ASSERT_TRUE(n1.kernel.join_thread(parked, 15s).is_ok());
}

// --- remote resume -------------------------------------------------------------

// A passive object on `node` whose handler for `event` runs `body` and
// resumes the raiser.
ObjectId add_resuming_object(runtime::NodeRuntime& node,
                             const std::string& event,
                             std::function<void()> body) {
  auto obj = std::make_shared<objects::PassiveObject>("resume_target");
  obj->define_entry(
      "on_event",
      [body = std::move(body)](objects::CallCtx&)
          -> Result<objects::Payload> {
        body();
        return objects::Payload{
            static_cast<std::uint8_t>(kernel::Verdict::kResume)};
      },
      objects::Visibility::kPrivate);
  obj->define_handler(event, "on_event");
  return node.objects.add_object(obj);
}

// The handler node sends kernel.resume without waiting for its ack, so its
// event-lane worker (the §7 master handler thread) is free as soon as the
// handler returns, not a wire round trip later.
TEST(SpineResume, RemoteResumeDoesNotParkTheHandler) {
  constexpr auto kLatency = 20ms;  // one way; the ack would cost 2x
  ClusterConfig config;
  config.network.base_latency = kLatency;
  Cluster cluster(2, config);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  using Clock = std::chrono::steady_clock;
  std::atomic<int> runs{0};
  std::atomic<Clock::rep> returned_at{0};
  const ObjectId oid = add_resuming_object(n1, "SLOW_WIRE", [&] {
    runs++;
    returned_at = Clock::now().time_since_epoch().count();
  });
  const EventId ev = cluster.registry().register_event("SLOW_WIRE");

  constexpr auto kEvent = static_cast<std::size_t>(exec::Lane::kEvent);
  const std::uint64_t executed_before =
      n1.executor.stats().lanes[kEvent].executed;
  std::atomic<Clock::rep> freed_at{0};
  std::thread watcher([&] {
    const auto give_up = Clock::now() + 30s;
    while (n1.executor.stats().lanes[kEvent].executed == executed_before &&
           Clock::now() < give_up) {
      std::this_thread::sleep_for(50us);
    }
    freed_at = Clock::now().time_since_epoch().count();
  });
  auto verdict = n0.events.raise_and_wait(ev, oid);
  watcher.join();

  ASSERT_TRUE(verdict.is_ok()) << verdict.status().to_string();
  EXPECT_EQ(verdict.value(), kernel::Verdict::kResume);
  EXPECT_EQ(runs.load(), 1);
  const Clock::duration busy_after_handler{freed_at.load() -
                                           returned_at.load()};
  EXPECT_LT(busy_after_handler, kLatency)
      << "worker stayed busy "
      << std::chrono::duration_cast<std::chrono::microseconds>(
             busy_after_handler)
             .count()
      << "us after the handler returned";
}

// A lost resume is retransmitted by the dropped ticket's pending record: the
// raiser is still resumed well inside sync_timeout, and the handler ran once.
TEST(SpineResume, DroppedResumeIsRetransmitted) {
  ClusterConfig config;
  config.node.rpc.max_retries = 10;
  config.node.rpc.retry_base_delay = 10ms;
  config.node.rpc.retry_max_delay = 50ms;
  config.node.events.sync_timeout = 10s;
  Cluster cluster(2, config);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  std::atomic<bool> entered{false};
  std::atomic<bool> go{false};
  std::atomic<int> runs{0};
  const ObjectId oid = add_resuming_object(n1, "LOST_RESUME", [&] {
    runs++;
    entered = true;
    while (!go.load()) std::this_thread::sleep_for(1ms);
  });
  const EventId ev = cluster.registry().register_event("LOST_RESUME");

  Result<kernel::Verdict> verdict{Status{StatusCode::kInternal, "not run"}};
  std::thread raiser([&] { verdict = n0.events.raise_and_wait(ev, oid); });
  while (!entered.load()) std::this_thread::sleep_for(1ms);
  // Everything on the wire is lost from here on: the resume the handler
  // sends when it returns is the message this test is about.
  net::FaultPlan drop_all;
  drop_all.link_defaults.drop_probability = 1.0;
  cluster.network().load_fault_plan(drop_all);
  go = true;
  for (int i = 0; i < 5000 && cluster.network().stats().dropped_by_fault == 0;
       ++i) {
    std::this_thread::sleep_for(1ms);
  }
  cluster.network().load_fault_plan(net::FaultPlan{});
  raiser.join();

  ASSERT_TRUE(verdict.is_ok()) << verdict.status().to_string();
  EXPECT_EQ(verdict.value(), kernel::Verdict::kResume);
  EXPECT_EQ(runs.load(), 1);
  EXPECT_GE(cluster.network().stats().dropped_by_fault, 1u);
  // Node 1 sends no other request: its retransmission is the resume's.
  EXPECT_GE(n1.rpc.stats().retries_sent, 1u);
}

// --- per-node thread budget ----------------------------------------------------

// OS threads in this process ("Threads:" in /proc/self/status).
int os_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(SpineThreads, EachNodeRunsOneTimerWheel) {
  // The kernel's TIMER records, RPC retry/deadline timers and the heartbeat
  // all ride the executor's one wheel, so a node with health on costs its
  // workers + one network delivery thread + one wheel tick thread.  The
  // per-node figure is how much more a 3-node cluster adds than a 2-node
  // one: per-cluster threads (the network wire thread) cancel out, and the
  // 1-node cluster up front absorbs one-time process threads (a sanitizer
  // runtime starts its background thread with the first thread created).
  ClusterConfig config;
  config.node.health.enabled = true;
  Cluster one(1, config);
  const int with_one = os_threads();
  ASSERT_GT(with_one, 0);
  Cluster two(2, config);
  const int with_two = os_threads();
  Cluster three(3, config);
  const int with_three = os_threads();
  const int per_node = (with_three - with_two) - (with_two - with_one);
  EXPECT_EQ(per_node,
            static_cast<int>(one.node(0).executor.workers()) + 2);
}

}  // namespace
}  // namespace doct
