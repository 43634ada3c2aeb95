// Unit tests for the simulated network: point-to-point delivery, broadcast,
// multicast groups, latency injection, loss injection, partitions, quiesce.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/mpsc_queue.hpp"
#include "net/demux.hpp"
#include "net/network.hpp"

namespace doct::net {
namespace {

using namespace std::chrono_literals;

Message make_message(NodeId from, NodeId to, std::uint16_t kind = 1,
                     std::vector<std::uint8_t> payload = {}) {
  return Message{.from = from, .to = to, .kind = kind, .call = CallId{},
                 .payload = std::move(payload)};
}

TEST(Network, DeliversPointToPoint) {
  Network net;
  const NodeId a{1}, b{2};
  common::Mailbox<Message> inbox;
  ASSERT_TRUE(net.register_node(a, [](const Message&) {}).is_ok());
  ASSERT_TRUE(net.register_node(b, [&](const Message& m) { inbox.push(m); }).is_ok());

  ASSERT_TRUE(net.send(make_message(a, b, 42, {9, 9})).is_ok());
  net.quiesce();

  auto m = inbox.try_pop();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->from, a);
  EXPECT_EQ(m->kind, 42);
  EXPECT_EQ(m->payload, (std::vector<std::uint8_t>{9, 9}));
}

TEST(Network, SendToUnknownNodeFails) {
  Network net;
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  const Status s = net.send(make_message(NodeId{1}, NodeId{99}));
  EXPECT_EQ(s.code(), StatusCode::kNoSuchNode);
}

TEST(Network, RegisterDuplicateFails) {
  Network net;
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  EXPECT_EQ(net.register_node(NodeId{1}, [](const Message&) {}).code(),
            StatusCode::kAlreadyExists);
}

TEST(Network, RegisterInvalidArgsFail) {
  Network net;
  EXPECT_EQ(net.register_node(NodeId{}, [](const Message&) {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(net.register_node(NodeId{5}, MessageHandler{}).code(),
            StatusCode::kInvalidArgument);
}

TEST(Network, UnregisterStopsDelivery) {
  Network net;
  std::atomic<int> received{0};
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(net.register_node(NodeId{2}, [&](const Message&) { received++; }).is_ok());
  ASSERT_TRUE(net.unregister_node(NodeId{2}).is_ok());
  EXPECT_EQ(net.send(make_message(NodeId{1}, NodeId{2})).code(),
            StatusCode::kNoSuchNode);
  net.quiesce();
  EXPECT_EQ(received.load(), 0);
  EXPECT_EQ(net.unregister_node(NodeId{2}).code(), StatusCode::kNoSuchNode);
}

TEST(Network, BroadcastReachesAllButSender) {
  Network net;
  std::atomic<int> a{0}, b{0}, c{0};
  ASSERT_TRUE(net.register_node(NodeId{1}, [&](const Message&) { a++; }).is_ok());
  ASSERT_TRUE(net.register_node(NodeId{2}, [&](const Message&) { b++; }).is_ok());
  ASSERT_TRUE(net.register_node(NodeId{3}, [&](const Message&) { c++; }).is_ok());

  ASSERT_TRUE(net.broadcast(make_message(NodeId{1}, NodeId{})).is_ok());
  net.quiesce();
  EXPECT_EQ(a.load(), 0);
  EXPECT_EQ(b.load(), 1);
  EXPECT_EQ(c.load(), 1);
  EXPECT_EQ(net.stats().fanout_messages, 2u);
  EXPECT_EQ(net.stats().broadcast_sends, 1u);
}

TEST(Network, MulticastReachesGroupMembersOnly) {
  Network net;
  std::atomic<int> a{0}, b{0}, c{0};
  ASSERT_TRUE(net.register_node(NodeId{1}, [&](const Message&) { a++; }).is_ok());
  ASSERT_TRUE(net.register_node(NodeId{2}, [&](const Message&) { b++; }).is_ok());
  ASSERT_TRUE(net.register_node(NodeId{3}, [&](const Message&) { c++; }).is_ok());

  const GroupId g{10};
  ASSERT_TRUE(net.create_multicast_group(g).is_ok());
  ASSERT_TRUE(net.join(g, NodeId{2}).is_ok());
  ASSERT_TRUE(net.join(g, NodeId{3}).is_ok());
  ASSERT_TRUE(net.leave(g, NodeId{3}).is_ok());

  ASSERT_TRUE(net.multicast(g, make_message(NodeId{1}, NodeId{})).is_ok());
  net.quiesce();
  EXPECT_EQ(a.load(), 0);
  EXPECT_EQ(b.load(), 1);
  EXPECT_EQ(c.load(), 0);
}

TEST(Network, MulticastSenderExcludedEvenIfMember) {
  Network net;
  std::atomic<int> a{0};
  ASSERT_TRUE(net.register_node(NodeId{1}, [&](const Message&) { a++; }).is_ok());
  const GroupId g{10};
  ASSERT_TRUE(net.create_multicast_group(g).is_ok());
  ASSERT_TRUE(net.join(g, NodeId{1}).is_ok());
  ASSERT_TRUE(net.multicast(g, make_message(NodeId{1}, NodeId{})).is_ok());
  net.quiesce();
  EXPECT_EQ(a.load(), 0);
}

TEST(Network, MulticastGroupErrors) {
  Network net;
  EXPECT_EQ(net.join(GroupId{5}, NodeId{1}).code(), StatusCode::kNoSuchGroup);
  EXPECT_EQ(net.multicast(GroupId{5}, make_message(NodeId{1}, NodeId{})).code(),
            StatusCode::kNoSuchGroup);
  ASSERT_TRUE(net.create_multicast_group(GroupId{5}).is_ok());
  EXPECT_EQ(net.create_multicast_group(GroupId{5}).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(net.remove_multicast_group(GroupId{5}).is_ok());
  EXPECT_EQ(net.remove_multicast_group(GroupId{5}).code(),
            StatusCode::kNoSuchGroup);
  EXPECT_TRUE(net.create_multicast_group(GroupId{5}).is_ok());
}

TEST(Network, PartitionDropsBothDirections) {
  Network net;
  std::atomic<int> a{0}, b{0};
  ASSERT_TRUE(net.register_node(NodeId{1}, [&](const Message&) { a++; }).is_ok());
  ASSERT_TRUE(net.register_node(NodeId{2}, [&](const Message&) { b++; }).is_ok());

  net.partition(NodeId{1}, NodeId{2});
  ASSERT_TRUE(net.send(make_message(NodeId{1}, NodeId{2})).is_ok());
  ASSERT_TRUE(net.send(make_message(NodeId{2}, NodeId{1})).is_ok());
  net.quiesce();
  EXPECT_EQ(a.load(), 0);
  EXPECT_EQ(b.load(), 0);
  EXPECT_EQ(net.stats().dropped, 2u);

  net.heal(NodeId{1}, NodeId{2});
  ASSERT_TRUE(net.send(make_message(NodeId{1}, NodeId{2})).is_ok());
  net.quiesce();
  EXPECT_EQ(b.load(), 1);
}

TEST(Network, IsolateAndReconnect) {
  Network net;
  std::atomic<int> b{0}, c{0};
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(net.register_node(NodeId{2}, [&](const Message&) { b++; }).is_ok());
  ASSERT_TRUE(net.register_node(NodeId{3}, [&](const Message&) { c++; }).is_ok());

  net.isolate(NodeId{1});
  ASSERT_TRUE(net.send(make_message(NodeId{1}, NodeId{2})).is_ok());
  ASSERT_TRUE(net.send(make_message(NodeId{1}, NodeId{3})).is_ok());
  net.quiesce();
  EXPECT_EQ(b.load() + c.load(), 0);

  net.reconnect(NodeId{1});
  ASSERT_TRUE(net.send(make_message(NodeId{1}, NodeId{2})).is_ok());
  net.quiesce();
  EXPECT_EQ(b.load(), 1);
}

TEST(Network, DropProbabilityOneLosesEverything) {
  Network net;
  FaultPlan plan;
  plan.link_defaults.drop_probability = 1.0;
  net.load_fault_plan(plan);
  std::atomic<int> received{0};
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(net.register_node(NodeId{2}, [&](const Message&) { received++; }).is_ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(net.send(make_message(NodeId{1}, NodeId{2})).is_ok());
  }
  net.quiesce();
  EXPECT_EQ(received.load(), 0);
  EXPECT_EQ(net.stats().dropped, 20u);
}

TEST(Network, LatencyDelaysDelivery) {
  NetworkConfig config;
  config.base_latency = 20ms;
  Network net(config);
  std::atomic<bool> got{false};
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(net.register_node(NodeId{2}, [&](const Message&) { got = true; }).is_ok());

  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(net.send(make_message(NodeId{1}, NodeId{2})).is_ok());
  net.quiesce();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(got.load());
  EXPECT_GE(elapsed, 18ms);  // allow scheduler slop below the nominal 20ms
}

TEST(Network, FifoOrderPreservedPerLink) {
  Network net;
  std::vector<int> order;
  std::mutex mu;
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(net
                  .register_node(NodeId{2},
                                 [&](const Message& m) {
                                   std::lock_guard<std::mutex> lock(mu);
                                   order.push_back(m.kind);
                                 })
                  .is_ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(net.send(make_message(NodeId{1}, NodeId{2},
                                      static_cast<std::uint16_t>(i))).is_ok());
  }
  net.quiesce();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Network, StatsCountBytes) {
  Network net;
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(net.register_node(NodeId{2}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(net.send(make_message(NodeId{1}, NodeId{2}, 1,
                                    std::vector<std::uint8_t>(128, 0))).is_ok());
  net.quiesce();
  EXPECT_EQ(net.stats().bytes, 128u);
  net.reset_stats();
  EXPECT_EQ(net.stats().bytes, 0u);
}

TEST(Network, NodesListsRegisteredSorted) {
  Network net;
  ASSERT_TRUE(net.register_node(NodeId{3}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  const auto nodes = net.nodes();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0], NodeId{1});
  EXPECT_EQ(nodes[1], NodeId{3});
}

TEST(Network, HandlerMaySendMoreMessages) {
  // A chain a->b->c triggered inside handlers: quiesce must cover cascades.
  Network net;
  std::atomic<bool> done{false};
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(net
                  .register_node(NodeId{2},
                                 [&](const Message& m) {
                                   net.send(make_message(m.to, NodeId{3}));
                                 })
                  .is_ok());
  ASSERT_TRUE(net.register_node(NodeId{3}, [&](const Message&) { done = true; }).is_ok());
  ASSERT_TRUE(net.send(make_message(NodeId{1}, NodeId{2})).is_ok());
  net.quiesce();
  EXPECT_TRUE(done.load());
}

TEST(Demux, RoutesByKind) {
  Demux demux;
  std::atomic<int> a{0}, b{0};
  demux.route(1, [&](const Message&) { a++; });
  demux.route(2, [&](const Message&) { b++; });
  demux(make_message(NodeId{1}, NodeId{2}, 1));
  demux(make_message(NodeId{1}, NodeId{2}, 2));
  demux(make_message(NodeId{1}, NodeId{2}, 3));  // unrouted: dropped
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 1);
}

TEST(Demux, WorksAsNetworkHandler) {
  Network net;
  Demux demux;
  std::atomic<int> hits{0};
  demux.route(7, [&](const Message&) { hits++; });
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(net.register_node(NodeId{2}, demux.as_handler()).is_ok());
  ASSERT_TRUE(net.send(make_message(NodeId{1}, NodeId{2}, 7)).is_ok());
  net.quiesce();
  EXPECT_EQ(hits.load(), 1);
}

class NetworkScaleTest : public ::testing::TestWithParam<int> {};

// Property: broadcast fan-out is exactly n-1 regardless of n.
TEST_P(NetworkScaleTest, BroadcastFanoutIsNMinusOne) {
  const int n = GetParam();
  Network net;
  std::atomic<int> received{0};
  for (int i = 1; i <= n; ++i) {
    ASSERT_TRUE(net
                    .register_node(NodeId{static_cast<std::uint64_t>(i)},
                                   [&](const Message&) { received++; })
                    .is_ok());
  }
  ASSERT_TRUE(net.broadcast(make_message(NodeId{1}, NodeId{})).is_ok());
  net.quiesce();
  EXPECT_EQ(received.load(), n - 1);
  EXPECT_EQ(net.stats().fanout_messages, static_cast<std::uint64_t>(n - 1));
}

INSTANTIATE_TEST_SUITE_P(Sizes, NetworkScaleTest,
                         ::testing::Values(2, 4, 8, 16, 32));

// --- deterministic fault injection ------------------------------------------------

TEST(FaultInjector, SameSeedSameDecisions) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.link_defaults.drop_probability = 0.3;
  plan.link_defaults.duplicate_probability = 0.2;
  plan.link_defaults.reorder_probability = 0.1;

  FaultInjector x, y;
  x.load(plan);
  y.load(plan);
  for (int i = 0; i < 500; ++i) {
    const auto dx = x.decide(NodeId{1}, NodeId{2}, 7, Duration{0});
    const auto dy = y.decide(NodeId{1}, NodeId{2}, 7, Duration{0});
    EXPECT_EQ(dx.drop, dy.drop);
    EXPECT_EQ(dx.duplicate, dy.duplicate);
    EXPECT_EQ(dx.reorder, dy.reorder);
  }
}

TEST(FaultInjector, StreamsAreIndependent) {
  // Interleaving traffic on another link must not change the decisions a
  // stream sees: each (link, kind) pair draws from its own counter.
  FaultPlan plan;
  plan.seed = 99;
  plan.link_defaults.drop_probability = 0.5;

  FaultInjector alone, interleaved;
  alone.load(plan);
  interleaved.load(plan);
  std::vector<bool> expected;
  for (int i = 0; i < 200; ++i) {
    expected.push_back(alone.decide(NodeId{1}, NodeId{2}, 7, Duration{0}).drop);
  }
  for (int i = 0; i < 200; ++i) {
    // Noise on other links / kinds before each decision.
    (void)interleaved.decide(NodeId{2}, NodeId{1}, 7, Duration{0});
    (void)interleaved.decide(NodeId{1}, NodeId{3}, 7, Duration{0});
    (void)interleaved.decide(NodeId{1}, NodeId{2}, 8, Duration{0});
    EXPECT_EQ(interleaved.decide(NodeId{1}, NodeId{2}, 7, Duration{0}).drop,
              expected[static_cast<std::size_t>(i)]);
  }
}

TEST(Network, FaultPlanDropsDeterministically) {
  // Two identical runs of the same sequential workload under the same plan
  // must produce identical fault counts.
  auto run = [](std::uint64_t seed) {
    Network net;
    FaultPlan plan;
    plan.seed = seed;
    plan.link_defaults.drop_probability = 0.25;
    plan.link_defaults.duplicate_probability = 0.15;
    net.load_fault_plan(plan);
    std::atomic<int> received{0};
    EXPECT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
    EXPECT_TRUE(
        net.register_node(NodeId{2}, [&](const Message&) { received++; })
            .is_ok());
    for (int i = 0; i < 400; ++i) {
      EXPECT_TRUE(net.send(make_message(NodeId{1}, NodeId{2}, 7)).is_ok());
    }
    net.quiesce();
    const auto stats = net.stats();
    EXPECT_EQ(received.load(),
              400 - static_cast<int>(stats.dropped_by_fault) +
                  static_cast<int>(stats.duplicated));
    return std::make_pair(stats.dropped_by_fault, stats.duplicated);
  };
  const auto first = run(0xC0FFEE);
  const auto second = run(0xC0FFEE);
  EXPECT_GT(first.first, 0u);
  EXPECT_GT(first.second, 0u);
  EXPECT_EQ(first, second);

  const auto other_seed = run(0xBEEF);
  EXPECT_NE(first, other_seed);  // astronomically unlikely to collide
}

TEST(Network, DuplicateFaultDeliversTwice) {
  Network net;
  FaultPlan plan;
  plan.link_defaults.duplicate_probability = 1.0;
  net.load_fault_plan(plan);
  std::atomic<int> received{0};
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(
      net.register_node(NodeId{2}, [&](const Message&) { received++; })
          .is_ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(net.send(make_message(NodeId{1}, NodeId{2})).is_ok());
  }
  net.quiesce();
  EXPECT_EQ(received.load(), 20);
  EXPECT_EQ(net.stats().duplicated, 10u);
}

TEST(Network, FaultWindowExpires) {
  // A window covering only the first instant: faults stop once it closes.
  Network net;
  FaultPlan plan;
  FaultWindow w;
  w.start = Duration{0};
  w.end = std::chrono::microseconds(1);
  w.faults.drop_probability = 1.0;
  plan.windows.push_back(w);
  net.load_fault_plan(plan);
  std::atomic<int> received{0};
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(
      net.register_node(NodeId{2}, [&](const Message&) { received++; })
          .is_ok());
  std::this_thread::sleep_for(5ms);  // let the window lapse
  ASSERT_TRUE(net.send(make_message(NodeId{1}, NodeId{2})).is_ok());
  net.quiesce();
  EXPECT_EQ(received.load(), 1);
}

TEST(Network, CrashDropsSilentlyAndRestartRecovers) {
  Network net;
  std::atomic<int> received{0};
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(
      net.register_node(NodeId{2}, [&](const Message&) { received++; })
          .is_ok());

  ASSERT_TRUE(net.crash_node(NodeId{2}).is_ok());
  EXPECT_TRUE(net.is_crashed(NodeId{2}));
  // Datagram semantics: accepted, silently lost — NOT kNoSuchNode, so retry
  // layers keep probing for the restart.
  EXPECT_TRUE(net.send(make_message(NodeId{1}, NodeId{2})).is_ok());
  net.quiesce();
  EXPECT_EQ(received.load(), 0);

  ASSERT_TRUE(net.restart_node(NodeId{2}).is_ok());
  EXPECT_FALSE(net.is_crashed(NodeId{2}));
  EXPECT_TRUE(net.send(make_message(NodeId{1}, NodeId{2})).is_ok());
  net.quiesce();
  EXPECT_EQ(received.load(), 1);

  const auto stats = net.stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_GE(stats.dropped_crashed, 1u);
}

TEST(Network, ScheduledCrashAndRestartFire) {
  Network net;
  std::atomic<int> received{0};
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(
      net.register_node(NodeId{2}, [&](const Message&) { received++; })
          .is_ok());
  FaultPlan plan;
  plan.crashes.push_back(CrashEvent{.node = NodeId{2},
                                    .at = std::chrono::milliseconds(5),
                                    .restart_at = std::chrono::milliseconds(30)});
  net.load_fault_plan(plan);

  // Poll the monotonic counters, not the transient is_crashed state: the
  // 25ms crashed window can slip past a poll loop on a loaded machine.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (net.stats().restarts == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  const auto stats = net.stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_FALSE(net.is_crashed(NodeId{2}));

  ASSERT_TRUE(net.send(make_message(NodeId{1}, NodeId{2})).is_ok());
  net.quiesce();
  EXPECT_EQ(received.load(), 1);
}

TEST(Network, ScheduledPartitionHeals) {
  Network net;
  std::atomic<int> received{0};
  ASSERT_TRUE(net.register_node(NodeId{1}, [](const Message&) {}).is_ok());
  ASSERT_TRUE(
      net.register_node(NodeId{2}, [&](const Message&) { received++; })
          .is_ok());
  FaultPlan plan;
  plan.partitions.push_back(
      PartitionEvent{.a = NodeId{1},
                     .b = NodeId{2},
                     .at = Duration{0},
                     .heal_at = std::chrono::milliseconds(20)});
  net.load_fault_plan(plan);

  // While partitioned, traffic is cut; after the scheduled heal it flows.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (received.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(net.send(make_message(NodeId{1}, NodeId{2})).is_ok());
    std::this_thread::sleep_for(2ms);
  }
  net.quiesce();
  EXPECT_GT(received.load(), 0);
  EXPECT_GT(net.stats().dropped_by_partition, 0u);
}

TEST(Network, FanoutLegsIndependentlyLossy) {
  // The injector makes each broadcast leg independently lossy.
  Network net;
  FaultPlan plan;
  plan.seed = 7;
  plan.link_defaults.drop_probability = 0.5;
  net.load_fault_plan(plan);
  std::atomic<int> received{0};
  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(
        net.register_node(NodeId{i}, [&](const Message&) { received++; })
            .is_ok());
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(net.broadcast(make_message(NodeId{1}, NodeId{})).is_ok());
  }
  net.quiesce();
  // 300 legs at p=0.5: some but not all must be dropped.
  EXPECT_GT(net.stats().dropped_by_fault, 0u);
  EXPECT_GT(received.load(), 0);
  EXPECT_LT(received.load(), 300);
}

}  // namespace
}  // namespace doct::net
