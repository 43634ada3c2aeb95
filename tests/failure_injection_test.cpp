// Failure-injection tests: message loss, partitions, and short timeouts
// exercised through every layer (rpc, dsm, kernel locators, events).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "runtime/runtime.hpp"

namespace doct {
namespace {

using namespace std::chrono_literals;
using runtime::Cluster;
using runtime::ClusterConfig;

ClusterConfig fast_timeout_config() {
  ClusterConfig config;
  config.node.rpc.default_timeout = 300ms;
  config.node.kernel.locate_timeout = 300ms;
  config.node.events.sync_timeout = 1s;
  return config;
}

// Every wire message (each fan-out leg too) lost with probability `p`.
net::FaultPlan lossy_plan(double p) {
  net::FaultPlan plan;
  plan.seed = 1234;
  plan.link_defaults.drop_probability = p;
  return plan;
}

TEST(FailureInjection, RpcTimesOutUnderTotalLoss) {
  Cluster cluster(2, fast_timeout_config());
  cluster.network().load_fault_plan(lossy_plan(1.0));
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);

  auto obj = std::make_shared<objects::PassiveObject>("unreachable");
  obj->define_entry("noop", [](objects::CallCtx&) -> Result<objects::Payload> {
    return objects::Payload{};
  });
  const ObjectId oid = n1.objects.add_object(obj);

  std::atomic<bool> timed_out{false};
  const ThreadId tid = n0.kernel.spawn([&] {
    const auto start = std::chrono::steady_clock::now();
    auto result = n0.objects.invoke(oid, "noop", {});
    timed_out = !result.is_ok() &&
                result.status().code() == StatusCode::kTimeout &&
                std::chrono::steady_clock::now() - start < 5s;
  });
  ASSERT_TRUE(n0.kernel.join_thread(tid, 15s).is_ok());
  EXPECT_TRUE(timed_out.load());
}

TEST(FailureInjection, DsmReadFailsAcrossPartition) {
  ClusterConfig config = fast_timeout_config();
  Cluster cluster(2, config);
  auto& home = cluster.node(0);
  auto& remote = cluster.node(1);
  const SegmentId seg{600};
  ASSERT_TRUE(home.dsm.create_segment(seg, 1).is_ok());
  ASSERT_TRUE(remote.dsm.attach_segment(seg, home.id, 1).is_ok());

  cluster.network().partition(home.id, remote.id);
  auto result = remote.dsm.read(seg, 0, 1);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);

  cluster.network().heal(home.id, remote.id);
  auto healed = remote.dsm.read(seg, 0, 1);
  EXPECT_TRUE(healed.is_ok()) << healed.status().to_string();
}

TEST(FailureInjection, LocateFailsWhenTargetNodeIsolated) {
  ClusterConfig config = fast_timeout_config();
  Cluster cluster(3, config);
  auto& n0 = cluster.node(0);
  auto& n2 = cluster.node(2);

  std::atomic<bool> release{false};
  const ThreadId target = n2.kernel.spawn([&] {
    while (!release.load()) {
      if (!n2.kernel.sleep_for(1ms).is_ok()) return;
    }
  });
  for (int i = 0; i < 500 && n2.kernel.local_threads().empty(); ++i) {
    std::this_thread::sleep_for(1ms);
  }

  cluster.network().isolate(n2.id);
  for (auto kind : {kernel::LocatorKind::kBroadcast,
                    kernel::LocatorKind::kPathFollow,
                    kernel::LocatorKind::kMulticast}) {
    auto located = n0.kernel.locate(target, kind);
    EXPECT_FALSE(located.is_ok()) << "locator " << static_cast<int>(kind);
  }
  cluster.network().reconnect(n2.id);
  auto located = n0.kernel.locate(target, kernel::LocatorKind::kBroadcast);
  EXPECT_TRUE(located.is_ok()) << located.status().to_string();
  EXPECT_EQ(located.value(), n2.id);

  release = true;
  ASSERT_TRUE(n2.kernel.join_thread(target, 10s).is_ok());
}

TEST(FailureInjection, OnewayInvocationLostSilently) {
  Cluster cluster(2, fast_timeout_config());
  cluster.network().load_fault_plan(lossy_plan(1.0));
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);

  std::atomic<int> executed{0};
  auto obj = std::make_shared<objects::PassiveObject>("fire_and_forget");
  obj->define_entry("run", [&](objects::CallCtx&) -> Result<objects::Payload> {
    executed++;
    return objects::Payload{};
  });
  const ObjectId oid = n1.objects.add_object(obj);

  const ThreadId tid = n0.kernel.spawn([&] {
    // Datagram semantics: the oneway is accepted even though it will drown.
    EXPECT_TRUE(n0.objects.invoke_oneway(oid, "run", {}).is_ok());
  });
  ASSERT_TRUE(n0.kernel.join_thread(tid, 10s).is_ok());
  cluster.network().quiesce();
  EXPECT_EQ(executed.load(), 0);
}

TEST(FailureInjection, EventRaiseRecoversAfterIntermittentLoss) {
  // 30% loss: individual raises may fail to locate/deliver, but retrying
  // eventually succeeds (datagram building blocks, application-level retry).
  Cluster cluster(2, fast_timeout_config());
  cluster.network().load_fault_plan(lossy_plan(0.3));
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);

  std::atomic<int> handled{0};
  cluster.procedures().register_procedure("lossy_h",
                                          [&](events::PerThreadCallCtx&) {
                                            handled++;
                                            return kernel::Verdict::kResume;
                                          });
  const EventId ev = cluster.registry().register_event("LOSSY");
  std::atomic<bool> armed{false};
  std::atomic<bool> release{false};
  const ThreadId target = n1.kernel.spawn([&] {
    ASSERT_TRUE(
        n1.events.attach_handler(ev, "lossy_h", events::OWN_CONTEXT).is_ok());
    armed = true;
    while (!release.load()) {
      if (!n1.kernel.sleep_for(1ms).is_ok()) return;
    }
  });
  while (!armed.load()) std::this_thread::sleep_for(1ms);

  // Retry the raise until one gets through (bounded).
  bool delivered = false;
  for (int attempt = 0; attempt < 25 && !delivered; ++attempt) {
    delivered = n0.events.raise(ev, target).is_ok();
  }
  EXPECT_TRUE(delivered);
  for (int i = 0; i < 2000 && handled.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(handled.load(), 1);
  release = true;
  ASSERT_TRUE(n1.kernel.join_thread(target, 10s).is_ok());
}

TEST(FailureInjection, PerByteLatencyScalesWithPayload) {
  ClusterConfig config;
  config.network.per_byte_latency = std::chrono::microseconds(20);
  Cluster cluster(2, config);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);

  auto obj = std::make_shared<objects::PassiveObject>("echo");
  obj->define_entry("echo", [](objects::CallCtx& ctx) -> Result<objects::Payload> {
    return ctx.args.get_bytes();
  });
  const ObjectId oid = n1.objects.add_object(obj);

  auto time_invoke = [&](std::size_t bytes) {
    std::atomic<long> elapsed_us{0};
    const ThreadId tid = n0.kernel.spawn([&] {
      Writer w;
      w.put(std::vector<std::uint8_t>(bytes, 1));
      const auto start = std::chrono::steady_clock::now();
      ASSERT_TRUE(n0.objects.invoke(oid, "echo", std::move(w).take()).is_ok());
      elapsed_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    });
    EXPECT_TRUE(n0.kernel.join_thread(tid, 30s).is_ok());
    return elapsed_us.load();
  };

  const long small = time_invoke(10);
  const long large = time_invoke(2000);
  // 2000 extra bytes at 20us/byte ~ 40ms+ of extra one-way latency.
  EXPECT_GT(large, small + 20000);
}

}  // namespace
}  // namespace doct
