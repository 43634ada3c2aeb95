// Unit tests for the RPC layer: sync calls, claimable async calls, oneway
// (non-claimable) calls, errors, timeouts, nested calls, concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/id_gen.hpp"
#include "net/demux.hpp"
#include "net/network.hpp"
#include "rpc/rpc.hpp"

namespace doct::rpc {
namespace {

using namespace std::chrono_literals;

// Two-node fixture: client on node 1, server on node 2.
class RpcTest : public ::testing::Test {
 protected:
  RpcTest() {
    EXPECT_TRUE(net_.register_node(n1_, demux1_.as_handler()).is_ok());
    EXPECT_TRUE(net_.register_node(n2_, demux2_.as_handler()).is_ok());
    client_ = std::make_unique<RpcEndpoint>(net_, demux1_, n1_, ids_);
    server_ = std::make_unique<RpcEndpoint>(net_, demux2_, n2_, ids_);
  }

  ~RpcTest() override {
    // Same teardown order as NodeRuntime: unregistering joins the delivery
    // threads, so no demux handler can still be running inside an endpoint
    // when the endpoints are destroyed below.
    EXPECT_TRUE(net_.unregister_node(n1_).is_ok());
    EXPECT_TRUE(net_.unregister_node(n2_).is_ok());
  }

  static Payload int_payload(std::int64_t v) {
    Writer w;
    w.put(v);
    return std::move(w).take();
  }

  static std::int64_t int_value(const Payload& p) {
    Reader r(p);
    return r.get<std::int64_t>();
  }

  net::Network net_;
  net::Demux demux1_, demux2_;
  IdGenerator ids_;
  NodeId n1_{1}, n2_{2};
  std::unique_ptr<RpcEndpoint> client_, server_;
};

TEST_F(RpcTest, SyncCallRoundTrip) {
  server_->register_method("double", [](NodeId, Reader& args) -> Result<Payload> {
    return int_payload(args.get<std::int64_t>() * 2);
  });
  auto result = client_->call(n2_, "double", int_payload(21));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(int_value(result.value()), 42);
}

TEST_F(RpcTest, ServerSeesCallerNode) {
  server_->register_method("who", [&](NodeId caller, Reader&) -> Result<Payload> {
    Writer w;
    w.put(caller);
    return std::move(w).take();
  });
  auto result = client_->call(n2_, "who", {});
  ASSERT_TRUE(result.is_ok());
  Reader r(result.value());
  EXPECT_EQ(r.get_id<NodeTag>(), n1_);
}

TEST_F(RpcTest, UnknownMethodFails) {
  auto result = client_->call(n2_, "nope", {});
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RpcTest, MethodErrorPropagates) {
  server_->register_method("fail", [](NodeId, Reader&) -> Result<Payload> {
    return Status{StatusCode::kPermissionDenied, "private entry point"};
  });
  auto result = client_->call(n2_, "fail", {});
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(result.status().message(), "private entry point");
}

TEST_F(RpcTest, CallToUnknownNodeFailsFast) {
  const auto start = std::chrono::steady_clock::now();
  auto result = client_->call(NodeId{99}, "x", {});
  EXPECT_EQ(result.status().code(), StatusCode::kNoSuchNode);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);
}

TEST_F(RpcTest, TimeoutWhenPartitioned) {
  server_->register_method("echo", [](NodeId, Reader&) -> Result<Payload> {
    return Payload{};
  });
  net_.partition(n1_, n2_);
  auto result = client_->call(n2_, "echo", {}, 50ms);
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

TEST_F(RpcTest, AsyncCallClaimable) {
  server_->register_method("triple", [](NodeId, Reader& args) -> Result<Payload> {
    return int_payload(args.get<std::int64_t>() * 3);
  });
  PendingCall pending = client_->call_async(n2_, "triple", int_payload(5));
  auto result = pending.claim(2s);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(int_value(result.value()), 15);
  EXPECT_TRUE(pending.ready());
}

TEST_F(RpcTest, OnewayExecutesWithoutResponse) {
  std::atomic<int> hits{0};
  server_->register_method("notify", [&](NodeId, Reader&) -> Result<Payload> {
    hits++;
    return Payload{};
  });
  EXPECT_TRUE(client_->call_oneway(n2_, "notify", {}).is_ok());
  net_.quiesce();
  // The method runs on the server worker pool; wait for it to land.
  for (int i = 0; i < 100 && hits.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(hits.load(), 1);
  EXPECT_EQ(net_.stats().sent, 1u);  // no response message for oneway
}

TEST_F(RpcTest, NestedCallDoesNotDeadlock) {
  // Server method calls back into the client while handling a request.
  client_->register_method("ping", [](NodeId, Reader&) -> Result<Payload> {
    Writer w;
    w.put(std::int64_t{7});
    return std::move(w).take();
  });
  server_->register_method("relay", [&](NodeId caller, Reader&) -> Result<Payload> {
    auto inner = server_->call(caller, "ping", {});
    if (!inner.is_ok()) return inner.status();
    return int_payload(int_value(inner.value()) + 1);
  });
  auto result = client_->call(n2_, "relay", {});
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(int_value(result.value()), 8);
}

TEST_F(RpcTest, SelfCallWorks) {
  client_->register_method("id", [](NodeId, Reader& args) -> Result<Payload> {
    return int_payload(args.get<std::int64_t>());
  });
  auto result = client_->call(n1_, "id", int_payload(99));
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(int_value(result.value()), 99);
}

TEST_F(RpcTest, ConcurrentCallsCorrelateCorrectly) {
  server_->register_method("echo", [](NodeId, Reader& args) -> Result<Payload> {
    return int_payload(args.get<std::int64_t>());
  });
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const std::int64_t v = t * 1000 + i;
        auto result = client_->call(n2_, "echo", int_payload(v));
        if (!result.is_ok() || int_value(result.value()) != v) failures++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(RpcTest, UnregisterMethodMakesItUnknown) {
  server_->register_method("temp", [](NodeId, Reader&) -> Result<Payload> {
    return Payload{};
  });
  ASSERT_TRUE(client_->call(n2_, "temp", {}).is_ok());
  server_->unregister_method("temp");
  EXPECT_EQ(client_->call(n2_, "temp", {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RpcTest, LateResponseAfterTimeoutIsDropped) {
  server_->register_method("slow", [](NodeId, Reader&) -> Result<Payload> {
    std::this_thread::sleep_for(100ms);
    return Payload{};
  });
  auto result = client_->call(n2_, "slow", {}, 10ms);
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  // Wait for the late response to arrive; it must be ignored without crash.
  std::this_thread::sleep_for(150ms);
  net_.quiesce();
}

TEST_F(RpcTest, EndpointShutdownFailsPendingCalls) {
  net_.partition(n1_, n2_);
  auto pending = client_->call_async(n2_, "never", {});
  client_.reset();  // destructor must wake the claimer
  auto result = pending.claim(1s);
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
}

// Reply fulfilment is inline on the delivery thread: a caller whose node has
// every executor worker (the control reserve included) parked still gets its
// answer, and no reply costs a control-lane task.
TEST_F(RpcTest, ReplyNeedsNoExecutorWorker) {
  server_->register_method(
      "echo",
      [](NodeId, Reader& args) -> Result<Payload> {
        return int_payload(args.get<std::int64_t>());
      },
      MethodClass::kFast);

  std::atomic<bool> release{false};
  // Unparks on every exit, failed assertions included, and drains both
  // executors so no parked task outlives the locals it reads.
  struct Unpark {
    std::atomic<bool>& release;
    RpcEndpoint& client;
    RpcEndpoint& server;
    ~Unpark() {
      release = true;
      client.drain_workers();
      server.drain_workers();
    }
  } unpark{release, *client_, *server_};
  std::atomic<std::size_t> parked{0};
  const auto park_all = [&](exec::Executor& executor) {
    // One task per worker, each submitted only after the previous one is
    // running, so no worker can take two of them as a control-lane batch.
    const std::size_t target = parked.load() + executor.workers();
    while (parked.load() < target) {
      const std::size_t before = parked.load();
      ASSERT_TRUE(executor
                      .submit(exec::Lane::kControl,
                              [&] {
                                parked++;
                                while (!release.load()) {
                                  std::this_thread::sleep_for(1ms);
                                }
                              })
                      .is_ok());
      while (parked.load() == before) std::this_thread::sleep_for(1ms);
    }
  };
  park_all(client_->executor());
  park_all(server_->executor());

  constexpr auto kControl = static_cast<std::size_t>(exec::Lane::kControl);
  const std::uint64_t control_before =
      client_->executor().stats().lanes[kControl].submitted;
  for (std::int64_t i = 0; i < 100; ++i) {
    auto result = client_->call(n2_, "echo", int_payload(i), 2s);
    ASSERT_TRUE(result.is_ok()) << "call " << i << ": "
                                << result.status().to_string();
    EXPECT_EQ(int_value(result.value()), i);
  }
  EXPECT_EQ(client_->executor().stats().lanes[kControl].submitted,
            control_before);
}

// --- retry / recovery -------------------------------------------------------------

// Standalone fixture with retries enabled and a lossy wire.
class RpcRetryTest : public ::testing::Test {
 protected:
  void build(RpcConfig config, net::FaultPlan plan = {}) {
    net_.load_fault_plan(plan);
    EXPECT_TRUE(net_.register_node(n1_, demux1_.as_handler()).is_ok());
    EXPECT_TRUE(net_.register_node(n2_, demux2_.as_handler()).is_ok());
    client_ = std::make_unique<RpcEndpoint>(net_, demux1_, n1_, ids_, config);
    server_ = std::make_unique<RpcEndpoint>(net_, demux2_, n2_, ids_, config);
  }

  ~RpcRetryTest() override {
    if (net_.is_crashed(n2_)) EXPECT_TRUE(net_.restart_node(n2_).is_ok());
    EXPECT_TRUE(net_.unregister_node(n1_).is_ok());
    EXPECT_TRUE(net_.unregister_node(n2_).is_ok());
  }

  net::Network net_;
  net::Demux demux1_, demux2_;
  IdGenerator ids_;
  NodeId n1_{1}, n2_{2};
  std::unique_ptr<RpcEndpoint> client_, server_;
};

TEST_F(RpcRetryTest, RetriesSucceedUnderHeavyLoss) {
  RpcConfig config;
  // At 50% loss each way a round trip succeeds with p=0.25 per attempt, so
  // the retry budget must be deep enough that 20 consecutive calls all land:
  // 60 retries at a 50ms cap keeps retransmitting for ~3s of the 10s budget
  // (P[a call fails] ~ 0.75^61, negligible for any seed).
  config.max_retries = 60;
  config.retry_base_delay = 5ms;
  config.retry_max_delay = 50ms;
  config.default_timeout = 10s;
  net::FaultPlan plan;
  plan.seed = 42;
  plan.link_defaults.drop_probability = 0.5;
  build(config, plan);

  std::atomic<int> executions{0};
  server_->register_method("inc", [&](NodeId, Reader&) -> Result<Payload> {
    executions++;
    return Payload{};
  });
  for (int i = 0; i < 20; ++i) {
    auto result = client_->call(n2_, "inc", {});
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  }
  // Every call executed exactly once despite retransmissions: the reused
  // CallId is the idempotency token the server dedups on.
  EXPECT_EQ(executions.load(), 20);
  EXPECT_GT(client_->stats().retries_sent, 0u);
}

TEST_F(RpcRetryTest, DuplicatedRequestsExecuteOnce) {
  RpcConfig config;
  net::FaultPlan plan;
  plan.link_defaults.duplicate_probability = 1.0;  // every message twice
  build(config, plan);

  std::atomic<int> executions{0};
  server_->register_method("inc", [&](NodeId, Reader&) -> Result<Payload> {
    executions++;
    return Payload{};
  });
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client_->call(n2_, "inc", {}).is_ok());
  }
  net_.quiesce();
  EXPECT_EQ(executions.load(), 10);
  const auto stats = server_->stats();
  EXPECT_EQ(stats.requests_executed, 10u);
  EXPECT_EQ(stats.dedup_replays + stats.duplicate_drops, 10u);
}

TEST_F(RpcRetryTest, DeadlineTimeoutIsDefinite) {
  RpcConfig config;
  config.max_retries = 50;
  config.retry_base_delay = 5ms;
  build(config);

  ASSERT_TRUE(net_.crash_node(n2_).is_ok());
  const auto start = std::chrono::steady_clock::now();
  auto result = client_->call(n2_, "anything", {}, 200ms);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_GE(elapsed, 150ms);  // retried until the deadline, then gave up
  EXPECT_LT(elapsed, 5s);
  EXPECT_GE(client_->stats().deadline_timeouts, 1u);
}

TEST_F(RpcRetryTest, RetriesBridgeCrashRestart) {
  RpcConfig config;
  config.max_retries = 100;
  config.retry_base_delay = 5ms;
  config.retry_max_delay = 20ms;
  config.default_timeout = 10s;
  build(config);

  std::atomic<int> executions{0};
  server_->register_method("inc", [&](NodeId, Reader&) -> Result<Payload> {
    executions++;
    return Payload{};
  });
  ASSERT_TRUE(net_.crash_node(n2_).is_ok());
  std::thread restarter([&] {
    std::this_thread::sleep_for(100ms);
    ASSERT_TRUE(net_.restart_node(n2_).is_ok());
  });
  auto result = client_->call(n2_, "inc", {});
  restarter.join();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(executions.load(), 1);
  EXPECT_GT(client_->stats().retries_sent, 0u);
}

}  // namespace
}  // namespace doct::rpc
