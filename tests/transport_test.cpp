// SocketTransport behaviour: loopback delivery, group replication, the
// full Cluster stack over unix/tcp backends in one process, reconnect with
// backoff, and RPC retransmissions surviving a torn connection.  These run
// real syscalls but stay on loopback and finish fast; the cross-OS-process
// variant lives in examples/multiprocess and the CI multiprocess-smoke lane.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "net/socket_transport.hpp"
#include "net/wire.hpp"
#include "runtime/runtime.hpp"
#include "obs_dump.hpp"

using namespace doct;
using namespace doct::net;
using namespace std::chrono_literals;

namespace {

std::string test_unix_addr(int tag) {
  return "unix:/tmp/doct-tt-" + std::to_string(::getpid()) + "-" +
         std::to_string(tag) + ".sock";
}

// Two transports wired into a pair over unix sockets.
struct Pair {
  Pair() {
    SocketTransportConfig c1;
    c1.self = NodeId{1};
    c1.listen = test_unix_addr(1);
    SocketTransportConfig c2;
    c2.self = NodeId{2};
    c2.listen = test_unix_addr(2);
    a = std::make_unique<SocketTransport>(c1);
    b = std::make_unique<SocketTransport>(c2);
    EXPECT_TRUE(a->start().is_ok());
    EXPECT_TRUE(b->start().is_ok());
    a->add_peer(NodeId{2}, b->listen_address());
    b->add_peer(NodeId{1}, a->listen_address());
  }

  std::unique_ptr<SocketTransport> a;
  std::unique_ptr<SocketTransport> b;
};

bool wait_until(const std::function<bool()>& done, Duration timeout = 5s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(SocketTransport, PointToPointDeliversPayloadIntact) {
  Pair pair;
  std::atomic<int> got{0};
  Message seen;
  std::mutex mu;
  pair.b->register_node(NodeId{2}, [&](const Message& m) {
    std::lock_guard<std::mutex> lock(mu);
    seen = m;
    got.fetch_add(1);
  });

  Message m;
  m.from = NodeId{1};
  m.to = NodeId{2};
  m.kind = kEventNotify;
  m.call = CallId{77};
  m.trace_id = 0xABCD;
  m.span_id = 0x1234;
  m.payload = SharedPayload{{1, 2, 3, 4, 5}};
  ASSERT_TRUE(pair.a->send(m).is_ok());

  ASSERT_TRUE(wait_until([&] { return got.load() == 1; }));
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(seen.from, NodeId{1});
  EXPECT_EQ(seen.kind, kEventNotify);
  EXPECT_EQ(seen.call, CallId{77});
  EXPECT_EQ(seen.trace_id, 0xABCDu);
  EXPECT_TRUE(seen.payload == m.payload);
}

TEST(SocketTransport, SendToUnknownPeerIsNoSuchNode) {
  Pair pair;
  Message m;
  m.from = NodeId{1};
  m.to = NodeId{99};
  EXPECT_EQ(pair.a->send(m).code(), StatusCode::kNoSuchNode);
}

TEST(SocketTransport, SelfSendLoopsBack) {
  Pair pair;
  std::atomic<int> got{0};
  pair.a->register_node(NodeId{1},
                        [&](const Message&) { got.fetch_add(1); });
  Message m;
  m.from = NodeId{1};
  m.to = NodeId{1};
  ASSERT_TRUE(pair.a->send(m).is_ok());
  EXPECT_TRUE(wait_until([&] { return got.load() == 1; }));
}

TEST(SocketTransport, GroupJoinReplicatesToPeerAndMulticastLands) {
  Pair pair;
  std::atomic<int> got{0};
  pair.b->register_node(NodeId{2}, [&](const Message&) { got.fetch_add(1); });

  const GroupId group{0x600D};
  ASSERT_TRUE(pair.b->create_multicast_group(group).is_ok());
  ASSERT_TRUE(pair.b->join(group, NodeId{2}).is_ok());

  // The join announcement must replicate into a's sender-side map before a
  // multicast from node 1 can fan out to node 2.  The announcement may have
  // auto-created the group on a already, so kAlreadyExists is fine.
  ASSERT_TRUE(pair.a->wait_for_peers(1, 5s));
  const Status created = pair.a->create_multicast_group(group);
  ASSERT_TRUE(created.is_ok() || created.code() == StatusCode::kAlreadyExists);
  ASSERT_TRUE(wait_until([&] {
    Message probe;
    probe.from = NodeId{1};
    probe.kind = kEventNotify;
    return pair.a->multicast(group, probe).is_ok() && got.load() > 0;
  }));

  // leave() replication: traffic stops reaching node 2.
  ASSERT_TRUE(pair.b->leave(group, NodeId{2}).is_ok());
  ASSERT_TRUE(pair.b->flush(5s));
  std::this_thread::sleep_for(50ms);
  const int before = got.load();
  Message after_leave;
  after_leave.from = NodeId{1};
  after_leave.kind = kEventNotify;
  ASSERT_TRUE(pair.a->multicast(group, after_leave).is_ok());
  ASSERT_TRUE(pair.a->flush(5s));
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(got.load(), before);
}

TEST(SocketTransport, GroupRemoveReplicatesToPeer) {
  Pair pair;
  pair.b->register_node(NodeId{2}, [](const Message&) {});
  const GroupId group{0x600E};
  ASSERT_TRUE(pair.b->create_multicast_group(group).is_ok());
  ASSERT_TRUE(pair.b->join(group, NodeId{2}).is_ok());
  // The join announcement creates a's replica of the group.
  ASSERT_TRUE(pair.b->wait_for_peers(1, 5s));
  ASSERT_TRUE(wait_until([&] {
    return pair.a->create_multicast_group(group).code() ==
           StatusCode::kAlreadyExists;
  }));

  ASSERT_TRUE(pair.b->remove_multicast_group(group).is_ok());
  EXPECT_EQ(pair.b->remove_multicast_group(group).code(),
            StatusCode::kNoSuchGroup);
  // a drops its replica: the group can be created afresh there.
  EXPECT_TRUE(wait_until(
      [&] { return pair.a->create_multicast_group(group).is_ok(); }));
}

TEST(SocketTransport, NodesReportsConfiguredMesh) {
  Pair pair;
  const std::vector<NodeId> expected{NodeId{1}, NodeId{2}};
  EXPECT_EQ(pair.a->nodes(), expected);
  EXPECT_EQ(pair.b->nodes(), expected);
}

TEST(SocketTransport, RegisterRejectsForeignNode) {
  Pair pair;
  EXPECT_EQ(pair.a->register_node(NodeId{2}, [](const Message&) {}).code(),
            StatusCode::kInvalidArgument);
}

TEST(SocketTransport, ReconnectsAfterPeerRestart) {
  SocketTransportConfig c1;
  c1.self = NodeId{1};
  c1.listen = test_unix_addr(11);
  c1.reconnect_backoff_initial = 5ms;
  c1.reconnect_backoff_max = 50ms;
  SocketTransport a(c1);
  ASSERT_TRUE(a.start().is_ok());

  const std::string b_addr = test_unix_addr(12);
  std::atomic<int> got{0};
  auto make_b = [&] {
    SocketTransportConfig c2;
    c2.self = NodeId{2};
    c2.listen = b_addr;
    auto b = std::make_unique<SocketTransport>(c2);
    // Handler before start(): no window where a data frame arrives with no
    // local node registered.
    b->register_node(NodeId{2}, [&](const Message&) { got.fetch_add(1); });
    EXPECT_TRUE(b->start().is_ok());
    return b;
  };

  auto b = make_b();
  a.add_peer(NodeId{2}, b_addr);
  ASSERT_TRUE(a.wait_for_peers(1, 5s));
  Message m;
  m.from = NodeId{1};
  m.to = NodeId{2};
  ASSERT_TRUE(a.send(m).is_ok());
  ASSERT_TRUE(wait_until([&] { return got.load() == 1; }));

  // Kill the receiver entirely.  Disconnection is detected lazily: the
  // writer hits the dead socket on its next write, requeues the unsent
  // frame, and redials with backoff until a new transport binds the same
  // address — at which point the requeued frame is the first data out.
  b.reset();
  Message again;
  again.from = NodeId{1};
  again.to = NodeId{2};
  ASSERT_TRUE(a.send(again).is_ok());
  std::this_thread::sleep_for(100ms);  // let the writer discover the loss
  b = make_b();
  ASSERT_TRUE(wait_until([&] { return got.load() >= 2; }, 10s));
  EXPECT_GE(a.stats().reconnects, 1u);
}

// The full node stack over each socket backend, single process: spawn a
// thread on node 0, raise at it from node 1 across a real socket, and do a
// synchronous raise_and_wait round trip.
class ClusterOverSockets : public ::testing::TestWithParam<TransportKind> {};

TEST_P(ClusterOverSockets, RemoteRaiseAndSyncRoundTrip) {
  runtime::ClusterConfig config;
  config.network.transport = GetParam();
  runtime::Cluster cluster(2, config);
  ASSERT_NE(cluster.socket_transport(0), nullptr);

  const EventId ev = cluster.registry().register_event("tt.ping");
  std::atomic<int> handled{0};
  cluster.procedures().register_procedure(
      "tt.count", [&](events::PerThreadCallCtx&) {
        handled.fetch_add(1);
        return kernel::Verdict::kResume;
      });

  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  std::atomic<bool> ready{false};
  const ThreadId tid = n0.kernel.spawn([&] {
    n0.events.attach_handler(ev, "tt.count", events::OWN_CONTEXT);
    ready.store(true);
    while (n0.kernel.sleep_for(1ms).is_ok()) {
    }
  });
  ASSERT_TRUE(wait_until([&] { return ready.load(); }));

  ASSERT_TRUE(n1.events.raise(ev, tid).is_ok());
  ASSERT_TRUE(wait_until([&] { return handled.load() >= 1; }, 10s));

  auto verdict = n1.events.raise_and_wait(ev, tid);
  ASSERT_TRUE(verdict.is_ok()) << verdict.status().to_string();
  EXPECT_EQ(verdict.value(), kernel::Verdict::kResume);
  EXPECT_GE(handled.load(), 2);

  n1.events.raise(events::sys::kTerminate, tid);
  EXPECT_TRUE(n0.kernel.join_thread(tid, 10s).is_ok());
}

INSTANTIATE_TEST_SUITE_P(Backends, ClusterOverSockets,
                         ::testing::Values(TransportKind::kUnixSocket,
                                           TransportKind::kTcp),
                         [](const auto& info) {
                           return info.param == TransportKind::kUnixSocket
                                      ? "unix"
                                      : "tcp";
                         });

// RPC retransmission across a reconnect: tear node 1's listener down
// mid-conversation and verify a retried call still lands exactly once
// (CallId dedup makes the retry idempotent).
TEST(SocketTransport, RpcRetrySurvivesReconnectedStream) {
  runtime::ClusterConfig config;
  config.network.transport = TransportKind::kUnixSocket;
  config.node.rpc.max_retries = 5;
  config.node.rpc.retry_base_delay = 20ms;
  runtime::Cluster cluster(2, config);

  std::atomic<int> executions{0};
  cluster.node(1).rpc.register_method(
      "tt.echo", [&](NodeId, Reader& r) -> Result<rpc::Payload> {
        executions.fetch_add(1);
        Writer w;
        w.put(r.get<std::uint64_t>());
        return std::move(w).take();
      });

  // Baseline call proves the path.
  {
    Writer w;
    w.put(std::uint64_t{41});
    auto reply = cluster.node(0).rpc.call(NodeId{2}, "tt.echo",
                                          std::move(w).take(), 5s);
    ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  }

  // Tear down every connection into node 1 (the callee).  Node 0's next
  // request write hits a dead socket: either the transport requeues the
  // unsent frame across the redial, or a frame already buffered into the
  // torn socket is lost and rpc's retry resends it — both must be invisible
  // to the caller, and CallId dedup keeps each call's execution count at 1.
  cluster.socket_transport(1)->drop_connections();
  const int before = executions.load();
  std::vector<std::thread> callers;
  std::atomic<int> ok{0};
  for (int i = 0; i < 8; ++i) {
    callers.emplace_back([&, i] {
      Writer w;
      w.put(static_cast<std::uint64_t>(i));
      auto reply = cluster.node(0).rpc.call(NodeId{2}, "tt.echo",
                                            std::move(w).take(), 10s);
      if (reply.is_ok()) ok.fetch_add(1);
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(ok.load(), 8);
  EXPECT_EQ(executions.load(), before + 8);
}

}  // namespace
