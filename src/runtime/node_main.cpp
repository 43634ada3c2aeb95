// doct-node — hosts ONE node of a multi-process cluster over the socket
// transport and runs the built-in "smoke" scenario the multiprocess example
// and CI drive:
//
//   doct-node --node=<id> --nodes=<N> --listen=<addr> --peer=<id>=<addr>...
//             [--kill-victim=<id>] [--obs-dump=<dir>]
//
// Node 1 is the coordinator; every other node runs a worker thread in the
// well-known group kWorkerGroup with an OWN_CONTEXT handler counting
// "mp.ping" events.  The coordinator discovers each worker's ThreadId by
// RPC, raises at it remotely, does a raise_and_wait round trip (expecting
// kResume), then storms the group and polls per-worker counts until every
// ping landed.  With --kill-victim the coordinator then waits for its
// failure detector to report that node down (the driver SIGKILLs it) before
// terminating the survivors.
//
// Progress markers on stdout ("MP-OK ...", "MP-NODE-DOWN ...", "MP-EXIT
// ...") are the driver's assertion surface; logs are per-process artifacts
// in CI.  With --obs-dump the process writes metrics + Chrome-trace JSON on
// exit — trace ids are node-disjoint (Cluster seeds the tracer), so dumps
// from all processes stitch into one timeline.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/serialize.hpp"
#include "obs/flight.hpp"
#include "runtime/runtime.hpp"

using namespace doct;
using namespace std::chrono_literals;

namespace {

// Well-known ids shared by every process: the worker group must be the same
// GroupId everywhere for group raises to land, and it must stay outside the
// per-node IdGenerator ranges (node << 40).
constexpr GroupId kWorkerGroup{0xD0C70001};
constexpr NodeId kCoordinator{1};
constexpr int kStormRaises = 100;

std::atomic<std::uint64_t> g_pings{0};

struct Options {
  NodeId self;
  std::size_t nodes = 0;
  std::string listen;
  std::map<NodeId, std::string> peers;
  NodeId kill_victim;  // invalid = no kill phase
  std::string obs_dump;
  std::string flight_dir;  // also settable via DOCT_FLIGHT_DIR
  // Coordinator lingers this long after the scenario before terminating the
  // workers, so an external doct-top can attach and watch live numbers.
  std::uint64_t hold_ms = 0;
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--node=")) {
      opt.self = NodeId{std::strtoull(v, nullptr, 10)};
    } else if (const char* v = value("--nodes=")) {
      opt.nodes = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--listen=")) {
      opt.listen = v;
    } else if (const char* v = value("--peer=")) {
      const std::string spec = v;
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos) return false;
      opt.peers[NodeId{std::strtoull(spec.c_str(), nullptr, 10)}] =
          spec.substr(eq + 1);
    } else if (const char* v = value("--kill-victim=")) {
      opt.kill_victim = NodeId{std::strtoull(v, nullptr, 10)};
    } else if (const char* v = value("--obs-dump=")) {
      opt.obs_dump = v;
    } else if (const char* v = value("--flight-dir=")) {
      opt.flight_dir = v;
    } else if (const char* v = value("--hold-ms=")) {
      opt.hold_ms = std::strtoull(v, nullptr, 10);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
  }
  return opt.self.valid() && opt.nodes >= 2 && !opt.listen.empty();
}

void dump_obs(const Options& opt) {
  if (opt.obs_dump.empty()) return;
  const std::string tag = "node" + std::to_string(opt.self.value());
  std::ofstream metrics(opt.obs_dump + "/metrics-" + tag + ".json",
                        std::ios::trunc);
  if (metrics) metrics << obs::metrics().snapshot_json();
  std::ofstream trace(opt.obs_dump + "/trace-" + tag + ".json",
                      std::ios::trunc);
  if (trace) trace << obs::tracer().to_chrome_json();
}

int fail(const std::string& why) {
  std::cout << "MP-FAIL " << why << std::endl;
  return 1;
}

// Polls an RPC until it answers or the deadline passes; covers the startup
// window where a peer process is up but has not registered the method yet.
Result<rpc::Payload> poll_call(runtime::NodeRuntime& node, NodeId target,
                               const std::string& method, Duration deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (true) {
    auto reply = node.rpc.call(target, method, {}, 500ms);
    if (reply.is_ok()) return reply;
    if (std::chrono::steady_clock::now() >= until) return reply;
    std::this_thread::sleep_for(20ms);
  }
}

// --kill runs: blocks until this node's failure detector has heard every
// mesh peer, so the victim's death is observable here once it is killed.
bool await_mesh(const Options& opt, runtime::NodeRuntime& node) {
  if (!opt.kill_victim.valid()) return true;
  const auto until = std::chrono::steady_clock::now() + 60s;
  for (const auto& [peer, address] : opt.peers) {
    while (!node.health()->has_heard(peer)) {
      if (std::chrono::steady_clock::now() >= until) return false;
      std::this_thread::sleep_for(10ms);
    }
  }
  return true;
}

int run_coordinator(const Options& opt, runtime::NodeRuntime& node,
                    EventId ping, std::atomic<bool>& victim_down) {
  // Discover every worker's ThreadId.
  std::map<NodeId, ThreadId> workers;
  for (std::uint64_t n = 2; n <= opt.nodes; ++n) {
    auto reply = poll_call(node, NodeId{n}, "mp.worker_info", 60s);
    if (!reply.is_ok()) {
      return fail("worker_info " + NodeId{n}.to_string() + ": " +
                  reply.status().to_string());
    }
    Reader r(std::move(reply).value());
    workers[NodeId{n}] = r.get_id<ThreadTag>();
  }
  if (!await_mesh(opt, node)) return fail("never heard every peer");
  std::cout << "MP-OK discover " << workers.size() << " workers" << std::endl;

  // Remote raise at each worker thread, then a synchronous round trip.
  for (const auto& [peer, tid] : workers) {
    const Status raised = node.events.raise(ping, tid);
    if (!raised.is_ok()) {
      return fail("raise at " + tid.to_string() + ": " + raised.to_string());
    }
  }
  for (const auto& [peer, tid] : workers) {
    auto verdict = node.events.raise_and_wait(ping, tid);
    if (!verdict.is_ok() || verdict.value() != kernel::Verdict::kResume) {
      return fail("raise_and_wait at " + tid.to_string() + ": " +
                  verdict.status().to_string());
    }
  }
  std::cout << "MP-OK raise_and_wait" << std::endl;

  // Broadcast storm at the well-known group: every leg crosses a real
  // socket, every worker must count every raise.
  for (int i = 0; i < kStormRaises; ++i) {
    const Status raised = node.events.raise(ping, kWorkerGroup);
    if (!raised.is_ok()) return fail("storm raise: " + raised.to_string());
  }
  const std::uint64_t expected = 2 + kStormRaises;  // raise + sync + storm
  for (const auto& [peer, tid] : workers) {
    const auto until = std::chrono::steady_clock::now() + 120s;
    std::uint64_t count = 0;
    while (count < expected) {
      auto reply = poll_call(node, peer, "mp.count", 10s);
      if (reply.is_ok()) {
        Reader r(std::move(reply).value());
        count = r.get<std::uint64_t>();
      }
      if (count >= expected) break;
      if (std::chrono::steady_clock::now() >= until) {
        return fail("storm: " + peer.to_string() + " counted " +
                    std::to_string(count) + "/" + std::to_string(expected));
      }
      std::this_thread::sleep_for(20ms);
    }
  }
  std::cout << "MP-OK storm " << expected << " pings per worker" << std::endl;

  if (opt.kill_victim.valid()) {
    // The driver SIGKILLs the victim once it sees the storm marker; our
    // failure detector must notice the silence and raise NODE_DOWN.
    const auto until = std::chrono::steady_clock::now() + 60s;
    while (!victim_down.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() >= until) {
        return fail("victim " + opt.kill_victim.to_string() +
                    " never reported down");
      }
      std::this_thread::sleep_for(10ms);
    }
  }

  if (opt.hold_ms > 0) {
    // Linger with workers alive so an external doct-top --watch can attach
    // and observe live numbers before teardown.
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.hold_ms));
  }

  // Terminate the (surviving) workers so their processes exit cleanly.
  for (const auto& [peer, tid] : workers) {
    if (peer == opt.kill_victim) continue;
    node.events.raise(events::sys::kTerminate, tid);
  }
  std::cout << "MP-OK done" << std::endl;
  return 0;
}

int run_worker(const Options& opt, runtime::NodeRuntime& node, EventId ping,
               const std::atomic<bool>& victim_down) {
  std::atomic<bool> ready{false};
  kernel::SpawnOptions spawn_opts;
  spawn_opts.group = kWorkerGroup;
  const ThreadId tid = node.kernel.spawn(
      [&] {
        node.events.attach_handler(ping, "mp.count_ping", events::OWN_CONTEXT);
        ready.store(true, std::memory_order_release);
        // Stay alive as an event target until TERMINATE unwinds us.
        while (node.kernel.sleep_for(2ms).is_ok()) {
        }
      },
      spawn_opts);
  while (!ready.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(1ms);
  }

  if (!await_mesh(opt, node)) return fail("never heard every peer");
  // Publish discovery + progress probes only once the worker is ready (and,
  // for --kill, hears the whole mesh), so a coordinator that can see the
  // methods can also raise at the thread.
  node.rpc.register_method("mp.worker_info",
                           [tid](NodeId, Reader&) -> Result<rpc::Payload> {
                             Writer w;
                             w.put(tid);
                             return std::move(w).take();
                           });
  node.rpc.register_method("mp.count",
                           [](NodeId, Reader&) -> Result<rpc::Payload> {
                             Writer w;
                             w.put(g_pings.load(std::memory_order_relaxed));
                             return std::move(w).take();
                           });

  const Status joined = node.kernel.join_thread(tid, 300s);
  if (!joined.is_ok()) return fail("worker join: " + joined.to_string());
  if (opt.kill_victim.valid()) {
    // The coordinator's detector may see the victim go silent before ours
    // does and TERMINATE us at once; stay up until our own detector reports
    // it too, so every survivor prints MP-NODE-DOWN and dumps its ring.
    const auto until = std::chrono::steady_clock::now() + 30s;
    while (!victim_down.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(10ms);
    }
  }
  std::cout << "MP-EXIT " << opt.self.to_string() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::cerr << "usage: doct-node --node=<id> --nodes=<N> --listen=<addr> "
                 "--peer=<id>=<addr>... [--kill-victim=<id>] "
                 "[--obs-dump=<dir>] [--flight-dir=<dir>] [--hold-ms=<n>]\n";
    return 2;
  }
  // doct-node always runs with observability on: it exists to be watched
  // (doct-top pulls its snapshots; crashes should leave flight dumps).
  obs::set_metrics_enabled(true);
  obs::set_tracing_enabled(true);
  obs::set_self_node(opt.self.value());
  if (!opt.flight_dir.empty()) {
    obs::flight().configure(opt.self.value(), opt.flight_dir);
  } else {
    obs::flight().configure_from_env(opt.self.value());
  }
  obs::install_crash_handlers();

  net::SocketTransportConfig tc;
  tc.self = opt.self;
  tc.listen = opt.listen;
  tc.peers = opt.peers;
  auto transport = std::make_unique<net::SocketTransport>(tc);
  const Status started = transport->start();
  if (started.is_ok()) {
    std::cout << "MP-LISTEN " << transport->listen_address() << std::endl;
  } else {
    return fail("transport: " + started.to_string());
  }

  runtime::ClusterConfig config;
  // The coordinator shard doubles as the cluster's telemetry collector:
  // every ~250ms it pulls each worker shard's metrics snapshot and trace
  // deltas, so doct-top (attaching through the coordinator) sees one merged,
  // node-labelled view.
  config.telemetry.collector = (opt.self == kCoordinator);
  config.telemetry.period = 250ms;
  config.telemetry.max_node = opt.nodes;
  config.node.health.enabled = true;
  // Sanitized CI runs are slow; a generous window avoids false suspicions
  // while kill detection still lands well inside the driver's deadline.
  config.node.health.heartbeat_interval = 50ms;
  config.node.health.suspect_after = 1s;
  runtime::Cluster cluster(opt.self, std::move(transport), config);
  runtime::NodeRuntime& node = cluster.node(0);

  // Same registration order in every process keeps user event ids aligned.
  const EventId ping = cluster.registry().register_event("mp.ping");
  cluster.procedures().register_procedure(
      "mp.count_ping", [](events::PerThreadCallCtx&) {
        g_pings.fetch_add(1, std::memory_order_relaxed);
        return kernel::Verdict::kResume;
      });

  std::atomic<bool> victim_down{false};
  node.health()->on_node_down([&](NodeId peer) {
    std::cout << "MP-NODE-DOWN " << peer.to_string() << std::endl;
    // A peer died under us: freeze this survivor's recent history to disk
    // before anything else reacts (the black box for the post-mortem).
    auto& recorder = obs::flight();
    if (recorder.enabled()) {
      recorder.note("node-down", peer.to_string(), peer.value(), 0);
      recorder.dump("peer-down-n" + std::to_string(peer.value()));
    }
    if (peer == opt.kill_victim) {
      victim_down.store(true, std::memory_order_release);
    }
  });

  const int rc = opt.self == kCoordinator
                     ? run_coordinator(opt, node, ping, victim_down)
                     : run_worker(opt, node, ping, victim_down);
  dump_obs(opt);
  return rc;
}
