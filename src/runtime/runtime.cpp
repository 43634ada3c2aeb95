#include "runtime/runtime.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/log.hpp"
#include "common/serialize.hpp"

namespace doct::runtime {

namespace {

// DOCT_TRANSPORT=inprocess|unix|tcp overrides ClusterConfig at construction
// time, so the same example binary exercises all three backends from CI.
net::TransportKind resolve_transport(net::TransportKind configured) {
  const char* env = std::getenv("DOCT_TRANSPORT");
  if (env == nullptr || *env == '\0') return configured;
  const std::string value = env;
  if (value == "inprocess") return net::TransportKind::kInProcess;
  if (value == "unix") return net::TransportKind::kUnixSocket;
  if (value == "tcp") return net::TransportKind::kTcp;
  throw std::runtime_error("DOCT_TRANSPORT must be inprocess|unix|tcp, got " +
                           value);
}

// Distinct unix paths across clusters in one process and across processes.
std::string unix_listen_path(NodeId node) {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  return "unix:/tmp/doct-" + std::to_string(::getpid()) + "-" +
         std::to_string(n) + "-n" + std::to_string(node.value()) + ".sock";
}

// Chunk size for the obs.* snapshot RPCs — same sizing rationale as the
// monitor service's kSnapshotChunkBytes.
constexpr std::size_t kObsChunkBytes = 48 * 1024;
// Trace-delta pull batch: bounds one reply's payload; the cursor advances
// to the last span shipped, so a bigger backlog drains over several rounds.
constexpr std::uint32_t kTraceDeltaMax = 4096;
// Remote shards answer obs pulls quickly or not at all (a dead shard must
// not stall the whole round).
constexpr Duration kObsPullTimeout = std::chrono::milliseconds(1500);

// Reply for one slice of a chunked document fetch: {u64 total, str chunk}.
rpc::Payload chunk_reply(const std::string& cache, std::uint64_t offset) {
  Writer w;
  w.put(static_cast<std::uint64_t>(cache.size()));
  w.put(offset >= cache.size() ? std::string{}
                               : cache.substr(offset, kObsChunkBytes));
  return std::move(w).take();
}

}  // namespace

NodeRuntime::NodeRuntime(Cluster& cluster, NodeId node_id,
                         const NodeConfig& config)
    : id(node_id),
      executor(config.kernel.executor,
               "node" + std::to_string(node_id.value()) + ".exec",
               node_id.value()),
      rpc(cluster.transport_for(node_id), demux, node_id, cluster.ids_,
          config.rpc, &executor),
      dsm(rpc, node_id, config.dsm),
      kernel(cluster.transport_for(node_id), demux, rpc, node_id,
             cluster.ids_, config.kernel),
      objects(kernel, rpc),
      store(objects, factory, std::make_unique<objects::MemoryBackend>()),
      events(kernel, objects, rpc, cluster.registry_, cluster.procedures_,
             config.events),
      network_(cluster.transport_for(node_id)) {
  if (config.health.enabled) {
    health_ = std::make_unique<services::FailureDetector>(
        network_, demux, events, id, config.health);
    // Census fast-path: a confirmed-dead peer will never reply, so stop
    // waiting on it.
    health_->on_node_down([this](NodeId peer) { kernel.note_peer_down(peer); });
  }
  // Register with the network last: every subsystem has routed its message
  // kinds into the demux by now.
  network_.register_node(id, demux.as_handler());
  if (health_) health_->start();
}

NodeRuntime::~NodeRuntime() {
  // Stop the detector before tearing anything down: its heartbeat raises
  // events and touches the kernel.  Then stop inbound traffic so nothing new
  // is queued, and drain the node executor so no in-flight method or queued
  // handler is still touching the kernel or the object manager when they
  // destruct; the drain ends by stopping the node's timer wheel, so no
  // kernel or RPC timer fires past this point either.  Members are then
  // destroyed in reverse declaration order (events -> store -> objects ->
  // kernel -> dsm -> rpc -> demux -> executor).
  if (health_) health_->stop();
  network_.unregister_node(id);
  kernel.terminate_all_local();  // unwind adopted bodies on executor workers
  executor.shutdown();
}

Cluster::Cluster(std::size_t num_nodes, ClusterConfig config)
    : telemetry_(config.telemetry) {
  const net::TransportKind kind = resolve_transport(config.network.transport);
  if (kind == net::TransportKind::kInProcess) {
    network_ = std::make_unique<net::Network>(config.network);
  } else {
    // Two-phase mesh setup: bind every transport first (learning the real
    // address — required for tcp:127.0.0.1:0 ephemeral ports), then hand
    // each one the full peer map.
    for (std::size_t i = 0; i < num_nodes; ++i) {
      const NodeId id{i + 1};
      net::SocketTransportConfig sc;
      sc.self = id;
      sc.listen = kind == net::TransportKind::kUnixSocket
                      ? unix_listen_path(id)
                      : "tcp:127.0.0.1:0";
      sc.reconnect_backoff_initial = config.network.reconnect_backoff_initial;
      sc.reconnect_backoff_max = config.network.reconnect_backoff_max;
      sockets_.push_back(std::make_unique<net::SocketTransport>(sc));
      const Status started = sockets_.back()->start();
      if (!started.is_ok()) {
        throw std::runtime_error("cluster socket transport: " +
                                 started.to_string());
      }
    }
    for (std::size_t i = 0; i < num_nodes; ++i) {
      for (std::size_t j = 0; j < num_nodes; ++j) {
        if (i == j) continue;
        sockets_[i]->add_peer(NodeId{j + 1}, sockets_[j]->listen_address());
      }
    }
  }
  nodes_.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    nodes_.push_back(std::make_unique<NodeRuntime>(
        *this, NodeId{i + 1}, config.node));
  }
  for (auto& node : nodes_) register_obs_methods(*node);
  apply_telemetry_env();
  if (telemetry_.collector) start_collector();
}

Cluster::Cluster(NodeId self, std::unique_ptr<net::SocketTransport> transport,
                 ClusterConfig config)
    : remote_self_(self),
      // Node-disjoint id spaces: plain ids (CallId, GroupId) carry the node
      // in bits 40..47, trace ids in the top 16 — ids minted by different
      // shards never collide, and stitched traces never conflate chains.
      ids_(self.value() << 40),
      telemetry_(config.telemetry) {
  obs::tracer().seed_ids(self.value() << 48);
  obs::set_self_node(self.value());
  sockets_.push_back(std::move(transport));
  nodes_.push_back(std::make_unique<NodeRuntime>(*this, self, config.node));
  register_obs_methods(*nodes_.front());
  apply_telemetry_env();
  if (telemetry_.collector) start_collector();
}

Cluster::~Cluster() { stop_collector(); }

net::Transport& Cluster::transport_for(NodeId id) {
  if (network_) return *network_;
  if (remote_self_.valid()) return *sockets_.front();
  return *sockets_.at(id.value() - 1);
}

void Cluster::apply_telemetry_env() {
  if (const char* env = std::getenv("DOCT_COLLECTOR")) {
    const std::string value = env;
    if (value == "on" || value == "1") {
      telemetry_.collector = true;
    } else if (value == "off" || value == "0") {
      telemetry_.collector = false;
    }
  }
  if (const char* env = std::getenv("DOCT_COLLECT_PERIOD_MS")) {
    const long ms = std::strtol(env, nullptr, 10);
    if (ms > 0) telemetry_.period = std::chrono::milliseconds(ms);
  }
}

void Cluster::register_obs_methods(NodeRuntime& node) {
  // Telemetry-plane RPCs, registered on every node so any process (a
  // collector shard, doct-top through the coordinator) can pull snapshots
  // over the ordinary call path.  All three are chunked the same way:
  // request {u64 offset}; offset 0 re-renders the document into a cache so
  // later chunks slice the SAME snapshot; reply {u64 total, str chunk}.
  struct ObsCaches {
    std::mutex mu;
    std::string metrics;
    std::string cluster;
  };
  auto caches = std::make_shared<ObsCaches>();

  node.rpc.register_method(
      "obs.metrics_at",
      [caches](NodeId, Reader& args) -> Result<rpc::Payload> {
        const auto offset = args.get<std::uint64_t>();
        std::lock_guard<std::mutex> lock(caches->mu);
        if (offset == 0) caches->metrics = obs::metrics().snapshot_json();
        return chunk_reply(caches->metrics, offset);
      });

  node.rpc.register_method(
      "obs.trace_since",
      [](NodeId, Reader& args) -> Result<rpc::Payload> {
        const auto after = args.get<std::uint64_t>();
        const auto max_spans = args.get<std::uint32_t>();
        // Cursor first: a span recorded during the scan is shipped now or
        // next round; only one still being written can be skipped.
        const std::uint64_t last = obs::tracer().last_seq();
        std::vector<obs::Span> spans = obs::tracer().snapshot_since(after);
        if (spans.size() > max_spans) spans.resize(max_spans);
        Writer w;
        w.put(last);
        w.put(static_cast<std::uint32_t>(spans.size()));
        for (const obs::Span& span : spans) {
          w.put(span.seq);
          w.put(span.trace_id);
          w.put(span.span_id);
          w.put(span.parent_span);
          w.put(span.node);
          w.put(span.track);
          w.put(std::string(span.name));
          w.put(std::string(span.detail));
          w.put(static_cast<std::uint64_t>(span.start_us));
          w.put(static_cast<std::uint64_t>(span.dur_us));
        }
        return std::move(w).take();
      });

  node.rpc.register_method(
      "obs.cluster_at",
      [this, caches](NodeId, Reader& args) -> Result<rpc::Payload> {
        const auto offset = args.get<std::uint64_t>();
        if (offset == 0) {
          // On-demand freshness: when no background collector paces rounds,
          // the first chunk of a fetch triggers one.
          bool thread_running;
          {
            std::lock_guard<std::mutex> lock(collector_thread_mu_);
            thread_running = collector_thread_.joinable() && !collector_stop_;
          }
          if (!thread_running) collect_round();
        }
        std::lock_guard<std::mutex> lock(caches->mu);
        if (offset == 0) caches->cluster = collector_.cluster_json();
        return chunk_reply(caches->cluster, offset);
      });
}

void Cluster::collect_round() {
  std::lock_guard<std::mutex> lock(collect_mu_);
  for (auto& node : nodes_) node->executor.sample_telemetry();
  const std::uint64_t label =
      remote_self_.valid() ? remote_self_.value() : nodes_.front()->id.value();
  const Status local =
      collector_.ingest(label, obs::metrics().snapshot_json());
  if (!local.is_ok()) {
    DOCT_LOG(kWarn) << "collector: local ingest: " << local.to_string();
  }
  if (!remote_self_.valid()) return;

  // Remote-shard mode: pull every peer process's snapshot (and trace-span
  // deltas) over RPC.  A dead shard times out and is skipped this round —
  // its last snapshot stays in the merged view.
  NodeRuntime& self = *nodes_.front();
  for (const NodeId peer : sockets_.front()->nodes()) {
    if (peer == remote_self_) continue;
    if (telemetry_.max_node != 0 && peer.value() > telemetry_.max_node) {
      continue;  // attached observer, not a member shard
    }
    std::string doc;
    bool complete = true;
    while (true) {
      Writer w;
      w.put(static_cast<std::uint64_t>(doc.size()));
      auto reply =
          self.rpc.call(peer, "obs.metrics_at", std::move(w).take(),
                        kObsPullTimeout);
      if (!reply.is_ok()) {
        complete = false;
        break;
      }
      Reader r(std::move(reply).value());
      const auto total = r.get<std::uint64_t>();
      const std::string chunk = r.get_string();
      doc += chunk;
      if (doc.size() >= total) break;
      if (chunk.empty()) {
        complete = false;
        break;
      }
    }
    if (complete && !doc.empty()) {
      const Status ingested = collector_.ingest(peer.value(), doc);
      if (!ingested.is_ok()) {
        DOCT_LOG(kWarn) << "collector: ingest from " << peer.to_string()
                        << ": " << ingested.to_string();
      }
    }

    if (!obs::tracing_enabled()) continue;
    Writer w;
    w.put(trace_cursors_[peer]);
    w.put(kTraceDeltaMax);
    auto reply = self.rpc.call(peer, "obs.trace_since", std::move(w).take(),
                               kObsPullTimeout);
    if (!reply.is_ok()) continue;
    Reader r(std::move(reply).value());
    const auto last = r.get<std::uint64_t>();
    const auto count = r.get<std::uint32_t>();
    std::uint64_t max_seen = trace_cursors_[peer];
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto seq = r.get<std::uint64_t>();
      obs::Span span;
      span.trace_id = r.get<std::uint64_t>();
      span.span_id = r.get<std::uint64_t>();
      span.parent_span = r.get<std::uint64_t>();
      span.node = r.get<std::uint64_t>();
      span.track = r.get<std::uint64_t>();
      span.set_name(r.get_string());
      span.set_detail(r.get_string());
      span.start_us = static_cast<std::int64_t>(r.get<std::uint64_t>());
      span.dur_us = static_cast<std::int64_t>(r.get<std::uint64_t>());
      obs::tracer().record(span);
      if (seq > max_seen) max_seen = seq;
    }
    // A full batch means more spans may be waiting — keep the cursor at the
    // last span shipped so the next round continues; a short batch means we
    // drained everything the shard had.
    trace_cursors_[peer] =
        count < kTraceDeltaMax ? std::max(last, max_seen) : max_seen;
  }
}

std::string Cluster::cluster_metrics_json() {
  bool thread_running;
  {
    std::lock_guard<std::mutex> lock(collector_thread_mu_);
    thread_running = collector_thread_.joinable() && !collector_stop_;
  }
  if (!thread_running) collect_round();
  return collector_.cluster_json();
}

void Cluster::start_collector() {
  std::lock_guard<std::mutex> lock(collector_thread_mu_);
  if (collector_thread_.joinable()) return;
  collector_stop_ = false;
  collector_thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(collector_thread_mu_);
    while (!collector_stop_) {
      lock.unlock();
      collect_round();
      lock.lock();
      collector_cv_.wait_for(lock, telemetry_.period,
                             [this] { return collector_stop_; });
    }
  });
}

void Cluster::stop_collector() {
  {
    std::lock_guard<std::mutex> lock(collector_thread_mu_);
    collector_stop_ = true;
  }
  collector_cv_.notify_all();
  if (collector_thread_.joinable()) collector_thread_.join();
}

}  // namespace doct::runtime
