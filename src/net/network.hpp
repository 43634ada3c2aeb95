// In-process simulated multi-node network.
//
// Topology is a full mesh.  Each registered node gets an inbound FIFO mailbox
// drained by its own delivery thread, so message handling is concurrent and
// asynchronous exactly as on a real cluster.  A central "wire" thread applies
// configurable per-message latency; zero-latency traffic bypasses it entirely
// and is pushed straight into the destination mailbox by the sender.
//
// Locking is sharded so concurrent senders on different nodes do not
// serialize on one global mutex (see DESIGN.md "Performance model"):
//
//   topo_mu_ (shared_mutex)  nodes/groups/partitions/crashed — senders take
//                            it shared, topology changes take it unique
//   wire_mu_                 the timing queue, delayed traffic only
//   FaultInjector            internally synchronized (sharded per-stream)
//   stats_                   per-cause relaxed atomics, no lock at all
//
// Supports the three primitives §7.1 of the paper needs from the transport:
// point-to-point send, broadcast (the "simple solution" locator), and
// multicast groups (the "sophisticated thread-management" locator).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <set>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/inline.hpp"
#include "common/mpsc_queue.hpp"
#include "common/result.hpp"
#include "net/fault.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace doct::net {

// Which Transport backend a runtime::Cluster assembles its nodes on.  The
// simulator stays the default (determinism, fault injection, quiesce); the
// socket kinds put every node behind a real SocketTransport — same semantics
// a multi-process deployment sees, inside one process.  Overridable at
// Cluster construction via DOCT_TRANSPORT=inprocess|unix|tcp.
enum class TransportKind : std::uint8_t {
  kInProcess = 0,
  kUnixSocket = 1,
  kTcp = 2,
};

struct NetworkConfig {
  Duration base_latency{0};        // one-way latency applied to every message
  Duration per_byte_latency{0};    // additional latency per payload byte
  // Loss, duplication and reordering come from a FaultPlan
  // (load_fault_plan), replayable from the plan's seed.
  // Per-node inbound mailbox bound; 0 = unbounded.  When a destination's
  // delivery thread falls behind by this many messages, further traffic to
  // it is dropped (datagram semantics, counted as dropped_backpressure)
  // instead of growing the queue without limit — the network-layer end of
  // the node executor's bounded-lane story.
  std::size_t mailbox_capacity = 0;

  // --- transport selection (runtime::Cluster) ------------------------------
  // Everything below is read by runtime::Cluster, not by Network itself: the
  // simulator's knobs above apply only when transport == kInProcess.
  TransportKind transport = TransportKind::kInProcess;
  // Socket modes: base listen spec.  "" = auto ("unix:<fresh tmpdir>/n<id>
  // .sock" for kUnixSocket, "tcp:127.0.0.1:0" ephemeral ports for kTcp).
  std::string listen;
  // Per-peer reconnect backoff (socket modes): first retry delay, doubling
  // to the cap while a peer stays unreachable.
  Duration reconnect_backoff_initial{std::chrono::milliseconds(10)};
  Duration reconnect_backoff_max{std::chrono::seconds(1)};
};

struct NetworkStats {
  std::uint64_t sent = 0;          // point-to-point sends attempted
  std::uint64_t delivered = 0;     // messages handed to a node handler
  std::uint64_t dropped = 0;       // total losses, all causes below
  std::uint64_t broadcast_sends = 0;   // broadcast() calls
  std::uint64_t multicast_sends = 0;   // multicast() calls
  std::uint64_t bytes = 0;         // payload bytes sent
  // Total per-destination fan-out of broadcasts/multicasts (each counts as a
  // wire message for the location-cost benches).
  std::uint64_t fanout_messages = 0;
  // Messages that went through the wire thread's timing queue (latency or
  // injected delay > 0).  Zero-latency traffic is pushed directly into the
  // destination mailbox and never counts here.
  std::uint64_t wire_queued = 0;
  // Per-cause loss breakdown (each also counts into `dropped`).
  std::uint64_t dropped_by_fault = 0;      // injector probabilistic drop
  std::uint64_t dropped_by_partition = 0;  // partitioned pair at delivery
  std::uint64_t dropped_crashed = 0;       // to or from a crashed node
  std::uint64_t dropped_no_route = 0;      // destination vanished in transit
  std::uint64_t dropped_backpressure = 0;  // destination mailbox was full
  // Injected non-loss faults.
  std::uint64_t duplicated = 0;    // extra copies put on the wire
  std::uint64_t reordered = 0;     // messages delayed past later traffic
  std::uint64_t delay_spikes = 0;  // latency spikes applied
  // Node lifecycle faults.
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
};

class Network final : public Transport {
 public:
  explicit Network(NetworkConfig config = {});
  ~Network() override;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Registers a node and its message handler.  The handler runs on the
  // node's dedicated delivery thread; it must not block indefinitely on
  // another node's handler completing (deadlock is the caller's bug, as on a
  // real kernel's interrupt path) — long work should be queued to node-local
  // worker threads.
  Status register_node(NodeId node, MessageHandler handler) override;
  Status unregister_node(NodeId node) override;

  // Point-to-point.  Ok means "accepted for transmission" — delivery is
  // asynchronous and may still be dropped (datagram semantics).
  Status send(Message message) override;

  // Delivers to every registered node except the sender.  All fan-out legs
  // share the sender's payload buffer (SharedPayload): one marshal per
  // broadcast, not one per destination.
  Status broadcast(Message message) override;

  // Multicast groups.
  Status create_multicast_group(GroupId group) override;
  Status remove_multicast_group(GroupId group) override;
  Status join(GroupId group, NodeId node) override;
  Status leave(GroupId group, NodeId node) override;
  Status multicast(GroupId group, Message message) override;

  // Fault injection: a partitioned pair silently drops traffic both ways.
  void partition(NodeId a, NodeId b);
  void heal(NodeId a, NodeId b);
  void isolate(NodeId node);    // partition `node` from everyone
  void reconnect(NodeId node);  // heal all partitions involving `node`

  // Installs a deterministic fault plan (see net/fault.hpp).  Replaces any
  // previous plan; window/schedule time restarts at zero.  Every run with
  // the same plan and the same per-stream traffic sequence replays the same
  // faults.
  void load_fault_plan(FaultPlan plan);

  // Fail-stop crash: unregisters the node, joins its delivery thread, and
  // flushes its mailbox (queued messages are lost, like RAM on power-off).
  // The handler is remembered so restart_node() can re-register it.  While
  // crashed, traffic to and from the node is silently dropped — senders see
  // datagram loss, not an error, so retry layers keep probing for the
  // restart.  Join semantics: waits for the in-progress handler (if any) to
  // return; handlers are short by design (long work runs on worker pools).
  Status crash_node(NodeId node);
  Status restart_node(NodeId node);
  [[nodiscard]] bool is_crashed(NodeId node) const;

  [[nodiscard]] NetworkStats stats() const;
  void reset_stats();

  [[nodiscard]] std::vector<NodeId> nodes() const override;

  // Blocks until every queued message (wire + mailboxes) has been delivered
  // and handled.  Tests use this instead of sleeps.
  void quiesce();

  // Messages currently on the wire or in a mailbox (including one being
  // handled right now).  0 once quiesce() would return immediately.
  [[nodiscard]] std::int64_t in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }

 private:
  struct NodeState {
    MessageHandler handler;
    common::Mailbox<Message> mailbox;  // drained by delivery_thread
    std::thread delivery_thread;
  };

  struct WireItem {
    Duration deliver_at;
    std::uint64_t sequence;  // FIFO tie-break for equal deliver_at
    Message message;
    bool operator>(const WireItem& other) const {
      if (deliver_at != other.deliver_at) return deliver_at > other.deliver_at;
      return sequence > other.sequence;
    }
  };

  // NetworkStats with every counter a relaxed atomic on its own cache line:
  // hot paths bump without a lock OR false sharing (concurrent senders used
  // to ping-pong the line holding sent/bytes/fanout), stats() takes a
  // snapshot.  Counts are monotonic event tallies, so relaxed ordering is
  // enough — readers only need eventual totals, not cross-counter
  // consistency at an instant.
  struct AtomicStats {
    common::PaddedCounter sent;
    common::PaddedCounter delivered;
    common::PaddedCounter dropped;
    common::PaddedCounter broadcast_sends;
    common::PaddedCounter multicast_sends;
    common::PaddedCounter bytes;
    common::PaddedCounter fanout_messages;
    common::PaddedCounter wire_queued;
    common::PaddedCounter dropped_by_fault;
    common::PaddedCounter dropped_by_partition;
    common::PaddedCounter dropped_crashed;
    common::PaddedCounter dropped_no_route;
    common::PaddedCounter dropped_backpressure;
    common::PaddedCounter duplicated;
    common::PaddedCounter reordered;
    common::PaddedCounter delay_spikes;
    common::PaddedCounter crashes;
    common::PaddedCounter restarts;
  };

  void wire_loop();
  void delivery_loop(NodeState& state);
  // Applies scheduled fault-plan actions; runs with NO lock held.
  void apply_schedule(const std::vector<ScheduledAction>& actions);
  // Queues one message on the wire thread's timing queue (locks wire_mu_).
  void enqueue_wire(Message message, Duration delay);
  // Routes one wire-queue message that fell due (takes topo_mu_ shared).
  void deliver_from_wire(Message message);
  // Applies the fault injector to one outbound message (a p2p send or one
  // fan-out leg), then either pushes it straight into `target`'s mailbox
  // (zero total delay) or queues it on the wire.  Caller holds topo_mu_
  // (shared suffices).
  void transmit(NodeState& target, Message message);
  // The zero-delay fast path: partition check + direct mailbox push.
  // Caller holds topo_mu_ (shared suffices).
  void deliver_direct(NodeState& target, Message message);
  // Final mailbox admission under the configured capacity bound.  Assumes
  // the caller already holds the message's in-flight token; releases it on
  // refusal.  Caller holds topo_mu_ (shared suffices).
  void push_mailbox(NodeState& target, Message message);
  void register_node_locked(NodeId node, MessageHandler handler);
  void finish_in_flight();
  // Records the wire-transit span + histogram for one received message
  // (no-op unless observability is on and the sender stamped the message).
  void note_transit(const Message& message);
  void drop(common::PaddedCounter AtomicStats::* cause);
  // Caller holds topo_mu_ (shared suffices).
  [[nodiscard]] bool pair_partitioned_locked(NodeId a, NodeId b) const;
  [[nodiscard]] Duration latency_for(const Message& message) const;
  [[nodiscard]] Duration fault_epoch() const {
    return Duration{fault_epoch_rep_.load(std::memory_order_acquire)};
  }

  NetworkConfig config_;
  SteadyClock clock_;

  // Topology: read-mostly routing state.  Senders take it shared; node
  // lifecycle and partition edits take it unique.
  mutable std::shared_mutex topo_mu_;
  std::unordered_map<NodeId, std::unique_ptr<NodeState>> nodes_;
  std::map<GroupId, std::set<NodeId>> multicast_groups_;
  std::set<std::pair<NodeId, NodeId>> partitions_;  // normalized (min,max)
  std::unordered_map<NodeId, MessageHandler> crashed_;  // handler for restart

  // Timing wheel: only traffic with a non-zero delivery delay lives here.
  mutable std::mutex wire_mu_;
  std::condition_variable wire_cv_;
  std::priority_queue<WireItem, std::vector<WireItem>, std::greater<>> wire_;
  std::uint64_t wire_sequence_ = 0;
  bool shutting_down_ = false;

  // Fault plan execution (injector is internally synchronized; the schedule
  // is applied by the wire thread).
  FaultInjector injector_;
  std::atomic<Duration::rep> fault_epoch_rep_{0};  // plan-relative time zero

  // In-flight accounting for quiesce(): incremented when a message enters the
  // wire, decremented after the destination handler returns.
  std::atomic<std::int64_t> in_flight_{0};
  std::condition_variable quiesce_cv_;
  mutable std::mutex quiesce_mu_;

  AtomicStats stats_;

  // Resolved once at construction (registry instruments have stable
  // addresses), so delivery threads record without a registry lookup.
  obs::Histogram* transit_us_ = nullptr;

  std::thread wire_thread_;

  // Declared after everything it reads (stats_) so the source unregisters
  // from the global registry before this Network's state is destroyed.
  obs::MetricsRegistry::SourceHandle metrics_source_;
};

}  // namespace doct::net
