// Heartbeat-based failure detector.
//
// The paper's machinery — TERMINATE chains (§4.2), dead-target tombstones and
// the thread locators (§7.1) — exists because distributed nodes fail
// mid-protocol, but nothing in the facility *notices* a failure; every layer
// discovers it one timeout at a time.  This service closes that gap: each
// participating node broadcasts a small heartbeat on an interval and watches
// for silence from its peers.  A peer silent for longer than
// `suspect_after` is suspected down; hearing from it again clears the
// suspicion.
//
// Both transitions are raised through the event system as the predefined
// system events NODE_DOWN / NODE_UP (object-based handling, §4.3): any
// passive object subscribed via subscribe() gets its registered handler
// entry run with the dead/recovered NodeId in the event block's user data.
// The lock manager uses this for orphaned-lock cleanup (release every lock
// whose holder lived on the crashed node); plain C++ callbacks are also
// offered for kernel-level reactions (census fast-path).
//
// Detection is edge-triggered: one NODE_DOWN per crash, one NODE_UP per
// recovery.  The heartbeat is a periodic timer on the node executor's shared
// wheel; each beat detects the edges, and the raises and callbacks run on
// the executor's CONTROL lane (inline on the tick thread only if the lane
// refuses), so failure reactions overtake any event/bulk backlog and a slow
// subscriber can never delay the next heartbeat broadcast.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/timer_wheel.hpp"
#include "events/event_system.hpp"
#include "net/demux.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace doct::services {

struct FailureDetectorConfig {
  bool enabled = false;  // NodeRuntime constructs+starts the detector if set
  Duration heartbeat_interval{std::chrono::milliseconds(20)};
  // Silence threshold before a peer is suspected.  Keep this several
  // multiples of heartbeat_interval: the simulated wire adds latency and the
  // fault injector adds spikes.
  Duration suspect_after{std::chrono::milliseconds(120)};
};

struct FailureDetectorStats {
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t node_down_raised = 0;
  std::uint64_t node_up_raised = 0;
};

class FailureDetector {
 public:
  FailureDetector(net::Transport& network, net::Demux& demux,
                  events::EventSystem& events, NodeId self,
                  FailureDetectorConfig config = {});
  ~FailureDetector();

  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  void start();  // idempotent
  // Idempotent.  Cancels the heartbeat timer and waits out a beat already
  // running, so nothing is broadcast or raised once stop() returns.
  void stop();

  // Registers a passive object for NODE_DOWN / NODE_UP delivery.  The object
  // must have define_handler("NODE_DOWN", ...) / ("NODE_UP", ...) entries;
  // the affected NodeId is serialized in the block's user data.
  void subscribe(ObjectId object);

  // C++-level hooks, run on the executor control lane after the events are
  // raised for that transition.
  void on_node_down(std::function<void(NodeId)> callback);
  void on_node_up(std::function<void(NodeId)> callback);

  [[nodiscard]] bool is_suspected(NodeId peer) const;
  // Whether a heartbeat from `peer` ever arrived.  Only such peers can be
  // suspected: one that dies before its first heartbeat lands goes unseen.
  [[nodiscard]] bool has_heard(NodeId peer) const;
  [[nodiscard]] std::vector<NodeId> suspected() const;
  [[nodiscard]] FailureDetectorStats stats() const;

 private:
  // One heartbeat broadcast + edge detection pass: the periodic wheel
  // callback (and start()'s first beat).  A no-op once stop() has begun.
  void beat_once();
  void on_heartbeat(const net::Message& message);
  void raise_transition(EventId event, NodeId peer);

  net::Transport& network_;
  events::EventSystem& events_;
  const NodeId self_;
  const FailureDetectorConfig config_;
  SteadyClock clock_;

  mutable std::mutex mu_;
  std::map<NodeId, Duration> last_heard_;  // peers that ever heartbeated
  std::set<NodeId> suspected_;
  std::vector<ObjectId> subscribers_;
  std::vector<std::function<void(NodeId)>> down_callbacks_;
  std::vector<std::function<void(NodeId)>> up_callbacks_;
  FailureDetectorStats stats_;
  bool running_ = false;
  bool shutdown_ = false;
  // Held for a whole beat; stop() takes it after setting shutdown_ to wait
  // out a beat in flight on the tick thread.
  std::mutex beat_mu_;
  common::TimerId beat_timer_ = 0;  // periodic heartbeat on the shared wheel

  // Last member: unregisters before the stats it reads are destroyed.
  obs::MetricsRegistry::SourceHandle metrics_source_;
};

}  // namespace doct::services
