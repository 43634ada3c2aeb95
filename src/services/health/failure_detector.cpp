#include "services/health/failure_detector.hpp"

#include "common/serialize.hpp"
#include "events/registry.hpp"

namespace doct::services {

FailureDetector::FailureDetector(net::Transport& network, net::Demux& demux,
                                 events::EventSystem& events, NodeId self,
                                 FailureDetectorConfig config)
    : network_(network), events_(events), self_(self), config_(config) {
  demux.route(net::kHeartbeat,
              [this](const net::Message& m) { on_heartbeat(m); });

  metrics_source_ = obs::metrics().register_source(
      "node" + std::to_string(self_.value()) + ".health", [this] {
        const FailureDetectorStats s = stats();
        return std::vector<std::pair<std::string, std::uint64_t>>{
            {"heartbeats_sent", s.heartbeats_sent},
            {"heartbeats_received", s.heartbeats_received},
            {"node_down_raised", s.node_down_raised},
            {"node_up_raised", s.node_up_raised},
        };
      });
}

FailureDetector::~FailureDetector() { stop(); }

void FailureDetector::start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_ || shutdown_) return;
    running_ = true;
    beat_timer_ = events_.executor().timers().schedule_periodic(
        config_.heartbeat_interval, [this] { beat_once(); });
  }
  // The periodic's first fire is one interval out: beat on start too
  // (outside mu_: beat_once locks it).
  beat_once();
}

void FailureDetector::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;  // a later start() stays a no-op
    if (!running_) return;
    running_ = false;
  }
  events_.executor().timers().cancel(beat_timer_);
  // A beat already past its shutdown_ check finishes before this returns.
  std::lock_guard<std::mutex> beat(beat_mu_);
}

void FailureDetector::subscribe(ObjectId object) {
  std::lock_guard<std::mutex> lock(mu_);
  subscribers_.push_back(object);
}

void FailureDetector::on_node_down(std::function<void(NodeId)> callback) {
  std::lock_guard<std::mutex> lock(mu_);
  down_callbacks_.push_back(std::move(callback));
}

void FailureDetector::on_node_up(std::function<void(NodeId)> callback) {
  std::lock_guard<std::mutex> lock(mu_);
  up_callbacks_.push_back(std::move(callback));
}

bool FailureDetector::is_suspected(NodeId peer) const {
  std::lock_guard<std::mutex> lock(mu_);
  return suspected_.contains(peer);
}

bool FailureDetector::has_heard(NodeId peer) const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_heard_.contains(peer);
}

std::vector<NodeId> FailureDetector::suspected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {suspected_.begin(), suspected_.end()};
}

FailureDetectorStats FailureDetector::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void FailureDetector::on_heartbeat(const net::Message& message) {
  // Network delivery thread: record only; transitions are detected (and
  // events raised) by the next beat so this path never blocks.
  std::lock_guard<std::mutex> lock(mu_);
  last_heard_[message.from] = clock_.now();
  stats_.heartbeats_received++;
}

void FailureDetector::raise_transition(EventId event, NodeId peer) {
  std::vector<ObjectId> subscribers;
  std::vector<std::function<void(NodeId)>> callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    subscribers = subscribers_;
    callbacks = event == events::sys::kNodeDown ? down_callbacks_
                                                : up_callbacks_;
    if (event == events::sys::kNodeDown) {
      stats_.node_down_raised++;
    } else {
      stats_.node_up_raised++;
    }
  }
  // NODE_DOWN/NODE_UP reactions are control-plane work: run them on the
  // node executor's control lane so a peer death is acted on ahead of any
  // event/bulk backlog, and so a slow subscriber handler can never delay
  // the next heartbeat broadcast.  The task captures `events_` (outlives
  // the executor drain — NodeRuntime tears the executor down while every
  // subsystem is still alive) plus value copies of everything else.
  events::EventSystem& events = events_;
  auto deliver = [&events, event, peer, subscribers = std::move(subscribers),
                  callbacks = std::move(callbacks)] {
    Writer w;
    w.put(peer);
    const rpc::Payload user_data = std::move(w).take();
    for (ObjectId object : subscribers) {
      events.raise(event, object, user_data);
    }
    for (const auto& callback : callbacks) callback(peer);
  };
  // Stays on a lane: raise() at a subscriber hosted on another node blocks
  // in an RPC, which the wheel's tick thread must never do.  try_submit:
  // the tick thread must never park on a full lane either.  Inline
  // fallback keeps the edge-triggered delivery guarantee when the lane is
  // saturated or already shut down.
  if (!events_.executor().try_submit(exec::Lane::kControl, deliver).is_ok()) {
    deliver();
  }
}

void FailureDetector::beat_once() {
  std::lock_guard<std::mutex> beat(beat_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
  }
  network_.broadcast(net::Message{
      .from = self_,
      .to = NodeId{},
      .kind = net::kHeartbeat,
      .call = CallId{},
      .payload = {},
  });

  // Edge-detect both transitions under the lock, raise outside it.
  std::vector<NodeId> went_down;
  std::vector<NodeId> came_back;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.heartbeats_sent++;
    const Duration now = clock_.now();
    for (const auto& [peer, heard] : last_heard_) {
      const bool silent = now - heard > config_.suspect_after;
      if (silent && !suspected_.contains(peer)) {
        suspected_.insert(peer);
        went_down.push_back(peer);
      } else if (!silent && suspected_.contains(peer)) {
        suspected_.erase(peer);
        came_back.push_back(peer);
      }
    }
  }
  for (NodeId peer : went_down) {
    raise_transition(events::sys::kNodeDown, peer);
  }
  for (NodeId peer : came_back) {
    raise_transition(events::sys::kNodeUp, peer);
  }
}

}  // namespace doct::services
