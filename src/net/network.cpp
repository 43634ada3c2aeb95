#include "net/network.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/trace.hpp"

namespace doct::net {

namespace {
std::pair<NodeId, NodeId> normalize(NodeId a, NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

void inc(common::PaddedCounter& counter, std::uint64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}
}  // namespace

Network::Network(NetworkConfig config)
    : config_(config) {
  fault_epoch_rep_.store(clock_.now().count(), std::memory_order_release);
  transit_us_ = &obs::metrics().histogram("net.transit_us");
  wire_thread_ = std::thread([this] { wire_loop(); });
  metrics_source_ = obs::metrics().register_source("net", [this] {
    const NetworkStats s = stats();
    return std::vector<std::pair<std::string, std::uint64_t>>{
        {"sent", s.sent},
        {"delivered", s.delivered},
        {"dropped", s.dropped},
        {"broadcast_sends", s.broadcast_sends},
        {"multicast_sends", s.multicast_sends},
        {"bytes", s.bytes},
        {"fanout_messages", s.fanout_messages},
        {"wire_queued", s.wire_queued},
        {"dropped_by_fault", s.dropped_by_fault},
        {"dropped_by_partition", s.dropped_by_partition},
        {"dropped_backpressure", s.dropped_backpressure},
        {"duplicated", s.duplicated},
        {"reordered", s.reordered},
        {"delay_spikes", s.delay_spikes},
        {"crashes", s.crashes},
        {"restarts", s.restarts},
    };
  });
}

Network::~Network() {
  {
    std::lock_guard<std::mutex> lock(wire_mu_);
    shutting_down_ = true;
  }
  wire_cv_.notify_all();
  wire_thread_.join();

  // Close every mailbox, then join every delivery thread.
  std::vector<std::unique_ptr<NodeState>> states;
  {
    std::unique_lock<std::shared_mutex> lock(topo_mu_);
    for (auto& [id, state] : nodes_) states.push_back(std::move(state));
    nodes_.clear();
  }
  for (auto& state : states) {
    state->mailbox.close();
    if (state->delivery_thread.joinable()) state->delivery_thread.join();
  }
}

void Network::register_node_locked(NodeId node, MessageHandler handler) {
  auto state = std::make_unique<NodeState>();
  state->handler = std::move(handler);
  NodeState* raw = state.get();
  state->delivery_thread = std::thread([this, raw] { delivery_loop(*raw); });
  nodes_.emplace(node, std::move(state));
}

Status Network::register_node(NodeId node, MessageHandler handler) {
  if (!node.valid() || !handler) {
    return {StatusCode::kInvalidArgument, "node id and handler required"};
  }
  std::unique_lock<std::shared_mutex> lock(topo_mu_);
  if (nodes_.contains(node)) {
    return {StatusCode::kAlreadyExists, node.to_string()};
  }
  // A fresh registration supersedes any crash-time handler kept for restart.
  crashed_.erase(node);
  register_node_locked(node, std::move(handler));
  return Status::ok();
}

Status Network::unregister_node(NodeId node) {
  std::unique_ptr<NodeState> state;
  {
    std::unique_lock<std::shared_mutex> lock(topo_mu_);
    auto it = nodes_.find(node);
    if (it == nodes_.end()) {
      // A crashed node has no live state, but unregistering it must still
      // succeed (and forget the remembered restart handler): a node runtime
      // tears down the same way whether or not the network crashed it.
      if (crashed_.erase(node) > 0) return Status::ok();
      return {StatusCode::kNoSuchNode, node.to_string()};
    }
    state = std::move(it->second);
    nodes_.erase(it);
  }
  state->mailbox.close();
  if (state->delivery_thread.joinable()) state->delivery_thread.join();
  // Drain anything left in the mailbox: those messages were in flight and are
  // now lost; release their quiesce tokens.
  while (state->mailbox.try_pop()) {
    finish_in_flight();
  }
  return Status::ok();
}

Duration Network::latency_for(const Message& message) const {
  return config_.base_latency +
         config_.per_byte_latency * static_cast<long>(message.payload.size());
}

void Network::drop(common::PaddedCounter AtomicStats::* cause) {
  inc(stats_.dropped);
  inc(stats_.*cause);
}

void Network::enqueue_wire(Message message, Duration delay) {
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  inc(stats_.wire_queued);
  {
    std::lock_guard<std::mutex> lock(wire_mu_);
    wire_.push(
        WireItem{clock_.now() + delay, wire_sequence_++, std::move(message)});
  }
  wire_cv_.notify_one();
}

void Network::deliver_direct(NodeState& target, Message message) {
  // Send time IS delivery time on the zero-delay path, so the partition
  // check the wire thread would have done at delivery happens right here.
  if (pair_partitioned_locked(message.from, message.to)) {
    drop(&AtomicStats::dropped_by_partition);
    return;
  }
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  push_mailbox(target, std::move(message));
}

void Network::push_mailbox(NodeState& target, Message message) {
  using PushResult = common::Mailbox<Message>::PushResult;
  switch (target.mailbox.push_bounded(std::move(message),
                                      config_.mailbox_capacity)) {
    case PushResult::kOk:
      break;
    case PushResult::kFull:
      drop(&AtomicStats::dropped_backpressure);
      finish_in_flight();
      break;
    case PushResult::kClosed:
      finish_in_flight();
      break;
  }
}

void Network::transmit(NodeState& target, Message message) {
  const Duration base = latency_for(message);
  if (!injector_.armed()) {
    if (base == Duration{0}) {
      deliver_direct(target, std::move(message));
    } else {
      enqueue_wire(std::move(message), base);
    }
    return;
  }
  const FaultDecision decision = injector_.decide(
      message.from, message.to, message.kind, clock_.now() - fault_epoch());
  if (decision.drop) {
    drop(&AtomicStats::dropped_by_fault);
    return;
  }
  if (decision.duplicate) inc(stats_.duplicated);
  if (decision.reorder) inc(stats_.reordered);
  if (decision.delay_spike) inc(stats_.delay_spikes);
  const Duration delay = base + decision.extra_delay;
  if (decision.duplicate) {
    // The duplicate shares the original's payload buffer (SharedPayload).
    if (delay == Duration{0}) {
      deliver_direct(target, message);
    } else {
      enqueue_wire(message, delay);
    }
  }
  if (delay == Duration{0}) {
    deliver_direct(target, std::move(message));
  } else {
    enqueue_wire(std::move(message), delay);
  }
}

void Network::finish_in_flight() {
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  // The notify must happen under quiesce_mu_: quiesce() checks the counter
  // under that mutex, and a notify between its predicate check and its block
  // would otherwise be lost, leaving the waiter asleep forever.
  std::lock_guard<std::mutex> lock(quiesce_mu_);
  quiesce_cv_.notify_all();
}

Status Network::send(Message message) {
  inc(stats_.sent);
  inc(stats_.bytes, message.payload.size());
  if (obs::tracing_enabled() || obs::metrics_enabled()) {
    message.sent_at_us = obs::now_us();
  }
  std::shared_lock<std::shared_mutex> lock(topo_mu_);
  // A crashed endpoint behaves like a dead host, not a config error: the
  // datagram is silently lost so retry layers keep probing for the restart.
  if (crashed_.contains(message.to) || crashed_.contains(message.from)) {
    drop(&AtomicStats::dropped_crashed);
    return Status::ok();
  }
  auto it = nodes_.find(message.to);
  if (it == nodes_.end()) {
    return {StatusCode::kNoSuchNode, message.to.to_string()};
  }
  transmit(*it->second, std::move(message));
  return Status::ok();
}

Status Network::broadcast(Message message) {
  inc(stats_.broadcast_sends);
  if (obs::tracing_enabled() || obs::metrics_enabled()) {
    message.sent_at_us = obs::now_us();  // one stamp shared by all legs
  }
  std::shared_lock<std::shared_mutex> lock(topo_mu_);
  if (crashed_.contains(message.from)) {
    drop(&AtomicStats::dropped_crashed);
    return Status::ok();
  }
  for (const auto& [id, state] : nodes_) {
    if (id == message.from) continue;
    // The copy shares the payload buffer: broadcast marshals once, every
    // leg carries the same bytes.
    Message copy = message;
    copy.to = id;
    inc(stats_.fanout_messages);
    inc(stats_.bytes, copy.payload.size());
    // Each fan-out leg passes through the injector independently: one
    // broadcast can reach some destinations and lose others.
    transmit(*state, std::move(copy));
  }
  return Status::ok();
}

Status Network::create_multicast_group(GroupId group) {
  std::unique_lock<std::shared_mutex> lock(topo_mu_);
  auto [it, inserted] = multicast_groups_.try_emplace(group);
  (void)it;
  if (!inserted) return {StatusCode::kAlreadyExists, group.to_string()};
  return Status::ok();
}

Status Network::remove_multicast_group(GroupId group) {
  std::unique_lock<std::shared_mutex> lock(topo_mu_);
  if (multicast_groups_.erase(group) == 0) {
    return {StatusCode::kNoSuchGroup, group.to_string()};
  }
  return Status::ok();
}

Status Network::join(GroupId group, NodeId node) {
  std::unique_lock<std::shared_mutex> lock(topo_mu_);
  auto it = multicast_groups_.find(group);
  if (it == multicast_groups_.end()) {
    return {StatusCode::kNoSuchGroup, group.to_string()};
  }
  it->second.insert(node);
  return Status::ok();
}

Status Network::leave(GroupId group, NodeId node) {
  std::unique_lock<std::shared_mutex> lock(topo_mu_);
  auto it = multicast_groups_.find(group);
  if (it == multicast_groups_.end()) {
    return {StatusCode::kNoSuchGroup, group.to_string()};
  }
  it->second.erase(node);
  return Status::ok();
}

Status Network::multicast(GroupId group, Message message) {
  std::shared_lock<std::shared_mutex> lock(topo_mu_);
  auto it = multicast_groups_.find(group);
  if (it == multicast_groups_.end()) {
    return {StatusCode::kNoSuchGroup, group.to_string()};
  }
  inc(stats_.multicast_sends);
  if (obs::tracing_enabled() || obs::metrics_enabled()) {
    message.sent_at_us = obs::now_us();
  }
  if (crashed_.contains(message.from)) {
    drop(&AtomicStats::dropped_crashed);
    return Status::ok();
  }
  for (NodeId member : it->second) {
    if (member == message.from) continue;
    auto node_it = nodes_.find(member);
    if (node_it == nodes_.end()) continue;
    Message copy = message;
    copy.to = member;
    inc(stats_.fanout_messages);
    inc(stats_.bytes, copy.payload.size());
    transmit(*node_it->second, std::move(copy));
  }
  return Status::ok();
}

void Network::partition(NodeId a, NodeId b) {
  std::unique_lock<std::shared_mutex> lock(topo_mu_);
  partitions_.insert(normalize(a, b));
}

void Network::heal(NodeId a, NodeId b) {
  std::unique_lock<std::shared_mutex> lock(topo_mu_);
  partitions_.erase(normalize(a, b));
}

void Network::isolate(NodeId node) {
  std::unique_lock<std::shared_mutex> lock(topo_mu_);
  for (const auto& [id, state] : nodes_) {
    if (id != node) partitions_.insert(normalize(node, id));
  }
}

void Network::reconnect(NodeId node) {
  std::unique_lock<std::shared_mutex> lock(topo_mu_);
  std::erase_if(partitions_, [node](const auto& pair) {
    return pair.first == node || pair.second == node;
  });
}

bool Network::pair_partitioned_locked(NodeId a, NodeId b) const {
  return partitions_.contains(normalize(a, b));
}

void Network::load_fault_plan(FaultPlan plan) {
  injector_.load(std::move(plan));
  fault_epoch_rep_.store(clock_.now().count(), std::memory_order_release);
  // Events scheduled at (or before) the epoch apply before this returns: a
  // zero-latency direct-push send issued right after load_fault_plan must
  // not race the wire thread past a t=0 partition or crash.
  apply_schedule(injector_.due(Duration{0}));
  wire_cv_.notify_all();  // wire thread re-reads the schedule deadline
}

Status Network::crash_node(NodeId node) {
  std::unique_ptr<NodeState> state;
  {
    std::unique_lock<std::shared_mutex> lock(topo_mu_);
    auto it = nodes_.find(node);
    if (it == nodes_.end()) return {StatusCode::kNoSuchNode, node.to_string()};
    crashed_[node] = it->second->handler;
    state = std::move(it->second);
    nodes_.erase(it);
    inc(stats_.crashes);
  }
  state->mailbox.close();
  if (state->delivery_thread.joinable()) state->delivery_thread.join();
  // Mailbox flush: queued messages die with the node; release their quiesce
  // tokens so in-flight accounting stays balanced.
  while (state->mailbox.try_pop()) {
    finish_in_flight();
  }
  return Status::ok();
}

Status Network::restart_node(NodeId node) {
  {
    std::unique_lock<std::shared_mutex> lock(topo_mu_);
    auto it = crashed_.find(node);
    if (it == crashed_.end()) {
      return {StatusCode::kNoSuchNode, "not crashed: " + node.to_string()};
    }
    MessageHandler handler = std::move(it->second);
    crashed_.erase(it);
    register_node_locked(node, std::move(handler));
    inc(stats_.restarts);
  }
  wire_cv_.notify_all();
  return Status::ok();
}

bool Network::is_crashed(NodeId node) const {
  std::shared_lock<std::shared_mutex> lock(topo_mu_);
  return crashed_.contains(node);
}

NetworkStats Network::stats() const {
  NetworkStats out;
  out.sent = stats_.sent.load(std::memory_order_relaxed);
  out.delivered = stats_.delivered.load(std::memory_order_relaxed);
  out.dropped = stats_.dropped.load(std::memory_order_relaxed);
  out.broadcast_sends = stats_.broadcast_sends.load(std::memory_order_relaxed);
  out.multicast_sends = stats_.multicast_sends.load(std::memory_order_relaxed);
  out.bytes = stats_.bytes.load(std::memory_order_relaxed);
  out.fanout_messages = stats_.fanout_messages.load(std::memory_order_relaxed);
  out.wire_queued = stats_.wire_queued.load(std::memory_order_relaxed);
  out.dropped_by_fault =
      stats_.dropped_by_fault.load(std::memory_order_relaxed);
  out.dropped_by_partition =
      stats_.dropped_by_partition.load(std::memory_order_relaxed);
  out.dropped_crashed = stats_.dropped_crashed.load(std::memory_order_relaxed);
  out.dropped_no_route =
      stats_.dropped_no_route.load(std::memory_order_relaxed);
  out.dropped_backpressure =
      stats_.dropped_backpressure.load(std::memory_order_relaxed);
  out.duplicated = stats_.duplicated.load(std::memory_order_relaxed);
  out.reordered = stats_.reordered.load(std::memory_order_relaxed);
  out.delay_spikes = stats_.delay_spikes.load(std::memory_order_relaxed);
  out.crashes = stats_.crashes.load(std::memory_order_relaxed);
  out.restarts = stats_.restarts.load(std::memory_order_relaxed);
  return out;
}

void Network::reset_stats() {
  stats_.sent.store(0, std::memory_order_relaxed);
  stats_.delivered.store(0, std::memory_order_relaxed);
  stats_.dropped.store(0, std::memory_order_relaxed);
  stats_.broadcast_sends.store(0, std::memory_order_relaxed);
  stats_.multicast_sends.store(0, std::memory_order_relaxed);
  stats_.bytes.store(0, std::memory_order_relaxed);
  stats_.fanout_messages.store(0, std::memory_order_relaxed);
  stats_.wire_queued.store(0, std::memory_order_relaxed);
  stats_.dropped_by_fault.store(0, std::memory_order_relaxed);
  stats_.dropped_by_partition.store(0, std::memory_order_relaxed);
  stats_.dropped_crashed.store(0, std::memory_order_relaxed);
  stats_.dropped_no_route.store(0, std::memory_order_relaxed);
  stats_.dropped_backpressure.store(0, std::memory_order_relaxed);
  stats_.duplicated.store(0, std::memory_order_relaxed);
  stats_.reordered.store(0, std::memory_order_relaxed);
  stats_.delay_spikes.store(0, std::memory_order_relaxed);
  stats_.crashes.store(0, std::memory_order_relaxed);
  stats_.restarts.store(0, std::memory_order_relaxed);
}

std::vector<NodeId> Network::nodes() const {
  std::shared_lock<std::shared_mutex> lock(topo_mu_);
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, state] : nodes_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

void Network::quiesce() {
  std::unique_lock<std::mutex> lock(quiesce_mu_);
  quiesce_cv_.wait(lock, [&] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

void Network::apply_schedule(const std::vector<ScheduledAction>& actions) {
  for (const ScheduledAction& action : actions) {
    switch (action.kind) {
      case ScheduledAction::Kind::kPartition:
        partition(action.a, action.b);
        break;
      case ScheduledAction::Kind::kHeal:
        heal(action.a, action.b);
        break;
      case ScheduledAction::Kind::kCrash:
        crash_node(action.a);
        break;
      case ScheduledAction::Kind::kRestart:
        restart_node(action.a);
        break;
    }
  }
}

void Network::deliver_from_wire(Message message) {
  std::shared_lock<std::shared_mutex> lock(topo_mu_);
  const bool cut = pair_partitioned_locked(message.from, message.to);
  auto it = nodes_.find(message.to);
  if (cut || it == nodes_.end()) {
    if (cut) {
      drop(&AtomicStats::dropped_by_partition);
    } else if (crashed_.contains(message.to)) {
      drop(&AtomicStats::dropped_crashed);
    } else {
      drop(&AtomicStats::dropped_no_route);
    }
    finish_in_flight();
    return;
  }
  // Holding topo_mu_ shared across the push keeps the node-exists check and
  // the push atomic with respect to unregister_node / crash_node.
  push_mailbox(*it->second, std::move(message));
}

void Network::wire_loop() {
  std::unique_lock<std::mutex> lock(wire_mu_);
  while (true) {
    if (shutting_down_) {
      // Drop everything still on the wire and release quiesce tokens.
      while (!wire_.empty()) {
        wire_.pop();
        finish_in_flight();
      }
      return;
    }

    // Apply fault-plan schedule actions that fell due.  They take topo_mu_
    // unique (partitions) or join delivery threads (crash/restart), which
    // may block on traffic needing the wire queue — so run them with
    // wire_mu_ released.
    const Duration plan_now = clock_.now() - fault_epoch();
    std::vector<ScheduledAction> due = injector_.due(plan_now);
    if (!due.empty()) {
      lock.unlock();
      apply_schedule(due);
      lock.lock();
      continue;
    }

    const Duration next_plan_event = injector_.next_event_at();
    const Duration next_sched = next_plan_event == Duration::max()
                                    ? Duration::max()
                                    : fault_epoch() + next_plan_event;
    if (wire_.empty()) {
      if (next_sched == Duration::max()) {
        // Plain wait, then re-derive everything at the loop top: a
        // predicate of "wire non-empty or shutdown" would eat the notify
        // from load_fault_plan and sleep through the schedule it installed.
        wire_cv_.wait(lock);
      } else {
        wire_cv_.wait_until(lock, TimePoint{} + next_sched);
      }
      continue;
    }
    const Duration now = clock_.now();
    const Duration next = std::min(wire_.top().deliver_at, next_sched);
    if (next > now) {
      wire_cv_.wait_until(lock, TimePoint{} + next);
      continue;
    }
    if (wire_.top().deliver_at > now) continue;  // only the schedule was due

    // Batch-drain everything already due, then route it without holding the
    // queue lock: concurrent senders keep enqueueing while we deliver.
    std::vector<Message> batch;
    while (!wire_.empty() && wire_.top().deliver_at <= now) {
      batch.push_back(std::move(const_cast<WireItem&>(wire_.top()).message));
      wire_.pop();
    }
    lock.unlock();
    for (Message& message : batch) {
      deliver_from_wire(std::move(message));
    }
    lock.lock();
  }
}

void Network::note_transit(const Message& message) {
  // Observability hook on the receive side: the sender stamped sent_at_us,
  // so transit time is measurable here without any extra wire bytes.
  if (message.sent_at_us == 0) return;
  const std::int64_t now = obs::now_us();
  const std::int64_t transit = now > message.sent_at_us
                                   ? now - message.sent_at_us
                                   : 0;
  if (obs::metrics_enabled()) {
    transit_us_->record_us(transit);
  }
  // Track 0 is the node's dedicated wire track.
  obs::record_span("wire", message.to.value(),
                   obs::TraceContext{message.trace_id, message.span_id},
                   message.sent_at_us, transit);
}

void Network::delivery_loop(NodeState& state) {
  // Batched drain: a burst of queued messages costs one chain exchange.
  // An empty batch means closed-and-drained.
  while (true) {
    std::deque<Message> batch = state.mailbox.pop_all();
    if (batch.empty()) return;
    for (Message& message : batch) {
      note_transit(message);
      state.handler(message);  // runs unlocked (CP.22)
      inc(stats_.delivered);
      finish_in_flight();
    }
  }
}

}  // namespace doct::net
