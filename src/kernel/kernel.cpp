#include "kernel/kernel.hpp"

#include <algorithm>
#include <cassert>

#include "common/log.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace doct::kernel {

namespace {

constexpr const char* kDeliverMethod = "kernel.deliver";
constexpr const char* kResumeMethod = "kernel.resume";
constexpr const char* kProbeHopMethod = "kernel.probe_hop";

// The wait slice cap makes kernel waits robust against missed wakeups
// (polling is a safety net, not the mechanism: waiters are notified).
constexpr Duration kMaxWaitSlice = std::chrono::milliseconds(5);

// Thread-locals binding an OS thread (root carrier or adopted RPC worker) to
// the logical thread it is executing.
thread_local ThreadContext* g_current_ctx = nullptr;
thread_local Kernel* g_current_kernel = nullptr;

enum class HopState : std::uint8_t {
  kHere = 0,
  kDeparted = 1,
  kDead = 2,
  kUnknown = 3,
};

// Executor coalesce keys share one namespace per lane; the salt keeps the
// kernel's different idempotent work kinds from colliding on small ids.
std::uint64_t coalesce_key(std::uint64_t salt, std::uint64_t a,
                           std::uint64_t b) {
  std::uint64_t key = salt ^ (a * 0x9E3779B97F4A7C15ULL) ^
                      (b * 0x517CC1B727220A95ULL);
  return key == 0 ? 1 : key;
}

}  // namespace

Kernel::Kernel(net::Transport& network, net::Demux& demux, rpc::RpcEndpoint& rpc,
               NodeId self, IdGenerator& ids, KernelConfig config)
    : network_(network),
      rpc_(rpc),
      self_(self),
      ids_(ids),
      config_(config),
      wheel_(rpc.executor().timers()),
      location_cache_(config_.location_cache) {
  // All three kernel RPC methods are non-blocking (they enqueue or read local
  // state), so they run inline on the delivery thread (kFast): delivery makes
  // progress even when every RPC worker is parked in a blocked invocation.
  rpc_.register_method(
      kDeliverMethod,
      [this](NodeId caller, Reader& args) { return rpc_deliver(caller, args); },
      rpc::MethodClass::kFast);
  rpc_.register_method(
      kResumeMethod,
      [this](NodeId caller, Reader& args) { return rpc_resume(caller, args); },
      rpc::MethodClass::kFast);
  rpc_.register_method(
      kProbeHopMethod,
      [this](NodeId caller, Reader& args) {
        return rpc_probe_hop(caller, args);
      },
      rpc::MethodClass::kFast);

  demux.route(net::kLocateProbe,
              [this](const net::Message& m) { on_locate_probe(m); });
  demux.route(net::kLocateReply,
              [this](const net::Message& m) { on_locate_reply(m); });
  demux.route(net::kGroupCensus,
              [this](const net::Message& m) { on_group_census(m); });
  demux.route(net::kGroupCensusReply,
              [this](const net::Message& m) { on_group_census_reply(m); });
  demux.route(net::kEventNotify, [this](const net::Message& m) {
    try {
      Reader r(m.payload.share());
      EventNotice notice = EventNotice::deserialize(r);
      const bool urgent = r.get_bool();
      deliver_group_local(notice, urgent);
    } catch (const DeserializeError& e) {
      DOCT_LOG(kError) << "malformed group notify: " << e.what();
    }
  });

  deliver_us_ = &obs::metrics().histogram("kernel.deliver_us");
  const std::string prefix = "node" + std::to_string(self_.value());
  metrics_source_ = obs::metrics().register_source(prefix + ".kernel", [this] {
    const KernelStats s = stats();
    return std::vector<std::pair<std::string, std::uint64_t>>{
        {"threads_spawned", s.threads_spawned},
        {"threads_terminated", s.threads_terminated},
        {"notices_delivered", s.notices_delivered},
        {"notices_dead_target", s.notices_dead_target},
        {"locate_probes_sent", s.locate_probes_sent},
        {"migrations_in", s.migrations_in},
        {"migrations_out", s.migrations_out},
        {"timer_events", s.timer_events},
        {"census_peer_down_skips", s.census_peer_down_skips},
        {"cached_deliveries", s.cached_deliveries},
    };
  });
  cache_metrics_source_ = obs::metrics().register_source(
      prefix + ".location_cache", [this] {
        const LocationCacheStats s = location_cache_.stats();
        return std::vector<std::pair<std::string, std::uint64_t>>{
            {"hits", s.hits},
            {"misses", s.misses},
            {"stale", s.stale},
            {"invalidations", s.invalidations},
            {"inserts", s.inserts},
            {"evictions", s.evictions},
        };
      });
}

Kernel::~Kernel() {
  // No TIMER callback runs past this point: the node executor stopped the
  // shared wheel when NodeRuntime drained it, before any subsystem died.

  // Ask all live local threads to terminate, then join the root carriers.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [tid, ctx] : contexts_) ctx->mark_terminated();
  }
  std::map<ThreadId, RootThread> roots;
  {
    std::lock_guard<std::mutex> lock(mu_);
    roots.swap(root_threads_);
  }
  for (auto& [tid, root] : roots) {
    if (root.os_thread.joinable()) root.os_thread.join();
  }

  rpc_.unregister_method(kDeliverMethod);
  rpc_.unregister_method(kResumeMethod);
  rpc_.unregister_method(kProbeHopMethod);
}

// --- thread lifecycle --------------------------------------------------------

ThreadContext* Kernel::current() { return g_current_ctx; }

GroupId Kernel::create_group() { return ids_.next<GroupTag>(); }

GroupId Kernel::thread_multicast_group(ThreadId tid) const {
  // Per-thread multicast group: a reserved id range derived from the tid.
  return GroupId{0x8000000000000000ULL ^ tid.value()};
}

void Kernel::multicast_join(ThreadId tid) {
  if (!config_.maintain_multicast_groups) return;
  const GroupId group = thread_multicast_group(tid);
  // Group may already exist (created at spawn); join is idempotent.
  network_.create_multicast_group(group);
  network_.join(group, self_);
}

void Kernel::multicast_leave(ThreadId tid) {
  if (!config_.maintain_multicast_groups) return;
  network_.leave(thread_multicast_group(tid), self_);
}

ThreadId Kernel::spawn(ThreadBody body, SpawnOptions options) {
  const ThreadId tid = options.explicit_tid.valid()
                           ? options.explicit_tid
                           : ids_.next_thread_id(self_);
  auto ctx = std::make_shared<ThreadContext>(tid, self_);

  // Attribute inheritance (§6.3): a child spawned from a running logical
  // thread inherits the full attribute record, handler chain included.
  ThreadContext* parent = current();
  if (options.attributes.has_value()) {
    ctx->attributes() = std::move(*options.attributes);
  } else if (parent != nullptr) {
    ctx->attributes() =
        parent->with_attributes([](ThreadAttributes& a) { return a; });
    ctx->attributes().creator = parent->tid();
  }
  if (options.group.valid()) {
    ctx->attributes().group = options.group;
  } else if (!ctx->attributes().group.valid()) {
    ctx->attributes().group = create_group();
  }

  register_context(ctx);
  multicast_join(tid);
  start_timers_for(*ctx);
  bump(&AtomicStats::threads_spawned);

  std::lock_guard<std::mutex> lock(mu_);
  RootThread& root = root_threads_[tid];
  root.context = ctx;
  root.os_thread = std::thread(
      [this, ctx, body = std::move(body)] { run_thread_body(ctx, body); });
  return tid;
}

void Kernel::run_thread_body(std::shared_ptr<ThreadContext> ctx,
                             ThreadBody body) {
  g_current_ctx = ctx.get();
  g_current_kernel = this;
  try {
    body();
  } catch (const std::exception& e) {
    DOCT_LOG(kError) << ctx->tid().to_string()
                     << " body threw: " << e.what();
  }
  g_current_ctx = nullptr;
  g_current_kernel = nullptr;

  stop_timers_for(ctx->tid());
  // The thread dies at its root, so no node joins its location group again:
  // remove the group, not just this member, or the transport keeps one
  // group per thread ever spawned.
  if (config_.maintain_multicast_groups) {
    network_.remove_multicast_group(thread_multicast_group(ctx->tid()));
  }
  unregister_context(ctx->tid(), /*tombstone=*/true);
  bump(&AtomicStats::threads_terminated);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = root_threads_.find(ctx->tid());
    if (it != root_threads_.end()) it->second.done = true;
  }
  root_done_cv_.notify_all();
}

Status Kernel::join_thread(ThreadId tid, Duration timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = root_threads_.find(tid);
  if (it == root_threads_.end()) {
    return {StatusCode::kNoSuchThread, tid.to_string()};
  }
  const bool done = root_done_cv_.wait_for(lock, timeout, [&] {
    auto jt = root_threads_.find(tid);
    return jt == root_threads_.end() || jt->second.done;
  });
  if (!done) return {StatusCode::kTimeout, "join " + tid.to_string()};
  it = root_threads_.find(tid);
  if (it != root_threads_.end()) {
    std::thread to_join = std::move(it->second.os_thread);
    root_threads_.erase(it);
    lock.unlock();
    if (to_join.joinable()) to_join.join();
  }
  return Status::ok();
}

void Kernel::register_context(std::shared_ptr<ThreadContext> ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  contexts_[ctx->tid()] = std::move(ctx);
}

void Kernel::unregister_context(ThreadId tid, bool tombstone) {
  // The thread is no longer addressable here: any hint we hold for it is
  // dead weight (it exited) or wrong (it migrated away).
  location_cache_.invalidate(tid);
  std::lock_guard<std::mutex> lock(mu_);
  contexts_.erase(tid);
  if (!tombstone) return;
  // Read under mu_ so the FIFO stays in death order.
  const Duration now = clock_.now();
  tombstones_[tid] = now;
  tombstone_fifo_.emplace_back(now, tid);
  // Reap expired tombstones (the "zombie" discussion in §7: trails of death
  // information must not accumulate).
  const Duration cutoff = now - config_.tombstone_ttl;
  while (!tombstone_fifo_.empty() && tombstone_fifo_.front().first < cutoff) {
    const auto [died, dead_tid] = tombstone_fifo_.front();
    tombstone_fifo_.pop_front();
    auto it = tombstones_.find(dead_tid);
    if (it != tombstones_.end() && it->second == died) tombstones_.erase(it);
  }
}

std::shared_ptr<ThreadContext> Kernel::find_context(ThreadId tid) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = contexts_.find(tid);
  return it == contexts_.end() ? nullptr : it->second;
}

bool Kernel::is_tombstoned(ThreadId tid) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tombstones_.find(tid);
  // An expired record reads as gone even before a later exit reaps it.
  return it != tombstones_.end() &&
         it->second >= clock_.now() - config_.tombstone_ttl;
}

std::size_t Kernel::tombstone_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tombstones_.size();
}

void Kernel::terminate_all_local() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [tid, ctx] : contexts_) ctx->mark_terminated();
}

void Kernel::adopt_stub(std::shared_ptr<ThreadContext> stub) {
  register_context(std::move(stub));
}

void Kernel::drop_stub(ThreadId tid, bool tombstone) {
  auto ctx = find_context(tid);
  if (ctx == nullptr || ctx->here()) return;
  unregister_context(tid, tombstone);
}

std::vector<ThreadId> Kernel::local_group_members(GroupId group) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadId> members;
  for (const auto& [tid, ctx] : contexts_) {
    if (ctx->here() && ctx->with_attributes([&](ThreadAttributes& a) {
          return a.group == group;
        })) {
      members.push_back(tid);
    }
  }
  return members;
}

std::vector<ThreadId> Kernel::local_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadId> out;
  for (const auto& [tid, ctx] : contexts_) {
    if (ctx->here()) out.push_back(tid);
  }
  return out;
}

Result<std::vector<ThreadId>> Kernel::group_census(GroupId group) {
  const std::size_t expected_replies = network_.nodes().size() - 1;
  const std::uint64_t token = new_wait_token();
  auto pending = std::make_shared<CensusPending>();
  pending->members = local_group_members(group);
  {
    std::lock_guard<std::mutex> lock(census_mu_);
    censuses_[token] = pending;
  }
  Writer w;
  w.put(token);
  w.put(group);
  network_.broadcast(net::Message{
      .from = self_,
      .to = NodeId{},
      .kind = net::kGroupCensus,
      .call = CallId{},
      .payload = std::move(w).take(),
  });
  std::vector<ThreadId> members;
  {
    std::unique_lock<std::mutex> lock(pending->mu);
    pending->cv.wait_for(lock, config_.locate_timeout, [&] {
      return pending->replies >= expected_replies;
    });
    members = pending->members;
  }
  {
    std::lock_guard<std::mutex> lock(census_mu_);
    censuses_.erase(token);
  }
  std::sort(members.begin(), members.end());
  return members;
}

void Kernel::on_group_census(const net::Message& message) {
  std::uint64_t token = 0;
  GroupId group;
  try {
    Reader r(message.payload.share());
    token = r.get<std::uint64_t>();
    group = r.get_id<GroupTag>();
  } catch (const DeserializeError& e) {
    DOCT_LOG(kError) << "malformed census probe: " << e.what();
    return;
  }
  // Building + sending the reply is idempotent per (token, requester): a
  // retransmitted probe queued behind the first coalesces in place instead
  // of consuming control-lane capacity.  Runs inline when the lane refuses
  // (full or shut down) — the work never blocks, so that is always safe.
  const auto reply = [this, token, group, to = message.from] {
    const auto members = local_group_members(group);
    Writer w;
    w.put(token);
    w.put(static_cast<std::uint32_t>(members.size()));
    for (ThreadId tid : members) w.put(tid);
    network_.send(net::Message{
        .from = self_,
        .to = to,
        .kind = net::kGroupCensusReply,
        .call = CallId{},
        .payload = std::move(w).take(),
    });
  };
  const std::uint64_t key =
      coalesce_key(0x9E3779B97F4A7C15ULL, token, message.from.value());
  if (!rpc_.executor()
           .submit_coalesced(exec::Lane::kControl, key, reply)
           .is_ok()) {
    reply();
  }
}

void Kernel::on_group_census_reply(const net::Message& message) {
  std::uint64_t token = 0;
  std::vector<ThreadId> members;
  try {
    Reader r(message.payload.share());
    token = r.get<std::uint64_t>();
    const auto count = r.get<std::uint32_t>();
    members.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      members.push_back(r.get_id<ThreadTag>());
    }
  } catch (const DeserializeError& e) {
    DOCT_LOG(kError) << "malformed census reply: " << e.what();
    return;
  }
  std::shared_ptr<CensusPending> pending;
  {
    std::lock_guard<std::mutex> lock(census_mu_);
    auto it = censuses_.find(token);
    if (it == censuses_.end()) return;  // late reply
    pending = it->second;
  }
  {
    std::lock_guard<std::mutex> lock(pending->mu);
    pending->members.insert(pending->members.end(), members.begin(),
                            members.end());
    pending->replies++;
  }
  pending->cv.notify_all();
}

void Kernel::note_peer_down(NodeId peer) {
  // Every cached hint pointing at the dead peer would cost a full RPC
  // timeout to disprove; drop them all now, synchronously — callers (and
  // tests) rely on the cache being clean when this returns.
  location_cache_.invalidate_node(peer);
  // Skipping census waiters is control work, and repeated NODE_DOWN signals
  // for the same peer coalesce: the task snapshots the waiting set when it
  // RUNS, so collapsing duplicates loses nothing.  Inline fallback when the
  // lane refuses — the loop never blocks.
  const auto skip_waiters = [this] {
    std::vector<std::shared_ptr<CensusPending>> waiting;
    {
      std::lock_guard<std::mutex> lock(census_mu_);
      for (const auto& [token, pending] : censuses_) waiting.push_back(pending);
    }
    for (const auto& pending : waiting) {
      {
        std::lock_guard<std::mutex> lock(pending->mu);
        pending->replies++;  // the dead peer can contribute no members
      }
      pending->cv.notify_all();
      bump(&AtomicStats::census_peer_down_skips);
    }
  };
  const std::uint64_t key =
      coalesce_key(0xD6E8FEB86659FD93ULL, peer.value(), 0);
  if (!rpc_.executor()
           .submit_coalesced(exec::Lane::kControl, key, skip_waiters)
           .is_ok()) {
    skip_waiters();
  }
}

// --- delivery points ---------------------------------------------------------

Status Kernel::poll_events() {
  ThreadContext* ctx = current();
  if (ctx == nullptr) {
    return {StatusCode::kInvalidArgument, "not inside a logical thread"};
  }
  while (true) {
    if (ctx->terminated()) return {StatusCode::kTerminated, ctx->tid().to_string()};
    auto notice = ctx->dequeue();
    if (!notice.has_value()) return Status::ok();

    DeliveryCallback cb;
    {
      std::lock_guard<std::mutex> lock(delivery_mu_);
      cb = delivery_;
    }
    Verdict verdict = Verdict::kResume;
    if (cb) {
      ctx->enter_handler();
      verdict = cb(*ctx, *notice);
      ctx->exit_handler();
    }
    if (verdict == Verdict::kTerminate) {
      ctx->mark_terminated();
      return {StatusCode::kTerminated, ctx->tid().to_string()};
    }
    // kResume / kPropagate-with-no-outer-handler: continue with next notice.
  }
}

Status Kernel::sleep_for(Duration d) {
  ThreadContext* ctx = current();
  if (ctx == nullptr) {
    std::this_thread::sleep_for(d);
    return Status::ok();
  }
  const Duration deadline = clock_.now() + d;
  return wait_until(*ctx, [&] { return clock_.now() >= deadline; },
                    d + std::chrono::seconds(1));
}

Status Kernel::wait_until(ThreadContext& ctx, const std::function<bool()>& pred,
                          Duration timeout) {
  const Duration deadline = clock_.now() + timeout;
  while (true) {
    if (ctx.terminated()) {
      return {StatusCode::kTerminated, ctx.tid().to_string()};
    }
    if (ctx.has_pending() && &ctx == current()) {
      const Status polled = poll_events();
      if (!polled.is_ok()) return polled;
    }
    if (pred()) return Status::ok();
    const Duration now = clock_.now();
    if (now >= deadline) return {StatusCode::kTimeout, "wait_until"};
    const Duration slice = std::min(deadline - now, kMaxWaitSlice);
    ctx.wait_for_signal(pred, TimePoint{} + now + slice);
  }
}

// --- delivery ----------------------------------------------------------------

void Kernel::set_delivery_callback(DeliveryCallback cb) {
  std::lock_guard<std::mutex> lock(delivery_mu_);
  delivery_ = std::move(cb);
}

Status Kernel::deliver_local(const EventNotice& notice, bool urgent) {
  auto ctx = find_context(notice.target_thread);
  if (ctx == nullptr || !ctx->here()) {
    if (is_tombstoned(notice.target_thread)) {
      bump(&AtomicStats::notices_dead_target);
      return {StatusCode::kDeadTarget, notice.target_thread.to_string()};
    }
    return {StatusCode::kNoSuchThread, notice.target_thread.to_string()};
  }
  if (ctx->terminated()) {
    return {StatusCode::kDeadTarget, notice.target_thread.to_string()};
  }
  {
    // Joins the raiser's trace via the notice headers: this span marks the
    // moment the notice reached the hosting node's kernel queue.
    obs::SpanGuard span(
        "deliver", self_.value(),
        obs::TraceContext{notice.trace_id, notice.parent_span},
        notice.event_name);
    ctx->enqueue(notice, urgent);
  }
  bump(&AtomicStats::notices_delivered);
  {
    auto& recorder = obs::flight();
    if (recorder.enabled()) {
      recorder.note("deliver", notice.event_name, self_.value(),
                    notice.target_thread.value());
    }
  }
  return Status::ok();
}

std::size_t Kernel::deliver_group_local(const EventNotice& notice,
                                        bool urgent) {
  std::size_t reached = 0;
  for (ThreadId tid : local_group_members(notice.target_group)) {
    EventNotice copy = notice;
    copy.target_thread = tid;
    if (deliver_local(copy, urgent).is_ok()) reached++;
  }
  return reached;
}

Status Kernel::deliver_remote(const EventNotice& notice, bool urgent) {
  // Child of the raise span: covers locate + delivery RPC (the "route" leg).
  obs::SpanGuard span("route", self_.value(),
                      obs::TraceContext{notice.trace_id, notice.parent_span},
                      notice.event_name);
  const std::int64_t t0 = obs::metrics_enabled() ? obs::now_us() : 0;

  // Fast path: the thread is here.
  Status local = deliver_local(notice, urgent);
  if (local.is_ok() || local.code() == StatusCode::kDeadTarget) {
    if (t0 != 0) deliver_us_->record_us(obs::now_us() - t0);
    return local;
  }

  // Marshal once: the cached attempt, the located attempt, and the move-race
  // retry all reuse this buffer.
  Writer w;
  notice.serialize(w);
  w.put(urgent);
  const rpc::Payload wire = std::move(w).take();

  // Cached fast path: skip the locate entirely and let the delivery RPC
  // itself validate the hint — a kNoSuchThread reply means it was stale.
  if (auto hint = location_cache_.lookup(notice.target_thread);
      hint.has_value()) {
    if (*hint == self_) {
      // deliver_local above already proved it is not here.
      location_cache_.note_stale(notice.target_thread);
    } else {
      auto reply = rpc_.call(*hint, kDeliverMethod, wire);
      if (reply.is_ok()) {
        bump(&AtomicStats::cached_deliveries);
        if (t0 != 0) deliver_us_->record_us(obs::now_us() - t0);
        return Status::ok();
      }
      if (reply.status().code() == StatusCode::kDeadTarget) {
        location_cache_.invalidate(notice.target_thread);
        return reply.status();
      }
      // Moved, crashed host, or timeout: drop the hint and fall back to the
      // configured locator.
      location_cache_.note_stale(notice.target_thread);
    }
  }

  for (int attempt = 0; attempt < 2; ++attempt) {
    auto located = locate_fresh(notice.target_thread, config_.locator);
    if (!located.is_ok()) return located.status();
    if (located.value() == self_) {
      local = deliver_local(notice, urgent);
      if (local.is_ok() || local.code() == StatusCode::kDeadTarget) {
        if (t0 != 0) deliver_us_->record_us(obs::now_us() - t0);
        return local;
      }
      continue;  // moved while we looked: re-locate
    }
    auto reply = rpc_.call(located.value(), kDeliverMethod, wire);
    if (reply.is_ok()) {
      if (t0 != 0) deliver_us_->record_us(obs::now_us() - t0);
      return Status::ok();
    }
    if (reply.status().code() != StatusCode::kNoSuchThread) {
      return reply.status();
    }
    // The thread moved between locate and deliver; retry once.
    location_cache_.note_stale(notice.target_thread);
  }
  return {StatusCode::kNoSuchThread, notice.target_thread.to_string()};
}

Status Kernel::deliver_group(const EventNotice& notice, bool urgent) {
  deliver_group_local(notice, urgent);
  Writer w;
  notice.serialize(w);
  w.put(urgent);
  // Group raises bypass RPC, so the trace rides the raw broadcast headers.
  return network_.broadcast(net::Message{
      .from = self_,
      .to = NodeId{},
      .kind = net::kEventNotify,
      .call = CallId{},
      .payload = std::move(w).take(),
      .trace_id = notice.trace_id,
      .span_id = notice.parent_span,
  });
}

std::uint64_t Kernel::new_wait_token() {
  // Tokens are globally unique: node id in the high bits.
  return (self_.value() << 48) |
         (next_token_.fetch_add(1, std::memory_order_relaxed) &
          0xFFFFFFFFFFFFULL);
}

void Kernel::prepare_wait(std::uint64_t wait_token) {
  std::lock_guard<std::mutex> lock(waiters_mu_);
  waiters_.try_emplace(wait_token, std::make_shared<Waiter>());
}

Result<Verdict> Kernel::await_resume(std::uint64_t wait_token,
                                     Duration timeout) {
  std::shared_ptr<Waiter> waiter;
  {
    std::lock_guard<std::mutex> lock(waiters_mu_);
    auto [it, inserted] =
        waiters_.try_emplace(wait_token, std::make_shared<Waiter>());
    (void)inserted;
    waiter = it->second;
  }
  ThreadContext* ctx = current();
  Status status = Status::ok();
  if (ctx != nullptr) {
    {
      std::lock_guard<std::mutex> lock(waiter->mu);
      waiter->ctx = ctx->shared_from_this();
    }
    // Block as a logical thread: remain responsive to incoming events
    // (a synchronously-blocked raiser can still be TERMINATEd).
    status = wait_until(*ctx,
                        [&] {
                          std::lock_guard<std::mutex> lock(waiter->mu);
                          return waiter->verdict.has_value();
                        },
                        timeout);
  } else {
    std::unique_lock<std::mutex> lock(waiter->mu);
    if (!waiter->cv.wait_for(lock, timeout,
                             [&] { return waiter->verdict.has_value(); })) {
      status = Status{StatusCode::kTimeout, "await_resume"};
    }
  }
  {
    std::lock_guard<std::mutex> lock(waiters_mu_);
    waiters_.erase(wait_token);
  }
  if (!status.is_ok()) return status;
  std::lock_guard<std::mutex> lock(waiter->mu);
  if (!waiter->verdict.has_value()) {
    return Status{StatusCode::kInternal, "woken without verdict"};
  }
  // The verdict applies to the TARGET of the raise; whether it also applies
  // to the blocked raiser is the events layer's decision (it does when the
  // raiser raised at itself — the exception-handling shape, §6.1).
  return *waiter->verdict;
}

Status Kernel::resume_waiter(std::uint64_t wait_token, Verdict verdict) {
  // Child of whatever got us here: the handler's span for a local resume,
  // the rpc.serve span when the handler node RPCed kernel.resume.
  obs::SpanGuard span("resume", self_.value());
  std::shared_ptr<Waiter> waiter;
  {
    std::lock_guard<std::mutex> lock(waiters_mu_);
    auto it = waiters_.find(wait_token);
    if (it == waiters_.end()) {
      return {StatusCode::kNoSuchThread, "no waiter for token"};
    }
    waiter = it->second;
  }
  std::shared_ptr<ThreadContext> ctx;
  {
    std::lock_guard<std::mutex> lock(waiter->mu);
    if (waiter->verdict.has_value()) {
      return {StatusCode::kAlreadyExists, "already resumed"};
    }
    waiter->verdict = verdict;
    ctx = waiter->ctx;
  }
  if (ctx == nullptr) {
    waiter->cv.notify_all();
    return Status::ok();
  }
  // Wake only the waiting thread.  It checks the verdict under its context
  // lock and releases that lock only by waiting, so taking the lock here
  // orders this notify after either its check (it then sees the verdict)
  // or its wait (the notify reaches it): no lost wakeup.
  {
    std::lock_guard<std::mutex> lock(ctx->mu());
  }
  ctx->notify();
  return Status::ok();
}

// --- kernel RPC methods --------------------------------------------------------

Result<rpc::Payload> Kernel::rpc_deliver(NodeId, Reader& args) {
  EventNotice notice = EventNotice::deserialize(args);
  const bool urgent = args.get_bool();
  const Status status = deliver_local(notice, urgent);
  if (!status.is_ok()) return status;
  return rpc::Payload{};
}

Result<rpc::Payload> Kernel::rpc_resume(NodeId, Reader& args) {
  const auto token = args.get<std::uint64_t>();
  const auto verdict = args.get<Verdict>();
  const Status status = resume_waiter(token, verdict);
  if (!status.is_ok()) return status;
  return rpc::Payload{};
}

Result<rpc::Payload> Kernel::rpc_probe_hop(NodeId, Reader& args) {
  const auto tid = args.get_id<ThreadTag>();
  Writer w;
  auto ctx = find_context(tid);
  if (ctx != nullptr) {
    if (ctx->here()) {
      w.put(HopState::kHere);
      w.put(NodeId{});
    } else {
      w.put(HopState::kDeparted);
      w.put(ctx->next_hop());
    }
  } else if (is_tombstoned(tid)) {
    w.put(HopState::kDead);
    w.put(NodeId{});
  } else {
    w.put(HopState::kUnknown);
    w.put(NodeId{});
  }
  return std::move(w).take();
}

// --- locators (§7.1) -----------------------------------------------------------

Result<NodeId> Kernel::locate(ThreadId tid, LocatorKind kind) {
  // Local checks are free under every strategy.
  auto ctx = find_context(tid);
  if (ctx != nullptr && ctx->here()) return self_;
  if (is_tombstoned(tid)) {
    return Status{StatusCode::kDeadTarget, tid.to_string()};
  }

  // Cache consult: a hit short-circuits the O(n)-message / O(hops)-RTT
  // strategy to a single probe at the hinted node.  The probe keeps locate()
  // authoritative — a stale hint costs one bounded RTT, never a wrong answer.
  if (auto hint = location_cache_.lookup(tid);
      hint.has_value() && *hint != self_) {
    Writer w;
    w.put(tid);
    auto reply = rpc_.call(*hint, kProbeHopMethod, std::move(w).take(),
                           config_.locate_timeout);
    if (reply.is_ok()) {
      try {
        Reader r(std::move(reply).value());
        const auto state = r.get<HopState>();
        (void)r.get_id<NodeTag>();
        if (state == HopState::kHere) return *hint;
        if (state == HopState::kDead) {
          location_cache_.note_stale(tid);
          return Status{StatusCode::kDeadTarget, tid.to_string()};
        }
      } catch (const DeserializeError& e) {
        DOCT_LOG(kError) << "malformed probe reply: " << e.what();
      }
    }
    location_cache_.note_stale(tid);
  }
  return locate_fresh(tid, kind);
}

Result<NodeId> Kernel::locate_fresh(ThreadId tid, LocatorKind kind) {
  auto ctx = find_context(tid);
  if (ctx != nullptr && ctx->here()) return self_;
  if (is_tombstoned(tid)) {
    return Status{StatusCode::kDeadTarget, tid.to_string()};
  }
  Result<NodeId> found = [&]() -> Result<NodeId> {
    switch (kind) {
      case LocatorKind::kBroadcast:
        return locate_broadcast(tid);
      case LocatorKind::kPathFollow:
        return locate_path_follow(tid);
      case LocatorKind::kMulticast:
        return locate_multicast(tid);
    }
    return Status{StatusCode::kInvalidArgument, "unknown locator"};
  }();
  if (found.is_ok() && found.value() != self_) {
    location_cache_.note(tid, found.value());
  }
  return found;
}

Result<NodeId> Kernel::locate_broadcast(ThreadId tid) {
  const std::uint64_t token = new_wait_token();
  auto pending = std::make_shared<LocatePending>();
  {
    std::lock_guard<std::mutex> lock(locate_mu_);
    locates_[token] = pending;
  }
  Writer w;
  w.put(token);
  w.put(tid);
  network_.broadcast(net::Message{
      .from = self_,
      .to = NodeId{},
      .kind = net::kLocateProbe,
      .call = CallId{},
      .payload = std::move(w).take(),
  });
  std::unique_lock<std::mutex> lock(pending->mu);
  pending->cv.wait_for(lock, config_.locate_timeout,
                       [&] { return pending->found.has_value(); });
  const auto found = pending->found;
  lock.unlock();
  {
    std::lock_guard<std::mutex> glock(locate_mu_);
    locates_.erase(token);
  }
  if (!found.has_value()) {
    return Status{StatusCode::kNoSuchThread, tid.to_string()};
  }
  if (!found->valid()) {
    return Status{StatusCode::kDeadTarget, tid.to_string()};
  }
  return *found;
}

Result<NodeId> Kernel::locate_path_follow(ThreadId tid) {
  // §7.1: "Starting with the root node, one can traverse the path of the
  // thread, using information in the system's thread-control blocks."
  NodeId node = IdGenerator::thread_root_node(tid);
  const std::size_t max_hops = network_.nodes().size() + 4;
  for (std::size_t hop = 0; hop < max_hops; ++hop) {
    if (node == self_) {
      auto ctx = find_context(tid);
      if (ctx == nullptr) {
        if (is_tombstoned(tid)) {
          return Status{StatusCode::kDeadTarget, tid.to_string()};
        }
        return Status{StatusCode::kNoSuchThread, tid.to_string()};
      }
      if (ctx->here()) return self_;
      node = ctx->next_hop();
      continue;
    }
    Writer w;
    w.put(tid);
    bump(&AtomicStats::locate_probes_sent);
    auto reply = rpc_.call(node, kProbeHopMethod, std::move(w).take(),
                           config_.locate_timeout);
    if (!reply.is_ok()) return reply.status();
    Reader r(std::move(reply).value());
    const auto state = r.get<HopState>();
    const auto next = r.get_id<NodeTag>();
    switch (state) {
      case HopState::kHere:
        return node;
      case HopState::kDeparted:
        node = next;
        break;
      case HopState::kDead:
        return Status{StatusCode::kDeadTarget, tid.to_string()};
      case HopState::kUnknown:
        // The trail is broken — exactly the miss the paper predicts for
        // threads spawned by non-claimable asynchronous invocations.
        return Status{StatusCode::kNoSuchThread, tid.to_string()};
    }
  }
  return Status{StatusCode::kNoSuchThread, "trail loop for " + tid.to_string()};
}

Result<NodeId> Kernel::locate_multicast(ThreadId tid) {
  if (!config_.maintain_multicast_groups) {
    return Status{StatusCode::kInvalidArgument,
                  "multicast thread tracking disabled"};
  }
  const std::uint64_t token = new_wait_token();
  auto pending = std::make_shared<LocatePending>();
  {
    std::lock_guard<std::mutex> lock(locate_mu_);
    locates_[token] = pending;
  }
  Writer w;
  w.put(token);
  w.put(tid);
  const Status sent =
      network_.multicast(thread_multicast_group(tid), net::Message{
                                                          .from = self_,
                                                          .to = NodeId{},
                                                          .kind = net::kLocateProbe,
                                                          .call = CallId{},
                                                          .payload = std::move(w).take(),
                                                      });
  if (!sent.is_ok()) {
    std::lock_guard<std::mutex> glock(locate_mu_);
    locates_.erase(token);
    return Status{StatusCode::kNoSuchThread, tid.to_string()};
  }
  std::unique_lock<std::mutex> lock(pending->mu);
  pending->cv.wait_for(lock, config_.locate_timeout,
                       [&] { return pending->found.has_value(); });
  const auto found = pending->found;
  lock.unlock();
  {
    std::lock_guard<std::mutex> glock(locate_mu_);
    locates_.erase(token);
  }
  if (!found.has_value()) {
    return Status{StatusCode::kNoSuchThread, tid.to_string()};
  }
  if (!found->valid()) {
    return Status{StatusCode::kDeadTarget, tid.to_string()};
  }
  return *found;
}

void Kernel::on_locate_probe(const net::Message& message) {
  std::uint64_t token = 0;
  ThreadId tid;
  try {
    Reader r(message.payload.share());
    token = r.get<std::uint64_t>();
    tid = r.get_id<ThreadTag>();
  } catch (const DeserializeError& e) {
    DOCT_LOG(kError) << "malformed locate probe: " << e.what();
    return;
  }
  auto ctx = find_context(tid);
  const bool present = ctx != nullptr && ctx->here();
  const bool dead = ctx == nullptr && is_tombstoned(tid);
  if (!present && !dead) return;  // stay silent
  Writer w;
  w.put(token);
  w.put(present);
  w.put(dead);
  w.put(self_);
  network_.send(net::Message{
      .from = self_,
      .to = message.from,
      .kind = net::kLocateReply,
      .call = CallId{},
      .payload = std::move(w).take(),
  });
}

void Kernel::on_locate_reply(const net::Message& message) {
  std::uint64_t token = 0;
  bool present = false;
  bool dead = false;
  NodeId node;
  try {
    Reader r(message.payload.share());
    token = r.get<std::uint64_t>();
    present = r.get_bool();
    dead = r.get_bool();
    node = r.get_id<NodeTag>();
  } catch (const DeserializeError& e) {
    DOCT_LOG(kError) << "malformed locate reply: " << e.what();
    return;
  }
  std::shared_ptr<LocatePending> pending;
  {
    std::lock_guard<std::mutex> lock(locate_mu_);
    auto it = locates_.find(token);
    if (it == locates_.end()) return;  // late reply
    pending = it->second;
  }
  {
    std::lock_guard<std::mutex> lock(pending->mu);
    if (!pending->found.has_value()) {
      pending->found = present ? node : NodeId{};  // invalid id == dead
      (void)dead;
    }
  }
  pending->cv.notify_all();
}

// --- migration -----------------------------------------------------------------

rpc::Payload Kernel::serialize_context_core(ThreadContext& ctx) {
  Writer w;
  w.put(ctx.tid());
  ctx.with_attributes([&](ThreadAttributes& a) { a.serialize(w); });
  w.put(ctx.terminated());
  return std::move(w).take();
}

Result<rpc::Payload> Kernel::travel(
    NodeId dest,
    const std::function<Result<rpc::Payload>(const rpc::Payload& ctx_core)>&
        call) {
  ThreadContext* ctx = current();
  if (ctx == nullptr) {
    return Status{StatusCode::kInvalidArgument, "not inside a logical thread"};
  }
  if (ctx->terminated()) {
    return Status{StatusCode::kTerminated, ctx->tid().to_string()};
  }

  const rpc::Payload core = serialize_context_core(*ctx);
  stop_timers_for(ctx->tid());
  ctx->depart(dest);
  // We know exactly where the thread is going: seed the cache so raises at
  // it from this node skip the locate while it is away.
  location_cache_.note(ctx->tid(), dest);
  bump(&AtomicStats::migrations_out);

  auto result = call(core);

  ctx->arrive_back();
  // Back home: the hint now points away from the thread's true location.
  location_cache_.invalidate(ctx->tid());
  if (result.is_ok()) {
    // Reply layout: [ctx_core_out][user payload...]; we consume the core and
    // hand the rest to the caller.
    try {
      Reader r(result.value());
      auto core_out = r.get_bytes();
      Reader core_reader(std::move(core_out));
      (void)core_reader.get_id<ThreadTag>();
      ThreadAttributes updated = ThreadAttributes::deserialize(core_reader);
      const bool terminated = core_reader.get_bool();
      ctx->with_attributes(
          [&](ThreadAttributes& a) { a = std::move(updated); });
      if (terminated) ctx->mark_terminated();
      rpc::Payload user(result.value().begin() +
                            static_cast<long>(result.value().size() -
                                              r.remaining()),
                        result.value().end());
      start_timers_for(*ctx);
      // Invocation return is a delivery point.
      const Status polled = poll_events();
      if (!polled.is_ok()) return polled;
      return user;
    } catch (const DeserializeError& e) {
      start_timers_for(*ctx);
      return Status{StatusCode::kInternal,
                    std::string("malformed travel reply: ") + e.what()};
    }
  }
  start_timers_for(*ctx);
  const Status polled = poll_events();
  if (!polled.is_ok()) return polled;
  return result.status();
}

Result<rpc::Payload> Kernel::adopt_and_run(
    const rpc::Payload& ctx_core,
    const std::function<Status(ThreadContext&)>& body) {
  ThreadId tid;
  ThreadAttributes attrs;
  bool already_terminated = false;
  try {
    Reader r(ctx_core);
    tid = r.get_id<ThreadTag>();
    attrs = ThreadAttributes::deserialize(r);
    already_terminated = r.get_bool();
  } catch (const DeserializeError& e) {
    return Status{StatusCode::kInternal,
                  std::string("malformed context core: ") + e.what()};
  }

  auto ctx = std::make_shared<ThreadContext>(tid, self_);
  ctx->attributes() = std::move(attrs);
  if (already_terminated) ctx->mark_terminated();
  register_context(ctx);
  multicast_join(tid);
  start_timers_for(*ctx);
  bump(&AtomicStats::migrations_in);

  // Bind this OS thread (an RPC worker) to the adopted logical thread,
  // preserving any outer binding (re-entrant A->B->A invocations).
  ThreadContext* const saved_ctx = g_current_ctx;
  Kernel* const saved_kernel = g_current_kernel;
  g_current_ctx = ctx.get();
  g_current_kernel = this;

  // Invocation entry is a delivery point.
  Status status = poll_events();
  if (status.is_ok()) {
    status = body(*ctx);
  }
  // Invocation exit is a delivery point (unless already terminated).
  if (!ctx->terminated()) {
    const Status polled = poll_events();
    if (status.is_ok() && !polled.is_ok()) status = polled;
  }

  g_current_ctx = saved_ctx;
  g_current_kernel = saved_kernel;

  const rpc::Payload core_out = serialize_context_core(*ctx);
  stop_timers_for(tid);
  multicast_leave(tid);
  unregister_context(tid, /*tombstone=*/false);

  if (!status.is_ok() && status.code() != StatusCode::kTerminated) {
    return status;
  }
  return core_out;
}

// --- timers (§6.2) ----------------------------------------------------------

Status Kernel::add_timer(ThreadContext& ctx, TimerRecord record) {
  if (record.period_us == 0) {
    return {StatusCode::kInvalidArgument, "timer period must be positive"};
  }
  ctx.with_attributes([&](ThreadAttributes& a) {
    std::erase_if(a.timers,
                  [&](const TimerRecord& t) { return t.event == record.event; });
    a.timers.push_back(record);
  });
  {
    std::lock_guard<std::mutex> lock(timers_mu_);
    auto& entries = timers_[ctx.tid()];
    std::erase_if(entries, [&](const TimerEntry& e) {
      if (e.record.event != record.event) return false;
      wheel_.cancel(e.wheel_timer);
      return true;
    });
    entries.push_back(TimerEntry{record});
    arm_wheel_locked(ctx.tid(), entries.back());
  }
  return Status::ok();
}

Status Kernel::remove_timer(ThreadContext& ctx, EventId event) {
  ctx.with_attributes([&](ThreadAttributes& a) {
    std::erase_if(a.timers,
                  [&](const TimerRecord& t) { return t.event == event; });
  });
  std::lock_guard<std::mutex> lock(timers_mu_);
  auto it = timers_.find(ctx.tid());
  if (it == timers_.end()) return Status::ok();
  std::erase_if(it->second, [&](const TimerEntry& e) {
    if (e.record.event != event) return false;
    wheel_.cancel(e.wheel_timer);
    return true;
  });
  if (it->second.empty()) timers_.erase(it);
  return Status::ok();
}

void Kernel::start_timers_for(ThreadContext& ctx) {
  // §6.2: "When the thread visits another node, the thread attribute list is
  // examined and the event registration information is recreated."
  const auto records = ctx.with_attributes(
      [](ThreadAttributes& a) { return a.timers; });
  if (records.empty()) return;
  std::lock_guard<std::mutex> lock(timers_mu_);
  auto& entries = timers_[ctx.tid()];
  for (const auto& record : records) {
    entries.push_back(TimerEntry{record});
    arm_wheel_locked(ctx.tid(), entries.back());
  }
}

void Kernel::stop_timers_for(ThreadId tid) {
  std::lock_guard<std::mutex> lock(timers_mu_);
  auto it = timers_.find(tid);
  if (it == timers_.end()) return;
  for (const TimerEntry& e : it->second) wheel_.cancel(e.wheel_timer);
  timers_.erase(it);
}

void Kernel::arm_wheel_locked(ThreadId tid, TimerEntry& entry) {
  const EventId event = entry.record.event;
  entry.wheel_timer = wheel_.schedule(
      std::chrono::microseconds(entry.record.period_us),
      [this, tid, event] { on_wheel_timer(tid, event); });
}

void Kernel::on_wheel_timer(ThreadId tid, EventId event) {
  // The one-shot wheel timer has fired; look the registry entry back up (it
  // may have been removed or migrated away since arming — then do nothing).
  TimerRecord fired;
  {
    std::lock_guard<std::mutex> lock(timers_mu_);
    auto thread_it = timers_.find(tid);
    if (thread_it == timers_.end()) return;
    auto& entries = thread_it->second;
    auto it = std::find_if(entries.begin(), entries.end(),
                           [&](const TimerEntry& e) {
                             return e.record.event == event;
                           });
    if (it == entries.end()) return;
    fired = it->record;
    if (!fired.one_shot) {
      arm_wheel_locked(tid, *it);  // next period
    } else {
      entries.erase(it);
      if (entries.empty()) timers_.erase(thread_it);
    }
  }
  auto ctx = find_context(tid);
  if (ctx != nullptr && ctx->here() && !ctx->terminated()) {
    EventNotice notice;
    notice.event = fired.event;
    notice.event_name = "TIMER";
    notice.target_thread = tid;
    notice.raiser_node = self_;
    notice.system_info = "timer";
    ctx->enqueue(notice, /*urgent=*/false);
    if (fired.one_shot) {
      ctx->with_attributes([&](ThreadAttributes& a) {
        std::erase_if(a.timers,
                      [&](const TimerRecord& t) { return t.event == event; });
      });
    }
    bump(&AtomicStats::timer_events);
  }
}

void Kernel::bump(std::atomic<std::uint64_t> AtomicStats::* counter) {
  (stats_.*counter).fetch_add(1, std::memory_order_relaxed);
}

KernelStats Kernel::stats() const {
  KernelStats out;
  out.threads_spawned = stats_.threads_spawned.load(std::memory_order_relaxed);
  out.threads_terminated =
      stats_.threads_terminated.load(std::memory_order_relaxed);
  out.notices_delivered =
      stats_.notices_delivered.load(std::memory_order_relaxed);
  out.notices_dead_target =
      stats_.notices_dead_target.load(std::memory_order_relaxed);
  out.locate_probes_sent =
      stats_.locate_probes_sent.load(std::memory_order_relaxed);
  out.migrations_in = stats_.migrations_in.load(std::memory_order_relaxed);
  out.migrations_out = stats_.migrations_out.load(std::memory_order_relaxed);
  out.timer_events = stats_.timer_events.load(std::memory_order_relaxed);
  out.census_peer_down_skips =
      stats_.census_peer_down_skips.load(std::memory_order_relaxed);
  out.cached_deliveries =
      stats_.cached_deliveries.load(std::memory_order_relaxed);
  return out;
}

void Kernel::reset_stats() {
  stats_.threads_spawned.store(0, std::memory_order_relaxed);
  stats_.threads_terminated.store(0, std::memory_order_relaxed);
  stats_.notices_delivered.store(0, std::memory_order_relaxed);
  stats_.notices_dead_target.store(0, std::memory_order_relaxed);
  stats_.locate_probes_sent.store(0, std::memory_order_relaxed);
  stats_.migrations_in.store(0, std::memory_order_relaxed);
  stats_.migrations_out.store(0, std::memory_order_relaxed);
  stats_.timer_events.store(0, std::memory_order_relaxed);
  stats_.census_peer_down_skips.store(0, std::memory_order_relaxed);
  stats_.cached_deliveries.store(0, std::memory_order_relaxed);
}

}  // namespace doct::kernel
