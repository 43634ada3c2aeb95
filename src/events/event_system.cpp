#include "events/event_system.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/log.hpp"

namespace doct::events {

namespace {

constexpr const char* kObjectNotifyMethod = "events.object_notify";
constexpr const char* kRunHandlerMethod = "events.run_handler";
constexpr const char* kKernelResumeMethod = "kernel.resume";

[[maybe_unused]] rpc::Payload verdict_payload(kernel::Verdict verdict) {
  return rpc::Payload{static_cast<std::uint8_t>(verdict)};
}

kernel::Verdict parse_verdict(const rpc::Payload& payload) {
  if (payload.empty()) return kernel::Verdict::kResume;
  switch (payload.front()) {
    case static_cast<std::uint8_t>(kernel::Verdict::kTerminate):
      return kernel::Verdict::kTerminate;
    case static_cast<std::uint8_t>(kernel::Verdict::kPropagate):
      return kernel::Verdict::kPropagate;
    default:
      return kernel::Verdict::kResume;
  }
}

}  // namespace

EventSystem::EventSystem(kernel::Kernel& kernel,
                         objects::ObjectManager& manager,
                         rpc::RpcEndpoint& rpc, EventRegistry& registry,
                         ProcedureRegistry& procedures, EventConfig config)
    : kernel_(kernel),
      manager_(manager),
      rpc_(rpc),
      registry_(registry),
      procedures_(procedures),
      config_(config) {
  // CI ablation hook: rerun the same binaries under the other dispatch mode.
  if (const char* env = std::getenv("DOCT_DISPATCH")) {
    if (std::strcmp(env, "per_event") == 0 ||
        std::strcmp(env, "thread_per_event") == 0) {
      config_.dispatch_mode = ObjectDispatchMode::kThreadPerEvent;
    } else if (std::strcmp(env, "master") == 0) {
      config_.dispatch_mode = ObjectDispatchMode::kMasterThread;
    }
  }
  kernel_.set_delivery_callback(
      [this](kernel::ThreadContext& ctx, const kernel::EventNotice& notice) {
        return on_deliver(ctx, notice);
      });
  // object_notify only enqueues work; run_handler executes a handler entry
  // and may block, so it runs on the executor's bulk lane.
  rpc_.register_method(
      kObjectNotifyMethod,
      [this](NodeId caller, Reader& args) {
        return rpc_object_notify(caller, args);
      },
      rpc::MethodClass::kFast);
  rpc_.register_method(kRunHandlerMethod, [this](NodeId caller, Reader& args) {
    return rpc_run_handler(caller, args);
  });

  sync_wait_us_ = &obs::metrics().histogram("events.sync_wait_us");
  handle_us_ = &obs::metrics().histogram("events.handle_us");
  metrics_source_ = obs::metrics().register_source(
      "node" + std::to_string(kernel_.self().value()) + ".events", [this] {
        const EventStats s = stats();
        return std::vector<std::pair<std::string, std::uint64_t>>{
            {"raises_async", s.raises_async},
            {"raises_sync", s.raises_sync},
            {"thread_handlers_run", s.thread_handlers_run},
            {"object_handlers_run", s.object_handlers_run},
            {"per_thread_procs_run", s.per_thread_procs_run},
            {"defaults_applied", s.defaults_applied},
            {"propagations", s.propagations},
            {"surrogate_runs", s.surrogate_runs},
            {"dead_target_raises", s.dead_target_raises},
            {"shed_dispatches", s.shed_dispatches},
        };
      });
}

EventSystem::~EventSystem() {
  rpc_.unregister_method(kObjectNotifyMethod);
  rpc_.unregister_method(kRunHandlerMethod);
  kernel_.set_delivery_callback(nullptr);
  // Queued dispatches and surrogate chains live on the node executor, whose
  // owner drains it before this destructor runs (NodeRuntime does so in its
  // destructor body; a standalone RpcEndpoint in its own destructor).
  // Joining must happen outside per_event_mu_: exiting handler threads
  // take it to announce completion.
  std::vector<std::thread> leftovers;
  {
    std::lock_guard<std::mutex> lock(per_event_mu_);
    leftovers.swap(per_event_threads_);
    per_event_finished_.clear();
  }
  for (auto& t : leftovers) {
    if (t.joinable()) t.join();
  }
}

void EventSystem::bump(std::atomic<std::uint64_t> AtomicStats::* counter) {
  (stats_.*counter).fetch_add(1, std::memory_order_relaxed);
}

EventStats EventSystem::stats() const {
  EventStats out;
  out.raises_async = stats_.raises_async.load(std::memory_order_relaxed);
  out.raises_sync = stats_.raises_sync.load(std::memory_order_relaxed);
  out.thread_handlers_run =
      stats_.thread_handlers_run.load(std::memory_order_relaxed);
  out.object_handlers_run =
      stats_.object_handlers_run.load(std::memory_order_relaxed);
  out.per_thread_procs_run =
      stats_.per_thread_procs_run.load(std::memory_order_relaxed);
  out.defaults_applied = stats_.defaults_applied.load(std::memory_order_relaxed);
  out.propagations = stats_.propagations.load(std::memory_order_relaxed);
  out.surrogate_runs = stats_.surrogate_runs.load(std::memory_order_relaxed);
  out.dead_target_raises =
      stats_.dead_target_raises.load(std::memory_order_relaxed);
  out.shed_dispatches = stats_.shed_dispatches.load(std::memory_order_relaxed);
  return out;
}

void EventSystem::reset_stats() {
  stats_.raises_async.store(0, std::memory_order_relaxed);
  stats_.raises_sync.store(0, std::memory_order_relaxed);
  stats_.thread_handlers_run.store(0, std::memory_order_relaxed);
  stats_.object_handlers_run.store(0, std::memory_order_relaxed);
  stats_.per_thread_procs_run.store(0, std::memory_order_relaxed);
  stats_.defaults_applied.store(0, std::memory_order_relaxed);
  stats_.propagations.store(0, std::memory_order_relaxed);
  stats_.surrogate_runs.store(0, std::memory_order_relaxed);
  stats_.dead_target_raises.store(0, std::memory_order_relaxed);
  stats_.shed_dispatches.store(0, std::memory_order_relaxed);
}

void EventSystem::set_activation_hook(std::function<Status(ObjectId)> hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  activation_hook_ = std::move(hook);
}

// --- attachment (§5.2) ---------------------------------------------------------

Result<HandlerId> EventSystem::attach_handler(EventId event, ObjectId object,
                                              const std::string& entry) {
  kernel::ThreadContext* ctx = kernel::Kernel::current();
  if (ctx == nullptr) {
    return Status{StatusCode::kInvalidArgument,
                  "attach_handler requires a logical thread"};
  }
  if (!registry_.known(event)) {
    return Status{StatusCode::kUnknownEvent, event.to_string()};
  }
  kernel::HandlerRecord record;
  record.id = kernel_.ids().next<HandlerTag>();
  record.event = event;
  record.object = object;
  record.entry = entry;
  record.attached_in = ctx->current_object();
  record.kind = object == ctx->current_object()
                    ? kernel::HandlerKind::kObjectEntry
                    : kernel::HandlerKind::kBuddy;
  ctx->with_attributes([&](kernel::ThreadAttributes& a) {
    a.handler_chain.push_back(record);
  });
  return record.id;
}

Result<HandlerId> EventSystem::attach_handler(EventId event,
                                              const std::string& procedure,
                                              OwnContextTag) {
  kernel::ThreadContext* ctx = kernel::Kernel::current();
  if (ctx == nullptr) {
    return Status{StatusCode::kInvalidArgument,
                  "attach_handler requires a logical thread"};
  }
  if (!registry_.known(event)) {
    return Status{StatusCode::kUnknownEvent, event.to_string()};
  }
  if (!procedures_.lookup(procedure).is_ok()) {
    return Status{StatusCode::kNoHandler,
                  "procedure not registered: " + procedure};
  }
  kernel::HandlerRecord record;
  record.id = kernel_.ids().next<HandlerTag>();
  record.event = event;
  record.kind = kernel::HandlerKind::kPerThread;
  record.entry = procedure;
  record.attached_in = ctx->current_object();
  ctx->with_attributes([&](kernel::ThreadAttributes& a) {
    a.handler_chain.push_back(record);
  });
  return record.id;
}

Status EventSystem::detach_handler(HandlerId id) {
  kernel::ThreadContext* ctx = kernel::Kernel::current();
  if (ctx == nullptr) {
    return {StatusCode::kInvalidArgument,
            "detach_handler requires a logical thread"};
  }
  const bool removed = ctx->with_attributes([&](kernel::ThreadAttributes& a) {
    const auto before = a.handler_chain.size();
    std::erase_if(a.handler_chain, [&](const kernel::HandlerRecord& r) {
      return r.id == id;
    });
    return a.handler_chain.size() != before;
  });
  return removed ? Status::ok()
                 : Status{StatusCode::kNoHandler, id.to_string()};
}

// --- raising (§5.3) -------------------------------------------------------------

kernel::EventNotice EventSystem::make_notice(EventId event,
                                             rpc::Payload user_data,
                                             bool synchronous) {
  kernel::EventNotice notice;
  notice.event = event;
  notice.event_name = registry_.name_of(event);
  notice.synchronous = synchronous;
  notice.raiser_node = kernel_.self();
  notice.user_data = std::move(user_data);
  if (kernel::ThreadContext* ctx = kernel::Kernel::current()) {
    notice.raiser = ctx->tid();
    notice.raised_in = ctx->current_object();
  }
  return notice;
}

Status EventSystem::raise(EventId event, ThreadId target,
                          rpc::Payload user_data) {
  if (!registry_.known(event)) {
    return {StatusCode::kUnknownEvent, event.to_string()};
  }
  bump(&AtomicStats::raises_async);
  kernel::EventNotice notice = make_notice(event, std::move(user_data), false);
  notice.target_thread = target;
  // Root (or join) the causal trace here: everything downstream — route,
  // wire, deliver, handle — hangs off this span.
  obs::SpanGuard span("raise", kernel_.self().value(), obs::kMintTrace,
                      notice.event_name);
  notice.trace_id = span.context().trace_id;
  notice.parent_span = span.context().span_id;
  const Status delivered =
      kernel_.deliver_remote(notice, registry_.is_control(event));
  if (delivered.code() == StatusCode::kDeadTarget) {
    obs::mark("dead_target", kernel_.self().value(), notice.event_name);
    bump(&AtomicStats::dead_target_raises);
    // §7: "When a notification is posted to a thread and the thread has been
    // destroyed, the sender of the event (if it is an asynchronous event)
    // needs to be notified."  Beyond the status we return, a logical-thread
    // raiser gets a TARGET_DEAD event naming the dead thread.
    if (kernel::ThreadContext* raiser = kernel::Kernel::current()) {
      kernel::EventNotice obituary;
      obituary.event = sys::kTargetDead;
      obituary.event_name = registry_.name_of(sys::kTargetDead);
      obituary.target_thread = raiser->tid();
      obituary.raiser_node = kernel_.self();
      obituary.system_info = "dead target: " + target.to_string();
      Writer w;
      w.put(target);
      w.put(event);
      obituary.user_data = std::move(w).take();
      raiser->enqueue(obituary, /*urgent=*/false);
    }
  }
  return delivered;
}

Status EventSystem::raise(EventId event, GroupId target,
                          rpc::Payload user_data) {
  if (!registry_.known(event)) {
    return {StatusCode::kUnknownEvent, event.to_string()};
  }
  bump(&AtomicStats::raises_async);
  kernel::EventNotice notice = make_notice(event, std::move(user_data), false);
  notice.target_group = target;
  obs::SpanGuard span("raise", kernel_.self().value(), obs::kMintTrace,
                      notice.event_name);
  notice.trace_id = span.context().trace_id;
  notice.parent_span = span.context().span_id;
  return kernel_.deliver_group(notice, registry_.is_control(event));
}

Status EventSystem::raise(EventId event, ObjectId target,
                          rpc::Payload user_data) {
  if (!registry_.known(event)) {
    return {StatusCode::kUnknownEvent, event.to_string()};
  }
  bump(&AtomicStats::raises_async);
  kernel::EventNotice notice = make_notice(event, std::move(user_data), false);
  notice.target_object = target;
  obs::SpanGuard span("raise", kernel_.self().value(), obs::kMintTrace,
                      notice.event_name);
  notice.trace_id = span.context().trace_id;
  notice.parent_span = span.context().span_id;
  return dispatch_to_object(notice);
}

Result<kernel::Verdict> EventSystem::raise_and_wait(EventId event,
                                                    ThreadId target,
                                                    rpc::Payload user_data) {
  if (!registry_.known(event)) {
    return Status{StatusCode::kUnknownEvent, event.to_string()};
  }
  kernel::ThreadContext* ctx = kernel::Kernel::current();
  if (ctx != nullptr && ctx->tid() == target) {
    // Synchronous raise at oneself: the exception-handling shape (§6.1).
    return raise_exception(event, "raise_and_wait(self)",
                           std::move(user_data));
  }
  bump(&AtomicStats::raises_sync);
  kernel::EventNotice notice = make_notice(event, std::move(user_data), true);
  notice.target_thread = target;
  notice.wait_token = kernel_.new_wait_token();
  obs::SpanGuard span("raise", kernel_.self().value(), obs::kMintTrace,
                      notice.event_name);
  notice.trace_id = span.context().trace_id;
  notice.parent_span = span.context().span_id;
  const std::int64_t t0 = obs::metrics_enabled() ? obs::now_us() : 0;
  kernel_.prepare_wait(notice.wait_token);
  const Status delivered =
      kernel_.deliver_remote(notice, registry_.is_control(event));
  if (!delivered.is_ok()) {
    if (delivered.code() == StatusCode::kDeadTarget) {
      obs::mark("dead_target", kernel_.self().value(), notice.event_name);
      bump(&AtomicStats::dead_target_raises);
    }
    return delivered;
  }
  auto verdict = kernel_.await_resume(notice.wait_token, config_.sync_timeout);
  if (t0 != 0) sync_wait_us_->record_us(obs::now_us() - t0);
  return verdict;
}

Result<kernel::Verdict> EventSystem::raise_and_wait(EventId event,
                                                    GroupId target,
                                                    rpc::Payload user_data) {
  if (!registry_.known(event)) {
    return Status{StatusCode::kUnknownEvent, event.to_string()};
  }
  bump(&AtomicStats::raises_sync);
  kernel::EventNotice notice = make_notice(event, std::move(user_data), true);
  notice.target_group = target;
  notice.wait_token = kernel_.new_wait_token();
  obs::SpanGuard span("raise", kernel_.self().value(), obs::kMintTrace,
                      notice.event_name);
  notice.trace_id = span.context().trace_id;
  notice.parent_span = span.context().span_id;
  const std::int64_t t0 = obs::metrics_enabled() ? obs::now_us() : 0;
  kernel_.prepare_wait(notice.wait_token);
  const Status delivered =
      kernel_.deliver_group(notice, registry_.is_control(event));
  if (!delivered.is_ok()) return delivered;
  // The raiser is resumed by the FIRST member that completes handling;
  // later resumes for the same token are dropped.
  auto verdict = kernel_.await_resume(notice.wait_token, config_.sync_timeout);
  if (t0 != 0) sync_wait_us_->record_us(obs::now_us() - t0);
  return verdict;
}

Result<kernel::Verdict> EventSystem::raise_and_wait(EventId event,
                                                    ObjectId target,
                                                    rpc::Payload user_data) {
  if (!registry_.known(event)) {
    return Status{StatusCode::kUnknownEvent, event.to_string()};
  }
  bump(&AtomicStats::raises_sync);
  kernel::EventNotice notice = make_notice(event, std::move(user_data), true);
  notice.target_object = target;
  notice.wait_token = kernel_.new_wait_token();
  obs::SpanGuard span("raise", kernel_.self().value(), obs::kMintTrace,
                      notice.event_name);
  notice.trace_id = span.context().trace_id;
  notice.parent_span = span.context().span_id;
  const std::int64_t t0 = obs::metrics_enabled() ? obs::now_us() : 0;
  kernel_.prepare_wait(notice.wait_token);
  const Status delivered = dispatch_to_object(notice);
  if (!delivered.is_ok()) return delivered;
  auto verdict = kernel_.await_resume(notice.wait_token, config_.sync_timeout);
  if (t0 != 0) sync_wait_us_->record_us(obs::now_us() - t0);
  return verdict;
}

Result<kernel::Verdict> EventSystem::raise_exception(
    EventId event, const std::string& system_info, rpc::Payload user_data) {
  kernel::ThreadContext* ctx = kernel::Kernel::current();
  if (ctx == nullptr) {
    return Status{StatusCode::kInvalidArgument,
                  "raise_exception requires a logical thread"};
  }
  bump(&AtomicStats::raises_sync);
  bump(&AtomicStats::surrogate_runs);
  kernel::EventNotice notice = make_notice(event, std::move(user_data), true);
  notice.target_thread = ctx->tid();
  notice.system_info = system_info;
  notice.wait_token = kernel_.new_wait_token();
  obs::SpanGuard span("raise", kernel_.self().value(), obs::kMintTrace,
                      notice.event_name);
  notice.trace_id = span.context().trace_id;
  notice.parent_span = span.context().span_id;
  kernel_.prepare_wait(notice.wait_token);

  // Run the chain on a surrogate thread that adopts the suspended thread's
  // context (§6.1) while the raiser blocks below.  The surrogate holds a
  // shared handle: if the raiser times out and its thread exits, the context
  // must stay alive until the chain finishes.
  std::shared_ptr<kernel::ThreadContext> shared =
      kernel_.share_context(ctx->tid());
  if (shared == nullptr) {
    return Status{StatusCode::kNoSuchThread, ctx->tid().to_string()};
  }
  // Surrogates run on the bulk lane: the chain may issue nested blocking
  // RPCs, which must never occupy the (possibly width-1) event lane.  A
  // refused admission fails the raise NOW — kAborted at shutdown,
  // kResourceExhausted under overload — instead of leaking a waiter that
  // would only time out.
  //
  // Reservation keys: the chain adopts the suspended thread's context, so
  // it holds the thread key — two surrogates for one thread never
  // interleave.  A chain raised from inside a reserved handler also
  // inherits the parent task's keys: the surrogate touches the same state
  // the parent had claimed.
  exec::ReservationSet keys{reservation_key(ctx->tid())};
  if (const exec::ReservationSet* parent =
          exec::Executor::current_reservations()) {
    for (const std::uint64_t key : *parent) {
      if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
        keys.push_back(key);
      }
    }
  }
  const Status submitted = executor().submit(
      exec::Lane::kBulk, std::move(keys),
      [this, shared = std::move(shared), notice] {
        obs::SpanGuard handle_span(
            "handle", kernel_.self().value(),
            obs::TraceContext{notice.trace_id, notice.parent_span},
            notice.event_name);
        const kernel::Verdict verdict = execute_chain(*shared, notice);
        kernel_.resume_waiter(notice.wait_token, verdict);
      });
  if (!submitted.is_ok()) {
    bump(&AtomicStats::shed_dispatches);
    return submitted;
  }
  auto verdict = kernel_.await_resume(notice.wait_token, config_.sync_timeout);
  if (verdict.is_ok() && verdict.value() == kernel::Verdict::kTerminate) {
    ctx->mark_terminated();  // the raiser IS the target here
  }
  return verdict;
}

// --- thread-based delivery ------------------------------------------------------

kernel::Verdict EventSystem::on_deliver(kernel::ThreadContext& ctx,
                                        const kernel::EventNotice& notice) {
  // Joins the raiser's trace on the handling node; covers the chain run AND
  // the resume send, so the resume RPC stays causally linked.
  obs::SpanGuard span("handle", kernel_.self().value(),
                      obs::TraceContext{notice.trace_id, notice.parent_span},
                      notice.event_name);
  const std::int64_t t0 = obs::metrics_enabled() ? obs::now_us() : 0;
  const kernel::Verdict verdict = execute_chain(ctx, notice);
  if (t0 != 0) handle_us_->record_us(obs::now_us() - t0);
  if (notice.synchronous) send_resume(notice, verdict);
  return verdict;
}

kernel::Verdict EventSystem::execute_chain(kernel::ThreadContext& ctx,
                                           const kernel::EventNotice& notice) {
  if (ctx.handler_depth() > config_.max_handler_depth) {
    DOCT_LOG(kError) << "handler recursion limit hit for "
                     << notice.event_name << " at " << ctx.tid().to_string();
    return kernel::Verdict::kResume;
  }
  // Snapshot the chain; handlers may attach/detach while running.
  const auto chain = ctx.with_attributes(
      [](kernel::ThreadAttributes& a) { return a.handler_chain; });

  // LIFO (§4.2): most recently attached handler first; kPropagate walks
  // outward toward earlier attachments.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (it->event != notice.event) continue;
    auto [ran, verdict] = run_handler(ctx, *it, notice);
    if (!ran) continue;
    if (verdict == kernel::Verdict::kPropagate) {
      bump(&AtomicStats::propagations);
      continue;
    }
    return verdict;
  }
  return apply_default(notice);
}

std::pair<bool, kernel::Verdict> EventSystem::run_handler(
    kernel::ThreadContext& ctx, const kernel::HandlerRecord& record,
    const kernel::EventNotice& notice) {
  switch (record.kind) {
    case kernel::HandlerKind::kPerThread: {
      auto proc = procedures_.lookup(record.entry);
      if (!proc.is_ok()) {
        DOCT_LOG(kWarn) << "per-thread procedure missing: " << record.entry;
        return {false, kernel::Verdict::kResume};
      }
      bump(&AtomicStats::per_thread_procs_run);
      const EventBlock block{notice};
      PerThreadCallCtx pctx{ctx, block, manager_, ctx.current_object()};
      return {true, proc.value()(pctx)};
    }
    case kernel::HandlerKind::kObjectEntry:
    case kernel::HandlerKind::kBuddy: {
      bump(&AtomicStats::thread_handlers_run);
      const NodeId home = objects::ObjectManager::object_node(record.object);
      Result<rpc::Payload> result{rpc::Payload{}};
      if (home == kernel_.self()) {
        // Zero-marshal: the entry borrows the notice via CallCtx.
        result = manager_.invoke_handler_notice(record.object, record.entry,
                                                notice);
      } else {
        // The "unscheduled invocation" (§7.2) to wherever the handler lives.
        const EventBlock block{notice};
        Writer w;
        w.put(record.object);
        w.put(record.entry);
        w.put(block.to_payload());
        result = rpc_.call(home, kRunHandlerMethod, std::move(w).take());
      }
      if (!result.is_ok()) {
        DOCT_LOG(kWarn) << "handler " << record.entry << " on "
                        << record.object.to_string()
                        << " failed: " << result.status().to_string();
        return {false, kernel::Verdict::kResume};
      }
      return {true, parse_verdict(result.value())};
    }
  }
  return {false, kernel::Verdict::kResume};
}

kernel::Verdict EventSystem::apply_default(const kernel::EventNotice& notice) {
  bump(&AtomicStats::defaults_applied);
  // No handler ran, so the chain leaves no span of its own: mark the
  // outcome on the notice's trace.
  obs::mark("default", kernel_.self().value(), notice.event_name);
  return registry_.default_action(notice.event) == DefaultAction::kTerminate
             ? kernel::Verdict::kTerminate
             : kernel::Verdict::kResume;
}

void EventSystem::send_resume(const kernel::EventNotice& notice,
                              kernel::Verdict verdict) {
  if (notice.wait_token == 0) return;
  if (notice.raiser_node == kernel_.self()) {
    kernel_.resume_waiter(notice.wait_token, verdict);
    return;
  }
  Writer w;
  w.put(notice.wait_token);
  w.put(verdict);
  // Sent without waiting for the ack, so this worker (the §7 master handler
  // thread, for object events) is free the moment the handler returns.  The
  // dropped ticket keeps its pending record, which retransmits when retries
  // are on; resume_waiter answers a duplicate with kAlreadyExists, and the
  // raiser's sync_timeout backstops a resume that never arrives.
  (void)rpc_.call_async(notice.raiser_node, kKernelResumeMethod,
                        std::move(w).take());
}

// --- object-based delivery (§4.3) ------------------------------------------------

Status EventSystem::dispatch_to_object(const kernel::EventNotice& notice) {
  const NodeId home = objects::ObjectManager::object_node(notice.target_object);
  if (home == kernel_.self()) {
    return run_object_handler(notice);
  }
  Writer w;
  notice.serialize(w);
  // A remote shed travels back as the RPC error, so the raiser fails fast
  // either way.
  auto reply = rpc_.call(home, kObjectNotifyMethod, std::move(w).take());
  return reply.status();
}

Result<rpc::Payload> EventSystem::rpc_object_notify(NodeId, Reader& args) {
  kernel::EventNotice notice = kernel::EventNotice::deserialize(args);
  // kFast method: this is the network delivery thread, which must not park
  // on a full lane.
  const Status admitted = run_object_handler(notice, /*may_block=*/false);
  if (!admitted.is_ok()) return admitted;
  return rpc::Payload{};
}

Result<rpc::Payload> EventSystem::rpc_run_handler(NodeId, Reader& args) {
  const auto object = args.get_id<ObjectTag>();
  const auto entry = args.get_string();
  auto payload = args.get_bytes();
  return manager_.invoke_handler_entry(object, entry, std::move(payload),
                                       nullptr);
}

exec::Lane EventSystem::lane_for(EventId event) const {
  if (registry_.is_control(event)) return exec::Lane::kControl;
  if (registry_.is_bulk(event)) return exec::Lane::kBulk;
  return exec::Lane::kEvent;
}

Status EventSystem::run_object_handler(const kernel::EventNotice& notice,
                                       bool may_block) {
  if (config_.dispatch_mode == ObjectDispatchMode::kMasterThread) {
    // §7: the event lane plays the master handler thread — width 1 serves
    // all events on behalf of passive objects with zero thread creation,
    // and width N relies on the reservation keys derived here to keep
    // same-object handlers serial while disjoint targets run in parallel.
    // Control events (TERMINATE, NODE_DOWN) jump to the control lane so a
    // storm of ordinary events cannot starve them; bulk-marked events
    // (monitor snapshots) sink below both.
    const auto task = [this, notice] {
      // Thread hop: rejoin the notice's trace on the handler worker.
      obs::SpanGuard span(
          "handle", kernel_.self().value(),
          obs::TraceContext{notice.trace_id, notice.parent_span},
          notice.event_name);
      const kernel::Verdict verdict = run_object_handler_now(notice);
      if (notice.synchronous) send_resume(notice, verdict);
    };
    // Keyed on the target (plus the event's serial group if it has one):
    // delivery order per object is the width-1 order, whatever the width.
    exec::ReservationSet keys{reservation_key(notice.target_object)};
    if (const std::uint64_t group = registry_.serial_group_key(notice.event)) {
      keys.push_back(group);
    }
    const exec::Lane lane = lane_for(notice.event);
    const Status admitted =
        may_block ? executor().submit(lane, std::move(keys), task)
                  : executor().try_submit(lane, std::move(keys), task);
    if (!admitted.is_ok()) {
      // Fail the raiser instead of leaking its notice (and, for synchronous
      // raises, its blocked waiter) into a backlog that will never drain.
      bump(&AtomicStats::shed_dispatches);
      DOCT_LOG(kWarn) << "object event " << notice.event_name
                      << " shed: " << admitted.message();
    }
    return admitted;
  }
  // kThreadPerEvent: the costly alternative, kept for the E2 ablation.
  std::thread backstop;
  {
    std::lock_guard<std::mutex> lock(per_event_mu_);
    // Reap only threads that have announced completion: joining them is
    // near-instant, so the dispatch path never blocks behind running
    // handlers.
    for (auto it = per_event_threads_.begin();
         it != per_event_threads_.end();) {
      const auto done = std::find(per_event_finished_.begin(),
                                  per_event_finished_.end(), it->get_id());
      if (done != per_event_finished_.end()) {
        it->join();
        per_event_finished_.erase(done);
        it = per_event_threads_.erase(it);
      } else {
        ++it;
      }
    }
    // Backstop against runaway growth when handlers outlive the event
    // rate: pull the oldest thread out and join it below, after the lock
    // is released — it still needs per_event_mu_ to announce completion.
    if (per_event_threads_.size() > 512) {
      backstop = std::move(per_event_threads_.front());
      per_event_threads_.erase(per_event_threads_.begin());
    }
    per_event_threads_.emplace_back([this, notice] {
      obs::SpanGuard span(
          "handle", kernel_.self().value(),
          obs::TraceContext{notice.trace_id, notice.parent_span},
          notice.event_name);
      const kernel::Verdict verdict = run_object_handler_now(notice);
      if (notice.synchronous) send_resume(notice, verdict);
      std::lock_guard<std::mutex> done_lock(per_event_mu_);
      per_event_finished_.push_back(std::this_thread::get_id());
    });
  }
  if (backstop.joinable()) backstop.join();
  return Status::ok();
}

kernel::Verdict EventSystem::run_object_handler_now(
    const kernel::EventNotice& notice) {
  auto object = manager_.find(notice.target_object);
  if (object == nullptr) {
    // Passive (deactivated) object: bring it back first (§3.1 Persistence).
    std::function<Status(ObjectId)> hook;
    {
      std::lock_guard<std::mutex> lock(hook_mu_);
      hook = activation_hook_;
    }
    if (hook) {
      const Status activated = hook(notice.target_object);
      if (activated.is_ok()) object = manager_.find(notice.target_object);
    }
  }
  if (object == nullptr) {
    DOCT_LOG(kWarn) << "event " << notice.event_name
                    << " for unknown object "
                    << notice.target_object.to_string();
    return kernel::Verdict::kResume;
  }

  const std::string entry = object->handler_for(notice.event_name);
  if (entry.empty()) {
    // Predefined default handlers available in ALL objects (§4.3).
    if (notice.event == sys::kDelete) {
      manager_.remove_object(notice.target_object);
      return kernel::Verdict::kResume;
    }
    if (notice.event == sys::kPing) return kernel::Verdict::kResume;
    // No handler and no default: report "unhandled" so synchronous raisers
    // (e.g. the exception facility's first-chance pass) can escalate.
    return kernel::Verdict::kPropagate;
  }

  bump(&AtomicStats::object_handlers_run);
  const std::int64_t t0 = obs::metrics_enabled() ? obs::now_us() : 0;
  // Zero-marshal: local delivery hands the entry the notice itself (via
  // CallCtx::notice / EventBlock::from_ctx) — no serialize/deserialize.
  auto result =
      manager_.invoke_handler_notice(notice.target_object, entry, notice);
  if (t0 != 0) handle_us_->record_us(obs::now_us() - t0);
  if (!result.is_ok()) {
    DOCT_LOG(kWarn) << "object handler " << entry << " failed: "
                    << result.status().to_string();
    return kernel::Verdict::kResume;
  }
  return parse_verdict(result.value());
}

}  // namespace doct::events
