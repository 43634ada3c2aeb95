#include "rpc/rpc.hpp"

#include "common/log.hpp"

namespace doct::rpc {

namespace {

// Wire format of a request payload: method name, args bytes, oneway flag.
Payload encode_request(const std::string& method, const Payload& args,
                       bool oneway) {
  Writer w;
  w.put(method);
  w.put(args);
  w.put(oneway);
  return std::move(w).take();
}

// Wire format of a response payload: status code, status message, result.
Payload encode_response(StatusCode code, const std::string& message,
                        const Payload& result) {
  Writer w;
  w.put(code);
  w.put(message);
  w.put(result);
  return std::move(w).take();
}

}  // namespace

Result<Payload> PendingCall::claim(Duration timeout) {
  std::unique_lock<std::mutex> lock(state_->mu);
  if (!state_->cv.wait_for(lock, timeout,
                           [&] { return state_->result.has_value(); })) {
    return Status{StatusCode::kTimeout, "rpc claim timed out"};
  }
  return *state_->result;
}

bool PendingCall::ready() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->result.has_value();
}

RpcEndpoint::RpcEndpoint(net::Transport& network, net::Demux& demux, NodeId self,
                         IdGenerator& ids, RpcConfig config,
                         exec::Executor* executor)
    : network_(network),
      self_(self),
      ids_(ids),
      config_(config),
      owned_executor_(executor
                          ? nullptr
                          : std::make_unique<exec::Executor>(
                                exec::ExecutorConfig{},
                                "node" + std::to_string(self.value()) +
                                    ".exec")),
      executor_(executor ? executor : owned_executor_.get()),
      retry_rng_(config.retry_seed ^ self.value()),
      wheel_(executor_->timers()) {
  demux.route(net::kRpcRequest,
              [this](const net::Message& m) { on_request(m); });
  demux.route(net::kRpcResponse,
              [this](const net::Message& m) { on_response(m); });
  call_us_ = &obs::metrics().histogram("rpc.call_us");
  metrics_source_ = obs::metrics().register_source(
      "node" + std::to_string(self.value()) + ".rpc", [this] {
        const RpcStats s = stats();
        return std::vector<std::pair<std::string, std::uint64_t>>{
            {"requests_executed", s.requests_executed},
            {"retries_sent", s.retries_sent},
            {"deadline_timeouts", s.deadline_timeouts},
            {"dedup_replays", s.dedup_replays},
            {"duplicate_drops", s.duplicate_drops},
            {"requests_shed", s.requests_shed},
        };
      });
}

void RpcEndpoint::drain_workers() { executor_->shutdown(); }

RpcEndpoint::~RpcEndpoint() {
  // An owned executor is drained here, while the endpoint is still intact;
  // a shared one must already have been shut down by its owner (NodeRuntime
  // does so in its destructor body).  Either way its wheel is stopped after
  // this line, so no retry callback touches pending_ / network_ below.
  if (owned_executor_) owned_executor_->shutdown();
  // Fail any still-pending calls so blocked callers wake up.
  std::unordered_map<CallId, PendingRecord> pending;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending.swap(pending_);
  }
  for (auto& [id, record] : pending) {
    fulfill(*record.state, Status{StatusCode::kAborted, "endpoint shut down"});
  }
}

RpcStats RpcEndpoint::stats() const {
  RpcStats out;
  out.requests_executed =
      stats_.requests_executed.load(std::memory_order_relaxed);
  out.retries_sent = stats_.retries_sent.load(std::memory_order_relaxed);
  out.deadline_timeouts =
      stats_.deadline_timeouts.load(std::memory_order_relaxed);
  out.dedup_replays = stats_.dedup_replays.load(std::memory_order_relaxed);
  out.duplicate_drops = stats_.duplicate_drops.load(std::memory_order_relaxed);
  out.requests_shed = stats_.requests_shed.load(std::memory_order_relaxed);
  return out;
}

void RpcEndpoint::reset_stats() {
  stats_.requests_executed.store(0, std::memory_order_relaxed);
  stats_.retries_sent.store(0, std::memory_order_relaxed);
  stats_.deadline_timeouts.store(0, std::memory_order_relaxed);
  stats_.dedup_replays.store(0, std::memory_order_relaxed);
  stats_.duplicate_drops.store(0, std::memory_order_relaxed);
  stats_.requests_shed.store(0, std::memory_order_relaxed);
}

void RpcEndpoint::bump(common::PaddedCounter AtomicStats::* counter) {
  (stats_.*counter).fetch_add(1, std::memory_order_relaxed);
}

void RpcEndpoint::register_method(std::string name, Method method,
                                  MethodClass method_class, exec::Lane lane) {
  std::lock_guard<std::mutex> lock(methods_mu_);
  methods_[std::move(name)] =
      RegisteredMethod{std::move(method), method_class, lane};
}

void RpcEndpoint::unregister_method(const std::string& name) {
  std::lock_guard<std::mutex> lock(methods_mu_);
  methods_.erase(name);
}

void RpcEndpoint::fulfill(PendingCall::State& state, Result<Payload> result) {
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (state.result.has_value()) return;  // first writer wins
    state.result = std::move(result);
  }
  state.cv.notify_all();
}

Duration RpcEndpoint::jittered(Duration backoff) {
  // Uniform in [1-jitter, 1+jitter] times the backoff; caller holds
  // pending_mu_ (retry_rng_ is guarded by it).
  const double factor =
      1.0 + config_.retry_jitter * (2.0 * retry_rng_.uniform() - 1.0);
  return std::chrono::duration_cast<Duration>(backoff * factor);
}

CallId RpcEndpoint::send_request(NodeId target, const std::string& method,
                                 Payload args,
                                 std::shared_ptr<PendingCall::State> state,
                                 Duration timeout) {
  const CallId call = ids_.next<CallTag>();
  const bool oneway = (state == nullptr);
  // The caller's ambient trace (if any) rides the request headers, and is
  // remembered in the pending record so retransmissions carry it too.
  const obs::TraceContext trace = obs::current_context();
  // Marshal exactly once; the pending record and every (re)transmission
  // share this one buffer.
  net::SharedPayload encoded(encode_request(method, args, oneway));
  if (state) {
    const Duration now = clock_.now();
    PendingRecord record;
    record.state = std::move(state);
    record.target = target;
    record.deadline = now + timeout;
    record.backoff = config_.retry_base_delay;
    record.trace = trace;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      if (config_.max_retries > 0) {
        record.request = encoded;  // kept for retransmission
        record.next_resend = now + jittered(record.backoff);
      } else {
        record.next_resend = Duration::max();
      }
      const Duration wake = std::min(record.deadline, record.next_resend);
      record.timer =
          wheel_.schedule(wake - now, [this, call] { on_retry_timer(call); });
      pending_.emplace(call, std::move(record));
    }
  }
  const Status sent = network_.send(net::Message{
      .from = self_,
      .to = target,
      .kind = net::kRpcRequest,
      .call = call,
      .payload = std::move(encoded),
      .trace_id = trace.trace_id,
      .span_id = trace.span_id,
  });
  if (!sent.is_ok()) {
    // Transport rejected the send outright (unknown node): fail fast rather
    // than waiting for a timeout.
    std::shared_ptr<PendingCall::State> failed;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      auto it = pending_.find(call);
      if (it != pending_.end()) {
        failed = it->second.state;
        wheel_.cancel(it->second.timer);
        pending_.erase(it);
      }
    }
    if (failed) fulfill(*failed, sent);
  }
  return call;
}

void RpcEndpoint::on_retry_timer(CallId call) {
  // Wheel tick thread.  One call per callback: no scan over pending_, and a
  // burst of other calls' responses never wakes this path at all.
  std::shared_ptr<PendingCall::State> expired;
  std::optional<net::Message> resend;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    auto it = pending_.find(call);
    if (it == pending_.end()) return;  // answered or erased: nothing to do
    PendingRecord& record = it->second;
    const Duration now = clock_.now();
    if (now >= record.deadline) {
      expired = record.state;
      pending_.erase(it);
    } else {
      if (record.next_resend != Duration::max() && now >= record.next_resend) {
        if (record.attempts < 1 + config_.max_retries) {
          resend = net::Message{
              .from = self_,
              .to = record.target,
              .kind = net::kRpcRequest,
              .call = call,
              .payload = record.request,
              .trace_id = record.trace.trace_id,
              .span_id = record.trace.span_id,
          };
          record.attempts++;
          record.backoff =
              std::min(record.backoff * 2, config_.retry_max_delay);
          record.next_resend = now + jittered(record.backoff);
        } else {
          record.next_resend = Duration::max();  // out of retries: wait it out
        }
      }
      const Duration wake = std::min(record.deadline, record.next_resend);
      record.timer =
          wheel_.schedule(wake - now, [this, call] { on_retry_timer(call); });
    }
  }
  if (expired) {
    fulfill(*expired, Status{StatusCode::kTimeout, "rpc deadline exceeded"});
    bump(&AtomicStats::deadline_timeouts);
  }
  if (resend) {
    // Counted first: a zero-latency send can wake the caller before send()
    // returns, and the count must already show the retransmission then.
    bump(&AtomicStats::retries_sent);
    // Failures here (node unregistered mid-flight) are deliberately ignored:
    // the deadline converts them into a definite timeout.
    network_.send(std::move(*resend));
  }
}

Result<Payload> RpcEndpoint::call(NodeId target, const std::string& method,
                                  Payload args) {
  return call(target, method, std::move(args), config_.default_timeout);
}

Result<Payload> RpcEndpoint::call(NodeId target, const std::string& method,
                                  Payload args, Duration timeout) {
  // Trace roots can start here (an RPC issued outside any event) or join the
  // ambient context (an RPC inside a raise/handler chain).
  obs::SpanGuard span("rpc.call", self_.value(), obs::kMintTrace, method);
  const std::int64_t t0 = obs::metrics_enabled() ? obs::now_us() : 0;
  PendingCall pending;
  const CallId id =
      send_request(target, method, std::move(args), pending.state_, timeout);
  auto result = pending.claim(timeout);
  if (t0 != 0) call_us_->record_us(obs::now_us() - t0);
  if (!result.is_ok() && result.status().code() == StatusCode::kTimeout) {
    // Forget the correlation entry; a late response is dropped harmlessly.
    // If the record is still pending, the claimer's clock beat the retry
    // timer to the shared deadline — account the timeout here so the
    // counter does not depend on which side wakes first.
    bool was_pending = false;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      auto it = pending_.find(id);
      if (it != pending_.end()) {
        was_pending = true;
        wheel_.cancel(it->second.timer);
        pending_.erase(it);
      }
    }
    if (was_pending) bump(&AtomicStats::deadline_timeouts);
  }
  return result;
}

PendingCall RpcEndpoint::call_async(NodeId target, const std::string& method,
                                    Payload args) {
  PendingCall pending;
  send_request(target, method, std::move(args), pending.state_,
               config_.default_timeout);
  return pending;
}

Status RpcEndpoint::call_oneway(NodeId target, const std::string& method,
                                Payload args) {
  send_request(target, method, std::move(args), nullptr,
               config_.default_timeout);
  return Status::ok();
}

void RpcEndpoint::on_request(const net::Message& message) {
  // Duplicate suppression first: a retransmitted or network-duplicated
  // request must not run the method twice.
  if (config_.dedup_window.count() > 0 && message.call.valid()) {
    Payload replay;
    bool duplicate = false;
    {
      std::lock_guard<std::mutex> lock(dedup_mu_);
      const DedupKey key{message.from.value(), message.call.value()};
      auto it = dedup_.find(key);
      if (it != dedup_.end()) {
        duplicate = true;
        if (it->second.done && !it->second.oneway) {
          replay = it->second.response;  // answer again without re-executing
        }
      } else {
        dedup_.emplace(key, DedupEntry{});  // in-progress marker
      }
    }
    if (duplicate) {
      if (!replay.empty()) {
        bump(&AtomicStats::dedup_replays);
        network_.send(net::Message{
            .from = self_,
            .to = message.from,
            .kind = net::kRpcResponse,
            .call = message.call,
            .payload = std::move(replay),
            .trace_id = message.trace_id,
            .span_id = message.span_id,
        });
      } else {
        bump(&AtomicStats::duplicate_drops);
      }
      return;
    }
  }

  // Runs on the network delivery thread.  kFast methods execute inline here
  // (they are required not to block); kBlocking methods go to the executor
  // lane they were registered with.
  MethodClass method_class = MethodClass::kBlocking;
  exec::Lane lane = exec::Lane::kBulk;
  try {
    Reader peek(message.payload.share());
    const std::string method_name = peek.get_string();
    std::lock_guard<std::mutex> lock(methods_mu_);
    auto it = methods_.find(method_name);
    if (it != methods_.end()) {
      method_class = it->second.method_class;
      lane = it->second.lane;
    }
  } catch (const DeserializeError&) {
    // execute_request reports the malformed payload.
  }

  if (method_class == MethodClass::kFast) {
    execute_request(message);
    return;
  }
  // try_submit: the delivery thread must never park on a full lane.  The
  // method body may block (nested RPCs, waits), so unlike kFast methods and
  // reply fulfilment it cannot run inline here.
  const Status accepted = executor_->try_submit(
      lane, [this, message] { execute_request(message); });
  if (!accepted.is_ok()) {
    shed_request(message, accepted);
  }
}

void RpcEndpoint::shed_request(const net::Message& message, const Status& why) {
  bump(&AtomicStats::requests_shed);
  // Forget the in-progress dedup marker: the method never ran, so a
  // retransmission of this CallId must be allowed to execute once capacity
  // returns (otherwise every retry would be dropped as a duplicate forever).
  if (config_.dedup_window.count() > 0 && message.call.valid()) {
    std::lock_guard<std::mutex> lock(dedup_mu_);
    const DedupKey key{message.from.value(), message.call.value()};
    auto it = dedup_.find(key);
    if (it != dedup_.end() && !it->second.done) dedup_.erase(it);
  }
  bool oneway = true;  // unparseable requests cannot be answered
  try {
    Reader r(message.payload.share());
    (void)r.get_string();
    (void)r.get_bytes();
    oneway = r.get_bool();
  } catch (const DeserializeError&) {
  }
  DOCT_LOG(kWarn) << "rpc request shed: " << why.message();
  if (oneway) return;
  // Fail the caller's pending call NOW rather than leaking the waiter until
  // its deadline: overload should surface as a fast error, not a hang.
  network_.send(net::Message{
      .from = self_,
      .to = message.from,
      .kind = net::kRpcResponse,
      .call = message.call,
      .payload = encode_response(why.code(), why.message(), Payload{}),
      .trace_id = message.trace_id,
      .span_id = message.span_id,
  });
}

void RpcEndpoint::record_dedup(const net::Message& message, bool oneway,
                               const Payload& response) {
  if (config_.dedup_window.count() == 0 || !message.call.valid()) return;
  const Duration now = clock_.now();
  std::lock_guard<std::mutex> lock(dedup_mu_);
  const DedupKey key{message.from.value(), message.call.value()};
  auto it = dedup_.find(key);
  if (it == dedup_.end()) return;  // window disabled mid-flight; nothing held
  it->second.done = true;
  it->second.oneway = oneway;
  it->second.response = response;
  it->second.completed_at = now;
  dedup_order_.emplace_back(now, key);
  // Prune: expired entries and, beyond capacity, the oldest completions.
  while (!dedup_order_.empty() &&
         (dedup_order_.front().first + config_.dedup_window < now ||
          dedup_order_.size() > config_.dedup_capacity)) {
    dedup_.erase(dedup_order_.front().second);
    dedup_order_.pop_front();
  }
}

void RpcEndpoint::execute_request(const net::Message& message) {
  Reader r(message.payload.share());
  std::string method_name;
  Payload args;
  bool oneway = false;
  try {
    method_name = r.get_string();
    args = r.get_bytes();
    oneway = r.get_bool();
  } catch (const DeserializeError& e) {
    DOCT_LOG(kError) << "malformed rpc request: " << e.what();
    // Complete the dedup entry (empty, oneway) so duplicates stay dropped
    // and the in-progress marker does not linger forever.
    record_dedup(message, /*oneway=*/true, Payload{});
    return;
  }

  Method method;
  {
    std::lock_guard<std::mutex> lock(methods_mu_);
    auto it = methods_.find(method_name);
    if (it != methods_.end()) method = it->second.method;
  }

  // Adopt the caller's trace for the whole serve (method body + response
  // send): nested RPCs and kernel work issued by the method stay causally
  // linked across the node boundary.
  obs::SpanGuard span("rpc.serve", self_.value(),
                      obs::TraceContext{message.trace_id, message.span_id},
                      method_name);

  Result<Payload> result =
      method ? [&]() -> Result<Payload> {
        Reader args_reader(std::move(args));
        return method(message.from, args_reader);
      }()
             : Result<Payload>(Status{StatusCode::kInvalidArgument,
                                      "no such method: " + method_name});
  if (method) bump(&AtomicStats::requests_executed);
  if (oneway) {
    record_dedup(message, /*oneway=*/true, Payload{});
    return;
  }

  const Status& status = result.status();
  Payload response =
      encode_response(status.code(), status.message(),
                      result.is_ok() ? result.value() : Payload{});
  record_dedup(message, /*oneway=*/false, response);
  const obs::TraceContext reply_ctx =
      span.active() ? span.context()
                    : obs::TraceContext{message.trace_id, message.span_id};
  network_.send(net::Message{
      .from = self_,
      .to = message.from,
      .kind = net::kRpcResponse,
      .call = message.call,
      .payload = std::move(response),
      .trace_id = reply_ctx.trace_id,
      .span_id = reply_ctx.span_id,
  });
}

void RpcEndpoint::on_response(const net::Message& message) {
  // Runs inline on the delivery thread: fulfilment is a map erase, a wheel
  // cancel and a cv notify, and never blocks, so handing it to a lane would
  // only add a thread handoff to every round trip.
  std::shared_ptr<PendingCall::State> state;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    auto it = pending_.find(message.call);
    // Late or duplicate responses (after timeout, or after a dedup replay
    // raced the original response) find no record and are dropped.
    if (it == pending_.end()) return;
    state = it->second.state;
    wheel_.cancel(it->second.timer);
    pending_.erase(it);
  }
  try {
    Reader r(message.payload.share());
    const auto code = r.get<StatusCode>();
    auto status_message = r.get_string();
    auto result = r.get_bytes();
    if (code == StatusCode::kOk) {
      fulfill(*state, std::move(result));
    } else {
      fulfill(*state, Status{code, std::move(status_message)});
    }
  } catch (const DeserializeError& e) {
    fulfill(*state, Status{StatusCode::kInternal,
                           std::string("malformed rpc response: ") + e.what()});
  }
}

}  // namespace doct::rpc
