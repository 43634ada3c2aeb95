// RPC layer over the simulated network.
//
// Object invocation in the DO/CT model (§2) can ride either RPC or DSM; this
// is the RPC vehicle.  Three call shapes:
//
//   call()          — synchronous: caller blocks for the result (or timeout).
//   call_async()    — claimable asynchronous invocation: returns a ticket the
//                     caller may later claim() for the result.
//   call_oneway()   — NON-CLAIMABLE asynchronous invocation: fire-and-forget.
//                     §7.1 calls these out explicitly: the system "may not
//                     keep track" of them, which is why the path-following
//                     thread locator can miss threads they spawn.  We
//                     reproduce that behaviour faithfully in kernel/locators.
//
// Server methods run on the node executor (exec::Executor), never on the
// network delivery thread, so nested and re-entrant calls (A→B→A) cannot
// deadlock the transport.  Each registered method names the lane it runs on
// (blocking bodies default to kBulk).  Replies are fulfilled inline on the
// delivery thread: fulfilment never blocks, so it needs no lane, never
// queues behind a backlog and costs no thread handoff.  When the executor
// refuses admission (lane full), the request is SHED: the in-progress dedup
// marker is forgotten so a retransmission can re-execute later, and a
// non-oneway caller gets an error response immediately instead of waiting
// out its deadline.
//
// Resilience (fault-injection PR): claimable calls are retried with
// exponential backoff + seeded jitter until the overall deadline.  The
// CallId doubles as the idempotency token — every retransmission reuses it,
// and the server keeps a dedup window of recently executed (caller, call)
// pairs: a duplicate of an in-progress request is dropped, a duplicate of a
// completed request gets the cached response replayed without re-executing
// the method.  Claimable calls therefore execute at-most-once even under
// message duplication and retransmission.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/id_gen.hpp"
#include "common/ids.hpp"
#include "common/inline.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/timer_wheel.hpp"
#include "exec/executor.hpp"
#include "net/demux.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace doct::rpc {

using Payload = std::vector<std::uint8_t>;

// A server-side method: receives the caller's node and the marshalled
// arguments, returns marshalled results or an error status.
using Method = std::function<Result<Payload>(NodeId caller, Reader& args)>;

// kBlocking methods may issue nested RPCs or wait on conditions; they run on
// the node executor (on the lane named at registration).  kFast methods must
// not block; they run inline on the network delivery thread, which guarantees
// they make progress even when every executor worker is parked inside a
// blocking method (this breaks the classic fetch-behind-get_page deadlock in
// the DSM protocol).
enum class MethodClass : std::uint8_t { kBlocking = 0, kFast = 1 };

struct RpcConfig {
  Duration default_timeout = std::chrono::seconds(5);

  // --- retry / recovery ----------------------------------------------------
  // Extra transmissions of a claimable request after the first (0 = off,
  // the historical single-attempt behaviour).  Retries reuse the CallId, so
  // the server's dedup window keeps execution at-most-once.  One-way calls
  // are never retried: with no response there is no signal to stop on.
  int max_retries = 0;
  Duration retry_base_delay = std::chrono::milliseconds(25);
  Duration retry_max_delay = std::chrono::milliseconds(400);
  double retry_jitter = 0.2;         // +/- fraction applied to each backoff
  std::uint64_t retry_seed = 0xB0FF; // jitter determinism (xored with node id)

  // Server-side dedup window: how long, and how many entries at most, a
  // completed (caller, call) execution is remembered for duplicate replay.
  // Zero window disables dedup.
  Duration dedup_window = std::chrono::seconds(5);
  std::size_t dedup_capacity = 4096;
};

struct RpcStats {
  std::uint64_t requests_executed = 0;  // method bodies actually run
  std::uint64_t retries_sent = 0;       // retransmissions of pending calls
  std::uint64_t deadline_timeouts = 0;  // pending calls failed at deadline
  std::uint64_t dedup_replays = 0;      // duplicates answered from cache
  std::uint64_t duplicate_drops = 0;    // duplicates dropped (in-progress)
  std::uint64_t requests_shed = 0;      // admissions refused by the executor
};

// Ticket for a claimable async call.
class PendingCall {
 public:
  // Blocks until the response arrives or `timeout` elapses.
  [[nodiscard]] Result<Payload> claim(Duration timeout);
  [[nodiscard]] bool ready() const;

 private:
  friend class RpcEndpoint;
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<Result<Payload>> result;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

class RpcEndpoint {
 public:
  // `executor` is the node's shared executor; when null the endpoint owns a
  // private one (standalone endpoints in tests).  A shared executor must be
  // shut down (drained) before the endpoint is destroyed — NodeRuntime does
  // this in its destructor body, while every subsystem is still alive.
  RpcEndpoint(net::Transport& network, net::Demux& demux, NodeId self,
              IdGenerator& ids, RpcConfig config = {},
              exec::Executor* executor = nullptr);
  ~RpcEndpoint();

  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  // Registers a named method.  Re-registering a name replaces the method.
  // `lane` picks the executor lane kBlocking bodies run on; kFast methods
  // ignore it (they execute inline on the delivery thread).
  void register_method(std::string name, Method method,
                       MethodClass method_class = MethodClass::kBlocking,
                       exec::Lane lane = exec::Lane::kBulk);
  void unregister_method(const std::string& name);

  [[nodiscard]] Result<Payload> call(NodeId target, const std::string& method,
                                     Payload args);
  [[nodiscard]] Result<Payload> call(NodeId target, const std::string& method,
                                     Payload args, Duration timeout);

  [[nodiscard]] PendingCall call_async(NodeId target, const std::string& method,
                                       Payload args);

  // Non-claimable: no correlation state is kept (see header comment).
  Status call_oneway(NodeId target, const std::string& method, Payload args);

  // Drains and joins the executor ahead of destruction.  A node runtime
  // tearing down calls this FIRST so no worker is still executing a method
  // that touches subsystems (kernel, objects) destroyed before the endpoint.
  // Idempotent; requests arriving afterwards are shed.  Note: this shuts
  // down the executor passed at construction, shared or owned.
  void drain_workers();

  // The executor serving this endpoint (shared node executor, or the owned
  // fallback).  Other layers on the same node dispatch through this.
  [[nodiscard]] exec::Executor& executor() { return *executor_; }

  [[nodiscard]] NodeId self() const { return self_; }

  [[nodiscard]] RpcStats stats() const;
  void reset_stats();

 private:
  // Correlation + retry state for one claimable call in flight.
  struct PendingRecord {
    std::shared_ptr<PendingCall::State> state;
    NodeId target;
    // Encoded request, kept only when retries are on.  Shares the original
    // transmission's buffer: a retransmission costs no re-marshal and no
    // copy, just another reference.
    net::SharedPayload request;
    Duration deadline;      // absolute steady-clock time the call fails at
    Duration next_resend;   // absolute; max() = no further retransmissions
    Duration backoff;       // current backoff step
    int attempts = 1;       // transmissions performed so far
    // Trace context of the originating call, kept so retransmissions (sent
    // from the wheel's tick thread, which has no ambient context) carry the
    // same causal identity as the first transmission.
    obs::TraceContext trace;
    // Timer-wheel id for this call's next deadline/resend.
    common::TimerId timer = 0;
  };

  // Server-side dedup entry for one (caller, call) pair.
  struct DedupEntry {
    Payload response;       // cached encoded response once done
    bool done = false;      // false while the method is still executing
    bool oneway = false;
    Duration completed_at{0};
  };
  using DedupKey = std::pair<std::uint64_t, std::uint64_t>;  // (caller, call)

  void on_request(const net::Message& message);
  // Correlates + fulfills a response, inline on the delivery thread.
  void on_response(const net::Message& message);
  // Executor refused the request: forget the in-progress dedup marker so a
  // retransmission can re-execute, and answer non-oneway callers with `why`
  // so their pending call fails fast instead of timing out.
  void shed_request(const net::Message& message, const Status& why);
  CallId send_request(NodeId target, const std::string& method, Payload args,
                      std::shared_ptr<PendingCall::State> state,
                      Duration timeout);
  static void fulfill(PendingCall::State& state, Result<Payload> result);
  // Timer-wheel callback for one pending call: fires at min(next_resend,
  // deadline), retransmits or times the call out, and re-arms itself.
  void on_retry_timer(CallId call);
  [[nodiscard]] Duration jittered(Duration backoff);  // holds pending_mu_
  void record_dedup(const net::Message& message, bool oneway,
                    const Payload& response);

  // RpcStats with relaxed atomic counters, one per cache line: the
  // request/response hot paths bump without a lock OR false sharing;
  // stats() snapshots.
  struct AtomicStats {
    common::PaddedCounter requests_executed;
    common::PaddedCounter retries_sent;
    common::PaddedCounter deadline_timeouts;
    common::PaddedCounter dedup_replays;
    common::PaddedCounter duplicate_drops;
    common::PaddedCounter requests_shed;
  };
  void bump(common::PaddedCounter AtomicStats::* counter);

  net::Transport& network_;
  NodeId self_;
  IdGenerator& ids_;
  RpcConfig config_;
  // Owned fallback for standalone endpoints; null when sharing the node's.
  std::unique_ptr<exec::Executor> owned_executor_;
  exec::Executor* executor_;  // never null
  SteadyClock clock_;

  struct RegisteredMethod {
    Method method;
    MethodClass method_class = MethodClass::kBlocking;
    exec::Lane lane = exec::Lane::kBulk;
  };

  void execute_request(const net::Message& message);

  std::mutex methods_mu_;
  std::unordered_map<std::string, RegisteredMethod> methods_;

  std::mutex pending_mu_;
  std::unordered_map<CallId, PendingRecord> pending_;
  SplitMix64 retry_rng_;  // guarded by pending_mu_

  // The executor's shared wheel: one one-shot timer per pending call, O(1)
  // per schedule/cancel, no scan, no notify.
  common::TimerWheel& wheel_;

  std::mutex dedup_mu_;
  std::map<DedupKey, DedupEntry> dedup_;
  std::deque<std::pair<Duration, DedupKey>> dedup_order_;  // completion order

  AtomicStats stats_;

  // Resolved once at construction; call() records client-observed latency.
  obs::Histogram* call_us_ = nullptr;
  // Last member: unregisters before the stats it reads are destroyed.
  obs::MetricsRegistry::SourceHandle metrics_source_;
};

}  // namespace doct::rpc
