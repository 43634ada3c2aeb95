// EventSystem — the paper's contribution: distributed asynchronous event
// raising, routing, and handling for threads, thread groups, and passive
// objects (§3–§5, §7).
//
// The §5.3 addressing/blocking table maps 1:1 onto this API:
//
//   raise(e, tid)            -> raise(event, ThreadId, data)
//   raise(e, gtid)           -> raise(event, GroupId, data)
//   raise(e, oid)            -> raise(event, ObjectId, data)
//   raise_and_wait(e, tid)   -> raise_and_wait(event, ThreadId, data, t/o)
//   raise_and_wait(e, gtid)  -> raise_and_wait(event, GroupId, data, t/o)
//   raise_and_wait(e, oid)   -> raise_and_wait(event, ObjectId, data, t/o)
//
// Thread-based handling (§4.1/4.2): handlers attach to the *current* logical
// thread and travel with it.  The chain is LIFO; a handler may render
// kPropagate to pass the event outward along the chain (Ada-style dynamic
// propagation).  Three handler kinds: an entry of the attaching object, an
// entry of a designated buddy object, or a per-thread procedure run in the
// current object's context (OWN_CONTEXT).
//
// Object-based handling (§4.3): events posted to an object run the entry the
// object registered for that event name (or a system default), executed on
// the node executor's EVENT LANE.  Lane width 1 (the default) IS the paper's
// per-node master handler thread — "to reduce thread-creation costs, it is
// preferable to employ a master handler thread" (§7) — wider lanes trade
// that serialization for parallel handler execution.  A fresh thread per
// event (kThreadPerEvent) is kept for the E2 ablation bench.  The event lane
// is BOUNDED: when it is full the dispatch is shed and the raiser gets
// kResourceExhausted instead of an unbounded backlog.
//
// Synchronous raising: the raiser blocks until a handler explicitly resumes
// it (§3).  A synchronous raise *to the current thread* (the exception-
// handling shape, §6.1) runs the chain on a surrogate thread that adopts the
// suspended thread's context, then applies the verdict to it.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "events/block.hpp"
#include "events/registry.hpp"
#include "kernel/kernel.hpp"
#include "objects/manager.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rpc/rpc.hpp"

namespace doct::events {

enum class ObjectDispatchMode : std::uint8_t {
  kMasterThread = 0,   // one long-lived handler thread per node (§7)
  kThreadPerEvent = 1, // spawn a fresh OS thread per object event
};

struct EventConfig {
  // The DOCT_DISPATCH environment variable ("master" / "per_event")
  // overrides this at construction — the CI ablation lane uses it to re-run
  // the event suite under kThreadPerEvent without recompiling.
  ObjectDispatchMode dispatch_mode = ObjectDispatchMode::kMasterThread;
  Duration sync_timeout = std::chrono::seconds(10);
  int max_handler_depth = 16;  // re-entrant handler recursion guard
};

struct EventStats {
  std::uint64_t raises_async = 0;
  std::uint64_t raises_sync = 0;
  std::uint64_t thread_handlers_run = 0;
  std::uint64_t object_handlers_run = 0;
  std::uint64_t per_thread_procs_run = 0;
  std::uint64_t defaults_applied = 0;
  std::uint64_t propagations = 0;      // kPropagate chain steps
  std::uint64_t surrogate_runs = 0;    // self-sync handler executions
  std::uint64_t dead_target_raises = 0;
  std::uint64_t shed_dispatches = 0;   // executor refused; raiser got ERROR
};

// Handler context constant mirroring the paper's OWN_CONTEXT flag (§5.2).
inline constexpr struct OwnContextTag {
} OWN_CONTEXT{};

class EventSystem {
 public:
  EventSystem(kernel::Kernel& kernel, objects::ObjectManager& manager,
              rpc::RpcEndpoint& rpc, EventRegistry& registry,
              ProcedureRegistry& procedures, EventConfig config = {});
  ~EventSystem();

  EventSystem(const EventSystem&) = delete;
  EventSystem& operator=(const EventSystem&) = delete;

  [[nodiscard]] EventRegistry& registry() { return registry_; }
  [[nodiscard]] ProcedureRegistry& procedures() { return procedures_; }
  [[nodiscard]] kernel::Kernel& kernel() { return kernel_; }
  // The node executor event work runs on (shared with the RPC endpoint).
  [[nodiscard]] exec::Executor& executor() { return rpc_.executor(); }

  // --- thread-based handler attachment (§5.2) -----------------------------
  // All attach/detach calls operate on the CURRENT logical thread.

  // attach_handler(INTERRUPT, my_object, "my_interrupt_handler"):
  // handler is an entry of `object`; classified as kObjectEntry when the
  // thread is currently executing in `object`, kBuddy otherwise.
  Result<HandlerId> attach_handler(EventId event, ObjectId object,
                                   const std::string& entry);

  // attach_handler(TIMER, "monitor_thread", OWN_CONTEXT): per-thread
  // procedure executed in whatever object the thread occupies at delivery.
  Result<HandlerId> attach_handler(EventId event, const std::string& procedure,
                                   OwnContextTag);

  Status detach_handler(HandlerId id);

  // --- raising (§5.3) -------------------------------------------------------

  Status raise(EventId event, ThreadId target, rpc::Payload user_data = {});
  Status raise(EventId event, GroupId target, rpc::Payload user_data = {});
  Status raise(EventId event, ObjectId target, rpc::Payload user_data = {});

  Result<kernel::Verdict> raise_and_wait(EventId event, ThreadId target,
                                         rpc::Payload user_data = {});
  Result<kernel::Verdict> raise_and_wait(EventId event, GroupId target,
                                         rpc::Payload user_data = {});
  Result<kernel::Verdict> raise_and_wait(EventId event, ObjectId target,
                                         rpc::Payload user_data = {});

  // Raises a system exception for the current thread, synchronously — the
  // system-event shape (§6.1): the thread suspends, the chain runs on a
  // surrogate, the verdict resumes or terminates the thread.
  Result<kernel::Verdict> raise_exception(EventId event,
                                          const std::string& system_info,
                                          rpc::Payload user_data = {});

  // When event delivery targets a passive object that is not in memory, this
  // hook (typically ObjectStore::activate) is called first.
  void set_activation_hook(std::function<Status(ObjectId)> hook);

  [[nodiscard]] EventStats stats() const;
  void reset_stats();

 private:
  // Kernel delivery callback: runs the thread's handler chain for a notice.
  kernel::Verdict on_deliver(kernel::ThreadContext& ctx,
                             const kernel::EventNotice& notice);

  // Executes the LIFO handler chain for `notice` against `ctx`'s attributes.
  // May run on the carrier itself or on a surrogate thread.
  kernel::Verdict execute_chain(kernel::ThreadContext& ctx,
                                const kernel::EventNotice& notice);

  // Runs one handler record; the bool is true if the record matched and ran.
  std::pair<bool, kernel::Verdict> run_handler(
      kernel::ThreadContext& ctx, const kernel::HandlerRecord& record,
      const kernel::EventNotice& notice);

  kernel::Verdict apply_default(const kernel::EventNotice& notice);

  // Object-based dispatch.  run_object_handler admits the handler execution
  // to the executor (lane by event class: control / bulk / event) and
  // reports refusal to the caller so the raiser fails fast.
  Status dispatch_to_object(const kernel::EventNotice& notice);
  // may_block=false on the network delivery thread (rpc_object_notify):
  // admission then sheds instead of parking the simulated NIC.
  Status run_object_handler(const kernel::EventNotice& notice,
                            bool may_block = true);
  [[nodiscard]] exec::Lane lane_for(EventId event) const;
  kernel::Verdict run_object_handler_now(const kernel::EventNotice& notice);
  void send_resume(const kernel::EventNotice& notice, kernel::Verdict verdict);

  kernel::EventNotice make_notice(EventId event, rpc::Payload user_data,
                                  bool synchronous);

  // RPC methods.
  Result<rpc::Payload> rpc_object_notify(NodeId caller, Reader& args);
  Result<rpc::Payload> rpc_run_handler(NodeId caller, Reader& args);

  // EventStats with relaxed atomic counters: the raise path bumps without a
  // lock (the old stats_mu_ serialized every concurrent raiser); stats()
  // snapshots.
  struct AtomicStats {
    std::atomic<std::uint64_t> raises_async{0};
    std::atomic<std::uint64_t> raises_sync{0};
    std::atomic<std::uint64_t> thread_handlers_run{0};
    std::atomic<std::uint64_t> object_handlers_run{0};
    std::atomic<std::uint64_t> per_thread_procs_run{0};
    std::atomic<std::uint64_t> defaults_applied{0};
    std::atomic<std::uint64_t> propagations{0};
    std::atomic<std::uint64_t> surrogate_runs{0};
    std::atomic<std::uint64_t> dead_target_raises{0};
    std::atomic<std::uint64_t> shed_dispatches{0};
  };
  void bump(std::atomic<std::uint64_t> AtomicStats::* counter);

  kernel::Kernel& kernel_;
  objects::ObjectManager& manager_;
  rpc::RpcEndpoint& rpc_;
  EventRegistry& registry_;
  ProcedureRegistry& procedures_;
  EventConfig config_;

  // kThreadPerEvent bookkeeping: spawned threads joined opportunistically
  // and at shutdown (CP.26: never detach).  Threads announce completion in
  // per_event_finished_ so the dispatch path only ever joins threads that
  // have already run to the end — for remote notifies the dispatcher is the
  // RPC delivery thread, and a blocking bulk join there stalls every caller
  // past its deadline.
  std::mutex per_event_mu_;
  std::vector<std::thread> per_event_threads_;
  std::vector<std::thread::id> per_event_finished_;

  std::function<Status(ObjectId)> activation_hook_;
  std::mutex hook_mu_;

  AtomicStats stats_;

  // Resolved once at construction; hot paths record without a lookup.
  obs::Histogram* sync_wait_us_ = nullptr;  // raise_and_wait round trips
  obs::Histogram* handle_us_ = nullptr;     // handler chain executions
  // Last member: unregisters before the stats it reads are destroyed.
  obs::MetricsRegistry::SourceHandle metrics_source_;
};

}  // namespace doct::events
