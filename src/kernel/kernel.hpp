// Per-node kernel: distributed logical threads, thread groups, thread
// location, event delivery plumbing, timers, and migration primitives.
//
// Responsibilities (paper §7 "OS Support for Event Notification"):
//   * spawn/terminate logical threads; children inherit thread attributes
//     (§6.3: "Any subsequent thread spawned from the root thread inherits the
//     thread attributes including the event registry and the handler
//     information").
//   * maintain the TCB trail that the path-following locator traverses, and
//     per-thread multicast groups for the multicast locator (§7.1).
//   * deliver EventNotices to threads present at this node, waking blocked
//     carriers; queue urgency for control events.
//   * resume synchronous raisers (raise_and_wait) when a handler decides.
//   * run per-thread timers, recreated from thread attributes on every
//     migration (§6.2).
//   * keep tombstones of dead threads so a raiser gets DEAD_TARGET instead of
//     silence (§7: fault-tolerance discussion).
//
// The kernel deliberately does NOT know how handlers are found or executed —
// that is the events layer's job, injected via set_delivery_callback().  The
// kernel only knows how to move notices to the right thread on the right
// node and how to stop/resume carriers.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.hpp"
#include "common/id_gen.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/timer_wheel.hpp"
#include "exec/executor.hpp"
#include "kernel/location_cache.hpp"
#include "kernel/thread_context.hpp"
#include "net/demux.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "rpc/rpc.hpp"

namespace doct::kernel {

// Thread-location strategies (§7.1).
enum class LocatorKind : std::uint8_t {
  kBroadcast = 0,   // flood a probe; O(n) messages, 1 RTT
  kPathFollow = 1,  // walk the TCB trail from the root node; <= hops RTTs
  kMulticast = 2,   // per-thread multicast group maintained on each hop
};

struct KernelConfig {
  LocatorKind locator = LocatorKind::kPathFollow;
  Duration locate_timeout = std::chrono::seconds(2);
  Duration tombstone_ttl = std::chrono::seconds(30);
  bool maintain_multicast_groups = true;  // cost of kMulticast readiness
  // Thread-location cache: consulted before running the configured locator.
  // Disable (enabled=false) to measure the bare §7.1 strategies (bench E1).
  LocationCacheConfig location_cache;
  // The node's unified executor (lanes, capacities, overload policies).
  // NodeRuntime constructs one exec::Executor per node from this; event
  // lane width 1 is the §7 master handler thread, wider trades serialization
  // for parallel handler execution.
  exec::ExecutorConfig executor;
};

struct KernelStats {
  std::uint64_t threads_spawned = 0;
  std::uint64_t threads_terminated = 0;
  std::uint64_t notices_delivered = 0;   // enqueued to a local thread
  std::uint64_t notices_dead_target = 0;
  std::uint64_t locate_probes_sent = 0;  // path-follow hop RPCs
  std::uint64_t migrations_in = 0;
  std::uint64_t migrations_out = 0;
  std::uint64_t timer_events = 0;
  std::uint64_t census_peer_down_skips = 0;  // note_peer_down fast-paths
  std::uint64_t cached_deliveries = 0;  // remote raises sent via a cache hit
};

// Verdict a handler renders for the stopped thread (§3: after the handler
// finishes, the suspended thread is resumed or terminated) and, for
// synchronous raises, for the blocked raiser.
enum class Verdict : std::uint8_t {
  kResume = 0,
  kTerminate = 1,
  kPropagate = 2,  // thread-based chains only: pass to the next handler out
};

// The events layer's entry point: given the thread context stopped at a
// delivery point and the notice, run handlers and render a verdict.
using DeliveryCallback =
    std::function<Verdict(ThreadContext& ctx, const EventNotice& notice)>;

// Body of a logical thread.  Runs with the kernel's thread-local "current
// context" set; kernel APIs (poll_events, sleep, spawn) find it implicitly.
using ThreadBody = std::function<void()>;

struct SpawnOptions {
  GroupId group;                 // default: a fresh group
  std::optional<ThreadAttributes> attributes;  // default: inherit or fresh
  // Used by the objects layer for asynchronous invocations: a claimable
  // async child gets a tid allocated at the *caller's* node (so its root node
  // points back along the trail); the kernel then must not mint a fresh one.
  ThreadId explicit_tid;
};

class Kernel {
 public:
  Kernel(net::Transport& network, net::Demux& demux, rpc::RpcEndpoint& rpc,
         NodeId self, IdGenerator& ids, KernelConfig config = {});
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] IdGenerator& ids() { return ids_; }
  [[nodiscard]] const KernelConfig& config() const { return config_; }

  // --- threads -----------------------------------------------------------

  // Spawns a logical thread rooted at this node.  If called from inside a
  // running logical thread, the child inherits that thread's attributes
  // (handler chain included) unless options override them.
  ThreadId spawn(ThreadBody body, SpawnOptions options = {});

  // Blocks until the given locally-rooted thread's body returns.
  Status join_thread(ThreadId tid, Duration timeout = std::chrono::seconds(30));

  // Context of the logical thread currently executing on this OS thread
  // (nullptr outside any logical thread).
  static ThreadContext* current();

  // Shared handle to a context registered at this node (nullptr if unknown).
  // Subsystems that run work against a context on another OS thread (e.g.
  // surrogate handler execution) must hold this so the context outlives a
  // raiser that gives up waiting.
  [[nodiscard]] std::shared_ptr<ThreadContext> share_context(
      ThreadId tid) const {
    return find_context(tid);
  }

  // Processes pending notices for the current thread now (a delivery point).
  // Returns kTerminated if a handler terminated the thread.
  Status poll_events();

  // Interruptible sleep: wakes early to run handlers, then resumes sleeping.
  Status sleep_for(Duration d);

  // Generic interruptible wait used by higher-level blocking primitives
  // (distributed locks, raise_and_wait).  Waits until `pred()` is true,
  // running delivery points whenever notices arrive.  `pred` is evaluated
  // under the context lock.
  Status wait_until(ThreadContext& ctx, const std::function<bool()>& pred,
                    Duration timeout);

  // --- delivery plumbing (events layer) -----------------------------------

  void set_delivery_callback(DeliveryCallback cb);

  // Delivers a notice to a thread present at this node.  kNoSuchThread if it
  // is not here (caller should re-locate); kDeadTarget if it died here.
  Status deliver_local(const EventNotice& notice, bool urgent);

  // Delivers to every local member of the notice's target group.  Returns
  // the number of local threads reached.
  std::size_t deliver_group_local(const EventNotice& notice, bool urgent);

  // Sends a notice to a thread anywhere in the system: locates it, then
  // RPCs kernel.deliver to the hosting node, retrying once on a move race.
  Status deliver_remote(const EventNotice& notice, bool urgent);

  // Broadcast a group notice to all nodes (plus local delivery).
  Status deliver_group(const EventNotice& notice, bool urgent);

  // Wakes a raiser blocked in raise_and_wait (called via RPC by the node
  // where the handler ran).
  Status resume_waiter(std::uint64_t wait_token, Verdict verdict);

  // Registers the wait slot for a token.  MUST be called before the notice
  // is delivered: a fast handler can resume before the raiser would
  // otherwise get around to waiting.
  void prepare_wait(std::uint64_t wait_token);

  // Blocks the current thread until resume_waiter(token) fires.  The verdict
  // applies to the raise's TARGET; the caller decides whether it also
  // applies to itself (it does when raising at oneself).
  Result<Verdict> await_resume(std::uint64_t wait_token, Duration timeout);
  [[nodiscard]] std::uint64_t new_wait_token();

  // --- location (§7.1) -----------------------------------------------------

  // Finds the node where `tid` currently executes.  Consults the location
  // cache after the local checks; a cached answer is a HINT (the thread may
  // have moved since) — callers that act on it must be prepared for
  // kNoSuchThread and fall back to locate_fresh().
  Result<NodeId> locate(ThreadId tid) { return locate(tid, config_.locator); }
  Result<NodeId> locate(ThreadId tid, LocatorKind kind);

  // Runs the locate strategy unconditionally (skipping the cache) and notes
  // the fresh answer into the cache.  Used after a cached hint proves stale.
  Result<NodeId> locate_fresh(ThreadId tid, LocatorKind kind);

  [[nodiscard]] LocationCache& location_cache() { return location_cache_; }

  // --- migration primitives (objects layer) -------------------------------

  // Marks the current thread departed to `dest`, runs `call` (which performs
  // the remote invocation RPC carrying the serialized context), then restores
  // presence and attributes from the returned bytes.  The TCB trail entry and
  // multicast-group membership are maintained here.
  struct TravelGuard;
  Result<rpc::Payload> travel(
      NodeId dest,
      const std::function<Result<rpc::Payload>(const rpc::Payload& ctx_core)>&
          call);

  // Target-side: adopts a migrating thread for the duration of `body`.
  // Deserializes the context core, runs body on the calling (RPC worker)
  // thread with current() set, and returns the re-serialized context core to
  // ship back.  `body` receives the adopted context.
  Result<rpc::Payload> adopt_and_run(
      const rpc::Payload& ctx_core,
      const std::function<Status(ThreadContext&)>& body);

  // Registers a stub (departed) context for a claimable async-invocation
  // child: the trail entry that lets path-following find the child (§7.1).
  void adopt_stub(std::shared_ptr<ThreadContext> stub);
  // Removes a stub when the child completes, leaving a tombstone so later
  // raises report DEAD_TARGET.  No-op if the context is present (here) —
  // that means it is a live thread, not a stub.
  void drop_stub(ThreadId tid, bool tombstone);

  // --- groups --------------------------------------------------------------

  [[nodiscard]] GroupId create_group();
  // ThreadIds of group members currently present at this node.
  [[nodiscard]] std::vector<ThreadId> local_group_members(GroupId group) const;
  // All threads currently present at this node.
  [[nodiscard]] std::vector<ThreadId> local_threads() const;

  // Cluster-wide census of a thread group (broadcast query, V-kernel style):
  // every node reports its local members; waits for all replies or the
  // locate timeout.  The paper's §6.3 termination recipe deliberately avoids
  // needing this (QUIT is addressed to the group), but controllers and tests
  // want the roll call.
  [[nodiscard]] Result<std::vector<ThreadId>> group_census(GroupId group);

  // Failure-detector hook: a peer is confirmed down, so any census still
  // waiting on it will never hear back.  Counts the dead peer as replied on
  // every pending census (it can contribute no members), letting callers
  // return immediately instead of burning the full locate timeout.
  void note_peer_down(NodeId peer);

  // --- timers (§6.2) -------------------------------------------------------

  // Registers a timer on the current thread's attributes and starts it here;
  // migration automatically recreates it at each node the thread visits.
  Status add_timer(ThreadContext& ctx, TimerRecord record);
  Status remove_timer(ThreadContext& ctx, EventId event);

  [[nodiscard]] KernelStats stats() const;
  void reset_stats();

  // True if the thread died at this node less than tombstone_ttl ago.
  [[nodiscard]] bool is_tombstoned(ThreadId tid) const;
  // Death records currently held, expired ones not yet reaped included.
  [[nodiscard]] std::size_t tombstone_count() const;

  // The per-thread multicast group the kMulticast locator probes (§7.1).
  [[nodiscard]] GroupId thread_multicast_group(ThreadId tid) const;

  // Marks every context present at this node terminated (node shutdown):
  // carriers and adopted bodies unwind at their next delivery point.
  void terminate_all_local();

 private:
  struct RootThread {
    std::thread os_thread;
    std::shared_ptr<ThreadContext> context;
    bool done = false;
  };

  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;  // a non-logical caller waits here
    std::optional<Verdict> verdict;
    // The logical thread blocked on this token, which waits on its own
    // context cv instead; the resumer wakes exactly this one.
    std::shared_ptr<ThreadContext> ctx;
  };

  struct TimerEntry {
    TimerRecord record;
    // The armed one-shot wheel timer for the next fire (re-armed by
    // on_wheel_timer).
    common::TimerId wheel_timer = 0;
  };

  // RPC methods.
  Result<rpc::Payload> rpc_deliver(NodeId caller, Reader& args);
  Result<rpc::Payload> rpc_resume(NodeId caller, Reader& args);
  Result<rpc::Payload> rpc_probe_hop(NodeId caller, Reader& args);

  // Broadcast/multicast locate probes arrive as raw messages.
  void on_locate_probe(const net::Message& message);
  void on_locate_reply(const net::Message& message);
  void on_group_census(const net::Message& message);
  void on_group_census_reply(const net::Message& message);

  void run_thread_body(std::shared_ptr<ThreadContext> ctx, ThreadBody body);
  Status process_pending_locked(ThreadContext& ctx,
                                std::unique_lock<std::mutex>& lock);
  void register_context(std::shared_ptr<ThreadContext> ctx);
  void unregister_context(ThreadId tid, bool tombstone);
  std::shared_ptr<ThreadContext> find_context(ThreadId tid) const;

  void multicast_join(ThreadId tid);
  void multicast_leave(ThreadId tid);

  Result<NodeId> locate_broadcast(ThreadId tid);
  Result<NodeId> locate_path_follow(ThreadId tid);
  Result<NodeId> locate_multicast(ThreadId tid);

  // Wheel fire path: looks up the (tid, event) entry, delivers the
  // TIMER notice, and re-arms unless one-shot.  Runs on the wheel's tick
  // thread, so it must not block.
  void on_wheel_timer(ThreadId tid, EventId event);
  // Arms (or re-arms) a registry entry's wheel timer; holds timers_mu_.
  void arm_wheel_locked(ThreadId tid, TimerEntry& entry);
  void start_timers_for(ThreadContext& ctx);
  void stop_timers_for(ThreadId tid);

  [[nodiscard]] rpc::Payload serialize_context_core(ThreadContext& ctx);

  net::Transport& network_;
  rpc::RpcEndpoint& rpc_;
  NodeId self_;
  IdGenerator& ids_;
  KernelConfig config_;
  SteadyClock clock_;

  DeliveryCallback delivery_;
  mutable std::mutex delivery_mu_;

  mutable std::mutex mu_;
  std::unordered_map<ThreadId, std::shared_ptr<ThreadContext>> contexts_;
  std::map<ThreadId, RootThread> root_threads_;
  std::condition_variable root_done_cv_;
  std::unordered_map<ThreadId, Duration> tombstones_;  // tid -> death time
  // (death time, tid) in death order.  The TTL is one constant, so death
  // order is expiry order: each new tombstone pops the expired front, O(1)
  // amortized per exit.  A tid tombstoned twice has two entries; the older
  // one only erases the map entry if it still holds the same death time.
  std::deque<std::pair<Duration, ThreadId>> tombstone_fifo_;

  mutable std::mutex waiters_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Waiter>> waiters_;
  std::atomic<std::uint64_t> next_token_{1};

  // Pending broadcast/multicast locate requests (token -> reply slot).
  struct LocatePending {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<NodeId> found;
  };
  mutable std::mutex locate_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<LocatePending>> locates_;

  struct CensusPending {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<ThreadId> members;
    std::size_t replies = 0;
  };
  mutable std::mutex census_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<CensusPending>> censuses_;

  mutable std::mutex timers_mu_;
  // Registry of armed timers by thread; §6.2 recreation reads this.  Exit,
  // travel, arm and fire are one lookup; a thread with no timers has no
  // entry, so stopping its timers is a hash miss.
  std::unordered_map<ThreadId, std::vector<TimerEntry>> timers_;
  // The node executor's shared wheel: one one-shot timer per record, O(1)
  // per arm/cancel.  The executor stops it before the kernel is destroyed.
  common::TimerWheel& wheel_;

  LocationCache location_cache_;

  // KernelStats with relaxed atomic counters: spawn/deliver/locate hot paths
  // bump without a lock; stats() snapshots.
  struct AtomicStats {
    std::atomic<std::uint64_t> threads_spawned{0};
    std::atomic<std::uint64_t> threads_terminated{0};
    std::atomic<std::uint64_t> notices_delivered{0};
    std::atomic<std::uint64_t> notices_dead_target{0};
    std::atomic<std::uint64_t> locate_probes_sent{0};
    std::atomic<std::uint64_t> migrations_in{0};
    std::atomic<std::uint64_t> migrations_out{0};
    std::atomic<std::uint64_t> timer_events{0};
    std::atomic<std::uint64_t> census_peer_down_skips{0};
    std::atomic<std::uint64_t> cached_deliveries{0};
  };
  void bump(std::atomic<std::uint64_t> AtomicStats::* counter);
  AtomicStats stats_;

  // Resolved once at construction; deliver_remote records routing latency.
  obs::Histogram* deliver_us_ = nullptr;
  // Last members: unregister before the stats/cache they read are destroyed.
  obs::MetricsRegistry::SourceHandle metrics_source_;
  obs::MetricsRegistry::SourceHandle cache_metrics_source_;
};

}  // namespace doct::kernel
