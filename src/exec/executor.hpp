// Unified per-node executor with fixed priority lanes and bounded queues.
//
// The paper's §7 argument for a master handler thread is an execution-
// substrate argument: who runs event work, and at what cost, decides whether
// asynchronous events are usable at all.  Before this layer the substrate was
// fragmented — RPC servers, the master handler, the surrogate pool each owned
// an ad-hoc thread pool over an *unbounded* queue, so an event storm could
// starve TERMINATE/NODE_DOWN control traffic and grow memory without bound.
// This executor is the one well-defined substrate per node:
//
//   kControl  TERMINATE/NODE_DOWN/heartbeat reactions, census.  (RPC
//             replies never queue here: the delivery thread fulfils them
//             inline, since fulfilment cannot block.)
//             Serviced first, always; `control_reserve` workers never touch
//             lower lanes, so control work makes progress even when every
//             general worker is parked inside a blocking method.
//   kEvent    Passive-object handler dispatch (§4.3).  Lane width is the §7
//             knob: width 1 IS the master handler thread (serial dispatch,
//             zero thread creation); width N trades serialization for
//             parallel handler execution.  kThreadPerEvent (a fresh OS
//             thread per event) remains in the events layer as the costly
//             ablation the paper argues against.
//   kBulk     Blocking RPC method bodies (object invocations, DSM page
//             traffic, pager installs), surrogate exception chains, monitor
//             snapshot building — throughput work that may block on nested
//             calls and must never occupy the control lane.
//
// Every lane is a BOUNDED queue with a per-lane overload policy:
//
//   kBlock      producer waits (with deadline) for space — backpressure
//               propagates to the submitting thread.
//   kShedNewest admission fails with kResourceExhausted — the caller turns
//               that into an error for the raiser, so raise_and_wait fails
//               fast instead of hanging behind an unbounded backlog.
//   kCoalesce   keyed idempotent work (census replies, peer-down marks)
//               replaces a queued task with the same key in place; unkeyed
//               overflow sheds like kShedNewest.
//
// QUEUEING SUBSTRATE: unkeyed producers do not take the scheduler mutex at
// all.  Admission is one fetch_add on the lane's depth word (exact bounded
// admission: fetch_add serializes, so exactly `capacity` producers win),
// the task rides a pooled intrusive node onto the lane's lock-free MPSC
// intake chain (one CAS), and at most ONE wakeup is paid per burst
// (wake_pending_ gate).  Workers — under the scheduler mutex
// they already needed for reservations — splice the intake chains into the
// staging lists in O(batch) and run the same pick scan as before.  Task
// bodies are SmallTask (fixed inline buffer, no heap), task nodes are pooled
// and recycled, so a warmed submit→execute round trip performs zero heap
// allocations.  Keyed (coalescing) admission is the one locked path: it
// needs the supersede-in-place index, which lives under the scheduler mutex.
//
// Workers batch-drain lanes whose tasks are non-blocking (the control lane
// by default): one lock round-trip takes up to `batch` tasks, and every
// grab re-checks lanes in priority order, so a backlog on a lower lane can
// delay control work by at most one grab.  try_submit() never blocks
// regardless of policy — delivery/interrupt paths use it so the simulated
// NIC thread is never parked on a full lane.
//
// RESERVATION SCHEDULING (what makes event-lane width > 1 safe): a task may
// carry a set of reservation keys — opaque 64-bit identities of the state it
// will touch (target object, thread context, serial event-group).  A worker
// admits a task to execution only when every key is unclaimed; while it
// runs, its keys are claimed executor-wide (across lanes: a control-class
// and an ordinary event on the same object still serialize).  Conflicting
// tasks stay queued in per-key FIFO order: the pick scan shadow-claims the
// keys of every task it skips, so a later task sharing a key with an
// earlier blocked one can never overtake it — same-target delivery order is
// exactly the width-1 order, which is the SCOOP-style ownership argument
// for lifting the §7 master-handler serialization.  Tasks with disjoint
// keys (or none) run in parallel up to the lane width.  With
// `reservations = false` the safety mechanism is gone, so the executor
// clamps the event lane back to width 1 — the ablation arm stays serial
// rather than racy.
//
// TIMERS: the executor also owns the node's one timer wheel (timers()).
// Kernel TIMER records, RPC retry/deadline timers and the heartbeat all
// ride it, so a node runs one timer tick thread however many layers keep
// deadlines.  shutdown() stops the wheel only after the workers drain.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/inline.hpp"
#include "common/mpsc_queue.hpp"
#include "common/result.hpp"
#include "common/timer_wheel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace doct::exec {

// Identity of a piece of state a task will touch (target object, thread
// context, serial event-group).  Opaque to the executor; derived by the
// events layer (events::reservation_key).  0 is not a valid key.
using ReservationKey = std::uint64_t;
// Inline small-vector: real tasks carry 1–3 keys, so key sets never touch
// the heap on the delivery fast path.
using ReservationSet = common::InlineVec<ReservationKey, 4>;

enum class Lane : std::uint8_t { kControl = 0, kEvent = 1, kBulk = 2 };
inline constexpr std::size_t kLaneCount = 3;

[[nodiscard]] const char* lane_name(Lane lane);

enum class OverloadPolicy : std::uint8_t {
  kBlock = 0,       // producer waits for space, up to block_deadline
  kShedNewest = 1,  // admission fails fast with kResourceExhausted
  kCoalesce = 2,    // keyed tasks replace in place; unkeyed overflow sheds
};

struct LaneConfig {
  // Queued-task bound; 0 = unbounded (admission never fails on capacity).
  std::size_t capacity = 4096;
  OverloadPolicy policy = OverloadPolicy::kBlock;
  // kBlock only: how long a producer waits for space before shedding anyway.
  Duration block_deadline = std::chrono::seconds(5);
  // Max workers concurrently executing tasks from this lane; 0 = no cap.
  // Event-lane width 1 reproduces the §7 master handler thread exactly.
  std::size_t width = 0;
  // Max tasks one worker grabs per lock round-trip.  A batch runs to
  // completion on ONE worker, so batching above 1 is only safe for lanes
  // whose tasks never block: a parked task would strand the rest of its
  // batch while other workers sit idle.  Control work (census replies,
  // waiter skips) is non-blocking by contract and batches;
  // event/bulk lanes carry potentially-blocking handler and method bodies
  // and default to 1.
  std::size_t batch = 1;
};

struct ExecutorConfig {
  std::size_t workers = 6;
  // Workers that service ONLY the control lane (parked when it is empty).
  // Guarantees control progress even when every general worker is blocked
  // inside a bulk method.  Clamped to workers - 1.
  std::size_t control_reserve = 1;
  // Ablation: one FIFO queue, no priorities, no reserve, no width caps —
  // the pre-refactor "one pool per purpose, first come first served" world
  // collapsed into a single queue.  E10 demonstrates the starvation.
  bool single_lane = false;
  // Reservation scheduling (the mechanism that makes event.width > 1 safe).
  // When false, reserved submissions still queue FIFO but the event lane is
  // clamped to width 1 — the ablation arm must stay serial, not racy.
  // DOCT_RESERVATIONS=on|off overrides at construction; DOCT_EVENT_WIDTH=N
  // likewise overrides event.width — the CI width-ablation lane re-runs the
  // suites across the {width} x {reservations} matrix without recompiling.
  bool reservations = true;
  LaneConfig control{.capacity = 4096,
                     .policy = OverloadPolicy::kBlock,
                     .batch = 32};
  // Raisers must fail fast, not hang: §5.3's raise/raise_and_wait return a
  // status, and the overload story depends on it being delivered promptly.
  LaneConfig event{.capacity = 4096,
                   .policy = OverloadPolicy::kShedNewest,
                   .width = 1};
  LaneConfig bulk{.capacity = 4096, .policy = OverloadPolicy::kBlock};
};

struct LaneStatsSnapshot {
  std::uint64_t submitted = 0;  // admissions attempted
  std::uint64_t executed = 0;   // tasks run to completion
  std::uint64_t shed = 0;       // admissions refused (capacity/deadline)
  std::uint64_t coalesced = 0;  // keyed tasks replaced in place
};

struct ExecutorStats {
  LaneStatsSnapshot lanes[kLaneCount];
  // Reservation scheduling (executor-wide, keys span lanes).
  std::uint64_t reservation_acquired = 0;   // tasks run holding >= 1 key
  std::uint64_t reservation_conflicts = 0;  // tasks that waited on a key
  // Producer->worker wakeups actually paid vs. admissions: the coalescing
  // invariant says wakeups <= bursts, not pushes.
  std::uint64_t wakeups = 0;
  [[nodiscard]] std::uint64_t shed_total() const {
    std::uint64_t total = 0;
    for (const auto& lane : lanes) total += lane.shed;
    return total;
  }
};

class Executor {
 public:
  // `name` prefixes the per-node metrics source ("node3.exec"); `node` tags
  // reservation-wait spans with the owning node's Perfetto track.
  explicit Executor(ExecutorConfig config = {}, std::string name = "exec",
                    std::uint64_t node = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Admits a task under the lane's overload policy.  kBlock lanes may park
  // the caller up to block_deadline; on a full lane the task is shed and
  // kResourceExhausted returned.  kAborted after shutdown().  The callable
  // is stored INLINE (SmallTask): captures up to common::kSmallTaskSize
  // bytes never touch the heap, larger ones fail to compile.
  Status submit(Lane lane, common::SmallTask fn);

  // Never blocks: a full lane sheds immediately regardless of policy.  For
  // producers on delivery/interrupt paths that must not park.
  Status try_submit(Lane lane, common::SmallTask fn);

  // Reservation-scheduled admission: the task runs only when every key in
  // `reservations` is unclaimed executor-wide, and holds all of them while
  // it runs.  Tasks sharing a key execute in admission (FIFO) order; tasks
  // with disjoint keys run in parallel up to the lane width.  Keys must be
  // non-zero (events::reservation_key guarantees it); an empty set behaves
  // exactly like the unreserved overloads.
  Status submit(Lane lane, ReservationSet reservations, common::SmallTask fn);
  Status try_submit(Lane lane, ReservationSet reservations,
                    common::SmallTask fn);

  // Keys held by the task currently executing on THIS worker thread, or
  // nullptr outside one.  Lets nested submissions (surrogate exception
  // chains) inherit the parent's reservations.
  [[nodiscard]] static const ReservationSet* current_reservations();

  // Idempotent keyed admission: if a task with `key` is already queued in
  // the lane, the new fn replaces it in place (same queue position, no
  // capacity consumed) and the call reports Ok.  key must be non-zero.
  // Keyed admission always takes the scheduler mutex (supersede-in-place
  // needs a consistent index view); coalescing producers are delivery and
  // timer callbacks, never the hot path.
  Status submit_coalesced(Lane lane, std::uint64_t key, common::SmallTask fn);

  // Closes admission, drains every queued task (higher lanes first), joins
  // all workers, then stops the timer wheel.  Idempotent.  Queued work runs
  // to completion, and timer callbacks keep firing until the drain ends, so
  // neither outlives the state of a subsystem torn down after shutdown().
  void shutdown();

  // The node's shared timer wheel.  Callbacks run on its one tick thread and
  // must not block for long.
  [[nodiscard]] common::TimerWheel& timers() { return timers_; }

  [[nodiscard]] bool closed() const;
  [[nodiscard]] std::size_t lane_depth(Lane lane) const;
  [[nodiscard]] const ExecutorConfig& config() const { return config_; }
  [[nodiscard]] std::size_t workers() const { return threads_.size(); }

  [[nodiscard]] ExecutorStats stats() const;
  void reset_stats();

  // Reservation keys currently claimed by running tasks (executor-wide).
  [[nodiscard]] std::size_t claimed_keys() const;

  // Telemetry sampling hook: records each lane's live queue depth and the
  // claimed-reservation-key count into "exec.lane_depth_sampled.<lane>" /
  // "exec.reservation_claimed_sampled" histograms (gauges only show the
  // instant; the sampled histograms give the collector a depth
  // distribution), and drops a lane-depth breadcrumb into the flight
  // recorder.  Called by the cluster collector at its pull period — cheap
  // enough for 100ms periods, not meant for hot paths.
  void sample_telemetry();

 private:
  // Pooled intrusive task node: rides the MPSC intake chain (MpscNode) and
  // the doubly-linked staging list (qprev/qnext).  Recycled through an
  // MPMC freelist ring, so a warmed executor admits without allocating.
  struct Task : common::MpscNode {
    common::SmallTask fn;
    std::uint64_t key = 0;         // 0 = not coalescible
    std::int64_t enqueued_us = 0;  // admission time (metrics on)
    Lane origin = Lane::kEvent;    // stats attribution under single_lane
    ReservationSet keys;           // reservation keys; empty = unreserved
    // Reservation-wait bookkeeping: set the first time the pick scan skips
    // this task over a claimed key; feeds the blocked-time histogram and
    // the "resv_wait" Perfetto span.
    bool conflicted = false;
    std::int64_t blocked_since_us = 0;   // obs on only
    obs::TraceContext trace;             // admission-site trace (tracing on)
    Task* qprev = nullptr;
    Task* qnext = nullptr;
  };

  // Intrusive FIFO staging list: stable Task pointers (coalesce_index), O(1)
  // push/erase, zero allocation — replaces deque<unique_ptr<Task>>.
  struct TaskList {
    Task* head = nullptr;
    Task* tail = nullptr;
    void push_back(Task* task);
    void erase(Task* task);
    [[nodiscard]] bool empty() const { return head == nullptr; }
  };

  struct LaneState {
    common::MpscChain intake;  // unkeyed producers land here
    TaskList staging;          // scheduler's view (pick scan), under mu_
    std::unordered_map<std::uint64_t, Task*> coalesce_index;
    std::size_t active = 0;  // workers currently executing this lane
    // Admitted-but-not-picked count (intake + staging).  The admission
    // bound: fetch_add serializes producers, so the capacity check is
    // exact without a lock.
    std::atomic<std::uint64_t> depth{0};
  };

  struct AtomicLaneStats {
    common::PaddedCounter submitted;
    common::PaddedCounter executed;
    common::PaddedCounter shed;
    common::PaddedCounter coalesced;
  };

  Status admit(Lane lane, common::SmallTask fn, bool may_block,
               ReservationSet reservations = {});
  // Keyed (coalescing) admission under mu_; never blocks.
  Status admit_locked(Lane lane, common::SmallTask fn, std::uint64_t key);
  [[nodiscard]] Task* alloc_task();
  void recycle_task(Task* task);
  // Producer-side wakeup: at most one notify per burst (wake_pending_).
  void wake_workers();
  void wake_workers_locked();
  // Splices every lane's intake chain into its staging list.  Caller holds
  // mu_; runs at the top of each worker scheduling round.
  void drain_intakes_locked();
  void worker_loop(std::size_t worker_index);
  // Scans the highest-priority eligible lane and moves up to `batch`
  // runnable tasks into `out`, claiming their reservation keys.  Tasks
  // whose keys are claimed (or shadow-claimed by an earlier skipped task —
  // the per-key FIFO guarantee) are left in place.  Returns the lane index
  // or kLaneCount when nothing is runnable.  Caller holds mu_.
  [[nodiscard]] std::size_t take_batch_locked(std::size_t worker_index,
                                              std::vector<Task*>& out);
  // Records blocked-on-reservation time (histogram + "resv_wait" span) for
  // a task the pick scan had skipped at least once.
  void note_reservation_wait(const Task& task, Lane lane);
  [[nodiscard]] const LaneConfig& lane_config(std::size_t lane) const;
  // single_lane funnels every admission into one physical queue.
  [[nodiscard]] std::size_t physical_lane(Lane lane) const;
  void note_shed(Lane lane);

  ExecutorConfig config_;
  SteadyClock clock_;
  std::uint64_t node_ = 0;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for eligible work
  std::condition_variable space_cv_;  // kBlock producers wait for capacity
  LaneState lanes_[kLaneCount];
  // Reservation keys held by running tasks.  Executor-wide (not per lane):
  // a control-class and an ordinary event on the same object serialize.
  // Open-addressing table: no per-key node allocations on the pick scan.
  common::FixedHashSet claimed_;
  std::atomic<bool> closed_{false};

  // Producer->worker wakeup coalescing: producers notify only on the
  // false->true transition; workers clear it before every rescan.
  std::atomic<bool> wake_pending_{false};
  common::PaddedCounter wakeups_;

  common::MpmcRing<Task*> task_pool_{1024};

  AtomicLaneStats stats_[kLaneCount];
  common::PaddedCounter reservation_acquired_;
  common::PaddedCounter reservation_conflicts_;

  std::vector<std::thread> threads_;
  common::TimerWheel timers_;

  // Resolved once; hot paths record without a registry lookup.
  obs::Gauge* depth_gauge_[kLaneCount] = {};
  obs::Histogram* wait_us_[kLaneCount] = {};
  obs::Histogram* depth_sampled_[kLaneCount] = {};
  obs::ShardedCounter* shed_counter_ = nullptr;
  obs::Histogram* reservation_blocked_us_ = nullptr;
  obs::ShardedCounter* reservation_conflict_counter_ = nullptr;
  obs::Histogram* claimed_sampled_ = nullptr;
  obs::Gauge* claimed_gauge_ = nullptr;
  // Last member: unregisters before the stats it reads are destroyed.
  obs::MetricsRegistry::SourceHandle metrics_source_;
};

}  // namespace doct::exec
