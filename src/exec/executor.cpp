#include "exec/executor.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/log.hpp"
#include "obs/flight.hpp"

namespace doct::exec {

namespace {

// Keys held by the task currently running on this worker thread; nested
// submissions (surrogate chains) read it to inherit their parent's keys.
thread_local const ReservationSet* t_current_reservations = nullptr;

// Shadow-claim bound for one pick scan.  A scan that accumulates more
// blocked keys than this stops early (conservative: admitting nothing past
// that point can never reorder), keeping the scan allocation-free.
constexpr std::size_t kShadowMax = 128;

}  // namespace

const ReservationSet* Executor::current_reservations() {
  return t_current_reservations;
}

const char* lane_name(Lane lane) {
  switch (lane) {
    case Lane::kControl:
      return "control";
    case Lane::kEvent:
      return "event";
    case Lane::kBulk:
      return "bulk";
  }
  return "unknown";
}

void Executor::TaskList::push_back(Task* task) {
  task->qprev = tail;
  task->qnext = nullptr;
  if (tail != nullptr) {
    tail->qnext = task;
  } else {
    head = task;
  }
  tail = task;
}

void Executor::TaskList::erase(Task* task) {
  if (task->qprev != nullptr) {
    task->qprev->qnext = task->qnext;
  } else {
    head = task->qnext;
  }
  if (task->qnext != nullptr) {
    task->qnext->qprev = task->qprev;
  } else {
    tail = task->qprev;
  }
  task->qprev = nullptr;
  task->qnext = nullptr;
}

Executor::Executor(ExecutorConfig config, std::string name, std::uint64_t node)
    : config_(config), node_(node) {
  config_.workers = std::max<std::size_t>(1, config_.workers);
  config_.control_reserve =
      std::min(config_.control_reserve,
               config_.workers > 1 ? config_.workers - 1 : 0);
  if (config_.single_lane) config_.control_reserve = 0;
  // CI width-ablation hooks: rerun the same binaries across the
  // {event_width} x {reservations} matrix without recompiling.
  if (const char* env = std::getenv("DOCT_EVENT_WIDTH")) {
    const long width = std::strtol(env, nullptr, 10);
    if (width > 0) config_.event.width = static_cast<std::size_t>(width);
  }
  if (const char* env = std::getenv("DOCT_RESERVATIONS")) {
    if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0) {
      config_.reservations = false;
    } else if (std::strcmp(env, "on") == 0 || std::strcmp(env, "1") == 0) {
      config_.reservations = true;
    }
  }
  // Without reservations there is nothing keeping same-target handlers
  // apart, so a wide (or uncapped) event lane is clamped back to the §7
  // serial master handler — the ablation stays serial, never racy.
  if (!config_.reservations &&
      (config_.event.width == 0 || config_.event.width > 1)) {
    config_.event.width = 1;
  }

  for (std::size_t i = 0; i < kLaneCount; ++i) {
    const std::string lane = lane_name(static_cast<Lane>(i));
    depth_gauge_[i] = &obs::metrics().gauge("exec.lane_depth." + lane);
    wait_us_[i] = &obs::metrics().histogram("exec.lane_wait_us." + lane);
  }
  for (std::size_t i = 0; i < kLaneCount; ++i) {
    const std::string lane = lane_name(static_cast<Lane>(i));
    depth_sampled_[i] =
        &obs::metrics().histogram("exec.lane_depth_sampled." + lane);
  }
  shed_counter_ = &obs::metrics().counter("exec.shed_total");
  reservation_blocked_us_ =
      &obs::metrics().histogram("exec.reservation_blocked_us");
  reservation_conflict_counter_ =
      &obs::metrics().counter("exec.reservation_conflicts");
  claimed_sampled_ =
      &obs::metrics().histogram("exec.reservation_claimed_sampled");
  claimed_gauge_ = &obs::metrics().gauge("exec.reservation_claimed");
  metrics_source_ = obs::metrics().register_source(std::move(name), [this] {
    const ExecutorStats s = stats();
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (std::size_t i = 0; i < kLaneCount; ++i) {
      const std::string lane = lane_name(static_cast<Lane>(i));
      out.emplace_back(lane + "_submitted", s.lanes[i].submitted);
      out.emplace_back(lane + "_executed", s.lanes[i].executed);
      out.emplace_back(lane + "_shed", s.lanes[i].shed);
      out.emplace_back(lane + "_coalesced", s.lanes[i].coalesced);
      // Live depth rides in the source so per-node rows keep per-node
      // depths even in-process, where the "exec.lane_depth.*" gauges are
      // shared by every node in the process.
      out.emplace_back(lane + "_depth",
                       lane_depth(static_cast<Lane>(i)));
    }
    out.emplace_back("shed_total", s.shed_total());
    out.emplace_back("reservation_acquired", s.reservation_acquired);
    out.emplace_back("reservation_conflicts", s.reservation_conflicts);
    out.emplace_back("reservation_claimed", claimed_keys());
    out.emplace_back("wakeups", s.wakeups);
    return out;
  });

  threads_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

Executor::~Executor() {
  shutdown();
  // A producer racing shutdown() can land one last intake node after the
  // final drain; reclaim it here (its fn was accepted but the executor is
  // gone — same fate as work queued at process teardown).
  for (auto& state : lanes_) {
    common::MpscNode* node = state.intake.take_all();
    while (node != nullptr) {
      common::MpscNode* next = node->next;
      delete static_cast<Task*>(node);
      node = next;
    }
  }
  Task* pooled = nullptr;
  while (task_pool_.pop(pooled)) delete pooled;
}

const LaneConfig& Executor::lane_config(std::size_t lane) const {
  switch (static_cast<Lane>(lane)) {
    case Lane::kControl:
      return config_.control;
    case Lane::kEvent:
      return config_.event;
    case Lane::kBulk:
      return config_.bulk;
  }
  return config_.event;
}

std::size_t Executor::physical_lane(Lane lane) const {
  return config_.single_lane ? static_cast<std::size_t>(Lane::kEvent)
                             : static_cast<std::size_t>(lane);
}

void Executor::note_shed(Lane lane) {
  stats_[static_cast<std::size_t>(lane)].shed.fetch_add(1);
  if (obs::metrics_enabled()) shed_counter_->add();
}

Executor::Task* Executor::alloc_task() {
  Task* task = nullptr;
  if (!task_pool_.pop(task)) task = new Task;
  return task;
}

void Executor::recycle_task(Task* task) {
  task->fn.reset();
  task->key = 0;
  task->enqueued_us = 0;
  task->origin = Lane::kEvent;
  task->keys.clear();
  task->conflicted = false;
  task->blocked_since_us = 0;
  task->trace = obs::TraceContext{};
  task->next = nullptr;
  task->qprev = nullptr;
  task->qnext = nullptr;
  if (!task_pool_.push(task)) delete task;
}

void Executor::wake_workers() {
  // Dekker pairing with worker_loop: the producer's chain push must be
  // globally ordered before its read of wake_pending_, and the worker's
  // clear of wake_pending_ before its chain drain — otherwise a producer
  // can read a stale pending==true for a node the worker's drain missed
  // (lost wakeup).  Two seq_cst fences close the store-buffer window.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) return;
  wakeups_.fetch_add(1);
  // Empty critical section: serializes with a worker between its rescan and
  // its wait, so the notify below cannot be lost.
  { std::lock_guard<std::mutex> lock(mu_); }
  work_cv_.notify_all();
}

void Executor::wake_workers_locked() {
  wake_pending_.store(true, std::memory_order_release);
  work_cv_.notify_all();
}

Status Executor::submit(Lane lane, common::SmallTask fn) {
  return admit(lane, std::move(fn), /*may_block=*/true);
}

Status Executor::try_submit(Lane lane, common::SmallTask fn) {
  return admit(lane, std::move(fn), /*may_block=*/false);
}

Status Executor::submit(Lane lane, ReservationSet reservations,
                        common::SmallTask fn) {
  return admit(lane, std::move(fn), /*may_block=*/true,
               std::move(reservations));
}

Status Executor::try_submit(Lane lane, ReservationSet reservations,
                            common::SmallTask fn) {
  return admit(lane, std::move(fn), /*may_block=*/false,
               std::move(reservations));
}

Status Executor::submit_coalesced(Lane lane, std::uint64_t key,
                                  common::SmallTask fn) {
  if (key == 0) {
    return {StatusCode::kInvalidArgument, "coalesce key must be non-zero"};
  }
  stats_[static_cast<std::size_t>(lane)].submitted.fetch_add(1);
  // Keyed (coalescible) admission needs the supersede-in-place index, which
  // only exists under mu_; it is never the hot path.
  return admit_locked(lane, std::move(fn), key);
}

Status Executor::admit(Lane lane, common::SmallTask fn, bool may_block,
                       ReservationSet reservations) {
  stats_[static_cast<std::size_t>(lane)].submitted.fetch_add(1);
  const std::size_t idx = physical_lane(lane);
  const LaneConfig& cfg = lane_config(idx);
  LaneState& state = lanes_[idx];
  if (closed_.load(std::memory_order_acquire)) {
    return {StatusCode::kAborted, "executor shutting down"};
  }
  for (;;) {
    const std::uint64_t prev =
        state.depth.fetch_add(1, std::memory_order_acq_rel);
    if (cfg.capacity == 0 || prev < cfg.capacity) break;  // admitted
    state.depth.fetch_sub(1, std::memory_order_relaxed);
    if (!may_block || cfg.policy != OverloadPolicy::kBlock) {
      note_shed(lane);
      return {StatusCode::kResourceExhausted,
              std::string("lane overloaded: ") + lane_name(lane)};
    }
    // kBlock overflow parks on the (cold) scheduler mutex, then retries the
    // admission loop — re-entering THROUGH the intake so a blocked producer
    // can never overtake tasks admitted while it waited.
    std::unique_lock<std::mutex> lock(mu_);
    const bool space = space_cv_.wait_for(lock, cfg.block_deadline, [&] {
      return closed_.load(std::memory_order_relaxed) ||
             state.depth.load(std::memory_order_relaxed) < cfg.capacity;
    });
    if (closed_.load(std::memory_order_relaxed)) {
      return {StatusCode::kAborted, "executor shutting down"};
    }
    if (!space) {
      note_shed(lane);
      return {StatusCode::kResourceExhausted,
              std::string("lane full past block deadline: ") +
                  lane_name(lane)};
    }
  }
  Task* task = alloc_task();
  task->fn = std::move(fn);
  task->origin = lane;
  task->keys = std::move(reservations);
  if (obs::metrics_enabled()) {
    task->enqueued_us = obs::now_us();
    depth_gauge_[idx]->add(1);
  }
  if (obs::tracing_enabled()) task->trace = obs::current_context();
  state.intake.push(task);
  wake_workers();
  return Status::ok();
}

Status Executor::admit_locked(Lane lane, common::SmallTask fn,
                              std::uint64_t key) {
  const std::size_t idx = physical_lane(lane);
  const LaneConfig& cfg = lane_config(idx);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_.load(std::memory_order_relaxed)) {
      return {StatusCode::kAborted, "executor shutting down"};
    }
    LaneState& state = lanes_[idx];
    // The supersede check must see queued-but-undrained intake nodes too;
    // splice them in before consulting the index.
    drain_intakes_locked();
    auto it = state.coalesce_index.find(key);
    if (it != state.coalesce_index.end()) {
      // Idempotent work already queued: the fresh fn supersedes it in
      // place — same queue position, no extra capacity.
      it->second->fn = std::move(fn);
      stats_[static_cast<std::size_t>(lane)].coalesced.fetch_add(1);
      return Status::ok();
    }
    // Coalescing producers are delivery/timer threads: never park them, so
    // a full lane sheds whatever its policy.
    if (cfg.capacity > 0 &&
        state.depth.load(std::memory_order_relaxed) >= cfg.capacity) {
      note_shed(lane);
      return {StatusCode::kResourceExhausted,
              std::string("lane overloaded: ") + lane_name(lane)};
    }
    Task* task = alloc_task();
    task->fn = std::move(fn);
    task->key = key;
    task->origin = lane;
    if (obs::metrics_enabled()) {
      task->enqueued_us = obs::now_us();
      depth_gauge_[idx]->add(1);
    }
    if (obs::tracing_enabled()) task->trace = obs::current_context();
    state.coalesce_index[key] = task;
    state.depth.fetch_add(1, std::memory_order_relaxed);
    state.staging.push_back(task);
  }
  // Heterogeneous waiters (control-reserve vs general workers) share one cv;
  // notify_all so a reserved worker cannot swallow a general worker's wakeup.
  wake_workers();
  return Status::ok();
}

void Executor::drain_intakes_locked() {
  for (std::size_t i = 0; i < kLaneCount; ++i) {
    LaneState& state = lanes_[i];
    if (state.intake.empty()) continue;
    common::MpscNode* node = state.intake.take_all();
    while (node != nullptr) {
      common::MpscNode* next = node->next;
      Task* task = static_cast<Task*>(node);
      task->next = nullptr;
      state.staging.push_back(task);
      node = next;
    }
  }
}

std::size_t Executor::take_batch_locked(std::size_t worker_index,
                                        std::vector<Task*>& out) {
  const bool control_only =
      !config_.single_lane && worker_index < config_.control_reserve;
  const std::size_t last =
      control_only ? static_cast<std::size_t>(Lane::kControl) : kLaneCount - 1;
  const bool obs_on = obs::metrics_enabled() || obs::tracing_enabled();
  for (std::size_t lane = 0; lane <= last; ++lane) {
    LaneState& state = lanes_[lane];
    if (state.staging.empty()) continue;
    const LaneConfig& cfg = lane_config(lane);
    if (!config_.single_lane && cfg.width > 0 && state.active >= cfg.width) {
      continue;
    }
    const std::size_t take_max =
        cfg.batch > 0 ? cfg.batch : ~std::size_t{0};
    // Shadow-claims: keys of tasks we skipped.  A later task sharing any of
    // them may not overtake — that is the per-key FIFO guarantee that keeps
    // same-target delivery order identical to the width-1 run.  Fixed
    // array + linear scan: key sets are tiny and this path must not
    // allocate.
    ReservationKey shadow[kShadowMax];
    std::size_t nshadow = 0;
    for (Task* task = state.staging.head;
         task != nullptr && out.size() < take_max;) {
      Task* next = task->qnext;
      bool blocked = false;
      for (const ReservationKey key : task->keys) {
        bool shadowed = false;
        for (std::size_t s = 0; s < nshadow && !shadowed; ++s) {
          shadowed = shadow[s] == key;
        }
        if (shadowed || claimed_.contains(key)) {
          blocked = true;
          break;
        }
      }
      if (blocked) {
        if (nshadow + task->keys.size() > kShadowMax) {
          // Shadow set exhausted: stop the scan here.  Conservative —
          // admitting nothing past a blocked task can never reorder.
          break;
        }
        for (const ReservationKey key : task->keys) shadow[nshadow++] = key;
        if (!task->conflicted) {
          task->conflicted = true;
          reservation_conflicts_.fetch_add(1);
          if (obs_on) task->blocked_since_us = obs::now_us();
        }
        task = next;
        continue;
      }
      for (const ReservationKey key : task->keys) claimed_.insert(key);
      if (task->key != 0) state.coalesce_index.erase(task->key);
      state.staging.erase(task);
      state.depth.fetch_sub(1, std::memory_order_relaxed);
      out.push_back(task);
      task = next;
    }
    if (!out.empty()) return lane;
    // Every queued task here is blocked on a reservation; a lower lane may
    // still have runnable work.
  }
  return kLaneCount;
}

void Executor::worker_loop(std::size_t worker_index) {
  const bool control_only =
      !config_.single_lane && worker_index < config_.control_reserve;
  std::vector<Task*> batch;
  batch.reserve(64);
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // Clear the wakeup gate BEFORE rescanning: an admission landing after
    // the rescan re-arms it and pays the (single) notify.
    wake_pending_.store(false, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);  // pairs wake_workers
    drain_intakes_locked();
    batch.clear();
    const std::size_t lane = take_batch_locked(worker_index, batch);
    if (lane == kLaneCount) {
      if (closed_.load(std::memory_order_relaxed)) {
        // Exit only when every queue in this worker's scope is drained; a
        // width-saturated lane (or a reservation-blocked task) still has a
        // running owner that will release and finish it.
        bool drained =
            lanes_[static_cast<std::size_t>(Lane::kControl)].staging.empty();
        if (!control_only) {
          for (std::size_t i = 0; i < kLaneCount; ++i) {
            drained = drained && lanes_[i].staging.empty() &&
                      lanes_[i].intake.empty();
          }
        }
        if (drained) return;
      }
      work_cv_.wait(lock);
      continue;
    }

    LaneState& state = lanes_[lane];
    state.active++;
    lock.unlock();
    // Capacity was freed: wake kBlock producers parked on this lane.
    space_cv_.notify_all();

    if (obs::metrics_enabled()) {
      depth_gauge_[lane]->add(-static_cast<std::int64_t>(batch.size()));
      const std::int64_t now = obs::now_us();
      for (const Task* task : batch) {
        if (task->enqueued_us > 0) {
          wait_us_[lane]->record_us(now - task->enqueued_us);
        }
      }
    }
    for (Task* task : batch) {
      note_reservation_wait(*task, static_cast<Lane>(lane));
      if (!task->keys.empty()) {
        reservation_acquired_.fetch_add(1);
        t_current_reservations = &task->keys;
      }
      task->fn();
      t_current_reservations = nullptr;
      stats_[static_cast<std::size_t>(task->origin)].executed.fetch_add(1);
      // Destroy the callable outside mu_ (captured state may have
      // non-trivial destructors).
      task->fn.reset();
    }

    lock.lock();
    state.active--;
    bool released = false;
    for (Task* task : batch) {
      for (const ReservationKey key : task->keys) claimed_.erase(key);
      released = released || !task->keys.empty();
      recycle_task(task);
    }
    if (released || !state.staging.empty()) {
      // A width slot (and possibly reservation keys) opened with work still
      // queued: wake sleepers to claim it (we loop around ourselves too,
      // but may pick a higher lane).
      wake_workers_locked();
    }
  }
}

void Executor::note_reservation_wait(const Task& task, Lane lane) {
  if (task.blocked_since_us <= 0) return;
  const std::int64_t now = obs::now_us();
  const std::int64_t waited = now - task.blocked_since_us;
  if (obs::metrics_enabled()) {
    reservation_blocked_us_->record_us(waited);
    reservation_conflict_counter_->add();
  }
  // Make blocked-on-reservation time visible in Perfetto: a "resv_wait"
  // span on the raiser's trace covering skip-to-admission.
  obs::record_span("resv_wait", node_, task.trace, task.blocked_since_us,
                   waited, lane_name(lane));
}

void Executor::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_.store(true, std::memory_order_release);
    wake_pending_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  // Late admissions can land on an intake chain after the workers' final
  // drain (producers never hold mu_).  Run them inline — shutdown keeps the
  // "queued work runs to completion" drain contract.
  for (std::size_t i = 0; i < kLaneCount; ++i) {
    LaneState& state = lanes_[i];
    common::MpscNode* node = state.intake.take_all();
    while (node != nullptr) {
      common::MpscNode* next = node->next;
      Task* task = static_cast<Task*>(node);
      task->next = nullptr;
      state.depth.fetch_sub(1, std::memory_order_relaxed);
      if (!task->keys.empty()) t_current_reservations = &task->keys;
      task->fn();
      t_current_reservations = nullptr;
      stats_[static_cast<std::size_t>(task->origin)].executed.fetch_add(1);
      task->fn.reset();
      recycle_task(task);
      node = next;
    }
  }
  // Last: timer callbacks may still be feeding work to the drain above.
  timers_.stop();
}

bool Executor::closed() const {
  return closed_.load(std::memory_order_acquire);
}

std::size_t Executor::lane_depth(Lane lane) const {
  return static_cast<std::size_t>(
      lanes_[physical_lane(lane)].depth.load(std::memory_order_acquire));
}

ExecutorStats Executor::stats() const {
  ExecutorStats out;
  for (std::size_t i = 0; i < kLaneCount; ++i) {
    out.lanes[i].submitted = stats_[i].submitted.load();
    out.lanes[i].executed = stats_[i].executed.load();
    out.lanes[i].shed = stats_[i].shed.load();
    out.lanes[i].coalesced = stats_[i].coalesced.load();
  }
  out.reservation_acquired = reservation_acquired_.load();
  out.reservation_conflicts = reservation_conflicts_.load();
  out.wakeups = wakeups_.load();
  return out;
}

void Executor::reset_stats() {
  for (std::size_t i = 0; i < kLaneCount; ++i) {
    stats_[i].submitted.store(0);
    stats_[i].executed.store(0);
    stats_[i].shed.store(0);
    stats_[i].coalesced.store(0);
  }
  reservation_acquired_.store(0);
  reservation_conflicts_.store(0);
  wakeups_.store(0);
}

std::size_t Executor::claimed_keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  return claimed_.size();
}

void Executor::sample_telemetry() {
  std::size_t depths[kLaneCount];
  std::size_t claimed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < kLaneCount; ++i) {
      depths[i] = static_cast<std::size_t>(
          lanes_[i].depth.load(std::memory_order_relaxed));
    }
    claimed = claimed_.size();
  }
  if (obs::metrics_enabled()) {
    for (std::size_t i = 0; i < kLaneCount; ++i) {
      depth_sampled_[i]->record(depths[i]);
      depth_gauge_[i]->set(static_cast<std::int64_t>(depths[i]));
    }
    claimed_sampled_->record(claimed);
    claimed_gauge_->set(static_cast<std::int64_t>(claimed));
  }
  auto& recorder = obs::flight();
  if (recorder.enabled()) {
    recorder.note("lanes",
                  "depth c/e/b=" + std::to_string(depths[0]) + "/" +
                      std::to_string(depths[1]) + "/" +
                      std::to_string(depths[2]),
                  node_, claimed);
  }
}

}  // namespace doct::exec
