#include "common/timer_wheel.hpp"

#include <algorithm>

namespace doct::common {

namespace {
constexpr std::uint64_t kNoTick = ~std::uint64_t{0};
}  // namespace

TimerWheel::TimerWheel(Duration tick)
    : tick_(tick.count() > 0 ? tick : Duration{1}),
      epoch_(std::chrono::steady_clock::now()) {
  thread_ = std::thread([this] { tick_loop(); });
}

TimerWheel::~TimerWheel() { stop(); }

std::uint64_t TimerWheel::ticks_for(Duration d) const {
  if (d.count() <= 0) return 1;  // never fire early, never fire inline
  const std::uint64_t ticks =
      (static_cast<std::uint64_t>(d.count()) +
       static_cast<std::uint64_t>(tick_.count()) - 1) /
      static_cast<std::uint64_t>(tick_.count());
  return std::max<std::uint64_t>(1, ticks);
}

std::uint64_t TimerWheel::tick_of(TimePoint when) const {
  if (when <= epoch_) return 0;
  const auto since = std::chrono::duration_cast<Duration>(when - epoch_);
  return static_cast<std::uint64_t>(since.count()) /
         static_cast<std::uint64_t>(tick_.count());
}

std::uint64_t TimerWheel::ceil_tick_of(TimePoint when) const {
  if (when <= epoch_) return 0;
  // Ceiling at nanosecond precision: truncating to the Duration unit first
  // and then rounding up can still land a hair short of the real boundary,
  // which is an early fire (the invariant schedule() sells is "never
  // early").
  const auto since_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(when - epoch_);
  const auto tick_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(tick_);
  return (static_cast<std::uint64_t>(since_ns.count()) +
          static_cast<std::uint64_t>(tick_ns.count()) - 1) /
         static_cast<std::uint64_t>(tick_ns.count());
}

TimerId TimerWheel::schedule(Duration delay, std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  return arm_locked(ticks_for(delay), 0, std::move(fn));
}

TimerId TimerWheel::schedule_periodic(Duration period,
                                      std::function<void()> fn) {
  const std::uint64_t ticks = ticks_for(period);
  std::lock_guard<std::mutex> lock(mu_);
  return arm_locked(ticks, ticks, std::move(fn));
}

TimerId TimerWheel::arm_locked(std::uint64_t delay_ticks,
                               std::uint64_t period_ticks,
                               std::function<void()> fn) {
  // Expiry is anchored to real time, not to the tick thread's progress
  // pointer: current_tick_ lags behind the clock whenever the thread sleeps
  // toward a far deadline (or is frozen on an idle wheel), and measuring the
  // delay from a stale tick would fire this timer early — possibly the
  // moment the thread wakes.  Ceiling rounding keeps the never-early
  // invariant at the boundary.
  const std::uint64_t now_tick =
      ceil_tick_of(std::chrono::steady_clock::now());
  const TimerId id = next_id_++;
  Timer timer;
  timer.id = id;
  timer.expiry_tick = std::max(current_tick_, now_tick) + delay_ticks;
  timer.period_ticks = period_ticks;
  timer.fn = std::make_shared<const std::function<void()>>(std::move(fn));
  file_locked(timer);
  const std::uint64_t expiry = timer.expiry_tick;
  timers_.emplace(id, std::move(timer));
  ++stats_.scheduled;
  // Satellite-fix logic, generalized: wake the tick thread only when this
  // deadline is earlier than what it is already sleeping toward.
  if (expiry < sleep_target_) cv_.notify_all();
  return id;
}

void TimerWheel::file_locked(Timer& timer) {
  const std::uint64_t delta = timer.expiry_tick - current_tick_;
  std::uint64_t filed = timer.expiry_tick;
  std::size_t level = 0;
  if (delta < (1ull << kSlotBits)) {
    level = 0;
  } else if (delta < (1ull << (2 * kSlotBits))) {
    level = 1;
  } else if (delta < (1ull << (3 * kSlotBits))) {
    level = 2;
  } else {
    level = 3;
    const std::uint64_t horizon = (1ull << (4 * kSlotBits)) - 1;
    // Far timers clamp to the top level's farthest slot and re-cascade.
    filed = std::min(filed, current_tick_ + horizon);
  }
  const std::size_t slot =
      static_cast<std::size_t>((filed >> (level * kSlotBits)) &
                               (kSlots - 1));
  timer.slot = &slots_[level][slot];
  timer.pos = timer.slot->size();
  timer.slot->push_back(timer.id);
}

void TimerWheel::unfile_locked(Timer& timer) {
  if (timer.slot == nullptr) return;
  std::vector<TimerId>& ids = *timer.slot;
  const TimerId moved = ids.back();
  ids[timer.pos] = moved;
  ids.pop_back();
  if (moved != timer.id) timers_.find(moved)->second.pos = timer.pos;
  timer.slot = nullptr;
}

bool TimerWheel::cancel(TimerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = timers_.find(id);
  if (it == timers_.end()) return false;
  unfile_locked(it->second);
  timers_.erase(it);
  ++stats_.cancelled;
  return true;
}

void TimerWheel::collect_slot_locked(std::size_t level, std::size_t slot,
                                     std::vector<Due>& due) {
  std::vector<TimerId>& ids = slots_[level][slot];
  if (ids.empty()) return;
  // Every entry leaves this slot: copy the ids out and clear it, so a
  // re-file below never lands on a position this loop still reads.
  collecting_.assign(ids.begin(), ids.end());
  ids.clear();
  for (const TimerId id : collecting_) {
    auto it = timers_.find(id);  // always live: cancel unfiles eagerly
    Timer& timer = it->second;
    timer.slot = nullptr;
    if (timer.expiry_tick > current_tick_) {
      // Not due yet (a cascaded or clamped far timer): re-file closer in.
      ++stats_.cascaded;
      file_locked(timer);
      continue;
    }
    if (timer.period_ticks != 0) {
      // Periodic: fires now, stays live; re-filed after the callback runs.
      due.push_back(Due{id, timer.period_ticks, timer.fn});
    } else {
      due.push_back(Due{id, 0, std::move(timer.fn)});
      timers_.erase(it);
    }
  }
}

void TimerWheel::advance_locked(std::vector<Due>& due) {
  ++current_tick_;
  collect_slot_locked(0, static_cast<std::size_t>(current_tick_ &
                                                  (kSlots - 1)),
                      due);
  // Cascade each higher level exactly at its boundary.
  for (std::size_t level = 1; level < kLevels; ++level) {
    const std::uint64_t mask = (1ull << (level * kSlotBits)) - 1;
    if ((current_tick_ & mask) != 0) break;
    collect_slot_locked(
        level,
        static_cast<std::size_t>((current_tick_ >> (level * kSlotBits)) &
                                 (kSlots - 1)),
        due);
  }
}

std::uint64_t TimerWheel::next_due_tick_locked() const {
  if (timers_.empty()) return kNoTick;
  std::uint64_t best = kNoTick;
  // Level 0 is exact: scan the next 64 ticks' slots.
  for (std::uint64_t i = 1; i <= kSlots; ++i) {
    const std::uint64_t tick = current_tick_ + i;
    if (!slots_[0][static_cast<std::size_t>(tick & (kSlots - 1))].empty()) {
      best = tick;
      break;
    }
  }
  // Higher levels are conservative: anything there becomes due no earlier
  // than that level's next cascade boundary.
  for (std::size_t level = 1; level < kLevels; ++level) {
    bool any = false;
    for (std::size_t slot = 0; slot < kSlots && !any; ++slot) {
      any = !slots_[level][slot].empty();
    }
    if (!any) continue;
    const std::uint64_t shift = level * kSlotBits;
    const std::uint64_t boundary = ((current_tick_ >> shift) + 1) << shift;
    best = std::min(best, boundary);
  }
  return best;
}

void TimerWheel::tick_loop() {
  std::vector<Due> due;
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const std::uint64_t now_tick =
        tick_of(std::chrono::steady_clock::now());
    // Skip-ahead: every tick strictly before the earliest possibly-due tick
    // has empty slots at every level, so nothing is missed by jumping.
    const std::uint64_t next_armed = next_due_tick_locked();
    if (next_armed != kNoTick && next_armed > current_tick_ + 1) {
      current_tick_ =
          std::max(current_tick_, std::min(now_tick, next_armed - 1));
    }
    due.clear();
    while (current_tick_ < now_tick && !stop_) {
      advance_locked(due);
      if (due.size() >= 1024) break;  // bound one batch; loop resumes
    }
    if (!due.empty()) {
      lock.unlock();
      for (const Due& d : due) {
        (*d.fn)();
      }
      lock.lock();
      stats_.fired += due.size();
      for (Due& d : due) {
        if (d.period_ticks == 0) continue;
        auto it = timers_.find(d.id);
        if (it == timers_.end()) continue;  // cancelled while firing
        it->second.expiry_tick = current_tick_ + d.period_ticks;
        file_locked(it->second);
      }
      continue;  // callbacks took time: re-read the clock before sleeping
    }
    const std::uint64_t next = next_due_tick_locked();
    if (next == kNoTick) {
      sleep_target_ = kNoTick;
      cv_.wait(lock);
      continue;
    }
    sleep_target_ = next;
    cv_.wait_until(lock, epoch_ + next * tick_);
    sleep_target_ = 0;  // awake: arms need not notify until we sleep again
  }
}

void TimerWheel::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

TimerWheel::Stats TimerWheel::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  for (const auto& level : slots_) {
    for (const std::vector<TimerId>& ids : level) {
      out.slot_entries += ids.size();
    }
  }
  return out;
}

std::size_t TimerWheel::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timers_.size();
}

}  // namespace doct::common
