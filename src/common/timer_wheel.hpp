// Hierarchical timer wheel (Varghese & Lauck): O(1) schedule/cancel/expire
// regardless of how many timers are pending.
//
// Each node runs exactly one, owned by its executor (exec::Executor::timers):
// the kernel's TIMER records (which monitor sampling deadlines ride on), the
// RPC retry/deadline timers and the failure detector's heartbeat all share
// its tick thread.  A scan-all-deadlines loop costs O(n) per wakeup and a
// notify per registration with thousands of pending calls; the wheel costs
// one slot append per schedule and visits only the expiring slot per tick.
//
// Four levels of 64 slots at a 1ms tick cover ~64ms / ~4s / ~4.4min / ~4.7h;
// longer delays clamp to the top level and re-cascade.  The tick thread
// sleeps to the next *armed* deadline (idle wheels burn zero CPU — there is
// no 1kHz heartbeat when nothing is scheduled) and catches up tick-by-tick
// after a long sleep, cascading higher levels at their boundaries.
//
// cancel() removes the timer's slot entry eagerly (swap-remove at the
// position the timer remembers), so slot memory tracks live timers only: an
// RPC deadline armed and cancelled per call leaves nothing behind, however
// far out its slot lies.
//
// Concurrency contract: schedule/schedule_periodic/cancel are thread-safe
// and O(1) under an internal mutex (never held while callbacks run).
// Callbacks fire on the wheel's single tick thread, OUTSIDE the wheel lock —
// they may schedule/cancel freely, but must not block for long (they share
// the thread with every other timer).  cancel() prevents all future fires
// but does NOT wait for an in-flight callback.  The executor stops the
// shared wheel (stop joins the tick thread) after draining its workers and
// before any owner's callback state is destroyed; an owner that must stop
// firing earlier (the failure detector) waits out its own in-flight
// callback.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"

namespace doct::common {

using TimerId = std::uint64_t;

class TimerWheel {
 public:
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t cascaded = 0;  // timers re-filed at a level boundary
    // Live slot entries right now: equals pending() except while the tick
    // loop holds due periodics across their callbacks.
    std::uint64_t slot_entries = 0;
  };

  explicit TimerWheel(Duration tick = std::chrono::milliseconds(1));
  ~TimerWheel();

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // One-shot timer after `delay` (rounded UP to the next tick so a timer
  // never fires early).  Returns an id for cancel().
  TimerId schedule(Duration delay, std::function<void()> fn);

  // Periodic timer: first fire after `period`, then every `period`.  Fixed
  // cadence is tick-quantized; a slow callback delays subsequent fires (no
  // burst catch-up for periodics).
  TimerId schedule_periodic(Duration period, std::function<void()> fn);

  // True when the timer existed and will not fire again.  False when it
  // already fired (one-shot) or never existed.  Does not wait for an
  // in-flight callback.
  bool cancel(TimerId id);

  // Stops and joins the tick thread; pending timers never fire.  Idempotent.
  // Called by the destructor; the owning executor calls it from shutdown().
  void stop();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t pending() const;

 private:
  static constexpr std::size_t kLevels = 4;
  static constexpr std::size_t kSlotBits = 6;
  static constexpr std::size_t kSlots = 1u << kSlotBits;  // 64

  struct Timer {
    TimerId id = 0;
    std::uint64_t expiry_tick = 0;
    std::uint64_t period_ticks = 0;  // 0 = one-shot
    // shared_ptr so a periodic fire copies a refcount, not the callable.
    std::shared_ptr<const std::function<void()>> fn;
    // Where the timer's id sits: (*slot)[pos].  Null while the tick loop
    // holds it (collected, its callback pending or running).
    std::vector<TimerId>* slot = nullptr;
    std::size_t pos = 0;
  };

  struct Due {
    TimerId id = 0;
    std::uint64_t period_ticks = 0;
    std::shared_ptr<const std::function<void()>> fn;
  };

  [[nodiscard]] std::uint64_t ticks_for(Duration d) const;
  [[nodiscard]] std::uint64_t tick_of(TimePoint when) const;
  [[nodiscard]] std::uint64_t ceil_tick_of(TimePoint when) const;
  TimerId arm_locked(std::uint64_t delay_ticks, std::uint64_t period_ticks,
                     std::function<void()> fn);
  // Files a live timer into the slot matching its remaining delta.
  void file_locked(Timer& timer);
  // Swap-removes a filed timer's slot entry, fixing the moved entry's pos.
  void unfile_locked(Timer& timer);
  // Advances one tick, collecting every due timer (cascades at boundaries).
  void advance_locked(std::vector<Due>& due);
  void collect_slot_locked(std::size_t level, std::size_t slot,
                           std::vector<Due>& due);
  // Earliest tick at which anything can be due (cascades included); ~0 when
  // the wheel is empty.
  [[nodiscard]] std::uint64_t next_due_tick_locked() const;
  void tick_loop();

  const Duration tick_;
  const TimePoint epoch_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<TimerId> slots_[kLevels][kSlots];
  // The slot being collected, copied out so it can be re-filed into.  Kept
  // across ticks (as are the slots' own buffers): no tick allocates.
  std::vector<TimerId> collecting_;
  std::unordered_map<TimerId, Timer> timers_;  // live (not yet fired/cancelled)
  std::uint64_t current_tick_ = 0;
  std::uint64_t sleep_target_ = 0;  // tick the thread currently sleeps toward
  TimerId next_id_ = 1;
  bool stop_ = false;
  Stats stats_;

  std::thread thread_;
};

}  // namespace doct::common
