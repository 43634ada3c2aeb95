// Unit tests for the per-node executor (src/exec) and the Mailbox drain
// semantics it and the network mailboxes rely on: priority order across
// lanes, per-lane overload policies (block / shed / coalesce), the control
// reserve, the single-lane ablation, drain-on-shutdown, and the shared
// timer wheel's place in shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "common/mpsc_queue.hpp"
#include "exec/executor.hpp"

namespace doct {
namespace {

using namespace std::chrono_literals;
using exec::Executor;
using exec::ExecutorConfig;
using exec::Lane;
using exec::OverloadPolicy;

// A task the test can park inside an executor worker and release later.
class Gate {
 public:
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }

  // Blocks until a worker is parked inside wait().
  void await_entry() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }

  void open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
};

// --- Mailbox drain semantics ---------------------------------------------
// The executor intakes and the network mailboxes rely on these.  The suite
// name predates Mailbox; it is kept so the test IDs stay stable.

TEST(BlockingQueueDrain, PopAllTakesEverythingInOrder) {
  common::Mailbox<int> q;
  for (int i = 0; i < 5; ++i) q.push(i);
  const std::deque<int> batch = q.pop_all();
  ASSERT_EQ(batch.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(batch[static_cast<size_t>(i)], i);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BlockingQueueDrain, NothingLostAcrossClose) {
  // Items pushed before close() must all be drained; the empty batch is the
  // closed-and-drained signal consumers exit on.
  common::Mailbox<int> q;
  constexpr int kItems = 1000;
  for (int i = 0; i < kItems; ++i) q.push(i);
  q.close();
  EXPECT_FALSE(q.push(kItems));  // late push is refused, not queued

  int seen = 0;
  while (true) {
    const std::deque<int> batch = q.pop_all();
    if (batch.empty()) break;
    for (int item : batch) EXPECT_EQ(item, seen++);
  }
  EXPECT_EQ(seen, kItems);
}

TEST(BlockingQueueDrain, PopAllWakesOnClose) {
  common::Mailbox<int> q;
  std::thread consumer([&] { EXPECT_TRUE(q.pop_all().empty()); });
  std::this_thread::sleep_for(10ms);
  q.close();
  consumer.join();
}

TEST(BlockingQueueDrain, PushBoundedRefusesWhenFull) {
  using Q = common::Mailbox<int>;
  Q q;
  EXPECT_EQ(q.push_bounded(1, 2), Q::PushResult::kOk);
  EXPECT_EQ(q.push_bounded(2, 2), Q::PushResult::kOk);
  EXPECT_EQ(q.push_bounded(3, 2), Q::PushResult::kFull);
  EXPECT_EQ(q.size(), 2u);
  ASSERT_TRUE(q.try_pop().has_value());
  EXPECT_EQ(q.push_bounded(3, 2), Q::PushResult::kOk);  // space reopened
  EXPECT_EQ(q.push_bounded(4, 0), Q::PushResult::kOk);  // 0 = unbounded
  q.close();
  EXPECT_EQ(q.push_bounded(5, 2), Q::PushResult::kClosed);
}

// --- Executor lanes --------------------------------------------------------

TEST(ExecutorLanes, ControlOvertakesEventAndBulk) {
  ExecutorConfig config;
  config.workers = 1;  // one worker => execution order == pick order
  Gate gate;
  std::vector<Lane> order;
  std::mutex order_mu;
  Executor ex(config, "test.priority");

  ASSERT_TRUE(ex.submit(Lane::kBulk, [&] { gate.wait(); }).is_ok());
  gate.await_entry();
  // Queue lowest-priority first: admission order must NOT decide.
  auto record = [&](Lane lane) {
    return [&order, &order_mu, lane] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(lane);
    };
  };
  ASSERT_TRUE(ex.submit(Lane::kBulk, record(Lane::kBulk)).is_ok());
  ASSERT_TRUE(ex.submit(Lane::kEvent, record(Lane::kEvent)).is_ok());
  ASSERT_TRUE(ex.submit(Lane::kControl, record(Lane::kControl)).is_ok());
  gate.open();
  ex.shutdown();  // drains everything queued

  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], Lane::kControl);
  EXPECT_EQ(order[1], Lane::kEvent);
  EXPECT_EQ(order[2], Lane::kBulk);
}

TEST(ExecutorLanes, SingleLaneAblationIsFifoAcrossLanes) {
  ExecutorConfig config;
  config.workers = 1;
  config.single_lane = true;
  Gate gate;
  std::vector<Lane> order;
  std::mutex order_mu;
  Executor ex(config, "test.single_lane");

  ASSERT_TRUE(ex.submit(Lane::kBulk, [&] { gate.wait(); }).is_ok());
  gate.await_entry();
  auto record = [&](Lane lane) {
    return [&order, &order_mu, lane] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(lane);
    };
  };
  ASSERT_TRUE(ex.submit(Lane::kBulk, record(Lane::kBulk)).is_ok());
  ASSERT_TRUE(ex.submit(Lane::kEvent, record(Lane::kEvent)).is_ok());
  ASSERT_TRUE(ex.submit(Lane::kControl, record(Lane::kControl)).is_ok());
  gate.open();
  ex.shutdown();

  // The pre-refactor world: control waits its turn behind the backlog.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], Lane::kBulk);
  EXPECT_EQ(order[1], Lane::kEvent);
  EXPECT_EQ(order[2], Lane::kControl);
  // Stats stay attributed to the ORIGIN lane, not the physical queue.
  const exec::ExecutorStats stats = ex.stats();
  EXPECT_EQ(stats.lanes[static_cast<size_t>(Lane::kControl)].executed, 1u);
  EXPECT_EQ(stats.lanes[static_cast<size_t>(Lane::kBulk)].executed, 2u);
}

TEST(ExecutorLanes, ShedNewestFailsFastWhenFull) {
  ExecutorConfig config;
  config.workers = 1;
  config.event.capacity = 1;
  config.event.policy = OverloadPolicy::kShedNewest;
  Gate gate;
  Executor ex(config, "test.shed");

  ASSERT_TRUE(ex.submit(Lane::kBulk, [&] { gate.wait(); }).is_ok());
  gate.await_entry();
  ASSERT_TRUE(ex.submit(Lane::kEvent, [] {}).is_ok());  // fills capacity 1
  const Status refused = ex.submit(Lane::kEvent, [] {});
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);

  const exec::ExecutorStats stats = ex.stats();
  EXPECT_EQ(stats.lanes[static_cast<size_t>(Lane::kEvent)].shed, 1u);
  EXPECT_EQ(stats.shed_total(), 1u);
  gate.open();
  ex.shutdown();
  // The admitted task still ran; the shed one never did.
  EXPECT_EQ(ex.stats().lanes[static_cast<size_t>(Lane::kEvent)].executed, 1u);
}

TEST(ExecutorLanes, TrySubmitNeverBlocksOnABlockLane) {
  ExecutorConfig config;
  config.workers = 1;
  config.bulk.capacity = 1;  // policy stays kBlock
  Gate gate;
  Executor ex(config, "test.try_submit");

  ASSERT_TRUE(ex.submit(Lane::kBulk, [&] { gate.wait(); }).is_ok());
  gate.await_entry();
  ASSERT_TRUE(ex.try_submit(Lane::kBulk, [] {}).is_ok());  // fills capacity
  const auto before = std::chrono::steady_clock::now();
  const Status refused = ex.try_submit(Lane::kBulk, [] {});
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_LT(elapsed, 1s);  // returned immediately, not after block_deadline
  gate.open();
  ex.shutdown();
}

TEST(ExecutorLanes, BlockPolicyWaitsForSpaceThenAdmits) {
  ExecutorConfig config;
  config.workers = 1;
  config.bulk.capacity = 1;
  Gate gate;
  std::atomic<int> ran{0};
  Executor ex(config, "test.block");

  ASSERT_TRUE(ex.submit(Lane::kBulk, [&] { gate.wait(); }).is_ok());
  gate.await_entry();
  ASSERT_TRUE(ex.submit(Lane::kBulk, [&] { ran++; }).is_ok());
  // The lane is full: this submit must park until the gate opens and the
  // worker frees a slot, then succeed — backpressure, not an error.
  std::thread opener([&] {
    std::this_thread::sleep_for(20ms);
    gate.open();
  });
  EXPECT_TRUE(ex.submit(Lane::kBulk, [&] { ran++; }).is_ok());
  opener.join();
  ex.shutdown();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(ex.stats().shed_total(), 0u);
}

TEST(ExecutorLanes, BlockDeadlineShedsEventually) {
  ExecutorConfig config;
  config.workers = 1;
  config.bulk.capacity = 1;
  config.bulk.block_deadline = 30ms;
  Gate gate;
  Executor ex(config, "test.block_deadline");

  ASSERT_TRUE(ex.submit(Lane::kBulk, [&] { gate.wait(); }).is_ok());
  gate.await_entry();
  ASSERT_TRUE(ex.submit(Lane::kBulk, [] {}).is_ok());
  const Status refused = ex.submit(Lane::kBulk, [] {});
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ex.stats().lanes[static_cast<size_t>(Lane::kBulk)].shed, 1u);
  gate.open();
  ex.shutdown();
}

TEST(ExecutorLanes, CoalesceReplacesQueuedTaskInPlace) {
  ExecutorConfig config;
  config.workers = 1;
  Gate gate;
  std::atomic<int> value{0};
  std::atomic<int> runs{0};
  Executor ex(config, "test.coalesce");

  ASSERT_TRUE(ex.submit(Lane::kBulk, [&] { gate.wait(); }).is_ok());
  gate.await_entry();
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(ex.submit_coalesced(Lane::kControl, 42, [&value, &runs, i] {
                    value = i;
                    runs++;
                  }).is_ok());
  }
  gate.open();
  ex.shutdown();

  // Three admissions, ONE execution, and it ran the freshest fn.
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(value.load(), 3);
  const auto control = ex.stats().lanes[static_cast<size_t>(Lane::kControl)];
  EXPECT_EQ(control.coalesced, 2u);
  EXPECT_EQ(control.executed, 1u);
}

TEST(ExecutorLanes, CoalesceKeyZeroIsRejected) {
  Executor ex(ExecutorConfig{}, "test.coalesce_zero");
  EXPECT_EQ(ex.submit_coalesced(Lane::kControl, 0, [] {}).code(),
            StatusCode::kInvalidArgument);
  ex.shutdown();
}

TEST(ExecutorLanes, ControlReserveSurvivesSaturatedGeneralWorkers) {
  ExecutorConfig config;
  config.workers = 2;
  config.control_reserve = 1;  // worker 0 services ONLY the control lane
  Gate gate;
  std::atomic<bool> control_ran{false};
  Executor ex(config, "test.reserve");

  // Park the single general worker inside a bulk task.
  ASSERT_TRUE(ex.submit(Lane::kBulk, [&] { gate.wait(); }).is_ok());
  gate.await_entry();
  ASSERT_TRUE(ex.submit(Lane::kControl, [&] { control_ran = true; }).is_ok());
  // Control work must proceed on the reserved worker while bulk is stuck.
  for (int i = 0; i < 500 && !control_ran.load(); ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(control_ran.load());
  gate.open();
  ex.shutdown();
}

TEST(ExecutorLanes, EventWidthOneSerializesHandlers) {
  ExecutorConfig config;
  config.workers = 4;
  config.control_reserve = 0;
  config.event.width = 1;  // the §7 master handler thread
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  Executor ex(config, "test.width");

  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(ex.submit(Lane::kEvent, [&] {
                    const int now = ++running;
                    int expected = peak.load();
                    while (now > expected &&
                           !peak.compare_exchange_weak(expected, now)) {
                    }
                    std::this_thread::sleep_for(1ms);
                    --running;
                  }).is_ok());
  }
  ex.shutdown();
  EXPECT_EQ(peak.load(), 1);  // never two event handlers at once
  EXPECT_EQ(ex.stats().lanes[static_cast<size_t>(Lane::kEvent)].executed, 16u);
}

TEST(ExecutorLanes, ShutdownDrainsQueuedWorkAndRefusesNew) {
  ExecutorConfig config;
  config.workers = 2;
  std::atomic<int> ran{0};
  Executor ex(config, "test.drain");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ex.submit(Lane::kBulk, [&] { ran++; }).is_ok());
  }
  ex.shutdown();
  EXPECT_EQ(ran.load(), 100);  // drain-on-close: nothing queued is lost
  EXPECT_TRUE(ex.closed());
  EXPECT_EQ(ex.submit(Lane::kBulk, [&] { ran++; }).code(),
            StatusCode::kAborted);
  EXPECT_EQ(ran.load(), 100);
  ex.shutdown();  // idempotent
}

// --- Shared timer wheel ----------------------------------------------------

TEST(ExecutorTimers, WheelKeepsFiringUntilTheDrainEnds) {
  // A queued task waits on a timer: shutdown() must drain the workers
  // BEFORE stopping the wheel, or the task would wait out its deadline.
  ExecutorConfig config;
  config.workers = 2;
  Executor ex(config, "test.timers");
  std::mutex mu;
  std::condition_variable cv;
  bool fired = false;
  bool saw_fire = false;
  ASSERT_TRUE(ex.submit(Lane::kBulk, [&] {
                  std::unique_lock<std::mutex> lock(mu);
                  saw_fire = cv.wait_for(lock, 5s, [&] { return fired; });
                }).is_ok());
  ex.timers().schedule(20ms, [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      fired = true;
    }
    cv.notify_all();
  });
  ex.shutdown();
  EXPECT_TRUE(saw_fire);

  // After shutdown the wheel is stopped: nothing scheduled fires.
  std::atomic<int> late{0};
  ex.timers().schedule(0ms, [&] { late++; });
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(late.load(), 0);
}

}  // namespace
}  // namespace doct
