// Queueing & timing substrate tests (DESIGN §14):
//
//   * MpscChain: empty-transition reporting, FIFO order, seeded
//     multi-producer stress (per-producer order must survive the reversal).
//   * Mailbox: batch drain in FIFO order, blocking pop_all, bounded push
//     backpressure, wakeup coalescing (a burst pays at most one notify),
//     closed-state linearization.
//   * TimerWheel: one-shot/periodic fire, never-early rounding, drift
//     bounds, cancellation, cascading across wheel levels.
//   * The E14 zero-alloc gate: same-node raise→object-handler performs ZERO
//     heap allocations in steady state (pooled task nodes, borrowed
//     EventBlock, no marshalling).  This TU — and only this TU — includes
//     alloc_probe.hpp, which replaces global operator new/delete for the
//     whole test binary with counting versions.
//
// Seeded stress: DOCT_SUBSTRATE_SEED=<n> reproduces a failing interleaving.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_probe.hpp"
#include "common/mpsc_queue.hpp"
#include "common/timer_wheel.hpp"
#include "events/event_system.hpp"
#include "runtime/runtime.hpp"

namespace doct::common {
namespace {

using namespace std::chrono_literals;

std::uint64_t suite_seed() {
  if (const char* env = std::getenv("DOCT_SUBSTRATE_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0xD0C7'5EEDULL;
}

// ---------------------------------------------------------------------------
// Mailbox batch-drain and backpressure units.  The suite name predates
// Mailbox; it is kept so the test IDs stay stable.

TEST(BlockingQueueDirect, PopAllDrainsWholeBacklogFifo) {
  Mailbox<int> q;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.push(i));
  EXPECT_EQ(q.size(), 5u);

  const std::deque<int> batch = q.pop_all();
  ASSERT_EQ(batch.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(batch[static_cast<size_t>(i)], i);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BlockingQueueDirect, PopAllReturnsQueuedItemsAfterClose) {
  Mailbox<int> q;
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close();

  // close() never drops admitted items: the first drain returns them, the
  // second reports closed-and-drained (empty deque = consumer exits).
  const std::deque<int> first = q.pop_all();
  EXPECT_EQ(first.size(), 2u);
  const std::deque<int> second = q.pop_all();
  EXPECT_TRUE(second.empty());
}

TEST(BlockingQueueDirect, PopAllBlocksUntilProducerArrives) {
  Mailbox<int> q;
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    const std::deque<int> batch = q.pop_all();
    if (batch.size() == 1 && batch.front() == 42) got.store(true);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(got.load());
  ASSERT_TRUE(q.push(42));
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(BlockingQueueDirect, PushBoundedEnforcesCapacity) {
  Mailbox<int> q;
  using PushResult = Mailbox<int>::PushResult;

  EXPECT_EQ(q.push_bounded(1, 2), PushResult::kOk);
  EXPECT_EQ(q.push_bounded(2, 2), PushResult::kOk);
  EXPECT_EQ(q.push_bounded(3, 2), PushResult::kFull);
  EXPECT_EQ(q.size(), 2u);

  // Draining one slot readmits.
  ASSERT_TRUE(q.try_pop().has_value());
  EXPECT_EQ(q.push_bounded(3, 2), PushResult::kOk);

  q.close();
  EXPECT_EQ(q.push_bounded(4, 2), PushResult::kClosed);
}

TEST(BlockingQueueDirect, PushBoundedCapacityZeroIsUnbounded) {
  Mailbox<int> q;
  using PushResult = Mailbox<int>::PushResult;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(q.push_bounded(i, 0), PushResult::kOk);
  }
  EXPECT_EQ(q.size(), 1000u);
}

// ---------------------------------------------------------------------------
// MpscChain

struct ChainNode : MpscNode {
  int producer = 0;
  int seq = 0;
};

TEST(MpscChain, PushReportsEmptyToNonEmptyTransition) {
  MpscChain chain;
  ChainNode a, b;
  EXPECT_TRUE(chain.push(&a));   // empty → non-empty: must signal
  EXPECT_FALSE(chain.push(&b));  // already non-empty: coalesces
  EXPECT_FALSE(chain.empty());

  MpscNode* fifo = chain.take_all();
  EXPECT_EQ(fifo, &a);
  EXPECT_TRUE(chain.empty());

  ChainNode c;
  EXPECT_TRUE(chain.push(&c));  // transition reported again after a drain
  (void)chain.take_all();
}

TEST(MpscChain, TakeAllYieldsFifoOrder) {
  MpscChain chain;
  std::vector<ChainNode> nodes(10);
  for (int i = 0; i < 10; ++i) {
    nodes[static_cast<size_t>(i)].seq = i;
    chain.push(&nodes[static_cast<size_t>(i)]);
  }
  int expect = 0;
  for (MpscNode* node = chain.take_all(); node != nullptr; node = node->next) {
    EXPECT_EQ(static_cast<ChainNode*>(node)->seq, expect++);
  }
  EXPECT_EQ(expect, 10);
}

TEST(MpscChain, SeededMultiProducerStressPreservesPerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  const std::uint64_t seed = suite_seed();
  std::fprintf(stderr, "[substrate] DOCT_SUBSTRATE_SEED=%llu\n",
               static_cast<unsigned long long>(seed));

  MpscChain chain;
  // Node storage is pre-sized per producer so intrusive pointers stay stable.
  std::vector<std::vector<ChainNode>> nodes(kProducers);
  for (auto& v : nodes) v.resize(kPerProducer);

  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::mt19937_64 rng(seed + static_cast<std::uint64_t>(p));
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerProducer; ++i) {
        ChainNode& node = nodes[static_cast<size_t>(p)][static_cast<size_t>(i)];
        node.producer = p;
        node.seq = i;
        chain.push(&node);
        // Seeded jitter varies the interleaving between runs of the suite
        // while keeping any one run reproducible.
        if ((rng() & 0x3F) == 0) std::this_thread::yield();
      }
    });
  }

  go.store(true, std::memory_order_release);
  std::vector<int> next_seq(kProducers, 0);
  int received = 0;
  while (received < kProducers * kPerProducer) {
    for (MpscNode* node = chain.take_all(); node != nullptr;
         node = node->next) {
      const auto* typed = static_cast<const ChainNode*>(node);
      // take_all reverses the Treiber stack back to FIFO, so each producer's
      // pushes must come out in its push order.
      ASSERT_EQ(typed->seq, next_seq[static_cast<size_t>(typed->producer)]);
      ++next_seq[static_cast<size_t>(typed->producer)];
      ++received;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(chain.empty());
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_seq[static_cast<size_t>(p)], kPerProducer);
  }
}

// ---------------------------------------------------------------------------
// Mailbox

TEST(Mailbox, BurstPaysAtMostOneWakeup) {
  Mailbox<int> box;
  constexpr int kBurst = 1000;
  // Coalescing happens at two layers.  The chain reports only the
  // empty→non-empty transition, so of the whole burst exactly ONE push
  // signals the gate — and with no consumer draining, that one signal pays
  // the one and only notify.
  for (int i = 0; i < kBurst; ++i) ASSERT_TRUE(box.push(i));
  EXPECT_EQ(box.signals(), 1u);
  EXPECT_EQ(box.wakeups(), 1u);

  const std::deque<int> batch = box.pop_all();
  ASSERT_EQ(batch.size(), static_cast<size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i) EXPECT_EQ(batch[static_cast<size_t>(i)], i);
}

TEST(Mailbox, WakeupsNeverExceedSignals) {
  Mailbox<int> box;
  constexpr int kItems = 20000;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) box.push(i);
    box.close();
  });
  int received = 0;
  int expect = 0;
  for (;;) {
    const std::deque<int> batch = box.pop_all();
    if (batch.empty()) break;  // closed-and-drained
    for (const int v : batch) {
      ASSERT_EQ(v, expect++);  // single producer: strict FIFO end to end
      ++received;
    }
  }
  producer.join();
  EXPECT_EQ(received, kItems);
  // Coalescing invariants: at least one wakeup moved data; notifies paid
  // never exceed gate signals; and gate signals never exceed pushes (only
  // empty→non-empty transition pushes signal at all).
  EXPECT_GE(box.wakeups(), 1u);
  EXPECT_LE(box.wakeups(), box.signals());
  EXPECT_GE(box.signals(), 1u);
  EXPECT_LE(box.signals(), static_cast<std::uint64_t>(kItems));
}

TEST(Mailbox, ClosedContractNoThirdOutcome) {
  Mailbox<int> box;
  using PushResult = Mailbox<int>::PushResult;
  ASSERT_EQ(box.push_bounded(1, 0), PushResult::kOk);
  ASSERT_EQ(box.push_bounded(2, 0), PushResult::kOk);
  box.close();
  EXPECT_TRUE(box.closed());
  // Post-close pushes are refused and dropped by the caller...
  EXPECT_EQ(box.push_bounded(3, 0), PushResult::kClosed);
  EXPECT_FALSE(box.push(4));
  // ...and every admitted item is still retrievable by the post-close drain.
  const std::deque<int> batch = box.pop_all();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[1], 2);
  EXPECT_TRUE(box.pop_all().empty());
}

TEST(Mailbox, BoundedPushShedsWhenFull) {
  Mailbox<int> box;
  using PushResult = Mailbox<int>::PushResult;
  EXPECT_EQ(box.push_bounded(1, 2), PushResult::kOk);
  EXPECT_EQ(box.push_bounded(2, 2), PushResult::kOk);
  EXPECT_EQ(box.push_bounded(3, 2), PushResult::kFull);
  EXPECT_EQ(box.size(), 2u);
  const std::deque<int> batch = box.pop_all();
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(box.push_bounded(3, 2), PushResult::kOk);
}

TEST(Mailbox, MultiProducerStressKeepsPerProducerFifo) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 4000;
  Mailbox<std::pair<int, int>> box;

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) box.push({p, i});
    });
  }

  std::vector<int> next_seq(kProducers, 0);
  int received = 0;
  while (received < kProducers * kPerProducer) {
    const std::deque<std::pair<int, int>> batch = box.pop_all();
    for (const auto& [producer, seq] : batch) {
      ASSERT_EQ(seq, next_seq[static_cast<size_t>(producer)]);
      ++next_seq[static_cast<size_t>(producer)];
      ++received;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(box.size(), 0u);
}

// ---------------------------------------------------------------------------
// TimerWheel

TEST(TimerWheelTest, OneShotFiresOnce) {
  TimerWheel wheel;
  std::atomic<int> fired{0};
  wheel.schedule(5ms, [&] { fired++; });
  for (int i = 0; i < 500 && fired.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_EQ(wheel.stats().fired, 1u);
  wheel.stop();
}

TEST(TimerWheelTest, NeverFiresEarlyAndDriftIsBounded) {
  TimerWheel wheel;
  constexpr auto kDelay = 20ms;
  const auto start = std::chrono::steady_clock::now();
  std::atomic<std::int64_t> fired_after_us{-1};
  wheel.schedule(kDelay, [&] {
    fired_after_us.store(std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count());
  });
  for (int i = 0; i < 2000 && fired_after_us.load() < 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(fired_after_us.load(), 0) << "timer never fired";
  // schedule() rounds delays UP to the next tick: a timer may fire late
  // (coarse 1ms ticks + scheduling noise) but never early.
  EXPECT_GE(fired_after_us.load(), 20000);
  // Drift bound is deliberately loose for loaded single-core CI boxes.
  EXPECT_LE(fired_after_us.load(), 20000 + 1000000);
  wheel.stop();
}

// Regression: expiry must anchor to real time, not the tick thread's
// progress pointer.  While the thread sleeps toward a far deadline its
// current tick lags the clock; a short timer armed mid-sleep used to get an
// already-past expiry and fire the instant the thread woke.
TEST(TimerWheelTest, ShortTimerArmedDuringFarSleepIsNotEarly) {
  TimerWheel wheel;
  wheel.schedule(10s, [] {});  // park the tick thread far in the future
  std::this_thread::sleep_for(50ms);
  std::atomic<std::int64_t> fired_after_us{-1};
  const auto start = std::chrono::steady_clock::now();
  wheel.schedule(20ms, [&] {
    fired_after_us.store(std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count());
  });
  for (int i = 0; i < 2000 && fired_after_us.load() < 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(fired_after_us.load(), 0) << "timer never fired";
  EXPECT_GE(fired_after_us.load(), 20000);
  wheel.stop();
}

TEST(TimerWheelTest, ZeroDelayFiresOnNextTick) {
  TimerWheel wheel;
  std::atomic<int> fired{0};
  wheel.schedule(Duration::zero(), [&] { fired++; });
  for (int i = 0; i < 500 && fired.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(fired.load(), 1);
  wheel.stop();
}

TEST(TimerWheelTest, CancelPreventsFire) {
  TimerWheel wheel;
  std::atomic<int> fired{0};
  const TimerId id = wheel.schedule(50ms, [&] { fired++; });
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_FALSE(wheel.cancel(id));  // already gone
  EXPECT_FALSE(wheel.cancel(TimerId{999999}));
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(fired.load(), 0);
  EXPECT_EQ(wheel.stats().cancelled, 1u);
  EXPECT_EQ(wheel.pending(), 0u);
  wheel.stop();
}

// Every RPC arms a 5s deadline and cancels it when the reply lands.  A
// cancel must free the slot entry at once, not when the far slot comes due,
// or slot memory grows as call rate x 5s.
TEST(TimerWheelTest, CancelFreesItsSlotEntry) {
  TimerWheel wheel;
  constexpr int kTimers = 10000;
  constexpr int kCancelled = 9000;
  std::vector<TimerId> ids;
  ids.reserve(kTimers);
  for (int i = 0; i < kTimers; ++i) ids.push_back(wheel.schedule(5s, [] {}));
  // Cancel in a scattered order so swap-removal moves live entries around.
  for (int i = 0; i < kCancelled; ++i) {
    const auto scattered = static_cast<std::size_t>((i * 7919) % kTimers);
    ASSERT_TRUE(wheel.cancel(ids[scattered]));
  }
  EXPECT_EQ(wheel.pending(), static_cast<std::size_t>(kTimers - kCancelled));
  EXPECT_EQ(wheel.stats().slot_entries, wheel.pending());
  // The survivors are still the cancellable ones.
  std::size_t survivors = 0;
  for (const TimerId id : ids) survivors += wheel.cancel(id) ? 1 : 0;
  EXPECT_EQ(survivors, static_cast<std::size_t>(kTimers - kCancelled));
  EXPECT_EQ(wheel.stats().slot_entries, 0u);
  wheel.stop();
}

TEST(TimerWheelTest, LongDelayCascadesAcrossLevels) {
  TimerWheel wheel;
  std::atomic<int> fired{0};
  // 64 slots at 1ms: a 100ms delay lands beyond level 0 and must be
  // cascaded down at a level boundary before it can fire.
  wheel.schedule(100ms, [&] { fired++; });
  for (int i = 0; i < 3000 && fired.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(fired.load(), 1);
  EXPECT_GE(wheel.stats().cascaded, 1u);
  wheel.stop();
}

TEST(TimerWheelTest, PeriodicFiresRepeatedlyUntilCancelled) {
  TimerWheel wheel;
  std::atomic<int> fired{0};
  const TimerId id = wheel.schedule_periodic(5ms, [&] { fired++; });
  for (int i = 0; i < 2000 && fired.load() < 3; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(fired.load(), 3);
  EXPECT_TRUE(wheel.cancel(id));
  // cancel() does not wait for an in-flight callback; let one drain, then
  // the count must hold still.
  std::this_thread::sleep_for(20ms);
  const int after_cancel = fired.load();
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(fired.load(), after_cancel);
  wheel.stop();
}

TEST(TimerWheelTest, ManyTimersAllFire) {
  TimerWheel wheel;
  std::atomic<int> fired{0};
  constexpr int kTimers = 100;
  for (int i = 0; i < kTimers; ++i) {
    wheel.schedule(std::chrono::milliseconds(1 + (i % 30)), [&] { fired++; });
  }
  for (int i = 0; i < 2000 && fired.load() < kTimers; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(fired.load(), kTimers);
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_EQ(wheel.stats().scheduled, static_cast<std::uint64_t>(kTimers));
  wheel.stop();
}

TEST(TimerWheelTest, StopIsIdempotentAndDropsPending) {
  TimerWheel wheel;
  std::atomic<int> fired{0};
  wheel.schedule(10s, [&] { fired++; });
  wheel.stop();
  wheel.stop();
  EXPECT_EQ(fired.load(), 0);
}

// ---------------------------------------------------------------------------
// E14 zero-alloc gate: same-node raise → object handler, steady state.

TEST(ZeroAllocDelivery, SameNodeRaiseToHandlerAllocatesNothing) {
  // The acceptance configuration: event-lane width 4, reservations on.
  runtime::ClusterConfig config;
  config.node.kernel.executor.workers = 4;
  config.node.kernel.executor.event.width = 4;
  config.node.kernel.executor.reservations = true;
  config.node.kernel.executor.event.capacity = 0;  // never shed mid-window
  runtime::Cluster cluster(1, config);
  auto& n0 = cluster.node(0);

  // Short names stay within SSO on the delivery path's string copies.
  const EventId ev = cluster.registry().register_event("E14");
  std::atomic<int> handled{0};
  std::atomic<bool> hold{false};  // parks handlers for the deep warm-up
  constexpr int kObjects = 4;
  constexpr int kMeasure = 100;
  std::vector<ObjectId> oids;
  for (int i = 0; i < kObjects; ++i) {
    auto obj = std::make_shared<objects::PassiveObject>("e14");
    obj->define_entry(
        "on_e14",
        [&handled, &hold](objects::CallCtx& ctx) -> Result<objects::Payload> {
          while (hold.load()) std::this_thread::sleep_for(100us);
          const events::EventBlock block = events::EventBlock::from_ctx(ctx);
          if (block.event().value() != 0) handled++;
          return objects::Payload{};
        },
        objects::Visibility::kPrivate);
    obj->define_handler("E14", "on_e14");
    oids.push_back(n0.objects.add_object(obj));
  }

  const auto burst = [&](int rounds, bool held) {
    const int expect = handled.load() + rounds * kObjects;
    hold.store(held);
    for (int r = 0; r < rounds; ++r) {
      for (const ObjectId oid : oids) {
        ASSERT_TRUE(n0.events.raise(ev, oid).is_ok());
      }
    }
    hold.store(false);
    for (int i = 0; i < 5000 && handled.load() < expect; ++i) {
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_EQ(handled.load(), expect);
  };

  // Warm-up: populate the executor's pooled task nodes, the mailbox node
  // pools and any lazily-built tables with bursts of the measured shape.
  // The task pool grows to the deepest backlog it has seen, so the first
  // burst parks its handlers until every raise is queued: the pool then
  // holds a node for every raise the window can have in flight, however
  // far the workers fall behind during the measurement.
  burst(kMeasure / kObjects, /*held=*/true);
  burst(kMeasure / kObjects, /*held=*/false);

  // Measurement window: no gtest assertions, no captures — only raises and
  // a spin-wait on the atomic.  Every allocation in the PROCESS is charged.
  const int target = handled.load() + kMeasure;
  alloc_probe_reset();
  for (int r = 0; r < kMeasure / kObjects; ++r) {
    for (const ObjectId oid : oids) {
      (void)n0.events.raise(ev, oid);
    }
  }
  while (handled.load() < target) std::this_thread::yield();
  const std::uint64_t allocs = alloc_probe_allocs();

  EXPECT_EQ(handled.load(), target);
  EXPECT_EQ(allocs, 0u)
      << "same-node raise→handler must not heap-allocate in steady state";
}

}  // namespace
}  // namespace doct::common
