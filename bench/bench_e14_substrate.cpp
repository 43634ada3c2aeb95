// E14 — the queueing & timing substrate (DESIGN §14).
//
// Four measurements:
//
//   * Queue push→drain throughput: one producer bursts into a Mailbox (the
//     MPSC chain + wakeup gate) while the bench loop batch-drains it.
//   * Wakeup coalescing: wakeups actually paid per 1k pushes under a
//     concurrent producer/consumer pair (the gate's whole point — a burst of
//     N pushes should cost far fewer than N notifies).
//   * Timer-wheel schedule/cancel throughput: O(1) slot filing vs the old
//     scan-all-deadlines loops it replaced.
//   * Local delivery allocations: same-node raise→object-handler steady-state
//     heap allocations per op, measured with the global alloc probe (this TU
//     replaces operator new/delete for the binary).  The committed baseline
//     is 0.00; compare_benches.py's hard-zero rule flags ANY regrowth.
#include "bench_util.hpp"

#include <thread>

#include "common/alloc_probe.hpp"
#include "common/mpsc_queue.hpp"
#include "common/timer_wheel.hpp"

namespace doct::bench {
namespace {

using common::Mailbox;
using common::TimerWheel;

constexpr int kBurst = 4096;

void BM_E14_QueuePushDrain_Lockfree(benchmark::State& state) {
  std::int64_t items = 0;
  // Wall-clock rate: Counter::kIsRate divides by the *main thread's* CPU
  // time, which leaves out the time the consumer spends asleep in pop_all.
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    Mailbox<int> box;
    std::thread producer([&] {
      for (int i = 0; i < kBurst; ++i) box.push(i);
      box.close();
    });
    int received = 0;
    for (;;) {
      const std::deque<int> batch = box.pop_all();
      if (batch.empty()) break;
      received += static_cast<int>(batch.size());
    }
    producer.join();
    if (received != kBurst) {
      state.SkipWithError("lost items in push/drain loop");
      break;
    }
    items += received;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (elapsed > 0) {
    state.counters["push_drain_per_sec"] = static_cast<double>(items) / elapsed;
  }
}

// Wakeups paid per 1k pushes with a live consumer.  The consumer drains as
// fast as pop_all lets it; every drain re-arms the gate, so the measured
// number is the real notify traffic of a producer/consumer pair — not the
// degenerate "consumer never runs" case (which coalesces to exactly 1).
void BM_E14_WakeupCoalescing(benchmark::State& state) {
  constexpr int kPushes = 200000;
  std::uint64_t wakeups = 0;
  std::uint64_t signals = 0;
  std::uint64_t pushes = 0;
  for (auto _ : state) {
    Mailbox<int> box;
    std::thread producer([&] {
      for (int i = 0; i < kPushes; ++i) box.push(i);
      box.close();
    });
    int received = 0;
    for (;;) {
      const std::deque<int> batch = box.pop_all();
      if (batch.empty()) break;
      received += static_cast<int>(batch.size());
    }
    producer.join();
    if (received != kPushes) {
      state.SkipWithError("lost items under coalescing load");
      break;
    }
    wakeups += box.wakeups();
    signals += box.signals();
    pushes += kPushes;
  }
  if (pushes != 0) {
    state.counters["wakeups_per_1k"] =
        1000.0 * static_cast<double>(wakeups) / static_cast<double>(pushes);
    state.counters["signals_per_1k"] =
        1000.0 * static_cast<double>(signals) / static_cast<double>(pushes);
  }
}

void BM_E14_WheelScheduleCancel(benchmark::State& state) {
  TimerWheel wheel;
  std::int64_t ops = 0;
  for (auto _ : state) {
    // Far-future deadline: the pair exercises pure filing/unfiling cost, the
    // tick thread never touches these slots during the loop.
    const common::TimerId id = wheel.schedule(10s, [] {});
    benchmark::DoNotOptimize(id);
    wheel.cancel(id);
    ++ops;
  }
  wheel.stop();
  state.counters["sched_cancel_per_sec"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kIsRate);
}

// Same-node raise→object-handler allocations per op (the E14 gate shape:
// event-lane width 4, reservations on).
void BM_E14_LocalDeliveryAllocs(benchmark::State& state) {
  runtime::ClusterConfig config;
  config.node.kernel.executor.workers = 4;
  config.node.kernel.executor.event.width = 4;
  config.node.kernel.executor.reservations = true;
  config.node.kernel.executor.event.capacity = 0;
  runtime::Cluster cluster(1, config);
  auto& n0 = cluster.node(0);

  const EventId ev = cluster.registry().register_event("E14");
  auto handled = std::make_shared<std::atomic<long>>(0);
  // Not make_counting_object: its handler returns a 1-byte verdict payload,
  // which heap-allocates — this arm measures the substrate, so the handler
  // returns the empty payload like the gate test does.
  auto object = std::make_shared<objects::PassiveObject>("e14");
  object->define_entry(
      "on_e14",
      [handled](objects::CallCtx&) -> Result<objects::Payload> {
        handled->fetch_add(1);
        return objects::Payload{};
      },
      objects::Visibility::kPrivate);
  object->define_handler("E14", "on_e14");
  const ObjectId target = n0.objects.add_object(object);

  // Paced rounds: a drained burst per round keeps the in-flight depth at the
  // warmed pool shape (an unpaced storm would outgrow the warm pools and
  // charge honest-but-uninteresting pool-growth allocations to the path).
  constexpr int kRound = 100;
  constexpr int kRounds = 10;
  long raised = 0;
  const auto round = [&] {
    for (int i = 0; i < kRound; ++i) {
      if (n0.events.raise(ev, target).is_ok()) ++raised;
    }
    spin_until(*handled, raised);
  };
  round();
  round();

  for (auto _ : state) {
    common::alloc_probe_reset();
    for (int r = 0; r < kRounds; ++r) round();
    const std::uint64_t allocs = common::alloc_probe_allocs();
    state.counters["delivery_allocs_per_op"] =
        static_cast<double>(allocs) / (kRounds * kRound);
  }
}

BENCHMARK(BM_E14_QueuePushDrain_Lockfree)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E14_WakeupCoalescing)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_E14_WheelScheduleCancel)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E14_LocalDeliveryAllocs)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace doct::bench

BENCHMARK_MAIN();
