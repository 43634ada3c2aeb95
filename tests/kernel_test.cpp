// Kernel tests: spawn/join, attribute inheritance, delivery points,
// interruptible waits, timers, tombstones, wait tokens.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"

namespace doct::kernel {
namespace {

using namespace std::chrono_literals;
using runtime::Cluster;

TEST(KernelThreads, SpawnRunsBodyAndJoins) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  std::atomic<bool> ran{false};
  const ThreadId tid = k.spawn([&] { ran = true; });
  ASSERT_TRUE(k.join_thread(tid).is_ok());
  EXPECT_TRUE(ran.load());
}

TEST(KernelThreads, JoinUnknownThreadFails) {
  Cluster cluster(1);
  EXPECT_EQ(cluster.node(0).kernel.join_thread(ThreadId{999}).code(),
            StatusCode::kNoSuchThread);
}

TEST(KernelThreads, CurrentIsSetInsideBodyAndNullOutside) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  EXPECT_EQ(Kernel::current(), nullptr);
  std::atomic<bool> ok{false};
  const ThreadId tid = k.spawn([&] {
    ThreadContext* ctx = Kernel::current();
    ok = ctx != nullptr && ctx->tid().valid();
  });
  ASSERT_TRUE(k.join_thread(tid).is_ok());
  EXPECT_TRUE(ok.load());
}

TEST(KernelThreads, ThreadIdRootNodeIsSpawningNode) {
  Cluster cluster(2);
  auto& k1 = cluster.node(1).kernel;
  const ThreadId tid = k1.spawn([] {});
  EXPECT_EQ(IdGenerator::thread_root_node(tid), k1.self());
  ASSERT_TRUE(k1.join_thread(tid).is_ok());
}

TEST(KernelThreads, FreshThreadGetsFreshGroup) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  GroupId g1, g2;
  const ThreadId t1 = k.spawn([&] {
    g1 = Kernel::current()->attributes().group;
  });
  const ThreadId t2 = k.spawn([&] {
    g2 = Kernel::current()->attributes().group;
  });
  ASSERT_TRUE(k.join_thread(t1).is_ok());
  ASSERT_TRUE(k.join_thread(t2).is_ok());
  EXPECT_TRUE(g1.valid());
  EXPECT_TRUE(g2.valid());
  EXPECT_NE(g1, g2);
}

TEST(KernelThreads, ChildInheritsAttributes) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  std::atomic<bool> ok{false};
  ThreadId parent_tid;
  const ThreadId tid = k.spawn([&] {
    ThreadContext* ctx = Kernel::current();
    parent_tid = ctx->tid();
    ctx->attributes().io_channel = "tty7";
    ctx->attributes().user["color"] = "blue";
    const ThreadId child = k.spawn([&] {
      ThreadContext* cctx = Kernel::current();
      ok = cctx->attributes().io_channel == "tty7" &&
           cctx->attributes().user.at("color") == "blue" &&
           cctx->attributes().creator == parent_tid &&
           cctx->attributes().group ==
               Kernel::current()->attributes().group;
    });
    k.join_thread(child);
  });
  ASSERT_TRUE(k.join_thread(tid).is_ok());
  EXPECT_TRUE(ok.load());
}

TEST(KernelThreads, ChildInheritsHandlerChain) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  std::atomic<size_t> child_chain{0};
  const ThreadId tid = k.spawn([&] {
    Kernel::current()->attributes().handler_chain.push_back(
        HandlerRecord{HandlerId{1}, EventId{5}, HandlerKind::kPerThread,
                      ObjectId{}, "proc", ObjectId{}});
    const ThreadId child = k.spawn([&] {
      child_chain = Kernel::current()->attributes().handler_chain.size();
    });
    k.join_thread(child);
  });
  ASSERT_TRUE(k.join_thread(tid).is_ok());
  EXPECT_EQ(child_chain.load(), 1u);
}

TEST(KernelThreads, SpawnOptionsOverrideGroup) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  const GroupId group = k.create_group();
  std::atomic<bool> ok{false};
  SpawnOptions options;
  options.group = group;
  const ThreadId tid = k.spawn(
      [&] { ok = Kernel::current()->attributes().group == group; }, options);
  ASSERT_TRUE(k.join_thread(tid).is_ok());
  EXPECT_TRUE(ok.load());
}

TEST(KernelThreads, LocalThreadsAndGroupMembers) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  const GroupId group = k.create_group();
  std::atomic<bool> release{false};
  SpawnOptions options;
  options.group = group;
  std::vector<ThreadId> tids;
  for (int i = 0; i < 3; ++i) {
    tids.push_back(k.spawn(
        [&] {
          while (!release.load()) {
            if (!k.sleep_for(1ms).is_ok()) return;
          }
        },
        options));
  }
  // Wait until all three are registered and present.
  for (int i = 0; i < 200 && k.local_group_members(group).size() < 3; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(k.local_group_members(group).size(), 3u);
  EXPECT_GE(k.local_threads().size(), 3u);
  release = true;
  for (ThreadId tid : tids) ASSERT_TRUE(k.join_thread(tid).is_ok());
  EXPECT_TRUE(k.local_group_members(group).empty());
}

TEST(KernelThreads, TombstoneAfterExit) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  const ThreadId tid = k.spawn([] {});
  ASSERT_TRUE(k.join_thread(tid).is_ok());
  EXPECT_TRUE(k.is_tombstoned(tid));
}

TEST(KernelThreads, TombstoneExpiresWithoutLaterExits) {
  runtime::ClusterConfig config;
  config.node.kernel.tombstone_ttl = 20ms;
  Cluster cluster(1, config);
  auto& k = cluster.node(0).kernel;
  const ThreadId tid = k.spawn([] {});
  ASSERT_TRUE(k.join_thread(tid).is_ok());
  // No later exit reaps the record: the TTL must hold on read alone.
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(k.is_tombstoned(tid));
  EventNotice notice;
  notice.event = EventId{42};
  notice.target_thread = tid;
  EXPECT_EQ(k.deliver_local(notice, false).code(), StatusCode::kNoSuchThread);
}

TEST(KernelThreads, TombstonesExpireInDeathOrder) {
  runtime::ClusterConfig config;
  config.node.kernel.tombstone_ttl = 200ms;
  Cluster cluster(1, config);
  auto& k = cluster.node(0).kernel;
  std::vector<ThreadId> early;
  for (int i = 0; i < 100; ++i) early.push_back(k.spawn([] {}));
  for (ThreadId tid : early) ASSERT_TRUE(k.join_thread(tid).is_ok());
  std::this_thread::sleep_for(400ms);
  const ThreadId last = k.spawn([] {});
  ASSERT_TRUE(k.join_thread(last).is_ok());
  EXPECT_TRUE(k.is_tombstoned(last));
  for (ThreadId tid : early) EXPECT_FALSE(k.is_tombstoned(tid));
  // The last exit reaped the expired records rather than only hiding them.
  EXPECT_EQ(k.tombstone_count(), 1u);
}

TEST(KernelThreads, RetombstonedThreadKeepsLaterDeathTime) {
  runtime::ClusterConfig config;
  config.node.kernel.tombstone_ttl = 500ms;
  Cluster cluster(1, config);
  auto& k = cluster.node(0).kernel;
  // A departed stub dropped with a tombstone is a death at this node; the
  // same tid can be stubbed and dropped again.
  const auto stub_dies = [&](ThreadId tid) {
    auto stub = std::make_shared<ThreadContext>(tid, k.self());
    stub->depart(NodeId{99});
    k.adopt_stub(stub);
    k.drop_stub(tid, /*tombstone=*/true);
  };
  const ThreadId tid = k.ids().next_thread_id(k.self());
  stub_dies(tid);
  std::this_thread::sleep_for(300ms);
  stub_dies(tid);
  std::this_thread::sleep_for(300ms);
  // This death reaps the first record for `tid`, which has expired; the
  // second, younger one must survive it.
  stub_dies(k.ids().next_thread_id(k.self()));
  EXPECT_TRUE(k.is_tombstoned(tid));
  EXPECT_EQ(k.tombstone_count(), 2u);
}

TEST(KernelThreads, DeadThreadsMulticastGroupIsRemoved) {
  Cluster cluster(2);
  auto& k = cluster.node(0).kernel;
  net::Transport& transport = cluster.transport_for(k.self());
  std::atomic<bool> release{false};
  const ThreadId tid = k.spawn([&] {
    while (!release.load()) {
      if (!k.sleep_for(1ms).is_ok()) return;
    }
  });
  const GroupId group = k.thread_multicast_group(tid);
  EXPECT_EQ(transport.create_multicast_group(group).code(),
            StatusCode::kAlreadyExists);
  release = true;
  ASSERT_TRUE(k.join_thread(tid).is_ok());
  EXPECT_TRUE(transport.create_multicast_group(group).is_ok());
}

TEST(KernelDelivery, DeliverLocalQueuesNotice) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  std::atomic<int> handled{0};
  k.set_delivery_callback(
      [&](ThreadContext&, const EventNotice&) {
        handled++;
        return Verdict::kResume;
      });
  std::atomic<bool> release{false};
  const ThreadId tid = k.spawn([&] {
    while (!release.load()) {
      if (!k.sleep_for(1ms).is_ok()) return;
    }
  });
  EventNotice notice;
  notice.event = EventId{42};
  notice.target_thread = tid;
  // Wait for the thread to register.
  for (int i = 0; i < 200 && !k.deliver_local(notice, false).is_ok(); ++i) {
    std::this_thread::sleep_for(1ms);
  }
  for (int i = 0; i < 200 && handled.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(handled.load(), 1);
  release = true;
  ASSERT_TRUE(k.join_thread(tid).is_ok());
}

TEST(KernelDelivery, DeliverToDeadThreadReportsDeadTarget) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  const ThreadId tid = k.spawn([] {});
  ASSERT_TRUE(k.join_thread(tid).is_ok());
  EventNotice notice;
  notice.event = EventId{42};
  notice.target_thread = tid;
  EXPECT_EQ(k.deliver_local(notice, false).code(), StatusCode::kDeadTarget);
}

TEST(KernelDelivery, DeliverToUnknownThreadReportsNoSuchThread) {
  Cluster cluster(1);
  EventNotice notice;
  notice.event = EventId{42};
  notice.target_thread = ThreadId{777};
  EXPECT_EQ(cluster.node(0).kernel.deliver_local(notice, false).code(),
            StatusCode::kNoSuchThread);
}

TEST(KernelDelivery, TerminateVerdictStopsThread) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  k.set_delivery_callback([](ThreadContext&, const EventNotice&) {
    return Verdict::kTerminate;
  });
  std::atomic<bool> past_loop{false};
  const ThreadId tid = k.spawn([&] {
    // Sleep "forever"; the terminate verdict must break the sleep.
    const Status s = k.sleep_for(10s);
    past_loop = s.code() == StatusCode::kTerminated;
  });
  EventNotice notice;
  notice.event = EventId{1};
  notice.target_thread = tid;
  for (int i = 0; i < 200 && !k.deliver_local(notice, true).is_ok(); ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(k.join_thread(tid, 5s).is_ok());
  EXPECT_TRUE(past_loop.load());
}

TEST(KernelDelivery, UrgentNoticesOvertakeOrdinary) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  std::vector<std::uint64_t> order;
  std::mutex order_mu;
  k.set_delivery_callback(
      [&](ThreadContext&, const EventNotice& notice) {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(notice.event.value());
        return Verdict::kResume;
      });
  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  const ThreadId tid = k.spawn([&] {
    while (!go.load()) std::this_thread::sleep_for(1ms);
    k.poll_events();
    done = true;
  });
  // Queue ordinary 1,2 then urgent 99 while the thread is not polling.
  EventNotice n;
  n.target_thread = tid;
  n.event = EventId{1};
  for (int i = 0; i < 200 && !k.deliver_local(n, false).is_ok(); ++i) {
    std::this_thread::sleep_for(1ms);
  }
  n.event = EventId{2};
  ASSERT_TRUE(k.deliver_local(n, false).is_ok());
  n.event = EventId{99};
  ASSERT_TRUE(k.deliver_local(n, true).is_ok());
  go = true;
  ASSERT_TRUE(k.join_thread(tid).is_ok());
  ASSERT_TRUE(done.load());
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 99u);  // urgent first
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(order[2], 2u);
}

TEST(KernelDelivery, GroupDeliveryReachesAllLocalMembers) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  std::atomic<int> handled{0};
  k.set_delivery_callback(
      [&](ThreadContext&, const EventNotice&) {
        handled++;
        return Verdict::kResume;
      });
  const GroupId group = k.create_group();
  SpawnOptions options;
  options.group = group;
  std::atomic<bool> release{false};
  std::vector<ThreadId> tids;
  for (int i = 0; i < 3; ++i) {
    tids.push_back(k.spawn(
        [&] {
          while (!release.load()) {
            if (!k.sleep_for(1ms).is_ok()) return;
          }
        },
        options));
  }
  for (int i = 0; i < 200 && k.local_group_members(group).size() < 3; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EventNotice notice;
  notice.event = EventId{7};
  notice.target_group = group;
  EXPECT_EQ(k.deliver_group_local(notice, false), 3u);
  for (int i = 0; i < 200 && handled.load() < 3; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(handled.load(), 3);
  release = true;
  for (ThreadId tid : tids) ASSERT_TRUE(k.join_thread(tid).is_ok());
}

TEST(KernelWaiters, ResumeWakesAwaiter) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  const std::uint64_t token = k.new_wait_token();
  std::thread resumer([&] {
    std::this_thread::sleep_for(20ms);
    EXPECT_TRUE(k.resume_waiter(token, Verdict::kResume).is_ok());
  });
  auto verdict = k.await_resume(token, 5s);
  resumer.join();
  ASSERT_TRUE(verdict.is_ok()) << verdict.status().to_string();
  EXPECT_EQ(verdict.value(), Verdict::kResume);
}

TEST(KernelWaiters, AwaitTimesOutWithoutResume) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  const auto verdict = k.await_resume(k.new_wait_token(), 30ms);
  EXPECT_EQ(verdict.status().code(), StatusCode::kTimeout);
}

TEST(KernelWaiters, ResumeUnknownTokenFails) {
  Cluster cluster(1);
  EXPECT_EQ(cluster.node(0).kernel.resume_waiter(12345, Verdict::kResume).code(),
            StatusCode::kNoSuchThread);
}

TEST(KernelWaiters, DoubleResumeRejected) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  const std::uint64_t token = k.new_wait_token();
  // Register the waiter entry up front so both resume calls are ordered
  // before the await — a blocked waiter could otherwise consume the token
  // between the two resumes and turn the second into kNoSuchThread.
  k.prepare_wait(token);
  EXPECT_TRUE(k.resume_waiter(token, Verdict::kTerminate).is_ok());
  EXPECT_EQ(k.resume_waiter(token, Verdict::kResume).code(),
            StatusCode::kAlreadyExists);
  auto verdict = k.await_resume(token, 5s);
  ASSERT_TRUE(verdict.is_ok());
  EXPECT_EQ(verdict.value(), Verdict::kTerminate);
}

// A resume wakes the one thread waiting on its token.  Bystanders parked in
// wait_until on their own predicate see only their 5ms wait slices, not a
// wakeup per resume.
TEST(KernelResume, WakesOnlyTheWaiter) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  auto& k = n0.kernel;
  auto obj = std::make_shared<objects::PassiveObject>("resume_target");
  obj->define_entry(
      "on_ping",
      [](objects::CallCtx&) -> Result<objects::Payload> {
        return objects::Payload{static_cast<std::uint8_t>(Verdict::kResume)};
      },
      objects::Visibility::kPrivate);
  obj->define_handler("RESUME_PING", "on_ping");
  const ObjectId oid = n0.objects.add_object(obj);
  const EventId ping = cluster.registry().register_event("RESUME_PING");

  constexpr int kBystanders = 32;
  constexpr int kRoundTrips = 1000;
  constexpr double kSliceMs = 5.0;  // Kernel's longest single wait
  const auto voluntary_switches = [] {
    rusage usage{};
    getrusage(RUSAGE_THREAD, &usage);
    return static_cast<long>(usage.ru_nvcsw);
  };
  std::atomic<bool> stop{false};
  std::atomic<int> parked{0};
  std::atomic<long> switches{0};
  std::atomic<long> slices{0};
  std::vector<ThreadId> bystanders;
  for (int i = 0; i < kBystanders; ++i) {
    bystanders.push_back(k.spawn([&] {
      const long before = voluntary_switches();
      const auto start = std::chrono::steady_clock::now();
      parked++;
      const Status waited = k.wait_until(
          *Kernel::current(), [&] { return stop.load(); }, 30s);
      const std::chrono::duration<double, std::milli> waited_ms =
          std::chrono::steady_clock::now() - start;
      EXPECT_TRUE(waited.is_ok()) << waited.to_string();
      switches += voluntary_switches() - before;
      slices += static_cast<long>(waited_ms.count() / kSliceMs) + 1;
    }));
  }
  while (parked.load() < kBystanders) std::this_thread::sleep_for(1ms);

  std::atomic<int> resumed{0};
  const ThreadId raiser = k.spawn([&] {
    for (int i = 0; i < kRoundTrips; ++i) {
      auto verdict = n0.events.raise_and_wait(ping, oid);
      if (verdict.is_ok() && verdict.value() == Verdict::kResume) resumed++;
    }
  });
  ASSERT_TRUE(k.join_thread(raiser, 60s).is_ok());
  stop = true;
  for (ThreadId tid : bystanders) ASSERT_TRUE(k.join_thread(tid).is_ok());

  EXPECT_EQ(resumed.load(), kRoundTrips);
  // Slice wakeups only (doubled for scheduler noise).  A resume that
  // notified every local context would add up to kRoundTrips per bystander.
  // The budget scales with how long the round trips took, so a slow
  // (sanitized) build raises it rather than failing the check.
  EXPECT_LE(switches.load(), 2 * slices.load())
      << "bystanders switched " << switches.load() << " times over "
      << slices.load() << " wait slices";
}

TEST(KernelTimers, PeriodicTimerFires) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  std::atomic<int> fires{0};
  k.set_delivery_callback(
      [&](ThreadContext&, const EventNotice& notice) {
        if (notice.event == EventId{5}) fires++;
        return Verdict::kResume;
      });
  const ThreadId tid = k.spawn([&] {
    ThreadContext* ctx = Kernel::current();
    ASSERT_TRUE(k.add_timer(*ctx, TimerRecord{EventId{5}, 5000, false}).is_ok());
    // Sleep long enough for several 5ms periods; sleeping is a delivery point.
    for (int i = 0; i < 100 && fires.load() < 3; ++i) {
      if (!k.sleep_for(5ms).is_ok()) return;
    }
  });
  ASSERT_TRUE(k.join_thread(tid, 10s).is_ok());
  EXPECT_GE(fires.load(), 3);
}

TEST(KernelTimers, OneShotFiresOnceAndUnregisters) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  std::atomic<int> fires{0};
  std::atomic<size_t> timers_left{99};
  k.set_delivery_callback(
      [&](ThreadContext&, const EventNotice& notice) {
        if (notice.event == EventId{8}) fires++;
        return Verdict::kResume;
      });
  const ThreadId tid = k.spawn([&] {
    ThreadContext* ctx = Kernel::current();
    ASSERT_TRUE(k.add_timer(*ctx, TimerRecord{EventId{8}, 3000, true}).is_ok());
    for (int i = 0; i < 100 && fires.load() < 1; ++i) {
      if (!k.sleep_for(3ms).is_ok()) return;
    }
    k.sleep_for(15ms);  // would fire again if periodic
    timers_left = ctx->with_attributes(
        [](ThreadAttributes& a) { return a.timers.size(); });
  });
  ASSERT_TRUE(k.join_thread(tid, 10s).is_ok());
  EXPECT_EQ(fires.load(), 1);
  EXPECT_EQ(timers_left.load(), 0u);  // one-shot removed from attributes
}

TEST(KernelTimers, RemoveTimerStopsFiring) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  std::atomic<int> fires{0};
  k.set_delivery_callback(
      [&](ThreadContext&, const EventNotice&) {
        fires++;
        return Verdict::kResume;
      });
  const ThreadId tid = k.spawn([&] {
    ThreadContext* ctx = Kernel::current();
    ASSERT_TRUE(k.add_timer(*ctx, TimerRecord{EventId{5}, 2000, false}).is_ok());
    for (int i = 0; i < 100 && fires.load() < 1; ++i) {
      if (!k.sleep_for(2ms).is_ok()) return;
    }
    ASSERT_TRUE(k.remove_timer(*ctx, EventId{5}).is_ok());
    const int count = fires.load();
    k.sleep_for(20ms);
    EXPECT_LE(fires.load(), count + 1);  // at most one in-flight straggler
  });
  ASSERT_TRUE(k.join_thread(tid, 10s).is_ok());
}

TEST(KernelTimers, PeriodicTimerSurvivesChurnOfTimedThreads) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  common::TimerWheel& wheel = cluster.node(0).executor.timers();
  std::atomic<int> fires{0};
  k.set_delivery_callback([&](ThreadContext&, const EventNotice& notice) {
    if (notice.event == EventId{5}) fires++;
    return Verdict::kResume;
  });
  const std::size_t baseline = wheel.pending();
  std::atomic<bool> release{false};
  const ThreadId steady = k.spawn([&] {
    ThreadContext* ctx = Kernel::current();
    ASSERT_TRUE(
        k.add_timer(*ctx, TimerRecord{EventId{5}, 2000, false}).is_ok());
    while (!release.load()) {
      if (!k.sleep_for(1ms).is_ok()) return;
    }
  });
  const auto fires_reach = [&](int target) {
    for (int i = 0; i < 5000 && fires.load() < target; ++i) {
      std::this_thread::sleep_for(1ms);
    }
    return fires.load() >= target;
  };
  ASSERT_TRUE(fires_reach(1));

  // 1,000 threads each arm a periodic timer that never fires and a one-shot
  // that may, then exit; at most 25 run at once.
  const int before_churn = fires.load();
  for (int batch = 0; batch < 40; ++batch) {
    std::vector<ThreadId> tids;
    for (int i = 0; i < 25; ++i) {
      tids.push_back(k.spawn([&k] {
        ThreadContext* ctx = Kernel::current();
        ASSERT_TRUE(
            k.add_timer(*ctx, TimerRecord{EventId{6}, 3'600'000'000, false})
                .is_ok());
        ASSERT_TRUE(
            k.add_timer(*ctx, TimerRecord{EventId{7}, 500, true}).is_ok());
        k.sleep_for(1ms);
      }));
    }
    for (ThreadId tid : tids) ASSERT_TRUE(k.join_thread(tid, 10s).is_ok());
  }
  EXPECT_GT(fires.load(), before_churn);
  EXPECT_TRUE(fires_reach(fires.load() + 3));

  release = true;
  ASSERT_TRUE(k.join_thread(steady, 10s).is_ok());
  // Every exit cancelled its wheel timers: only a tick in flight can hold
  // one (a fired timer is not pending; a re-arm replaces it).
  for (int i = 0; i < 2000 && wheel.pending() != baseline; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(wheel.pending(), baseline);
}

TEST(KernelTimers, ZeroPeriodRejected) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  const ThreadId tid = k.spawn([&] {
    EXPECT_EQ(
        k.add_timer(*Kernel::current(), TimerRecord{EventId{5}, 0, false})
            .code(),
        StatusCode::kInvalidArgument);
  });
  ASSERT_TRUE(k.join_thread(tid).is_ok());
}

TEST(KernelWait, WaitUntilSatisfiedByOtherThread) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  std::atomic<bool> flag{false};
  std::atomic<bool> ok{false};
  const ThreadId tid = k.spawn([&] {
    ThreadContext* ctx = Kernel::current();
    ok = k.wait_until(*ctx, [&] { return flag.load(); }, 5s).is_ok();
  });
  std::this_thread::sleep_for(20ms);
  flag = true;
  ASSERT_TRUE(k.join_thread(tid).is_ok());
  EXPECT_TRUE(ok.load());
}

TEST(KernelWait, WaitUntilTimesOut) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  std::atomic<bool> timed_out{false};
  const ThreadId tid = k.spawn([&] {
    ThreadContext* ctx = Kernel::current();
    timed_out = k.wait_until(*ctx, [] { return false; }, 30ms).code() ==
                StatusCode::kTimeout;
  });
  ASSERT_TRUE(k.join_thread(tid).is_ok());
  EXPECT_TRUE(timed_out.load());
}

TEST(KernelGroups, CensusCollectsMembersAcrossNodes) {
  Cluster cluster(3);
  auto& k0 = cluster.node(0).kernel;
  const GroupId group = k0.create_group();
  SpawnOptions options;
  options.group = group;
  std::atomic<bool> release{false};
  std::vector<std::pair<int, ThreadId>> members;
  for (int n = 0; n < 3; ++n) {
    auto& node = cluster.node(static_cast<std::size_t>(n));
    members.emplace_back(n, node.kernel.spawn(
                                [&node, &release] {
                                  while (!release.load()) {
                                    if (!node.kernel.sleep_for(1ms).is_ok()) {
                                      return;
                                    }
                                  }
                                },
                                options));
  }
  // Wait until every node sees its member locally.
  for (int i = 0; i < 500; ++i) {
    std::size_t present = 0;
    for (int n = 0; n < 3; ++n) {
      present += cluster.node(static_cast<std::size_t>(n))
                     .kernel.local_group_members(group)
                     .size();
    }
    if (present == 3) break;
    std::this_thread::sleep_for(1ms);
  }

  auto census = k0.group_census(group);
  ASSERT_TRUE(census.is_ok());
  ASSERT_EQ(census.value().size(), 3u);
  std::vector<ThreadId> expected;
  for (auto& [n, tid] : members) expected.push_back(tid);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(census.value(), expected);

  release = true;
  for (auto& [n, tid] : members) {
    ASSERT_TRUE(
        cluster.node(static_cast<std::size_t>(n)).kernel.join_thread(tid).is_ok());
  }
  // After death, the census is empty.
  auto empty = k0.group_census(group);
  ASSERT_TRUE(empty.is_ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(KernelGroups, CensusOfUnknownGroupIsEmpty) {
  Cluster cluster(2);
  auto census = cluster.node(0).kernel.group_census(GroupId{987654});
  ASSERT_TRUE(census.is_ok());
  EXPECT_TRUE(census.value().empty());
}

TEST(KernelStats, CountsSpawnsAndTerminations) {
  Cluster cluster(1);
  auto& k = cluster.node(0).kernel;
  k.reset_stats();
  const ThreadId tid = k.spawn([] {});
  ASSERT_TRUE(k.join_thread(tid).is_ok());
  EXPECT_EQ(k.stats().threads_spawned, 1u);
  EXPECT_EQ(k.stats().threads_terminated, 1u);
}

}  // namespace
}  // namespace doct::kernel
