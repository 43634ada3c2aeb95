// EventSystem tests — the paper's core semantics (§3–§5):
// naming/registry, thread-based handlers (per-thread OWN_CONTEXT, object
// entry, buddy), LIFO chaining with propagation, default actions, sync and
// async raising to threads/groups/objects, surrogate execution for
// self-raised exceptions, handlers travelling with threads, dead targets,
// passive-object activation on event delivery.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "events/event_system.hpp"
#include "runtime/runtime.hpp"

namespace doct::events {
namespace {

using namespace std::chrono_literals;
using kernel::Verdict;
using runtime::Cluster;

rpc::Payload verdict_bytes(Verdict v) {
  return rpc::Payload{static_cast<std::uint8_t>(v)};
}

TEST(Registry, SystemEventsPreRegistered) {
  EventRegistry registry;
  auto terminate = registry.lookup("TERMINATE");
  ASSERT_TRUE(terminate.is_ok());
  EXPECT_EQ(terminate.value(), sys::kTerminate);
  EXPECT_TRUE(registry.is_control(sys::kTerminate));
  EXPECT_EQ(registry.default_action(sys::kTerminate),
            DefaultAction::kTerminate);
  EXPECT_EQ(registry.default_action(sys::kTimer), DefaultAction::kIgnore);
  EXPECT_FALSE(registry.is_control(sys::kTimer));
  EXPECT_GE(registry.all().size(), 11u);
}

TEST(Registry, UserEventRegistrationIdempotent) {
  EventRegistry registry;
  const EventId commit = registry.register_event("COMMIT");
  EXPECT_EQ(registry.register_event("COMMIT"), commit);
  EXPECT_GE(commit.value(), sys::kFirstUserEvent);
  EXPECT_EQ(registry.name_of(commit), "COMMIT");
  EXPECT_EQ(registry.lookup("NOPE").status().code(),
            StatusCode::kUnknownEvent);
  EXPECT_EQ(registry.info(EventId{9999}).status().code(),
            StatusCode::kUnknownEvent);
}

TEST(Events, AttachRequiresLogicalThread) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  EXPECT_EQ(n0.events.attach_handler(sys::kInterrupt, ObjectId{1}, "h")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(Events, AttachUnknownEventOrProcedureFails) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  const ThreadId tid = n0.kernel.spawn([&] {
    EXPECT_EQ(
        n0.events.attach_handler(EventId{9999}, ObjectId{1}, "h").status().code(),
        StatusCode::kUnknownEvent);
    EXPECT_EQ(n0.events.attach_handler(sys::kInterrupt, "missing", OWN_CONTEXT)
                  .status()
                  .code(),
              StatusCode::kNoHandler);
  });
  ASSERT_TRUE(n0.kernel.join_thread(tid).is_ok());
}

TEST(Events, PerThreadHandlerRunsAtDeliveryPoint) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  std::atomic<int> handled{0};
  cluster.procedures().register_procedure("count", [&](PerThreadCallCtx&) {
    handled++;
    return Verdict::kResume;
  });
  const EventId ev = cluster.registry().register_event("POKE");
  std::atomic<bool> attached{false};
  std::atomic<bool> release{false};
  const ThreadId tid = n0.kernel.spawn([&] {
    ASSERT_TRUE(n0.events.attach_handler(ev, "count", OWN_CONTEXT).is_ok());
    attached = true;
    while (!release.load()) {
      if (!n0.kernel.sleep_for(1ms).is_ok()) return;
    }
  });
  while (!attached.load()) std::this_thread::sleep_for(1ms);
  ASSERT_TRUE(n0.events.raise(ev, tid).is_ok());
  for (int i = 0; i < 500 && handled.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(handled.load(), 1);
  release = true;
  ASSERT_TRUE(n0.kernel.join_thread(tid).is_ok());
  EXPECT_EQ(n0.events.stats().per_thread_procs_run, 1u);
}

TEST(Events, DetachedHandlerNoLongerRuns) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  std::atomic<int> handled{0};
  cluster.procedures().register_procedure("c2", [&](PerThreadCallCtx&) {
    handled++;
    return Verdict::kResume;
  });
  const EventId ev = cluster.registry().register_event("POKE2");
  std::atomic<bool> ready{false};
  std::atomic<bool> release{false};
  const ThreadId tid = n0.kernel.spawn([&] {
    auto id = n0.events.attach_handler(ev, "c2", OWN_CONTEXT);
    ASSERT_TRUE(id.is_ok());
    ASSERT_TRUE(n0.events.detach_handler(id.value()).is_ok());
    EXPECT_EQ(n0.events.detach_handler(id.value()).code(),
              StatusCode::kNoHandler);  // second detach fails
    ready = true;
    while (!release.load()) {
      if (!n0.kernel.sleep_for(1ms).is_ok()) return;
    }
  });
  while (!ready.load()) std::this_thread::sleep_for(1ms);
  ASSERT_TRUE(n0.events.raise(ev, tid).is_ok());
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(handled.load(), 0);  // default action for user events: ignore
  release = true;
  ASSERT_TRUE(n0.kernel.join_thread(tid).is_ok());
}

TEST(Events, LifoChainingMostRecentFirstAndPropagate) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  std::vector<std::string> order;
  std::mutex order_mu;
  cluster.procedures().register_procedure("first", [&](PerThreadCallCtx&) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back("first");
    return Verdict::kResume;  // stop here
  });
  cluster.procedures().register_procedure("second", [&](PerThreadCallCtx&) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back("second");
    return Verdict::kPropagate;  // pass outward
  });
  const EventId ev = cluster.registry().register_event("CHAINED");
  std::atomic<bool> ready{false};
  std::atomic<bool> release{false};
  const ThreadId tid = n0.kernel.spawn([&] {
    ASSERT_TRUE(n0.events.attach_handler(ev, "first", OWN_CONTEXT).is_ok());
    ASSERT_TRUE(n0.events.attach_handler(ev, "second", OWN_CONTEXT).is_ok());
    ready = true;
    while (!release.load()) {
      if (!n0.kernel.sleep_for(1ms).is_ok()) return;
    }
  });
  while (!ready.load()) std::this_thread::sleep_for(1ms);
  ASSERT_TRUE(n0.events.raise(ev, tid).is_ok());
  for (int i = 0; i < 500; ++i) {
    {
      std::lock_guard<std::mutex> lock(order_mu);
      if (order.size() >= 2) break;
    }
    // Sleep unlocked: the handlers need order_mu to make progress.
    std::this_thread::sleep_for(1ms);
  }
  {
    std::lock_guard<std::mutex> lock(order_mu);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "second");  // most recently attached runs first
    EXPECT_EQ(order[1], "first");   // kPropagate walked outward
  }
  EXPECT_EQ(n0.events.stats().propagations, 1u);
  release = true;
  ASSERT_TRUE(n0.kernel.join_thread(tid).is_ok());
}

TEST(Events, UnknownEventRaiseRejected) {
  Cluster cluster(1);
  EXPECT_EQ(cluster.node(0).events.raise(EventId{9999}, ThreadId{1}).code(),
            StatusCode::kUnknownEvent);
}

TEST(Events, RaiseAtDeadThreadReportsDeadTarget) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  const ThreadId tid = n0.kernel.spawn([] {});
  ASSERT_TRUE(n0.kernel.join_thread(tid).is_ok());
  const EventId ev = cluster.registry().register_event("LATE");
  EXPECT_EQ(n0.events.raise(ev, tid).code(), StatusCode::kDeadTarget);
  EXPECT_EQ(n0.events.stats().dead_target_raises, 1u);
}

TEST(Events, DefaultTerminateAppliesWithoutHandler) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  std::atomic<bool> terminated{false};
  const ThreadId tid = n0.kernel.spawn([&] {
    const Status s = n0.kernel.sleep_for(10s);
    terminated = s.code() == StatusCode::kTerminated;
  });
  // Wait for the thread to exist, then TERMINATE it (no handler attached).
  Status raised;
  for (int i = 0; i < 500; ++i) {
    raised = n0.events.raise(sys::kTerminate, tid);
    if (raised.is_ok()) break;
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(raised.is_ok()) << raised.to_string();
  ASSERT_TRUE(n0.kernel.join_thread(tid, 10s).is_ok());
  EXPECT_TRUE(terminated.load());
}

TEST(Events, HandlerOverridesDefaultTerminate) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  std::atomic<int> intercepted{0};
  cluster.procedures().register_procedure("shield", [&](PerThreadCallCtx&) {
    intercepted++;
    return Verdict::kResume;  // swallow the TERMINATE
  });
  std::atomic<bool> ready{false};
  std::atomic<bool> release{false};
  std::atomic<bool> survived{false};
  const ThreadId tid = n0.kernel.spawn([&] {
    ASSERT_TRUE(
        n0.events.attach_handler(sys::kTerminate, "shield", OWN_CONTEXT).is_ok());
    ready = true;
    while (!release.load()) {
      if (!n0.kernel.sleep_for(1ms).is_ok()) return;
    }
    survived = true;
  });
  while (!ready.load()) std::this_thread::sleep_for(1ms);
  ASSERT_TRUE(n0.events.raise(sys::kTerminate, tid).is_ok());
  for (int i = 0; i < 500 && intercepted.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(intercepted.load(), 1);
  release = true;
  ASSERT_TRUE(n0.kernel.join_thread(tid).is_ok());
  EXPECT_TRUE(survived.load());
}

TEST(Events, ObjectEntryHandlerReceivesEventBlock) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  std::atomic<bool> saw_payload{false};
  ThreadId raiser_seen;

  auto obj = std::make_shared<objects::PassiveObject>("guarded");
  obj->define_entry(
      "on_interrupt",
      [&](objects::CallCtx& ctx) -> Result<objects::Payload> {
        EventBlock block = EventBlock::from_ctx(ctx);
        auto r = block.user_reader();
        saw_payload = r.get_string() == "ctrl-c";
        raiser_seen = block.raiser();
        return verdict_bytes(Verdict::kResume);
      },
      objects::Visibility::kPrivate);
  obj->define_entry("arm", [&](objects::CallCtx& ctx) -> Result<objects::Payload> {
    auto attached = n0.events.attach_handler(sys::kInterrupt, ctx.self,
                                             "on_interrupt");
    if (!attached.is_ok()) return attached.status();
    return objects::Payload{};
  });
  const ObjectId oid = n0.objects.add_object(obj);

  std::atomic<bool> ready{false};
  std::atomic<bool> release{false};
  ThreadId raiser_tid;
  const ThreadId tid = n0.kernel.spawn([&] {
    raiser_tid = kernel::Kernel::current()->tid();
    ASSERT_TRUE(n0.objects.invoke(oid, "arm", {}).is_ok());
    ready = true;
    while (!release.load()) {
      if (!n0.kernel.sleep_for(1ms).is_ok()) return;
    }
  });
  while (!ready.load()) std::this_thread::sleep_for(1ms);
  Writer w;
  w.put(std::string("ctrl-c"));
  ASSERT_TRUE(n0.events.raise(sys::kInterrupt, tid, std::move(w).take()).is_ok());
  for (int i = 0; i < 500 && !saw_payload.load(); ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(saw_payload.load());
  release = true;
  ASSERT_TRUE(n0.kernel.join_thread(tid).is_ok());
  EXPECT_EQ(n0.events.stats().thread_handlers_run, 1u);
}

TEST(Events, BuddyHandlerRunsOnRemoteServer) {
  // §4.1: "an application can specify a central server as the event handler
  // for events posted to its threads."
  Cluster cluster(2);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);

  std::atomic<int> served{0};
  auto server = std::make_shared<objects::PassiveObject>("central_server");
  server->define_entry(
      "on_fault",
      [&](objects::CallCtx&) -> Result<objects::Payload> {
        served++;
        return verdict_bytes(Verdict::kResume);
      },
      objects::Visibility::kPrivate);
  const ObjectId server_id = n1.objects.add_object(server);

  std::atomic<bool> ready{false};
  std::atomic<bool> release{false};
  const ThreadId tid = n0.kernel.spawn([&] {
    // Buddy: the handler object is NOT the current object.
    ASSERT_TRUE(
        n0.events.attach_handler(sys::kVmFault, server_id, "on_fault").is_ok());
    const auto& chain = kernel::Kernel::current()->attributes().handler_chain;
    ASSERT_EQ(chain.size(), 1u);
    EXPECT_EQ(chain[0].kind, kernel::HandlerKind::kBuddy);
    ready = true;
    while (!release.load()) {
      if (!n0.kernel.sleep_for(1ms).is_ok()) return;
    }
  });
  while (!ready.load()) std::this_thread::sleep_for(1ms);
  ASSERT_TRUE(n0.events.raise(sys::kVmFault, tid).is_ok());
  for (int i = 0; i < 500 && served.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(served.load(), 1);
  release = true;
  ASSERT_TRUE(n0.kernel.join_thread(tid).is_ok());
}

TEST(Events, HandlerTravelsWithThreadAcrossNodes) {
  // Attach at node 0, then invoke an object on node 1 and receive the event
  // THERE: "these handlers remain active for the thread regardless of where
  // the thread is currently executing" (§3.2).
  Cluster cluster(2);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);

  std::atomic<std::uint64_t> handled_at_node{0};
  cluster.procedures().register_procedure("where", [&](PerThreadCallCtx& ctx) {
    handled_at_node = ctx.thread.node().value();
    return Verdict::kResume;
  });
  const EventId ev = cluster.registry().register_event("WHERE");

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  auto obj = std::make_shared<objects::PassiveObject>("remote_spin");
  obj->define_entry("spin", [&](objects::CallCtx& ctx) -> Result<objects::Payload> {
    entered = true;
    while (!release.load()) {
      if (!ctx.manager.kernel().sleep_for(1ms).is_ok()) break;
    }
    return objects::Payload{};
  });
  const ObjectId oid = n1.objects.add_object(obj);

  const ThreadId tid = n0.kernel.spawn([&] {
    ASSERT_TRUE(n0.events.attach_handler(ev, "where", OWN_CONTEXT).is_ok());
    ASSERT_TRUE(n0.objects.invoke(oid, "spin", {}).is_ok());
  });
  while (!entered.load()) std::this_thread::sleep_for(1ms);
  // The thread is now executing at node 1; raise from node 0.
  ASSERT_TRUE(n0.events.raise(ev, tid).is_ok());
  for (int i = 0; i < 500 && handled_at_node.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(handled_at_node.load(), n1.id.value());
  release = true;
  ASSERT_TRUE(n0.kernel.join_thread(tid, 10s).is_ok());
}

TEST(Events, RaiseAndWaitReturnsHandlerVerdict) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  cluster.procedures().register_procedure("ack", [&](PerThreadCallCtx&) {
    return Verdict::kResume;
  });
  const EventId ev = cluster.registry().register_event("SYNC_PING");
  std::atomic<bool> ready{false};
  std::atomic<bool> release{false};
  const ThreadId target = n0.kernel.spawn([&] {
    ASSERT_TRUE(n0.events.attach_handler(ev, "ack", OWN_CONTEXT).is_ok());
    ready = true;
    while (!release.load()) {
      if (!n0.kernel.sleep_for(1ms).is_ok()) return;
    }
  });
  while (!ready.load()) std::this_thread::sleep_for(1ms);

  std::atomic<bool> got_verdict{false};
  const ThreadId raiser = n0.kernel.spawn([&] {
    auto verdict = n0.events.raise_and_wait(ev, target);
    got_verdict = verdict.is_ok() && verdict.value() == Verdict::kResume;
    release = true;
  });
  ASSERT_TRUE(n0.kernel.join_thread(raiser, 15s).is_ok());
  ASSERT_TRUE(n0.kernel.join_thread(target, 10s).is_ok());
  EXPECT_TRUE(got_verdict.load());
}

TEST(Events, RaiseExceptionRunsChainOnSurrogate) {
  // §6.1 exception shape: the thread raises at itself, suspends, the chain
  // runs on a surrogate that can inspect the suspended thread, then resumes.
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  std::atomic<bool> surrogate_differs{false};
  std::atomic<std::uint64_t> observed_tid{0};
  cluster.procedures().register_procedure("repair", [&](PerThreadCallCtx& ctx) {
    // We are NOT running on the suspended thread's carrier.
    surrogate_differs = kernel::Kernel::current() != &ctx.thread;
    observed_tid = ctx.thread.tid().value();
    return Verdict::kResume;
  });
  std::atomic<bool> resumed{false};
  const ThreadId tid = n0.kernel.spawn([&] {
    ASSERT_TRUE(n0.events
                    .attach_handler(sys::kDivideByZero, "repair", OWN_CONTEXT)
                    .is_ok());
    auto verdict = n0.events.raise_exception(sys::kDivideByZero, "pc=0xdead");
    resumed = verdict.is_ok() && verdict.value() == Verdict::kResume;
  });
  ASSERT_TRUE(n0.kernel.join_thread(tid, 10s).is_ok());
  EXPECT_TRUE(resumed.load());
  EXPECT_TRUE(surrogate_differs.load());
  EXPECT_EQ(observed_tid.load(), tid.value());
  EXPECT_EQ(n0.events.stats().surrogate_runs, 1u);
}

TEST(Events, RaiseExceptionTerminateVerdictTerminatesRaiser) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  cluster.procedures().register_procedure("fatal", [&](PerThreadCallCtx&) {
    return Verdict::kTerminate;
  });
  std::atomic<bool> after_terminated{false};
  const ThreadId tid = n0.kernel.spawn([&] {
    ASSERT_TRUE(n0.events
                    .attach_handler(sys::kDivideByZero, "fatal", OWN_CONTEXT)
                    .is_ok());
    auto verdict = n0.events.raise_exception(sys::kDivideByZero, "pc=0");
    after_terminated = verdict.is_ok() &&
                       verdict.value() == Verdict::kTerminate &&
                       kernel::Kernel::current()->terminated();
  });
  ASSERT_TRUE(n0.kernel.join_thread(tid, 10s).is_ok());
  EXPECT_TRUE(after_terminated.load());
}

TEST(Events, GroupRaiseReachesAllMembersAcrossNodes) {
  Cluster cluster(2);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  std::atomic<int> handled{0};
  cluster.procedures().register_procedure("gcount", [&](PerThreadCallCtx&) {
    handled++;
    return Verdict::kResume;
  });
  const EventId ev = cluster.registry().register_event("GROUP_POKE");
  const GroupId group = n0.kernel.create_group();
  kernel::SpawnOptions options;
  options.group = group;
  std::atomic<int> ready{0};
  std::atomic<bool> release{false};
  auto body = [&](runtime::NodeRuntime& node) {
    return [&]() {
      ASSERT_TRUE(node.events.attach_handler(ev, "gcount", OWN_CONTEXT).is_ok());
      ready++;
      while (!release.load()) {
        if (!node.kernel.sleep_for(1ms).is_ok()) return;
      }
    };
  };
  const ThreadId t0 = n0.kernel.spawn(body(n0), options);
  const ThreadId t1 = n1.kernel.spawn(body(n1), options);
  while (ready.load() < 2) std::this_thread::sleep_for(1ms);

  ASSERT_TRUE(n0.events.raise(ev, group).is_ok());
  for (int i = 0; i < 500 && handled.load() < 2; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(handled.load(), 2);
  release = true;
  ASSERT_TRUE(n0.kernel.join_thread(t0).is_ok());
  ASSERT_TRUE(n1.kernel.join_thread(t1).is_ok());
}

TEST(Events, ObjectEventRunsRegisteredHandler) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  std::atomic<int> handled{0};
  auto obj = std::make_shared<objects::PassiveObject>("my_object");
  obj->define_entry(
      "my_delete_handler",
      [&](objects::CallCtx&) -> Result<objects::Payload> {
        handled++;
        return objects::Payload{};
      },
      objects::Visibility::kPrivate);
  obj->define_handler("DELETE", "my_delete_handler");
  const ObjectId oid = n0.objects.add_object(obj);

  ASSERT_TRUE(n0.events.raise(sys::kDelete, oid).is_ok());
  for (int i = 0; i < 500 && handled.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(handled.load(), 1);
  EXPECT_EQ(n0.events.stats().object_handlers_run, 1u);
}

TEST(Events, ObjectDeleteDefaultRemovesObject) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  const ObjectId oid =
      n0.objects.add_object(std::make_shared<objects::PassiveObject>("gone"));
  ASSERT_TRUE(n0.events.raise(sys::kDelete, oid).is_ok());
  for (int i = 0; i < 500 && n0.objects.find(oid) != nullptr; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(n0.objects.find(oid), nullptr);
}

TEST(Events, ObjectEventFromRemoteNode) {
  Cluster cluster(2);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  std::atomic<int> handled{0};
  auto obj = std::make_shared<objects::PassiveObject>("remote_target");
  obj->define_entry(
      "on_ping",
      [&](objects::CallCtx&) -> Result<objects::Payload> {
        handled++;
        return objects::Payload{};
      },
      objects::Visibility::kPrivate);
  obj->define_handler("PING", "on_ping");
  const ObjectId oid = n1.objects.add_object(obj);

  ASSERT_TRUE(n0.events.raise(sys::kPing, oid).is_ok());
  for (int i = 0; i < 500 && handled.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(handled.load(), 1);
}

TEST(Events, SyncObjectRaiseResumesWithHandlerVerdict) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  auto obj = std::make_shared<objects::PassiveObject>("sync_object");
  obj->define_entry(
      "on_commit",
      [&](objects::CallCtx&) -> Result<objects::Payload> {
        return verdict_bytes(Verdict::kResume);
      },
      objects::Visibility::kPrivate);
  obj->define_handler("COMMIT", "on_commit");
  const ObjectId oid = n0.objects.add_object(obj);
  const EventId commit = cluster.registry().register_event("COMMIT");

  auto verdict = n0.events.raise_and_wait(commit, oid);
  ASSERT_TRUE(verdict.is_ok()) << verdict.status().to_string();
  EXPECT_EQ(verdict.value(), Verdict::kResume);
}

TEST(Events, PassiveObjectActivatedOnEvent) {
  // §3.1/§4.3: events reach objects that exist only in the persistent store.
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  std::atomic<int>* counter = new std::atomic<int>{0};  // outlives factory copies
  n0.factory.register_type("sleeper", [counter, &n0] {
    auto obj = std::make_shared<objects::PassiveObject>("sleeper");
    obj->define_entry(
        "on_ping",
        [counter](objects::CallCtx&) -> Result<objects::Payload> {
          (*counter)++;
          return objects::Payload{};
        },
        objects::Visibility::kPrivate);
    obj->define_handler("PING", "on_ping");
    return obj;
  });
  n0.events.set_activation_hook(
      [&n0](ObjectId id) { return n0.store.activate(id); });

  auto made = n0.factory.make("sleeper");
  ASSERT_TRUE(made.is_ok());
  const ObjectId oid = n0.objects.add_object(made.value());
  ASSERT_TRUE(n0.store.deactivate(oid).is_ok());
  ASSERT_EQ(n0.objects.find(oid), nullptr);

  ASSERT_TRUE(n0.events.raise(sys::kPing, oid).is_ok());
  for (int i = 0; i < 500 && counter->load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(counter->load(), 1);
  EXPECT_NE(n0.objects.find(oid), nullptr);  // re-activated
  delete counter;
}

TEST(Events, ThreadPerEventDispatchMode) {
  runtime::ClusterConfig config;
  config.node.events.dispatch_mode = ObjectDispatchMode::kThreadPerEvent;
  Cluster cluster(1, config);
  auto& n0 = cluster.node(0);
  std::atomic<int> handled{0};
  auto obj = std::make_shared<objects::PassiveObject>("pte");
  obj->define_entry(
      "on_ping",
      [&](objects::CallCtx&) -> Result<objects::Payload> {
        handled++;
        return objects::Payload{};
      },
      objects::Visibility::kPrivate);
  obj->define_handler("PING", "on_ping");
  const ObjectId oid = n0.objects.add_object(obj);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(n0.events.raise(sys::kPing, oid).is_ok());
  }
  for (int i = 0; i < 500 && handled.load() < 8; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(handled.load(), 8);
}

// §5.3 table, all six rows exercised through one fixture.
class AddressingTableTest : public ::testing::Test {};

TEST_F(AddressingTableTest, AllSixRaiseShapes) {
  Cluster cluster(2);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  std::atomic<int> thread_hits{0};
  cluster.procedures().register_procedure("t", [&](PerThreadCallCtx&) {
    thread_hits++;
    return Verdict::kResume;
  });
  const EventId ev = cluster.registry().register_event("TABLE_EVENT");

  std::atomic<int> object_hits{0};
  auto obj = std::make_shared<objects::PassiveObject>("table_object");
  obj->define_entry(
      "h",
      [&](objects::CallCtx&) -> Result<objects::Payload> {
        object_hits++;
        return verdict_bytes(Verdict::kResume);
      },
      objects::Visibility::kPrivate);
  obj->define_handler("TABLE_EVENT", "h");
  const ObjectId oid = n1.objects.add_object(obj);

  const GroupId group = n0.kernel.create_group();
  kernel::SpawnOptions options;
  options.group = group;
  std::atomic<int> ready{0};
  std::atomic<bool> release{false};
  auto member = [&](runtime::NodeRuntime& node) {
    return [&]() {
      ASSERT_TRUE(node.events.attach_handler(ev, "t", OWN_CONTEXT).is_ok());
      ready++;
      while (!release.load()) {
        if (!node.kernel.sleep_for(1ms).is_ok()) return;
      }
    };
  };
  const ThreadId t0 = n0.kernel.spawn(member(n0), options);
  const ThreadId t1 = n1.kernel.spawn(member(n1), options);
  while (ready.load() < 2) std::this_thread::sleep_for(1ms);

  // Row 1: raise(e, tid)
  ASSERT_TRUE(n0.events.raise(ev, t1).is_ok());
  // Row 2: raise(e, gtid)
  ASSERT_TRUE(n0.events.raise(ev, group).is_ok());
  // Row 3: raise(e, oid)
  ASSERT_TRUE(n0.events.raise(ev, oid).is_ok());
  // Rows 4-6: synchronous variants, raised from a logical thread.
  std::atomic<int> sync_ok{0};
  const ThreadId raiser = n0.kernel.spawn([&] {
    if (n0.events.raise_and_wait(ev, t1).is_ok()) sync_ok++;
    if (n0.events.raise_and_wait(ev, group).is_ok()) sync_ok++;
    if (n0.events.raise_and_wait(ev, oid).is_ok()) sync_ok++;
  });
  ASSERT_TRUE(n0.kernel.join_thread(raiser, 30s).is_ok());
  EXPECT_EQ(sync_ok.load(), 3);
  // thread hits: row1(1) + row2(2) + row4(1) + row5(>=1, first resumer wins
  // but both members still handle) = 2
  for (int i = 0; i < 500 && thread_hits.load() < 6; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(thread_hits.load(), 6);  // 1 + 2 + 1 + 2
  EXPECT_EQ(object_hits.load(), 2);  // row 3 + row 6
  release = true;
  ASSERT_TRUE(n0.kernel.join_thread(t0).is_ok());
  ASSERT_TRUE(n1.kernel.join_thread(t1).is_ok());
}

}  // namespace
}  // namespace doct::events
