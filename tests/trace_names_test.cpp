// Tests for the event lifecycle as recorded on the causal trace, and the
// name service.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/runtime.hpp"
#include "services/names/name_service.hpp"

namespace doct {
namespace {

using namespace std::chrono_literals;
using kernel::Verdict;
using runtime::Cluster;

// Tracing is process-global and off by default; each lifecycle test turns
// it on for its own scope (every ctest entry is its own process).
struct TracingOn {
  TracingOn() {
    obs::tracer().clear();
    obs::set_tracing_enabled(true);
  }
  ~TracingOn() { obs::set_tracing_enabled(false); }
};

std::vector<obs::Span> spans_named(const std::string& name,
                                   const std::string& detail) {
  std::vector<obs::Span> out;
  for (const obs::Span& span : obs::tracer().snapshot()) {
    if (span.name == name && span.detail == detail) out.push_back(span);
  }
  return out;
}

// The span called `name` on trace `trace_id`, waiting for late recorders
// (a span is recorded when it closes, possibly on another thread).
std::optional<obs::Span> await_span(std::uint64_t trace_id,
                                    const std::string& name) {
  for (int i = 0; i < 2000; ++i) {
    for (const obs::Span& span : obs::tracer().snapshot()) {
      if (span.trace_id == trace_id && span.name == name) return span;
    }
    std::this_thread::sleep_for(1ms);
  }
  return std::nullopt;
}

TEST(Trace, DisabledByDefaultRecordsNothing) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  EXPECT_FALSE(obs::tracing_enabled());
  const EventId ev = cluster.registry().register_event("UNTRACED");
  const ThreadId tid = n0.kernel.spawn([&] { n0.kernel.sleep_for(5ms); });
  (void)n0.events.raise(ev, tid);
  ASSERT_TRUE(n0.kernel.join_thread(tid, 10s).is_ok());
  EXPECT_TRUE(obs::tracer().snapshot().empty());
  // Nothing turned tracing on or armed the flight recorder, so the record
  // ring was never even allocated.
  EXPECT_EQ(obs::flight().capacity(), 0u);
}

// raise -> deliver -> handle, all on the trace the raise minted.
TEST(Trace, RecordsFullLifecycleOfHandledEvent) {
  const TracingOn tracing;
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  std::atomic<int> handled{0};
  cluster.procedures().register_procedure("traced_h",
                                          [&](events::PerThreadCallCtx&) {
                                            handled++;
                                            return Verdict::kResume;
                                          });
  const EventId ev = cluster.registry().register_event("TRACED");
  std::atomic<bool> armed{false};
  std::atomic<bool> release{false};
  const ThreadId tid = n0.kernel.spawn([&] {
    ASSERT_TRUE(
        n0.events.attach_handler(ev, "traced_h", events::OWN_CONTEXT).is_ok());
    armed = true;
    while (!release.load()) {
      if (!n0.kernel.sleep_for(1ms).is_ok()) return;
    }
  });
  while (!armed.load()) std::this_thread::sleep_for(1ms);
  ASSERT_TRUE(n0.events.raise(ev, tid).is_ok());
  for (int i = 0; i < 1000 && handled.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(handled.load(), 1);

  const std::vector<obs::Span> raises = spans_named("raise", "TRACED");
  ASSERT_EQ(raises.size(), 1u);
  const obs::Span& raise = raises.front();
  const auto deliver = await_span(raise.trace_id, "deliver");
  const auto handle = await_span(raise.trace_id, "handle");
  release = true;
  ASSERT_TRUE(n0.kernel.join_thread(tid, 10s).is_ok());

  ASSERT_TRUE(deliver.has_value());
  ASSERT_TRUE(handle.has_value());
  EXPECT_EQ(raise.parent_span, 0u);  // the raise roots the trace
  EXPECT_EQ(deliver->parent_span, raise.span_id);
  EXPECT_EQ(handle->parent_span, raise.span_id);
  EXPECT_STREQ(deliver->detail, "TRACED");
  EXPECT_STREQ(handle->detail, "TRACED");
  // Lifecycle order by start time: raised, queued at the target, handled.
  EXPECT_LE(raise.start_us, deliver->start_us);
  EXPECT_LE(deliver->start_us, handle->start_us);
}

// The two outcomes without a span of their own leave zero-duration marks.
TEST(Trace, RecordsDefaultActionAndDeadTarget) {
  const TracingOn tracing;
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  const EventId ev = cluster.registry().register_event("TRACED_DEFAULT");
  std::atomic<bool> armed{false};
  std::atomic<bool> release{false};
  const ThreadId tid = n0.kernel.spawn([&] {
    armed = true;
    while (!release.load()) {
      if (!n0.kernel.sleep_for(1ms).is_ok()) return;
    }
  });
  while (!armed.load()) std::this_thread::sleep_for(1ms);
  ASSERT_TRUE(n0.events.raise(ev, tid).is_ok());
  const std::vector<obs::Span> handled = spans_named("raise", "TRACED_DEFAULT");
  ASSERT_EQ(handled.size(), 1u);
  const auto applied = await_span(handled.front().trace_id, "default");
  release = true;
  ASSERT_TRUE(n0.kernel.join_thread(tid, 10s).is_ok());

  ASSERT_TRUE(applied.has_value());
  EXPECT_EQ(applied->dur_us, 0);
  EXPECT_STREQ(applied->detail, "TRACED_DEFAULT");
  // Child of the handle span that ran the (empty) chain.
  const auto handle = await_span(handled.front().trace_id, "handle");
  ASSERT_TRUE(handle.has_value());
  EXPECT_EQ(applied->parent_span, handle->span_id);

  // Dead target: a second raise, a second trace, marked under its raise.
  ASSERT_EQ(n0.events.raise(ev, tid).code(), StatusCode::kDeadTarget);
  const std::vector<obs::Span> raises = spans_named("raise", "TRACED_DEFAULT");
  ASSERT_EQ(raises.size(), 2u);
  const obs::Span& dead_raise = raises.back();
  EXPECT_NE(dead_raise.trace_id, handled.front().trace_id);
  const auto dead = await_span(dead_raise.trace_id, "dead_target");
  ASSERT_TRUE(dead.has_value());
  EXPECT_EQ(dead->dur_us, 0);
  EXPECT_EQ(dead->parent_span, dead_raise.span_id);
}

// --- name service ---------------------------------------------------------------

TEST(Names, BindLookupUnbindRoundTrip) {
  Cluster cluster(2);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);
  const ObjectId dir = n0.objects.add_object(services::NameService::make());
  services::NameClient names(n1.objects, dir, /*cache_lookups=*/false);

  const ObjectId monitor{(std::uint64_t{1} << 48) | 99};
  std::atomic<bool> ok{false};
  const ThreadId tid = n1.kernel.spawn([&] {
    ASSERT_TRUE(names.bind("services/monitor", monitor).is_ok());
    auto found = names.lookup("services/monitor");
    ASSERT_TRUE(found.is_ok());
    EXPECT_EQ(found.value(), monitor);
    ASSERT_TRUE(names.unbind("services/monitor").is_ok());
    ok = names.lookup("services/monitor").status().code() ==
         StatusCode::kNoSuchObject;
  });
  ASSERT_TRUE(n1.kernel.join_thread(tid, 15s).is_ok());
  EXPECT_TRUE(ok.load());
}

TEST(Names, BindUniqueRejectsCollision) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  const ObjectId dir = n0.objects.add_object(services::NameService::make());
  services::NameClient names(n0.objects, dir);
  ASSERT_TRUE(names.bind_unique("lock_server", ObjectId{1001}).is_ok());
  EXPECT_TRUE(names.bind_unique("lock_server", ObjectId{1001}).is_ok());  // same
  EXPECT_EQ(names.bind_unique("lock_server", ObjectId{1002}).code(),
            StatusCode::kAlreadyExists);
  // Plain bind may rebind.
  ASSERT_TRUE(names.bind("lock_server", ObjectId{1002}).is_ok());
}

TEST(Names, ValidationAndListing) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  const ObjectId dir = n0.objects.add_object(services::NameService::make());
  services::NameClient names(n0.objects, dir);
  EXPECT_EQ(names.bind("", ObjectId{5}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(names.bind("x", ObjectId{}).code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(names.bind("services/a", ObjectId{1}).is_ok());
  ASSERT_TRUE(names.bind("services/b", ObjectId{2}).is_ok());
  ASSERT_TRUE(names.bind("apps/c", ObjectId{3}).is_ok());
  auto services_names = names.list("services/");
  ASSERT_TRUE(services_names.is_ok());
  EXPECT_EQ(services_names.value().size(), 2u);
  auto all = names.list("");
  ASSERT_TRUE(all.is_ok());
  EXPECT_EQ(all.value().size(), 3u);
}

TEST(Names, CacheServesRepeatLookups) {
  Cluster cluster(1);
  auto& n0 = cluster.node(0);
  const ObjectId dir = n0.objects.add_object(services::NameService::make());
  services::NameClient names(n0.objects, dir, /*cache_lookups=*/true);
  ASSERT_TRUE(names.bind("cached", ObjectId{42}).is_ok());

  n0.objects.reset_stats();
  ASSERT_TRUE(names.lookup("cached").is_ok());  // served from the bind cache
  EXPECT_EQ(n0.objects.stats().invocations_local, 0u);

  names.drop_cache();
  ASSERT_TRUE(names.lookup("cached").is_ok());  // now hits the directory
  EXPECT_EQ(n0.objects.stats().invocations_local, 1u);
}

}  // namespace
}  // namespace doct
