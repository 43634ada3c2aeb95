// Unit tests for src/common: ids, Result/Status, serialization, clock, rng.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/id_gen.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace doct {
namespace {

TEST(TypedId, DefaultIsInvalid) {
  ThreadId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.value(), ThreadId::kInvalid);
}

TEST(TypedId, DistinctTypesDoNotCompare) {
  ThreadId t{7};
  ObjectId o{7};
  EXPECT_TRUE(t.valid());
  EXPECT_TRUE(o.valid());
  // Would not compile: t == o.  The types are unrelated.
  EXPECT_EQ(t.value(), o.value());
}

TEST(TypedId, OrderingAndToString) {
  EXPECT_LT(NodeId{1}, NodeId{2});
  EXPECT_EQ(NodeId{3}.to_string(), "node:3");
  EXPECT_EQ(EventId{9}.to_string(), "evt:9");
}

TEST(IdGenerator, MonotoneAndUnique) {
  IdGenerator gen;
  auto a = gen.next<ObjectTag>();
  auto b = gen.next<ObjectTag>();
  EXPECT_TRUE(a.valid());
  EXPECT_NE(a, b);
  EXPECT_LT(a.value(), b.value());
}

TEST(IdGenerator, ThreadIdEncodesRootNode) {
  IdGenerator gen;
  const NodeId root{42};
  const ThreadId tid = gen.next_thread_id(root);
  EXPECT_TRUE(tid.valid());
  EXPECT_EQ(IdGenerator::thread_root_node(tid), root);
}

TEST(IdGenerator, RootNodeRecoverableForManyNodes) {
  IdGenerator gen;
  for (std::uint64_t n = 1; n < 100; ++n) {
    const ThreadId tid = gen.next_thread_id(NodeId{n});
    EXPECT_EQ(IdGenerator::thread_root_node(tid).value(), n);
  }
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s{StatusCode::kDeadTarget, "thr:9"};
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadTarget);
  EXPECT_EQ(s.to_string(), "DEAD_TARGET: thr:9");
}

TEST(Status, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(status_code_name(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r{42};
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsError) {
  Result<int> r{Status{StatusCode::kTimeout, "t"}};
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Serialize, RoundTripScalars) {
  Writer w;
  w.put(std::uint32_t{0xDEADBEEF});
  w.put(std::int64_t{-12345});
  w.put(3.5);
  w.put(true);
  Reader r(std::move(w).take());
  EXPECT_EQ(r.get<std::uint32_t>(), 0xDEADBEEF);
  EXPECT_EQ(r.get<std::int64_t>(), -12345);
  EXPECT_EQ(r.get<double>(), 3.5);
  EXPECT_TRUE(r.get_bool());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, RoundTripStringsAndBytes) {
  Writer w;
  w.put(std::string("TERMINATE"));
  w.put(std::vector<std::uint8_t>{1, 2, 3});
  w.put(std::string(""));
  Reader r(std::move(w).take());
  EXPECT_EQ(r.get_string(), "TERMINATE");
  EXPECT_EQ(r.get_bytes(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, RoundTripIds) {
  Writer w;
  w.put(ThreadId{77});
  w.put(ObjectId{88});
  Reader r(std::move(w).take());
  EXPECT_EQ(r.get_id<ThreadTag>(), ThreadId{77});
  EXPECT_EQ(r.get_id<ObjectTag>(), ObjectId{88});
}

TEST(Serialize, RoundTripStringMap) {
  std::map<std::string, std::string> m{{"io", "tty0"}, {"creator", "thr:1"}};
  Writer w;
  w.put(m);
  Reader r(std::move(w).take());
  EXPECT_EQ(r.get_string_map(), m);
}

TEST(Serialize, UnderrunThrows) {
  Writer w;
  w.put(std::uint8_t{1});
  Reader r(std::move(w).take());
  (void)r.get<std::uint8_t>();
  EXPECT_THROW((void)r.get<std::uint64_t>(), DeserializeError);
}

TEST(Serialize, TruncatedStringThrows) {
  Writer w;
  w.put(std::uint32_t{100});  // claims 100 bytes, provides none
  Reader r(std::move(w).take());
  EXPECT_THROW((void)r.get_string(), DeserializeError);
}

TEST(SimClock, AdvancesManually) {
  SimClock clock;
  EXPECT_EQ(clock.now(), Duration{0});
  clock.advance(std::chrono::microseconds(250));
  EXPECT_EQ(clock.now(), std::chrono::microseconds(250));
}

TEST(SimClock, SleepUntilWakesOnAdvance) {
  SimClock clock;
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.sleep_until(std::chrono::microseconds(100));
    woke = true;
  });
  clock.advance(std::chrono::microseconds(99));
  EXPECT_FALSE(woke.load());
  clock.advance(std::chrono::microseconds(1));
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

TEST(SimClock, StopReleasesSleepers) {
  SimClock clock;
  std::thread sleeper([&] { clock.sleep_until(std::chrono::hours(1)); });
  clock.stop();
  sleeper.join();
}

TEST(SteadyClock, MonotoneNonDecreasing) {
  SteadyClock clock;
  const auto a = clock.now();
  const auto b = clock.now();
  EXPECT_LE(a, b);
}

TEST(SplitMix64, DeterministicForSeed) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, UniformInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(10), 10u);
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

class RngChanceTest : public ::testing::TestWithParam<double> {};

TEST_P(RngChanceTest, EmpiricalRateWithinTolerance) {
  const double p = GetParam();
  SplitMix64 rng(99);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += rng.chance(p) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, p, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, RngChanceTest,
                         ::testing::Values(0.0, 0.1, 0.5, 0.9, 1.0));

}  // namespace
}  // namespace doct
