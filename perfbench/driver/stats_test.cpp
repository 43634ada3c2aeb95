// Tests of the benchmark's own arithmetic (stats.hpp).  Built as
// perfbench_selftest; run through `python3 perfbench/run.py --self-test`.
#include <cmath>
#include <cstdio>

#include "stats.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

#define EXPECT(cond)                                              \
  do {                                                            \
    if (!(cond)) {                                                \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                               \
    }                                                             \
  } while (0)

bool near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void percentile_rule() {
  // p99 of 1000 samples leaves exactly 10 beyond it.
  EXPECT(tail_rank(1000, 0.99) == 990);
  // Fewer samples: the reported percentile drops until 10 lie beyond it.
  EXPECT(tail_rank(500, 0.99) == 490);
  EXPECT(tail_rank(200, 0.99) == 190);
  // Too few samples for the rule: rank 1, never out of range.
  EXPECT(tail_rank(10, 0.99) == 1);
  EXPECT(tail_rank(1, 0.99) == 1);
  EXPECT(tail_rank(0, 0.99) == 0);
  // The median needs nothing beyond it.
  EXPECT(tail_rank(1000, 0.5, 0) == 500);

  const Summary big = summarize(ramp(1000));
  EXPECT(near(big.p50, 500));
  EXPECT(near(big.tail, 990));
  EXPECT(near(big.tail_q, 0.99));
  EXPECT(big.beyond == 10);

  const Summary small = summarize(ramp(200));
  EXPECT(near(small.tail, 190));
  EXPECT(near(small.tail_q, 0.95));
  EXPECT(small.beyond == 10);
}

void failed_ops_miss_the_limit() {
  // 980 fast ops and 20 failed: the p99 rank lands on a failed op.
  std::vector<double> fast(980, 10.0);
  const Summary s = summarize(fast, 20);
  EXPECT(s.n == 1000);
  EXPECT(s.failed == 20);
  EXPECT(near(s.tail, kFailedUs));
  EXPECT(!meets_limit(s, 1e6));

  // Failures inside the 1% beyond the tail still leave the limit met.
  const Summary few = summarize(std::vector<double>(990, 10.0), 10);
  EXPECT(near(few.tail, 10.0));
  EXPECT(meets_limit(few, 100));

  // Every op failed: no latency limit is met, however generous.
  const Summary all = summarize({}, 50);
  EXPECT(near(all.p50, kFailedUs));
  EXPECT(!meets_limit(all, 1e8));
  EXPECT(!meets_limit(summarize({}), 1e8));
}

void windows() {
  // Ten windows of 1000 ops at 10 us, one of which a host stall hit.
  std::vector<double> seq(10'000, 10.0);
  for (std::size_t i = 3'000; i < 3'150; ++i) seq[i] = 5'000;
  const Windowed w = windowed({seq}, 1000);
  EXPECT(w.windows == 10);
  EXPECT(w.ops == 10'000);
  EXPECT(near(w.p50, 10));
  EXPECT(near(w.tail, 10));  // the stalled window's p99 is not the median
  // The same ops as one window: the stall sets the p99.
  EXPECT(near(summarize(seq).tail, 5'000));

  // A partial last window joins the one before; short sequences make one
  // window that still follows the percentile rule.
  const Windowed tail = windowed({ramp(2'500), ramp(200)}, 1000);
  EXPECT(tail.windows == 3);
  EXPECT(near(tail.tail_q, 0.95));

  // Failed ops (kFailedUs) are counted and sit above every limit: a window
  // where more than 1% failed reports a failed tail.
  std::vector<double> failing(3'000, 10.0);
  for (std::size_t i = 0; i < 3'000; i += 50) failing[i] = kFailedUs;
  const Windowed f = windowed({failing}, 1000);
  EXPECT(f.failed == 60);
  EXPECT(near(f.tail, kFailedUs));
  EXPECT(near(median_of({3, 1, 2, 10}), 2.5));
}

void self_time() {
  std::vector<Span> spans = {
      {1, 0, 1, 0, 0, 0, 100},    // root [0, 100]
      {2, 1, 1, 0, 0, 10, 30},    // child [10, 30]
      {3, 1, 1, 0, 0, 20, 50},    // child overlapping it [20, 50]
      {4, 2, 1, 0, 0, 15, 25},    // grandchild, nested in span 2
      {5, 1, 1, 0, 0, 90, 120},   // child running past the root's end
      {6, 99, 1, 0, 0, 0, 5},     // parent unknown: a root of its own
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  // Root: children cover [10, 50] and [90, 100] once each.
  EXPECT(self[0] == 100 - 40 - 10);
  // Span 2 minus its nested grandchild.
  EXPECT(self[1] == 20 - 10);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 10);
  EXPECT(self[4] == 30);
  EXPECT(self[5] == 5);

  // Two identical children count once.
  const std::vector<Span> twins = {
      {1, 0, 1, 0, 0, 0, 10}, {2, 1, 1, 0, 0, 2, 6}, {3, 1, 1, 0, 0, 2, 6}};
  EXPECT(self_times_ns(twins)[0] == 6);
}

void open_loop() {
  // The same seed gives the same schedule.
  Rng a(42), b(42);
  EXPECT(poisson_dues(a, 1000, 0, 1'000'000'000) ==
         poisson_dues(b, 1000, 0, 1'000'000'000));
  // Mean gap close to 1/rate (100k arrivals: within 2%).
  Rng r(7);
  const auto dues = poisson_dues(r, 100'000, 5, 1'000'000'000);
  EXPECT(std::fabs(static_cast<double>(dues.size()) - 100'000) < 2'000);
  EXPECT(dues.front() >= 5 && dues.back() < 1'000'000'005);

  // A generator that stalls: ops due every 100 us, sent at 0, 250, 251 and
  // 300 us, each handled 5 us after it was sent.  Timed from the due time,
  // the stall charges the ops queued behind it; timed from the send, it
  // would vanish.
  const std::int64_t due[] = {0, 100'000, 200'000, 300'000};
  const std::int64_t sent[] = {0, 250'000, 251'000, 300'000};
  const double want_latency[] = {5, 155, 56, 5};
  const double want_late[] = {0, 150, 51, 0};
  for (int i = 0; i < 4; ++i) {
    EXPECT(near(due_latency_us(due[i], sent[i] + 5'000), want_latency[i]));
    EXPECT(near(lateness_us(due[i], sent[i]), want_late[i]));
  }
  // Early is not negative lateness.
  EXPECT(near(lateness_us(1'000, 0), 0));
}

void sustained() {
  const auto step = [](double rate, double tail_us, std::size_t backlog) {
    RateStep s;
    s.offered_per_s = rate;
    s.latency = summarize(std::vector<double>(1000, tail_us));
    s.backlog_at_end = backlog;
    return s;
  };
  const double limit = 1000;
  EXPECT(near(sustained_rate({step(1000, 50, 0), step(2000, 80, 0),
                              step(3000, 5000, 0)},
                             limit),
              2000));
  // A growing backlog disqualifies a step even when its tail is fine:
  // 2000/s may keep 2 ops in flight within the limit, plus the slack.
  EXPECT(backlog_growing(step(2000, 80, 100), limit));
  EXPECT(!backlog_growing(step(2000, 80, 18), limit));
  EXPECT(near(sustained_rate({step(1000, 50, 0), step(2000, 80, 100),
                              step(3000, 90, 0)},
                             limit),
              1000));
  // A later step passing again does not count past a failed one.
  EXPECT(near(sustained_rate({step(1000, 5000, 0), step(2000, 80, 0)}, limit), 0));
  // A failed op in a step is a sample above the limit.
  RateStep failing = step(1000, 50, 0);
  failing.latency = summarize(std::vector<double>(900, 50), 100);
  EXPECT(near(sustained_rate({failing}, limit), 0));
}

void zipf_and_rng() {
  Rng rng(3);
  const Zipf zipf(18, 1.0);
  std::vector<int> hits(18, 0);
  for (int i = 0; i < 100'000; ++i) ++hits[zipf.sample(rng)];
  EXPECT(hits[0] > hits[1] && hits[1] > hits[5] && hits[5] > hits[17]);
  // Rank 1 of Zipf(18, 1) draws 1/H(18) ~ 28.9% of samples.
  EXPECT(std::fabs(hits[0] / 100'000.0 - 0.2889) < 0.01);
  Rng u(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = u.unit();
    EXPECT(x > 0 && x <= 1);
  }
}

}  // namespace

int main() {
  percentile_rule();
  failed_ops_miss_the_limit();
  windows();
  self_time();
  open_loop();
  sustained();
  zipf_and_rng();
  std::printf("perfbench_selftest: %s\n", g_failures == 0 ? "all passed" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
