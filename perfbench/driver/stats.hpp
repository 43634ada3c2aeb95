// The benchmark's own arithmetic: the percentile rule, latency summaries in
// which a failed op counts as missing every limit, span self time, open-loop
// schedules with generator lateness, and the sustained-rate rule.  Pure
// functions over plain data, so stats_test.cpp can pin each rule down.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

namespace perfbench {

// Latency recorded for an op that failed, was refused, lost, out of order or
// timed out.  Larger than any limit the benchmark uses, so a failed op is a
// sample above every latency limit.
inline constexpr double kFailedUs = 1e9;

// Samples a reported tail percentile must leave beyond it.
inline constexpr std::size_t kMinBeyond = 10;

// Nearest-rank position (1-based) of quantile q among n samples, reduced
// until at least `min_beyond` samples lie beyond it.  With fewer than
// min_beyond + 1 samples the rule cannot hold and rank 1 comes back.
inline std::size_t tail_rank(std::size_t n, double q,
                             std::size_t min_beyond = kMinBeyond) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) rank = n > min_beyond ? n - min_beyond : 1;
  return rank;
}

struct Summary {
  std::size_t n = 0;       // samples, failed ops included
  std::size_t failed = 0;  // samples that are failed ops
  double p50 = 0;
  double tail = 0;         // value at tail_q
  double tail_q = 0;       // the percentile actually reported (rank / n)
  std::size_t beyond = 0;  // samples above the tail rank
};

// Summarises latencies (microseconds).  `want_tail` is the tail percentile
// asked for (0.99); the reported one is lower when too few samples lie
// beyond it.  Each failed op adds one kFailedUs sample.
inline Summary summarize(std::vector<double> samples, std::size_t failed = 0,
                         double want_tail = 0.99) {
  Summary s;
  samples.insert(samples.end(), failed, kFailedUs);
  s.n = samples.size();
  s.failed = failed;
  if (s.n == 0) return s;
  const auto at = [&samples](std::size_t rank) {
    auto it = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(samples.begin(), it, samples.end());
    return *it;
  };
  const std::size_t mid = tail_rank(s.n, 0.5, 0);
  s.p50 = at(mid);
  const std::size_t rank = tail_rank(s.n, want_tail);
  s.tail = at(rank);
  s.tail_q = static_cast<double>(rank) / static_cast<double>(s.n);
  s.beyond = s.n - rank;
  return s;
}

// True when the reported tail meets `limit_us`.  A failed op is a kFailedUs
// sample, so failures past the tail rank make the limit fail.
inline bool meets_limit(const Summary& s, double limit_us) {
  return s.n > 0 && s.tail <= limit_us;
}

// Latencies cut into consecutive windows of `window` ops, each summarised
// on its own; the result is the median window.  A stall of the shared host
// lands in a few windows and moves the median little, where it would set
// the p99 of the whole run.  Each sequence holds one source's ops in the
// order they ran, failed ops as kFailedUs; windows never span two
// sequences, and a sequence's last partial window joins the one before.
struct Windowed {
  std::size_t windows = 0;
  std::size_t ops = 0;
  std::size_t failed = 0;
  double p50 = 0;       // median over windows of the window p50
  double tail = 0;      // median over windows of the window tail
  double tail_q = 0;    // smallest tail percentile any window reported
};

inline double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline Windowed windowed(const std::vector<std::vector<double>>& sequences,
                         std::size_t window, double want_tail = 0.99) {
  Windowed out;
  out.tail_q = 1;
  std::vector<double> p50s, tails;
  for (const auto& seq : sequences) {
    const std::size_t full = std::max<std::size_t>(1, seq.size() / window);
    for (std::size_t w = 0; w < full && !seq.empty(); ++w) {
      const auto begin = seq.begin() + static_cast<std::ptrdiff_t>(w * window);
      const auto end = w + 1 == full ? seq.end() : begin + static_cast<std::ptrdiff_t>(window);
      std::vector<double> ok;
      std::size_t failed = 0;
      for (auto it = begin; it != end; ++it) {
        if (*it >= kFailedUs) {
          ++failed;
        } else {
          ok.push_back(*it);
        }
      }
      const Summary s = summarize(std::move(ok), failed, want_tail);
      p50s.push_back(s.p50);
      tails.push_back(s.tail);
      out.tail_q = std::min(out.tail_q, s.tail_q);
      out.ops += s.n;
      out.failed += failed;
      ++out.windows;
    }
  }
  out.p50 = median_of(p50s);
  out.tail = median_of(tails);
  return out;
}

// --- spans --------------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;
  std::uint32_t name = 0;    // index into the recorder's name table
  std::uint32_t tid = 0;     // recording OS thread, for the trace viewer
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Self time of each span: its duration minus the part of [start, end] that
// its direct children cover.  Overlapping children count once; the parts of
// a child outside its parent's interval do not count.
inline std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it != index.end()) kids[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& cover = kids[i];
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // end of the covered prefix so far
    for (auto [a, b] : cover) {
      a = std::max(a, reach);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    out[i] = (hi - lo) - covered;
  }
  return out;
}

// --- open loop ------------------------------------------------------------------

// splitmix64: the benchmark's only random source, so one seed gives the same
// inputs with any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  // Uniform in (0, 1].
  double unit() {
    return static_cast<double>((next() >> 11) + 1) * 0x1.0p-53;
  }
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

// Due times (ns after `start_ns`) of a Poisson arrival process at
// `rate_per_s`, covering [start_ns, start_ns + span_ns).
inline std::vector<std::int64_t> poisson_dues(Rng& rng, double rate_per_s,
                                              std::int64_t start_ns,
                                              std::int64_t span_ns) {
  std::vector<std::int64_t> dues;
  dues.reserve(static_cast<std::size_t>(rate_per_s * 1e-9 *
                                        static_cast<double>(span_ns) * 1.1) +
               16);
  double t = 0;
  const double mean_gap_ns = 1e9 / rate_per_s;
  while (true) {
    t += -std::log(rng.unit()) * mean_gap_ns;
    if (t >= static_cast<double>(span_ns)) break;
    dues.push_back(start_ns + static_cast<std::int64_t>(t));
  }
  return dues;
}

// Open-loop op latency: from when the op was due, not from when the
// generator got round to sending it, so a stall charges every op queued
// behind it.
inline double due_latency_us(std::int64_t due_ns, std::int64_t done_ns) {
  return static_cast<double>(done_ns - due_ns) * 1e-3;
}

// How late the generator sent an op (never negative: it waits for the due
// time).
inline double lateness_us(std::int64_t due_ns, std::int64_t sent_ns) {
  return std::max<double>(0, static_cast<double>(sent_ns - due_ns) * 1e-3);
}

// Zipf(s) over n ranks: cumulative weights for inverse-CDF sampling.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t sample(Rng& rng) const {
    const double u = rng.unit();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// --- sustained rate -------------------------------------------------------------

struct RateStep {
  double offered_per_s = 0;
  Summary latency;
  // Ops raised but not yet handled when the step's schedule ended.
  std::size_t backlog_at_end = 0;
};

// A backlog grows when, at the end of a step, more ops are outstanding than
// the limit lets the offered rate keep in flight (plus a small slack for
// ops that were only just sent).
inline bool backlog_growing(const RateStep& step, double limit_us) {
  const double in_flight = step.offered_per_s * limit_us * 1e-6;
  return static_cast<double>(step.backlog_at_end) > in_flight + 16;
}

// The highest offered rate of the ladder (ascending) below which every step
// met the limit with no growing backlog; 0 when the first step failed.
inline double sustained_rate(const std::vector<RateStep>& ladder,
                             double limit_us) {
  double best = 0;
  for (const RateStep& step : ladder) {
    if (!meets_limit(step.latency, limit_us) ||
        backlog_growing(step, limit_us)) {
      break;
    }
    best = step.offered_per_s;
  }
  return best;
}

}  // namespace perfbench
