// notify_open: an open loop of seeded Poisson events.raise() calls from 2
// generator threads on node 0 to passive objects and parked threads on
// nodes 1-3.  Targets follow a Zipf skew, so a few hot objects share
// reservation keys; payloads are a seeded mix of 32 B and 1 KiB.  The event
// lane runs at width 4 with reservations on.
//
// Each op is timed from its due time to the start of its handler, so a
// stalled generator charges every op queued behind it, and the generator's
// own lateness is reported beside the latencies.  A ladder of offered rates
// gives the sustained rate: the highest one whose tail meets kLimitUs with
// no growing backlog.  The end-to-end metrics come from steps at
// kReferenceRate, well under the generators' capacity, each on a fresh
// cluster.
#include <sys/prctl.h>

#include "world.hpp"

namespace perfbench {
namespace {

constexpr int kGenerators = 2;
constexpr int kObjectsPerNode = 4;
constexpr int kThreadsPerNode = 2;
constexpr int kRemoteNodes = 3;
constexpr double kZipfS = 1.0;
constexpr double kBigShare = 0.2;          // share of 1 KiB payloads
constexpr std::size_t kSmall = 32, kBig = 1024;
constexpr double kReferenceRate = 10000;   // ops/s over both generators
constexpr double kLadder[] = {10000, 20000, 40000, 60000, 80000};
constexpr double kLadderStepS = 0.5;
constexpr double kLimitUs = 2000;          // sustained-rate tail limit
constexpr std::int64_t kDrainNs = 3'000'000'000;
constexpr int kWarmOps = 300;              // per generator, every set-up

// One generator's share of a step: its Poisson schedule and targets, all
// drawn from the seed before the step starts.
struct GenPlan {
  std::vector<std::int64_t> due;  // offsets from the step start
  std::vector<std::uint16_t> target;
  std::vector<std::uint8_t> big;
  // Filled while the step runs.
  std::vector<std::int64_t> sent;
  std::vector<std::uint8_t> raise_failed;
  std::unique_ptr<std::atomic<std::int64_t>[]> handled;  // handler start
};

struct Step {
  std::uint32_t index = 0;
  std::int64_t start_ns = 0;
  std::int64_t span_ns = 0;     // length of the schedule
  bool traced = false;
  std::uint64_t span_base = 0;  // op span id = span_base + global op index
  std::vector<GenPlan> gens;
  std::atomic<std::size_t> duplicates{0};
  std::atomic<std::size_t> strays{0};
};

constexpr std::uint64_t kStepShift = 40;

class NotifyWorld {
 public:
  NotifyWorld()
      : cluster(4, config()),
        targets(cluster, kObjectsPerNode, kThreadsPerNode,
                [this](const std::vector<std::uint8_t>& data, std::int64_t s,
                       std::int64_t e) { on_handle(data, s, e); }),
        ledger(kGenerators, targets.size()) {}

  static runtime::ClusterConfig config() {
    runtime::ClusterConfig c;
    c.node.kernel.executor.event.width = 4;
    c.node.kernel.executor.reservations = true;
    return c;
  }

  // Draws the step's inputs from (seed, step index).
  std::unique_ptr<Step> plan(std::uint64_t seed, std::uint32_t index,
                             double rate, double seconds) {
    auto step = std::make_unique<Step>();
    step->index = index;
    step->span_ns = static_cast<std::int64_t>(seconds * 1e9);
    // Zipf rank -> target is fixed, so every seed has the same shape of hot
    // set: objects first, round-robin over nodes 1-3, then the threads.
    // The seed draws the arrivals, the targets and the payload sizes.
    std::vector<std::uint16_t> rank_to_target;
    for (int j = 0; j < kObjectsPerNode; ++j) {
      for (int n = 0; n < kRemoteNodes; ++n) {
        rank_to_target.push_back(static_cast<std::uint16_t>(n * kObjectsPerNode + j));
      }
    }
    for (int j = 0; j < kThreadsPerNode; ++j) {
      for (int n = 0; n < kRemoteNodes; ++n) {
        rank_to_target.push_back(static_cast<std::uint16_t>(
            targets.objects.size() + n * kThreadsPerNode + j));
      }
    }
    const Zipf zipf(targets.size(), kZipfS);
    for (int g = 0; g < kGenerators; ++g) {
      Rng rng(seed * 0x9E3779B97F4A7C15ULL + index * 131 + g + 1);
      GenPlan p;
      p.due = poisson_dues(rng, rate / kGenerators, 0,
                           static_cast<std::int64_t>(seconds * 1e9));
      for (std::size_t i = 0; i < p.due.size(); ++i) {
        p.target.push_back(rank_to_target[zipf.sample(rng)]);
        p.big.push_back(rng.unit() <= kBigShare);
      }
      const std::size_t n = p.due.size();
      p.sent.assign(n, 0);
      p.raise_failed.assign(n, 0);
      p.handled = std::make_unique<std::atomic<std::int64_t>[]>(n);
      for (std::size_t i = 0; i < n; ++i) p.handled[i].store(0);
      step->gens.push_back(std::move(p));
    }
    return step;
  }

  // Runs the step's schedule from now, then waits for its handlers.
  // Returns the backlog when the schedule ended: ops already due and not
  // yet handled, whether or not a late generator has sent them.
  std::size_t run(Step& step, std::vector<std::string>& errors) {
    step.start_ns = now_ns() + 2'000'000;
    if (step.traced) {
      std::size_t total = 0;
      for (const auto& g : step.gens) total += g.due.size();
      step.span_base = Tracer::get().reserve_ids(total);
    }
    current_.store(&step);
    std::vector<std::thread> gens;
    std::vector<std::vector<std::string>> gen_errors(kGenerators);
    for (int g = 0; g < kGenerators; ++g) {
      gens.emplace_back([this, &step, g, &gen_errors] {
        generate(step, g, gen_errors[g]);
      });
    }
    const auto outstanding = [&step] {
      std::size_t n = 0;
      for (const auto& g : step.gens) {
        for (std::size_t i = 0; i < g.due.size(); ++i) {
          n += !g.raise_failed[i] && g.handled[i].load() == 0;
        }
      }
      return n;
    };
    sleep_until_ns(step.start_ns + step.span_ns);
    std::size_t backlog = 0;  // reads only the handlers' atomics
    for (const auto& g : step.gens) {
      for (std::size_t i = 0; i < g.due.size(); ++i) {
        backlog += g.handled[i].load() == 0;
      }
    }
    for (auto& t : gens) t.join();
    for (auto& e : gen_errors) errors.insert(errors.end(), e.begin(), e.end());
    const std::int64_t give_up = now_ns() + kDrainNs;
    while (outstanding() != 0 && now_ns() < give_up) {
      std::this_thread::sleep_for(200us);
    }
    current_.store(nullptr);
    return backlog;
  }

  runtime::Cluster cluster;
  TargetSet targets;
  Ledger ledger;
  std::atomic<std::size_t> fifo_violations{0};

 private:
  void generate(Step& step, int g, std::vector<std::string>& errors) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    auto& n0 = cluster.node(0);
    GenPlan& p = step.gens[g];
    std::uint64_t global = 0;
    for (int i = 0; i < g; ++i) global += step.gens[i].due.size();
    Tracer& tracer = Tracer::get();
    for (std::size_t i = 0; i < p.due.size(); ++i) {
      const std::int64_t due = step.start_ns + p.due[i];
      if (now_ns() < due) sleep_until_ns(due);
      const std::size_t target = p.target[i];
      Tag tag;
      tag.source = static_cast<std::uint16_t>(g);
      tag.target = static_cast<std::uint16_t>(target);
      tag.seq = ledger.next_seq(g, target);
      tag.op = (static_cast<std::uint64_t>(step.index) << kStepShift) | i;
      tag.due_ns = due;
      tag.sent_ns = now_ns();
      std::vector<std::uint8_t> payload = encode(tag, p.big[i] ? kBig : kSmall);
      const Status raised =
          targets.is_thread(target)
              ? n0.events.raise(targets.event,
                                targets.threads[target - targets.objects.size()],
                                std::move(payload))
              : n0.events.raise(targets.event, targets.objects[target],
                                std::move(payload));
      const std::int64_t end = now_ns();
      p.sent[i] = tag.sent_ns;
      if (!raised.is_ok()) {
        p.raise_failed[i] = 1;
        if (errors.size() < 5) errors.push_back("raise: " + raised.to_string());
      }
      if (step.traced) {
        tracer.record(kSpanRaiseCall, tag.sent_ns, end, step.span_base + global + i,
                      step.span_base + global + i);
      }
    }
  }

  void on_handle(const std::vector<std::uint8_t>& data, std::int64_t start,
                 std::int64_t end) {
    Tag tag;
    Step* step = current_.load();
    if (!decode(data, tag) || tag.source >= kGenerators) {
      fifo_violations.fetch_add(1);
      return;
    }
    if (!ledger.on_handle(tag)) fifo_violations.fetch_add(1);
    const std::uint64_t index = tag.op & ((1ULL << kStepShift) - 1);
    if (step == nullptr || (tag.op >> kStepShift) != step->index ||
        index >= step->gens[tag.source].due.size()) {
      if (step != nullptr) step->strays.fetch_add(1);
      return;
    }
    if (step->gens[tag.source].handled[index].exchange(start) != 0) {
      step->duplicates.fetch_add(1);
    }
    if (step->traced) {
      std::uint64_t global = index;
      for (std::uint16_t i = 0; i < tag.source; ++i) {
        global += step->gens[i].due.size();
      }
      const std::uint64_t op_span = step->span_base + global;
      Tracer::get().record(kSpanDispatch, tag.sent_ns, start, op_span, op_span);
      Tracer::get().record(kSpanHandler, start, end, op_span, op_span);
    }
  }

  std::atomic<Step*> current_{nullptr};
};

struct StepResult {
  PhaseResult phase;
  RateStep rate;
  std::vector<double> lateness;
};

StepResult run_step(NotifyWorld& world, const Options& options,
                    std::uint32_t index, double rate, double seconds,
                    bool traced, Report& report) {
  std::unique_ptr<Step> step = world.plan(options.seed, index, rate, seconds);
  step->traced = traced;
  StepResult out;
  PhaseResult& phase = out.phase;
  const ClusterCounters c0 = snapshot(world.cluster);
  phase.before = sample_proc();
  std::vector<std::string> errors;
  out.rate.backlog_at_end = world.run(*step, errors);
  phase.after = sample_proc();
  phase.delta = snapshot(world.cluster) - c0;
  out.rate.offered_per_s = rate;
  // Wall time of the schedule itself, not of the drain after it.
  phase.wall_s = seconds;
  for (const auto& e : errors) report.describe("notify op: " + e);
  std::vector<double> lat;
  std::size_t lost = 0;
  for (std::size_t g = 0; g < step->gens.size(); ++g) {
    const GenPlan& p = step->gens[g];
    std::vector<double>& seq = phase.sequences.emplace_back();
    for (std::size_t i = 0; i < p.due.size(); ++i) {
      const std::int64_t due = step->start_ns + p.due[i];
      out.lateness.push_back(lateness_us(due, p.sent[i]));
      phase.thread_raises += world.targets.is_thread(p.target[i]);
      const std::int64_t handled = p.handled[i].load();
      if (p.raise_failed[i] || handled == 0) {
        lost += !p.raise_failed[i];
        ++phase.failed;
        seq.push_back(kFailedUs);
      } else {
        lat.push_back(due_latency_us(due, handled));
        seq.push_back(lat.back());
      }
      if (traced && handled != 0) {
        const std::uint64_t id = step->span_base + phase.ops;
        Tracer::get().record(kSpanOp, due, handled, 0, id, id);
      }
      ++phase.ops;
    }
  }
  phase.raises = phase.ops;
  report.attempted += phase.ops;
  report.failed += phase.failed;  // refused raises and lost ones
  if (lost != 0) report.describe(std::to_string(lost) + " raises never handled");
  if (step->duplicates.load() != 0) {
    report.failed += step->duplicates.load();
    report.describe(std::to_string(step->duplicates.load()) +
                    " ops handled twice");
  }
  if (step->strays.load() != 0) {
    report.violation(std::to_string(step->strays.load()) +
                     " handler runs after their step ended");
  }
  out.rate.latency = summarize(std::move(lat), phase.failed);
  return out;
}

void check(NotifyWorld& world, Report& report) {
  const std::size_t mismatched = world.ledger.count_mismatches();
  if (mismatched != 0) {
    report.violation(std::to_string(mismatched) +
                     " handler runs missing or duplicated");
  }
  if (world.fifo_violations.load() != 0) {
    report.violation(std::to_string(world.fifo_violations.load()) +
                     " handler runs out of per-target order");
  }
  if (world.cluster.network().stats().dropped != 0) {
    report.violation("net.dropped is not 0");
  }
}

// A fresh world, warmed up by one short burst of raises that is checked
// but not timed.
std::unique_ptr<NotifyWorld> make_world(const Options& options,
                                        std::uint32_t& step_index,
                                        Report& report) {
  auto world = std::make_unique<NotifyWorld>();
  Report warm;
  // As fast as the generators go, so set-up time tracks the system's speed.
  constexpr double kWarmRate = 1e6;
  (void)run_step(*world, options, step_index++, kWarmRate,
                 kWarmOps * kGenerators / kWarmRate, false, warm);
  for (const auto& v : warm.violations) report.violation("warm-up: " + v);
  return world;
}

}  // namespace

Report run_notify_open(const Options& options) {
  Report report;
  std::uint32_t step_index = 0;
  char line[200];

  // The ladder: 0.5 s a step (at most 25% of the run), untraced, on a world
  // of its own.
  auto world = make_world(options, step_index, report);
  const double ladder_s =
      std::min(kLadderStepS, options.seconds * 0.25 / std::size(kLadder));
  std::vector<RateStep> ladder;
  for (const double rate : kLadder) {
    StepResult r = run_step(*world, options, step_index++, rate, ladder_s,
                            false, report);
    std::snprintf(line, sizeof line,
                  "ladder %6.0f/s: p50 %8.1f us  p%.2f %9.1f us  backlog %zu  "
                  "gen late p99 %7.1f us",
                  rate, r.rate.latency.p50, r.rate.latency.tail_q * 100,
                  r.rate.latency.tail, r.rate.backlog_at_end,
                  summarize(r.lateness).tail);
    report.notes.emplace_back(line);
    ladder.push_back(r.rate);
  }
  check(*world, report);
  world.reset();
  const double sustained = sustained_rate(ladder, kLimitUs);
  std::snprintf(line, sizeof line,
                "sustained_rate_per_s %.0f (tail limit %.0f us, no growing "
                "backlog)",
                sustained, kLimitUs);
  report.notes.emplace_back(line);

  // The reference rate: the rest of the run.
  std::vector<double> late[2];  // untraced, traced
  run_phases<NotifyWorld>(
      options, options.seconds - ladder_s * std::size(kLadder), report,
      [&](int) { return make_world(options, step_index, report); },
      [&](NotifyWorld& w, double seconds, bool traced) {
        StepResult r = run_step(w, options, step_index++, kReferenceRate,
                                seconds, traced, report);
        late[traced].insert(late[traced].end(), r.lateness.begin(),
                            r.lateness.end());
        return std::move(r.phase);
      },
      [&](NotifyWorld& w) { check(w, report); },
      [&](Report& r) {
        r.per_layer.push_back(
            {"bench.gen_late_p99_us", summarize(late[1]).tail, "us"});
        r.per_layer.push_back({"bench.sustained_rate_per_s", sustained, "1/s"});
      });
  std::snprintf(line, sizeof line,
                "reference rate %.0f/s: bench.gen_late_p99_us %.2f",
                kReferenceRate, summarize(late[0]).tail);
  report.notes.emplace_back(line);
  return report;
}

}  // namespace perfbench
