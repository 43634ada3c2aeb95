// sync_call: a closed loop of 2 caller threads on node 0 issuing a seeded
// mix of remote synchronous calls, each with a minimal (32 B) payload:
//
//   raise_and_wait(e, oid)  to a passive object on node 1-3  (§5.3 row 6)
//   raise_and_wait(e, tid)  to a thread parked at a delivery point (row 4)
//   objects.invoke          of an echo entry on node 1-3
//   rpc.call                of a no-op method on node 1-3
//
// This is the handoff-bound path: caller -> delivery thread -> executor ->
// handler -> resume.  Each op is timed from the call to its return.
#include "world.hpp"

namespace perfbench {
namespace {

enum Kind : std::uint8_t { kRaiseObject, kRaiseThread, kInvoke, kRpcCall };
constexpr int kKinds = 4;
constexpr int kCallers = 2;
constexpr int kWarmOps = 200;                  // per caller, every set-up
constexpr std::size_t kCapacity = 1u << 20;    // latencies kept per caller
constexpr std::size_t kPayload = sizeof(Tag);  // minimal payload

struct Slot {
  std::atomic<std::uint32_t> runs{0};
  std::atomic<std::int64_t> start_ns{0};
  std::atomic<std::int64_t> end_ns{0};
};

struct CallerStats {
  std::vector<float> lat;  // pre-touched, kCapacity entries; kFailedUs = failed
  std::size_t n = 0;
  std::size_t failed = 0;
  std::size_t thread_raises = 0;
  std::size_t raises = 0;
  std::vector<std::string> errors;
};

class SyncWorld {
 public:
  explicit SyncWorld(std::uint64_t seed)
      : cluster(4),
        targets(cluster, 1, 1,
                [this](const std::vector<std::uint8_t>& data, std::int64_t s,
                       std::int64_t e) { on_handle(data, s, e); }),
        ledger(kCallers, targets.size()),
        seed_(seed) {}

  // Closed loop for `caller` until `end_ns` (or `max_ops`), recording into
  // `stats` when `record` is set.
  void loop(int caller, std::int64_t end_ns, std::size_t max_ops, bool record,
            CallerStats& stats, Rng& rng) {
    auto& n0 = cluster.node(0);
    Slot& slot = slots_[caller];
    Tracer& tracer = Tracer::get();
    for (std::size_t done = 0; done < max_ops && now_ns() < end_ns; ++done) {
      const auto kind = static_cast<Kind>(rng.below(kKinds));
      const std::size_t node = rng.below(cluster.size() - 1);
      const std::size_t target =
          kind == kRaiseThread ? targets.objects.size() + node : node;
      Tag tag;
      tag.source = static_cast<std::uint16_t>(caller);
      tag.target = static_cast<std::uint16_t>(target);
      tag.seq = ledger.next_seq(caller, target);
      tag.op = done;
      slot.runs.store(0);
      const std::uint64_t op_span = tracer.on() ? tracer.new_id() : 0;
      tag.sent_ns = now_ns();
      std::vector<std::uint8_t> payload = encode(tag, kPayload);
      std::string error;
      switch (kind) {
        case kRaiseObject:
        case kRaiseThread: {
          auto verdict =
              kind == kRaiseObject
                  ? n0.events.raise_and_wait(targets.event,
                                             targets.objects[node], payload)
                  : n0.events.raise_and_wait(targets.event,
                                             targets.threads[node], payload);
          if (!verdict.is_ok()) {
            error = verdict.status().to_string();
          } else if (verdict.value() != kernel::Verdict::kResume) {
            error = "verdict is not kResume";
          }
          break;
        }
        case kInvoke: {
          Writer w;
          w.put(payload);
          auto reply = n0.objects.invoke(targets.objects[node], "echo",
                                         std::move(w).take());
          if (!reply.is_ok()) {
            error = reply.status().to_string();
          } else if (reply.value() != payload) {
            error = "invoke echo differs";
          }
          break;
        }
        case kRpcCall: {
          Writer w;
          w.put(payload);
          auto reply = n0.rpc.call(cluster.node(node + 1).id, kNoopMethod,
                                   std::move(w).take());
          if (!reply.is_ok()) {
            error = reply.status().to_string();
          } else if (reply.value() != payload) {
            error = "rpc echo differs";
          }
          break;
        }
      }
      const std::int64_t end = now_ns();
      if (error.empty() && slot.runs.load() != 1) {
        error = "handler ran " + std::to_string(slot.runs.load()) + " times";
      }
      if (!record) {
        if (!error.empty()) stats.errors.push_back(error);
        continue;
      }
      const bool raise = kind == kRaiseObject || kind == kRaiseThread;
      stats.raises += raise;
      stats.thread_raises += kind == kRaiseThread;
      if (!error.empty()) {
        ++stats.failed;
        stats.errors.push_back(error);
      }
      stats.lat[stats.n++] = error.empty()
                                 ? static_cast<float>((end - tag.sent_ns) * 1e-3)
                                 : static_cast<float>(kFailedUs);
      if (op_span != 0) {
        const std::int64_t hs = slot.start_ns.load();
        const std::int64_t he = slot.end_ns.load();
        tracer.record(kSpanOp, tag.sent_ns, end, 0, op_span, op_span);
        if (raise) {
          tracer.record(kSpanDispatch, tag.sent_ns, hs, op_span, op_span);
          tracer.record(kSpanHandler, hs, he, op_span, op_span);
          tracer.record(kSpanResume, he, end, op_span, op_span);
        } else {
          tracer.record(kind == kInvoke ? kSpanInvoke : kSpanRpcCall,
                        tag.sent_ns, end, op_span, op_span);
        }
      }
      if (stats.n == stats.lat.size()) break;
    }
  }

  // Runs both callers as logical threads on node 0.
  void run(std::int64_t end_ns, std::size_t max_ops, bool record,
           std::vector<CallerStats>& stats) {
    auto& n0 = cluster.node(0);
    std::vector<ThreadId> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.push_back(n0.kernel.spawn([this, c, end_ns, max_ops, record,
                                          &stats] {
        loop(c, end_ns, max_ops, record, stats[c], rngs_[c]);
      }));
    }
    for (const ThreadId tid : callers) (void)n0.kernel.join_thread(tid, 60s);
  }

  void warm_up(std::vector<CallerStats>& stats) {
    for (int c = 0; c < kCallers; ++c) {
      rngs_.emplace_back(seed_ * 0x9E3779B97F4A7C15ULL + c + 1);
    }
    run(now_ns() + 30'000'000'000, kWarmOps, false, stats);
  }

  runtime::Cluster cluster;
  TargetSet targets;
  Ledger ledger;
  std::atomic<std::size_t> fifo_violations{0};

 private:
  void on_handle(const std::vector<std::uint8_t>& data, std::int64_t start,
                 std::int64_t end) {
    Tag tag;
    if (!decode(data, tag) || tag.source >= kCallers) {
      fifo_violations.fetch_add(1);
      return;
    }
    Slot& slot = slots_[tag.source];
    slot.start_ns.store(start);
    slot.end_ns.store(end);
    slot.runs.fetch_add(1);
    if (!ledger.on_handle(tag)) fifo_violations.fetch_add(1);
  }

  std::uint64_t seed_;
  Slot slots_[kCallers];
  std::vector<Rng> rngs_;
};

std::vector<CallerStats> fresh_stats() {
  std::vector<CallerStats> stats(kCallers);
  for (auto& s : stats) s.lat.assign(kCapacity, 0.0f);  // touched up front
  return stats;
}

PhaseResult measure(SyncWorld& world, double seconds, Report& result,
                    std::vector<CallerStats>& stats) {
  for (auto& s : stats) {
    s.n = s.failed = s.thread_raises = s.raises = 0;
    s.errors.clear();
  }
  PhaseResult phase;
  const ClusterCounters c0 = snapshot(world.cluster);
  phase.before = sample_proc();
  world.run(phase.before.wall_ns + static_cast<std::int64_t>(seconds * 1e9),
            SIZE_MAX, true, stats);
  phase.after = sample_proc();
  phase.delta = snapshot(world.cluster) - c0;
  phase.wall_s = static_cast<double>(phase.after.wall_ns - phase.before.wall_ns) * 1e-9;
  for (auto& s : stats) {
    phase.sequences.emplace_back(s.lat.begin(),
                                 s.lat.begin() + static_cast<long>(s.n));
    phase.ops += s.n;
    phase.failed += s.failed;
    phase.raises += s.raises;
    phase.thread_raises += s.thread_raises;
    for (const auto& e : s.errors) result.violation("sync op: " + e);
  }
  result.attempted += phase.ops;
  return phase;
}

void check(SyncWorld& world, Report& result) {
  const std::size_t mismatched = world.ledger.count_mismatches();
  if (mismatched != 0) {
    result.violation(std::to_string(mismatched) +
                     " handler runs missing or duplicated");
  }
  if (world.fifo_violations.load() != 0) {
    result.violation(std::to_string(world.fifo_violations.load()) +
                     " handler runs out of per-target order");
  }
  if (world.cluster.network().stats().dropped != 0) {
    result.violation("net.dropped is not 0");
  }
}

// A fresh world for phase `phase`, warmed up; warm-up failures count.
std::unique_ptr<SyncWorld> make_world(std::uint64_t seed, int phase,
                                      Report& result) {
  auto world = std::make_unique<SyncWorld>(seed * 1000 + phase);
  std::vector<CallerStats> warm(kCallers);
  world->warm_up(warm);
  for (const auto& s : warm) {
    for (const auto& e : s.errors) result.violation("warm-up: " + e);
  }
  return world;
}

}  // namespace

Report run_sync_call(const Options& options) {
  Report result;
  std::vector<CallerStats> stats = fresh_stats();
  run_phases<SyncWorld>(
      options, options.seconds, result,
      [&](int phase) { return make_world(options.seed, phase, result); },
      [&](SyncWorld& world, double seconds, bool) {
        return measure(world, seconds, result, stats);
      },
      [&](SyncWorld& world) { check(world, result); });
  return result;
}

}  // namespace perfbench
