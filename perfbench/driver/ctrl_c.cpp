// ctrl_c: repeated §6.3 "distributed ^C" rounds on one long-lived cluster.
//
// Each round a root thread on node 0 arms the TERMINATE and QUIT handlers
// and spawns 6 workers.  Each worker takes a named lock from the LockServer
// on node k (1-3) through a LockClient, then sits inside a remote invocation
// of a spin object on node k whose ABORT cleanup is armed through the
// TerminationService.  The op is one ^C: from request_termination() until
// the root and every worker are joined.  After it the round must show every
// cleanup run exactly once and every lock free.
//
// This is the only workload on the group fan-out path (QUIT to the group is
// a broadcast), handler chaining, surrogate threads and cross-node unwind.
#include <condition_variable>
#include <mutex>
#include <unordered_map>

#include "services/locks/lock_manager.hpp"
#include "services/termination/termination.hpp"
#include "world.hpp"

namespace perfbench {
namespace {

constexpr int kWorkersPerNode = 2;
constexpr int kRemoteNodes = 3;
constexpr int kWorkers = kWorkersPerNode * kRemoteNodes;
constexpr int kWarmRounds = 200;  // every set-up; outlasts kTombstoneTtl
constexpr auto kRoundTimeout = 5s;
// Every thread exit scans all of its node's tombstones under the kernel lock
// (Kernel::unregister_context), so with the default 30 s TTL each round is
// slower than the last for the first 30 s of a cluster's life: p50 rose from
// 0.7 to 3.0 ms over one 10 s run.  A short TTL lets the tombstone map reach
// its steady size during warm-up, so every window measures the same state.
constexpr auto kTombstoneTtl = 100ms;

struct WorkerState {
  ThreadId tid;
  std::string lock;
  std::size_t node = 0;  // remote node index 0..2 (node 1..3)
  std::atomic<int> cleanups{0};
  std::atomic<std::int64_t> cleanup_ns{0};
  std::atomic<std::int64_t> exit_ns{0};
  std::atomic<bool> acquired{false};
};

// Counts arrivals; the round waits for all of them, with a deadline.
class Arrivals {
 public:
  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    count_ = 0;
  }
  void arrive() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++count_;
    }
    cv_.notify_all();
  }
  bool wait_for(int target, std::chrono::nanoseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return count_ >= target; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int count_ = 0;
};

// Stamps a worker's exit however its body unwinds.
struct ExitStamp {
  std::atomic<std::int64_t>& at;
  ~ExitStamp() { at.store(now_ns()); }
};

class CtrlCWorld {
 public:
  CtrlCWorld() : cluster(4, config()) {
    for (std::size_t n = 0; n < cluster.size(); ++n) {
      term_.push_back(
          std::make_unique<services::TerminationService>(cluster.node(n).events));
    }
    auto& n0 = cluster.node(0);
    for (int k = 0; k < kRemoteNodes; ++k) {
      auto& node = cluster.node(static_cast<std::size_t>(k + 1));
      const ObjectId server = node.objects.add_object(services::LockServer::make());
      servers_.push_back(server);
      clients_.push_back(
          std::make_unique<services::LockClient>(n0.events, n0.objects, server));
      auto spin = std::make_shared<objects::PassiveObject>("perfbench_spin");
      spin->define_entry("spin", [this, &node](objects::CallCtx&)
                                     -> Result<objects::Payload> {
        ready_.arrive();
        while (node.kernel.sleep_for(50ms).is_ok()) {
        }
        return objects::Payload{};
      });
      term_[static_cast<std::size_t>(k + 1)]->arm_object(
          *spin, [this, k](ThreadId aborting) { on_cleanup(k, aborting); });
      spin_.push_back(node.objects.add_object(spin));
    }
    for (int w = 0; w < kWorkers; ++w) {
      workers_[w].lock = "perfbench.lock." + std::to_string(w);
      workers_[w].node = static_cast<std::size_t>(w % kRemoteNodes);
    }
  }

  static runtime::ClusterConfig config() {
    runtime::ClusterConfig c;
    c.node.kernel.tombstone_ttl = kTombstoneTtl;
    return c;
  }

  struct Round {
    std::int64_t request_ns = 0, request_end_ns = 0, joined_ns = 0;
    std::vector<std::string> errors;
  };

  // One ^C round.  `op_span` (traced run) is the op's span id.
  Round round(std::uint64_t op_span) {
    Round r;
    auto& n0 = cluster.node(0);
    ready_.reset();
    {
      std::lock_guard<std::mutex> lock(mu_);
      by_tid_.clear();
    }
    for (auto& w : workers_) {
      w.tid = ThreadId{};
      w.cleanups.store(0);
      w.cleanup_ns.store(0);
      w.exit_ns.store(0);
      w.acquired.store(false);
    }
    const ThreadId root = n0.kernel.spawn([this, &n0, op_span] {
      root_tid_ = kernel::Kernel::current()->tid();
      (void)term_[0]->arm_current_thread();
      for (int w = 0; w < kWorkers; ++w) {
        const std::int64_t t0 = now_ns();
        const ThreadId tid = n0.kernel.spawn([this, w, op_span] { work(w, op_span); });
        Tracer::get().record(kSpanSpawn, t0, now_ns(), 0, op_span);
        std::lock_guard<std::mutex> lock(mu_);
        workers_[w].tid = tid;
        by_tid_[tid] = w;
      }
      ready_.arrive();
      while (n0.kernel.sleep_for(50ms).is_ok()) {
      }
    });

    // The root and every worker, inside its spin entry.
    if (!ready_.wait_for(kWorkers + 1, kRoundTimeout)) {
      r.errors.push_back("workers never all reached their spin entries");
    }

    r.request_ns = now_ns();
    const Status requested = term_[0]->request_termination(root_tid_);
    r.request_end_ns = now_ns();
    if (!requested.is_ok()) r.errors.push_back("request: " + requested.to_string());
    const Status root_joined = n0.kernel.join_thread(root, kRoundTimeout);
    if (!root_joined.is_ok()) r.errors.push_back("root join: " + root_joined.to_string());
    for (auto& w : workers_) {
      const Status joined = n0.kernel.join_thread(w.tid, kRoundTimeout);
      if (!joined.is_ok()) r.errors.push_back("worker join: " + joined.to_string());
    }
    r.joined_ns = now_ns();

    // Every cleanup exactly once, every lock free.
    const std::int64_t cleanup_deadline = now_ns() + 2'000'000'000;
    const auto all_cleaned = [this] {
      for (const auto& w : workers_) {
        if (w.cleanups.load() == 0) return false;
      }
      return true;
    };
    while (!all_cleaned() && now_ns() < cleanup_deadline) {
      std::this_thread::sleep_for(50us);
    }
    for (int w = 0; w < kWorkers; ++w) {
      const WorkerState& s = workers_[w];
      if (!s.acquired.load()) r.errors.push_back("worker never got its lock");
      if (s.cleanups.load() != 1) {
        r.errors.push_back("cleanup ran " + std::to_string(s.cleanups.load()) +
                           " times");
      }
      if (holder(w).valid()) {
        ++leaked;
        r.errors.push_back("lock " + s.lock + " still held");
      }
    }

    Tracer& tracer = Tracer::get();
    if (tracer.on()) {
      tracer.record(kSpanOp, r.request_ns, r.joined_ns, 0, op_span, op_span);
      tracer.record(kSpanRequest, r.request_ns, r.request_end_ns, op_span, op_span);
      for (const auto& w : workers_) {
        tracer.record(kSpanCleanup, r.request_ns, w.cleanup_ns.load(), op_span,
                      op_span);
        tracer.record(kSpanJoin, r.request_ns, w.exit_ns.load(), op_span, op_span);
      }
    }
    return r;
  }

  runtime::Cluster cluster;
  std::size_t leaked = 0;

 private:
  void work(int w, std::uint64_t op_span) {
    WorkerState& s = workers_[w];
    ExitStamp stamp{s.exit_ns};
    const std::int64_t t0 = now_ns();
    const Status got = clients_[s.node]->acquire(s.lock, 5s);
    Tracer::get().record(kSpanLockAcquire, t0, now_ns(), 0, op_span);
    if (!got.is_ok()) return;
    s.acquired.store(true);
    (void)cluster.node(0).objects.invoke(spin_[s.node], "spin", {});
  }

  // ABORT cleanup on the spin object of remote node k: what the paper's
  // cleanup does for the invocation in progress, including freeing the
  // lock the aborted worker holds there.
  void on_cleanup(int k, ThreadId aborting) {
    const std::int64_t at = now_ns();
    int w = -1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = by_tid_.find(aborting);
      if (it != by_tid_.end()) w = it->second;
    }
    if (w < 0) return;
    WorkerState& s = workers_[w];
    s.cleanup_ns.store(at);
    Writer args;
    args.put(s.lock);
    args.put(aborting);
    (void)cluster.node(static_cast<std::size_t>(k + 1))
        .objects.invoke(servers_[static_cast<std::size_t>(k)], "release",
                        std::move(args).take());
    s.cleanups.fetch_add(1);
  }

  ThreadId holder(int w) {
    const WorkerState& s = workers_[w];
    Writer args;
    args.put(s.lock);
    auto reply = cluster.node(s.node + 1).objects.invoke(servers_[s.node], "holder",
                                                        std::move(args).take());
    if (!reply.is_ok()) return ThreadId{1};  // unknown counts as held
    Reader r(std::move(reply).value());
    return r.get_id<ThreadTag>();
  }

  std::vector<std::unique_ptr<services::TerminationService>> term_;
  std::vector<ObjectId> servers_;
  std::vector<std::unique_ptr<services::LockClient>> clients_;
  std::vector<ObjectId> spin_;
  WorkerState workers_[kWorkers];
  std::mutex mu_;
  std::unordered_map<ThreadId, int> by_tid_;
  ThreadId root_tid_;
  Arrivals ready_;
};

PhaseResult measure(CtrlCWorld& world, double seconds, bool traced,
                    Report& report) {
  PhaseResult phase;
  std::vector<double>& sequence = phase.sequences.emplace_back();
  const ClusterCounters c0 = snapshot(world.cluster);
  phase.before = sample_proc();
  const std::int64_t end = phase.before.wall_ns + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < end) {
    const std::uint64_t op_span = traced ? Tracer::get().new_id() : 0;
    const CtrlCWorld::Round r = world.round(op_span);
    ++phase.ops;
    if (r.errors.empty()) {
      sequence.push_back(static_cast<double>(r.joined_ns - r.request_ns) * 1e-3);
    } else {
      sequence.push_back(kFailedUs);
      ++phase.failed;
      ++report.failed;  // one failed op, however many checks it failed
      for (const auto& e : r.errors) report.describe("ctrl_c round: " + e);
    }
  }
  phase.after = sample_proc();
  phase.delta = snapshot(world.cluster) - c0;
  phase.wall_s = static_cast<double>(phase.after.wall_ns - phase.before.wall_ns) * 1e-9;
  report.attempted += phase.ops;
  return phase;
}

// A fresh world, warmed up by kWarmRounds checked rounds.
std::unique_ptr<CtrlCWorld> make_world(Report& report) {
  auto world = std::make_unique<CtrlCWorld>();
  for (int r = 0; r < kWarmRounds; ++r) {
    for (const auto& e : world->round(0).errors) report.violation("warm-up: " + e);
  }
  return world;
}

void check(CtrlCWorld& world, Report& report) {
  if (world.cluster.network().stats().dropped != 0) {
    report.violation("net.dropped is not 0");
  }
}

}  // namespace

Report run_ctrl_c(const Options& options) {
  Report report;
  std::size_t traced_leaks = 0;
  run_phases<CtrlCWorld>(
      options, options.seconds, report, [&](int) { return make_world(report); },
      [&](CtrlCWorld& world, double seconds, bool traced) {
        const std::size_t leaked = world.leaked;
        PhaseResult phase = measure(world, seconds, traced, report);
        if (traced) traced_leaks += world.leaked - leaked;
        return phase;
      },
      [&](CtrlCWorld& world) { check(world, report); },
      [&](Report& r) {
        r.per_layer.push_back(
            {"locks.leaked", static_cast<double>(traced_leaks), "count"});
      });
  return report;
}

}  // namespace perfbench
