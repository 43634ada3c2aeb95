// Shared harness for the workloads: the clock, process probes, cluster-wide
// counter snapshots, the in-memory span recorder and the result record each
// workload fills in.  Everything here observes the system from outside,
// through the public stats() accessors of each layer.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace doct;
using namespace std::chrono_literals;

// CLOCK_MONOTONIC nanoseconds: every stamp the benchmark takes.
std::int64_t now_ns();
void sleep_until_ns(std::int64_t deadline_ns);

// --- process probes -------------------------------------------------------------

// Keeps the benchmark's CPU from going idle: a SCHED_IDLE thread that spins
// whenever nothing else is runnable, and yields to any other thread at once.
// On a VM an idle vCPU halts, and the cost of waking it depends on the
// host's other tenants; with the spinner every wake-up is an in-guest
// context switch.  Its own CPU time and context switches are left out of
// ProcSample.
void start_idle_spinner();
void stop_idle_spinner();

struct ProcSample {
  std::int64_t cpu_us = 0;        // user + sys of the process, less the spinner
  std::int64_t ctx_switches = 0;  // voluntary + involuntary, less the spinner
  std::int64_t wall_ns = 0;
};
ProcSample sample_proc();
double peak_rss_mb();
int os_threads();  // "Threads:" of /proc/self/status

// --- cluster counters -------------------------------------------------------------

// Counters summed over every node, plus the simulated network's.
enum Counter : std::size_t {
  kRaisesAsync, kRaisesSync, kObjectHandlers, kPerThreadProcs,
  kShedDispatches, kNoticesDelivered, kCachedDeliveries,
  kRpcExecuted, kRpcRetries, kRpcShed, kHandlerInvocations,
  kNetSent, kNetFanout, kNetBytes, kNetBroadcasts, kNetDropped,
  kTasksControl, kTasksEvent, kTasksBulk,  // in exec::Lane order
  kShedControl, kShedEvent, kShedBulk,     // in exec::Lane order
  kResvAcquired, kResvConflicts, kWakeups,
  kCounterCount
};

struct ClusterCounters {
  std::uint64_t v[kCounterCount] = {};

  std::uint64_t operator[](Counter c) const { return v[c]; }
  ClusterCounters operator-(const ClusterCounters& base) const {
    ClusterCounters d = *this;
    for (std::size_t i = 0; i < kCounterCount; ++i) d.v[i] -= base.v[i];
    return d;
  }
  ClusterCounters& operator+=(const ClusterCounters& other) {
    for (std::size_t i = 0; i < kCounterCount; ++i) v[i] += other.v[i];
    return *this;
  }
};
ClusterCounters snapshot(runtime::Cluster& cluster);

// Clears every DOCT_* override so a run sees the configuration it asks for.
void clear_doct_env();

// --- spans ------------------------------------------------------------------------

enum SpanName : std::uint32_t {
  kSpanOp,           // one op, root of its spans
  kSpanRaiseCall,    // inside events.raise / raise_and_wait
  kSpanDispatch,     // raise entry -> handler entry
  kSpanHandler,      // the benchmark's handler body
  kSpanResume,       // handler exit -> raise_and_wait return
  kSpanRpcCall,      // inside rpc.call
  kSpanInvoke,       // inside objects.invoke
  kSpanSpawn,        // inside kernel.spawn
  kSpanLockAcquire,  // inside LockClient::acquire
  kSpanRequest,      // inside TerminationService::request_termination
  kSpanCleanup,      // request -> an ABORT cleanup ran
  kSpanJoin,         // request -> a worker's body returned
  kSpanNameCount
};
const char* span_name(std::uint32_t name);

// Spans kept in memory (one buffer per recording thread) and written out
// when the benchmark ends.  Recording is off unless enable(true) ran; a
// disabled record() is one relaxed load.
class Tracer {
 public:
  static Tracer& get();
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }
  std::uint64_t new_id() { return reserve_ids(1); }
  // The first of `n` consecutive fresh span ids.
  std::uint64_t reserve_ids(std::uint64_t n) { return next_id_.fetch_add(n) + 1; }
  // Records a finished span; `id` 0 mints one.  Returns the span id.
  std::uint64_t record(std::uint32_t name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t parent,
                       std::uint64_t op, std::uint64_t id = 0);
  // Every span recorded so far, in no particular order.
  [[nodiscard]] std::vector<Span> collect();
  // Spans recorded past this cap are counted but dropped.
  static constexpr std::size_t kMaxSpans = 1 << 20;
  [[nodiscard]] std::uint64_t dropped() const { return dropped_.load(); }

 private:
  struct Buffer {
    std::uint32_t tid = 0;
    std::vector<Span> spans;
  };
  Buffer& local();

  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Writes up to `limit` spans as Chrome/Perfetto trace-event JSON.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::size_t limit);

// Per span name: p50 of durations and of self times (microseconds).
struct SpanTable {
  std::size_t count[kSpanNameCount] = {};
  double dur_p50_us[kSpanNameCount] = {};
  double dur_p99_us[kSpanNameCount] = {};
  double self_p50_us[kSpanNameCount] = {};
};
SpanTable span_table(const std::vector<Span>& spans);

// --- results ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What a workload hands back to main.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> violations;  // first few, for the log
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;        // human-only lines
  std::vector<Span> spans;               // traced run only

  // A failed check: one more failed op, and its message for the log.
  void violation(const std::string& what) {
    ++failed;
    describe(what);
  }
  // The message alone, for a failed op already counted.
  void describe(const std::string& what) {
    if (violations.size() < 20) violations.push_back(what);
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// A run measures its end-to-end metrics in kPhases phases.  Throughput and
// CPU per op are the median phase.  Latencies are cut into windows of
// kWindowOps consecutive ops and the p50 and p99 are the median window's
// (stats.hpp: windowed), so a stall of the shared host moves a few windows
// and not the result.
inline constexpr int kPhases = 5;
inline constexpr std::size_t kWindowOps = 2000;

struct PhaseSample {
  double wall_s = 0;        // wall time the phase measured
  std::size_t completed = 0;
  ProcSample before, after;
};

// Set-up and teardown timings of the worlds a run builds: every phase runs
// on a fresh cluster, so one run samples several thread placements and
// timer phases, and setup_s is the median of several set-ups.
struct Lifetimes {
  std::vector<double> setups, teardowns;

  template <typename Make>
  auto build(Make make) {
    const std::int64_t t = now_ns();
    auto world = make();
    setups.push_back(static_cast<double>(now_ns() - t) * 1e-9);
    return world;
  }
  template <typename World>
  void tear(std::unique_ptr<World>& world) {
    const std::int64_t t = now_ns();
    world.reset();
    teardowns.push_back(static_cast<double>(now_ns() - t) * 1e-9);
  }
};

struct EndToEnd {
  double setup_s = 0;       // median over the run's set-ups
  std::vector<PhaseSample> phases;
  // One sequence per source and phase: op latencies in the order the ops
  // ran, kFailedUs for a failed op.
  std::vector<std::vector<double>> sequences;
};
void add_end_to_end(Report& result, const EndToEnd& e2e);

// What every workload measures in one phase.
struct PhaseResult {
  std::size_t ops = 0, failed = 0;
  std::size_t raises = 0;         // events raised by the benchmark
  std::size_t thread_raises = 0;  // of which to remote threads
  double wall_s = 0;
  ProcSample before, after;
  ClusterCounters delta;
  std::vector<std::vector<double>> sequences;  // see EndToEnd::sequences
};
void add_phase(EndToEnd& e2e, PhaseResult&& phase);

// Per-layer metrics shared by every workload, summed over the traced
// phases; workload-specific ones are filled by the caller first and win
// over these (same name).
struct LayerInputs {
  ClusterCounters delta;
  double ops = 0;
  std::size_t remote_thread_raises = 0;
  std::size_t raises = 0;
  std::size_t event_depth_max = 0;
  int os_threads = 0;
  double teardown_s = 0;
  std::int64_t cpu_us = 0, ctx_switches = 0;
  double latency_sum_us = 0;       // successful ops
  std::size_t latency_n = 0;
  std::vector<std::vector<double>> sequences;
  double untraced_p50_us = 0;
  std::vector<Span> spans;

  void add(PhaseResult&& phase);
};
void add_per_layer(Report& result, const LayerInputs& in);

// Samples the event-lane depth of every node until stopped (traced run).
class DepthSampler {
 public:
  explicit DepthSampler(runtime::Cluster& cluster);
  ~DepthSampler();
  std::size_t stop();  // returns the largest depth seen

 private:
  runtime::Cluster& cluster_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> max_{0};
  std::thread thread_;
};

// The phase loop every workload shares, over `seconds` of the run.
// kPhases untraced phases, each on a fresh world from make(phase), give the
// end-to-end metrics; with --trace 1 as many traced phases follow on fresh
// worlds of their own and give the per-layer metrics.  Half the time is
// traced, half untraced, so bench.trace_overhead_ratio compares like with
// like.  `extra` adds the workload's own per-layer metrics before the
// shared ones.
template <typename World>
void run_phases(
    const Options& options, double seconds, Report& report,
    const std::function<std::unique_ptr<World>(int phase)>& make,
    const std::function<PhaseResult(World&, double seconds, bool traced)>& measure,
    const std::function<void(World&)>& check,
    const std::function<void(Report&)>& extra = {}) {
  Lifetimes life;
  EndToEnd e2e;
  const double phase_s = (options.trace ? seconds / 2 : seconds) / kPhases;
  for (int i = 0; i < kPhases; ++i) {
    auto world = life.build([&] { return make(i); });
    add_phase(e2e, measure(*world, phase_s, false));
    check(*world);
    life.tear(world);
  }
  e2e.setup_s = median_of(life.setups);
  add_end_to_end(report, e2e);
  if (!options.trace) return;

  LayerInputs in;
  for (int i = 0; i < kPhases; ++i) {
    auto world = life.build([&] { return make(kPhases + i); });
    DepthSampler sampler(world->cluster);
    Tracer::get().enable(true);
    in.add(measure(*world, phase_s, true));
    Tracer::get().enable(false);
    in.event_depth_max = std::max(in.event_depth_max, sampler.stop());
    in.os_threads = std::max(in.os_threads, os_threads());
    check(*world);
    life.tear(world);
  }
  in.untraced_p50_us = windowed(e2e.sequences, kWindowOps).p50;
  in.teardown_s = median_of(life.teardowns);
  in.spans = Tracer::get().collect();
  if (extra) extra(report);
  add_per_layer(report, in);
  report.spans = std::move(in.spans);
}

using Workload = std::function<Report(const Options&)>;
Report run_sync_call(const Options& options);
Report run_notify_open(const Options& options);
Report run_ctrl_c(const Options& options);

}  // namespace perfbench
