#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace perfbench {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void sleep_until_ns(std::int64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = deadline_ns / 1'000'000'000;
  ts.tv_nsec = deadline_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

namespace {

std::int64_t cpu_us_of(const rusage& ru) {
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1'000'000LL +
         ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
}

// The spinner publishes its own CPU time and context switches, which
// sample_proc() takes out of the process totals.
struct Spinner {
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> cpu_us{0};
  std::atomic<std::int64_t> ctx_switches{0};
  std::thread thread;

  void publish() {
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    cpu_us.store(cpu_us_of(ru), std::memory_order_relaxed);
    ctx_switches.store(ru.ru_nvcsw + ru.ru_nivcsw, std::memory_order_relaxed);
  }
};
Spinner g_spinner;

}  // namespace

void start_idle_spinner() {
  g_spinner.thread = std::thread([] {
    sched_param param{};
    (void)sched_setscheduler(0, SCHED_IDLE, &param);
    while (!g_spinner.stop.load(std::memory_order_relaxed)) g_spinner.publish();
    g_spinner.publish();
  });
}

void stop_idle_spinner() {
  g_spinner.stop.store(true);
  if (g_spinner.thread.joinable()) g_spinner.thread.join();
}

ProcSample sample_proc() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcSample s;
  s.cpu_us = cpu_us_of(ru) - g_spinner.cpu_us.load(std::memory_order_relaxed);
  s.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw -
                   g_spinner.ctx_switches.load(std::memory_order_relaxed);
  s.wall_ns = now_ns();
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int os_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

void clear_doct_env() {
  for (const char* name :
       {"DOCT_COLLECTOR", "DOCT_COLLECT_PERIOD_MS", "DOCT_DISPATCH",
        "DOCT_EVENT_WIDTH", "DOCT_FLIGHT_DIR", "DOCT_FLIGHT_RING",
        "DOCT_QUEUE", "DOCT_RESERVATIONS", "DOCT_TRANSPORT"}) {
    unsetenv(name);
  }
}

// --- cluster counters -------------------------------------------------------------

ClusterCounters snapshot(runtime::Cluster& cluster) {
  ClusterCounters c;
  auto& v = c.v;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto& node = cluster.node(i);
    const auto ev = node.events.stats();
    v[kRaisesAsync] += ev.raises_async;
    v[kRaisesSync] += ev.raises_sync;
    v[kObjectHandlers] += ev.object_handlers_run;
    v[kPerThreadProcs] += ev.per_thread_procs_run;
    v[kShedDispatches] += ev.shed_dispatches;
    const auto k = node.kernel.stats();
    v[kNoticesDelivered] += k.notices_delivered;
    v[kCachedDeliveries] += k.cached_deliveries;
    const auto r = node.rpc.stats();
    v[kRpcExecuted] += r.requests_executed;
    v[kRpcRetries] += r.retries_sent;
    v[kRpcShed] += r.requests_shed;
    v[kHandlerInvocations] += node.objects.stats().handler_invocations;
    const auto x = node.executor.stats();
    for (std::size_t l = 0; l < exec::kLaneCount; ++l) {
      v[kTasksControl + l] += x.lanes[l].executed;
      v[kShedControl + l] += x.lanes[l].shed;
    }
    v[kResvAcquired] += x.reservation_acquired;
    v[kResvConflicts] += x.reservation_conflicts;
    v[kWakeups] += x.wakeups;
  }
  const auto n = cluster.network().stats();
  v[kNetSent] = n.sent;
  v[kNetFanout] = n.fanout_messages;
  v[kNetBytes] = n.bytes;
  v[kNetBroadcasts] = n.broadcast_sends + n.multicast_sends;
  v[kNetDropped] = n.dropped;
  return c;
}

void add_phase(EndToEnd& e2e, PhaseResult&& phase) {
  e2e.phases.push_back(
      {phase.wall_s, phase.ops - phase.failed, phase.before, phase.after});
  for (auto& seq : phase.sequences) e2e.sequences.push_back(std::move(seq));
}

void LayerInputs::add(PhaseResult&& phase) {
  delta += phase.delta;
  ops += static_cast<double>(phase.ops);
  raises += phase.raises;
  remote_thread_raises += phase.thread_raises;
  cpu_us += phase.after.cpu_us - phase.before.cpu_us;
  ctx_switches += phase.after.ctx_switches - phase.before.ctx_switches;
  for (auto& seq : phase.sequences) {
    for (const double v : seq) {
      if (v < kFailedUs) {
        latency_sum_us += v;
        ++latency_n;
      }
    }
    sequences.push_back(std::move(seq));
  }
}

// --- spans ------------------------------------------------------------------------

const char* span_name(std::uint32_t name) {
  static constexpr const char* kNames[kSpanNameCount] = {
      "op",      "events.raise_call", "events.dispatch", "events.handler",
      "events.resume", "rpc.call",    "objects.invoke",  "kernel.spawn",
      "locks.acquire", "termination.request", "termination.cleanup",
      "kernel.join"};
  return name < kSpanNameCount ? kNames[name] : "?";
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> lock(mu_);
    owned->tid = static_cast<std::uint32_t>(buffers_.size() + 1);
    owned->spans.reserve(4096);
    buffer = owned.get();
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

std::uint64_t Tracer::record(std::uint32_t name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint64_t parent,
                             std::uint64_t op, std::uint64_t id) {
  if (!on()) return 0;
  if (id == 0) id = new_id();
  if (count_.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return id;
  }
  Buffer& buffer = local();
  buffer.spans.push_back(
      Span{id, parent, op, name, buffer.tid, start_ns, end_ns});
  return id;
}

std::vector<Span> Tracer::collect() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::size_t limit) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
  const std::int64_t origin =
      spans.empty() ? 0
                    : std::min_element(spans.begin(), spans.end(),
                                       [](const Span& a, const Span& b) {
                                         return a.start_ns < b.start_ns;
                                       })->start_ns;
  const std::size_t n = std::min(limit, spans.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"op\":%llu}}\n",
                 i == 0 ? "" : ",", span_name(s.name), s.tid,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

SpanTable span_table(const std::vector<Span>& spans) {
  SpanTable table;
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::vector<double> durs[kSpanNameCount];
  std::vector<double> selfs[kSpanNameCount];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint32_t name = spans[i].name;
    if (name >= kSpanNameCount) continue;
    durs[name].push_back(
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-3);
    selfs[name].push_back(static_cast<double>(self[i]) * 1e-3);
  }
  for (std::uint32_t name = 0; name < kSpanNameCount; ++name) {
    table.count[name] = durs[name].size();
    if (durs[name].empty()) continue;
    const Summary d = summarize(durs[name]);
    table.dur_p50_us[name] = d.p50;
    table.dur_p99_us[name] = d.tail;
    table.self_p50_us[name] = summarize(selfs[name]).p50;
  }
  return table;
}

// --- results ----------------------------------------------------------------------

void add_end_to_end(Report& result, const EndToEnd& e2e) {
  std::vector<double> rate, cpu;
  for (const PhaseSample& p : e2e.phases) {
    const double ops = std::max<double>(1, static_cast<double>(p.completed));
    rate.push_back(static_cast<double>(p.completed) / p.wall_s);
    cpu.push_back(static_cast<double>(p.after.cpu_us - p.before.cpu_us) / ops);
  }
  const Windowed op = windowed(e2e.sequences, kWindowOps);
  result.end_to_end = {
      {"setup_s", e2e.setup_s, "s"},
      {"op_p50_us", op.p50, "us"},
      {"op_p99_us", op.tail, "us"},
      {"ops_per_s", median_of(rate), "1/s"},
      {"cpu_us_per_op", median_of(cpu), "us"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  char line[240];
  std::snprintf(line, sizeof line,
                "op latency: median of %zu windows of %zu ops, tail p%.2f or "
                "above (>= %zu ops beyond it per window), %zu ops, %zu failed; "
                "failed_ratio %.6f",
                op.windows, kWindowOps, op.tail_q * 100, kMinBeyond, op.ops,
                op.failed,
                static_cast<double>(result.failed) /
                    std::max<double>(1, static_cast<double>(result.attempted)));
  result.notes.emplace_back(line);
  std::string phases = "op_p50_us/op_p99_us by phase:";
  const std::size_t per_phase = e2e.sequences.size() / std::max<std::size_t>(1, e2e.phases.size());
  for (std::size_t i = 0; i + per_phase <= e2e.sequences.size() && per_phase > 0; i += per_phase) {
    const std::vector<std::vector<double>> one(e2e.sequences.begin() + static_cast<long>(i),
                                               e2e.sequences.begin() + static_cast<long>(i + per_phase));
    const Windowed w = windowed(one, kWindowOps);
    std::snprintf(line, sizeof line, " %.2f/%.1f", w.p50, w.tail);
    phases += line;
  }
  result.notes.push_back(phases);
}

namespace {

// Per op: the earliest and latest end of the spans named `name`, relative
// to the start of the op's root span; p50 over ops of (first, last, spread).
struct FirstLast {
  double first_p50_us = 0, last_p50_us = 0, spread_p50_us = 0;
};
FirstLast first_last(const std::vector<Span>& spans, std::uint32_t name) {
  std::unordered_map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> ends;
  std::unordered_map<std::uint64_t, std::int64_t> starts;
  for (const Span& s : spans) {
    if (s.name == kSpanOp && s.parent == 0) starts[s.op] = s.start_ns;
    if (s.name != name) continue;
    auto [it, fresh] = ends.try_emplace(s.op, s.end_ns, s.end_ns);
    if (!fresh) {
      it->second.first = std::min(it->second.first, s.end_ns);
      it->second.second = std::max(it->second.second, s.end_ns);
    }
  }
  std::vector<double> first, last, spread;
  for (const auto& [op, range] : ends) {
    const auto start = starts.find(op);
    if (start == starts.end()) continue;
    first.push_back(static_cast<double>(range.first - start->second) * 1e-3);
    last.push_back(static_cast<double>(range.second - start->second) * 1e-3);
    spread.push_back(static_cast<double>(range.second - range.first) * 1e-3);
  }
  FirstLast out;
  if (!first.empty()) {
    out.first_p50_us = summarize(first).p50;
    out.last_p50_us = summarize(last).p50;
    out.spread_p50_us = summarize(spread).p50;
  }
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void add_per_layer(Report& result, const LayerInputs& in) {
  const ClusterCounters& d = in.delta;
  const SpanTable t = span_table(in.spans);
  const FirstLast cleanups = first_last(in.spans, kSpanCleanup);
  const FirstLast joins = first_last(in.spans, kSpanJoin);
  const double ops = std::max(1.0, in.ops);
  const double tasks = static_cast<double>(d[kTasksControl] + d[kTasksEvent] +
                                           d[kTasksBulk]);
  const double handler_runs =
      static_cast<double>(d[kObjectHandlers] + d[kPerThreadProcs]);
  const auto per_op = [ops](std::uint64_t count) {
    return static_cast<double>(count) / ops;
  };

  // Workload-specific entries already in result.per_layer win.
  std::map<std::string, bool> have;
  for (const Metric& m : result.per_layer) have[m.name] = true;
  const auto add = [&](const char* name, double value, const char* unit) {
    if (!have.count(name)) result.per_layer.push_back({name, value, unit});
  };
  add("events.raise_call_us.p50", t.dur_p50_us[kSpanRaiseCall], "us");
  add("events.raise_call_us.p99", t.dur_p99_us[kSpanRaiseCall], "us");
  add("events.dispatch_us.p50", t.dur_p50_us[kSpanDispatch], "us");
  add("events.dispatch_us.p99", t.dur_p99_us[kSpanDispatch], "us");
  add("events.handler_us.p50", t.self_p50_us[kSpanHandler], "us");
  add("events.resume_us.p50", t.dur_p50_us[kSpanResume], "us");
  add("events.resume_us.p99", t.dur_p99_us[kSpanResume], "us");
  add("events.handlers_per_raise",
      ratio(handler_runs, static_cast<double>(in.raises)), "ratio");
  add("events.shed_dispatches", static_cast<double>(d[kShedDispatches]),
      "count");
  add("kernel.cached_ratio",
      ratio(static_cast<double>(d[kCachedDeliveries]),
            static_cast<double>(in.remote_thread_raises)),
      "ratio");
  add("kernel.notices_per_op", per_op(d[kNoticesDelivered]), "count/op");
  add("kernel.spawn_us.p50", t.dur_p50_us[kSpanSpawn], "us");
  add("kernel.join_spread_us.p50", joins.spread_p50_us, "us");
  add("rpc.call_us.p50", t.dur_p50_us[kSpanRpcCall], "us");
  add("rpc.call_us.p99", t.dur_p99_us[kSpanRpcCall], "us");
  add("rpc.requests_per_op", per_op(d[kRpcExecuted]), "count/op");
  add("rpc.retries_per_op", per_op(d[kRpcRetries]), "count/op");
  add("rpc.shed_per_op", per_op(d[kRpcShed]), "count/op");
  add("objects.invoke_us.p50", t.dur_p50_us[kSpanInvoke], "us");
  add("objects.invoke_us.p99", t.dur_p99_us[kSpanInvoke], "us");
  add("objects.handler_runs_per_op", per_op(d[kHandlerInvocations]),
      "count/op");
  add("net.msgs_per_op", per_op(d[kNetSent] + d[kNetFanout]), "count/op");
  add("net.bytes_per_op", per_op(d[kNetBytes]), "B/op");
  add("net.broadcasts_per_op", per_op(d[kNetBroadcasts]), "count/op");
  add("net.dropped", static_cast<double>(d[kNetDropped]), "count");
  add("exec.tasks_per_op.control", per_op(d[kTasksControl]), "count/op");
  add("exec.tasks_per_op.event", per_op(d[kTasksEvent]), "count/op");
  add("exec.tasks_per_op.bulk", per_op(d[kTasksBulk]), "count/op");
  add("exec.wakeups_per_task", ratio(static_cast<double>(d[kWakeups]), tasks),
      "ratio");
  add("exec.reservation_conflict_ratio",
      ratio(static_cast<double>(d[kResvConflicts]),
            static_cast<double>(d[kResvAcquired])),
      "ratio");
  add("exec.event_depth_max", static_cast<double>(in.event_depth_max), "count");
  add("exec.shed.control", static_cast<double>(d[kShedControl]), "count");
  add("exec.shed.event", static_cast<double>(d[kShedEvent]), "count");
  add("exec.shed.bulk", static_cast<double>(d[kShedBulk]), "count");
  add("termination.request_us.p50", t.dur_p50_us[kSpanRequest], "us");
  add("termination.cleanup_first_us.p50", cleanups.first_p50_us, "us");
  add("termination.cleanup_last_us.p50", cleanups.last_p50_us, "us");
  add("locks.acquire_us.p50", t.dur_p50_us[kSpanLockAcquire], "us");
  add("locks.leaked", 0, "count");
  add("runtime.os_threads", in.os_threads, "count");
  add("runtime.teardown_s", in.teardown_s, "s");
  add("proc.ctx_switches_per_op", static_cast<double>(in.ctx_switches) / ops,
      "count/op");
  add("proc.wall_minus_cpu_us",
      ratio(in.latency_sum_us, static_cast<double>(in.latency_n)) -
          static_cast<double>(in.cpu_us) / ops,
      "us");
  add("bench.gen_late_p99_us", 0, "us");
  add("bench.sustained_rate_per_s", 0, "1/s");
  add("bench.trace_overhead_ratio",
      ratio(windowed(in.sequences, kWindowOps).p50, in.untraced_p50_us),
      "ratio");
  add("bench.failed_ratio",
      ratio(static_cast<double>(result.failed),
            static_cast<double>(result.attempted)),
      "ratio");
  add("bench.spans_dropped", static_cast<double>(Tracer::get().dropped()),
      "count");

  char line[200];
  result.notes.emplace_back(
      "span                   count    dur_p50_us   dur_p99_us  self_p50_us");
  for (std::uint32_t name = 0; name < kSpanNameCount; ++name) {
    if (t.count[name] == 0) continue;
    std::snprintf(line, sizeof line, "%-20s %8zu %12.2f %12.2f %12.2f",
                  span_name(name), t.count[name], t.dur_p50_us[name],
                  t.dur_p99_us[name], t.self_p50_us[name]);
    result.notes.emplace_back(line);
  }
}

// --- depth sampler ----------------------------------------------------------------

DepthSampler::DepthSampler(runtime::Cluster& cluster) : cluster_(cluster) {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      std::size_t deepest = 0;
      for (std::size_t i = 0; i < cluster_.size(); ++i) {
        deepest = std::max(deepest, cluster_.node(i).executor.lane_depth(
                                        exec::Lane::kEvent));
      }
      if (deepest > max_.load()) max_.store(deepest);
      std::this_thread::sleep_for(1ms);
    }
  });
}

DepthSampler::~DepthSampler() { stop(); }

std::size_t DepthSampler::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  return max_.load();
}

}  // namespace perfbench
