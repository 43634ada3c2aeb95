// perfbench_driver: runs one workload against an in-process 4-node cluster
// and prints its metrics.  Normally started by perfbench/run.py, which builds
// it, stamps the host fingerprint and compares against a baseline:
//
//   perfbench_driver --workload sync_call|notify_open|ctrl_c --seed N
//                    --seconds S --trace 0|1 [--trace-out trace.json]
//   perfbench_driver --about      (compiler and build type, as JSON)
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// metrics (the end-to-end metrics with --trace 0, the per-layer ones with
// --trace 1).  Exit code 1 when any output check failed, 2 on bad usage.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "harness.hpp"

namespace {

using namespace perfbench;

// Spans written to the Chrome trace (all of them feed the per-layer table).
constexpr std::size_t kTraceSpans = 50'000;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "sync_call|notify_open|ctrl_c --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               why);
  return 2;
}

// Confines the process, and every thread it starts later, to the first CPU
// it may use.  On a multi-CPU VM the cost of each cross-CPU wake-up depends
// on where the host runs the idle vCPU, and the same build read 28 or 60 us
// per sync call from one second to the next; on one CPU every handoff is a
// plain context switch and runs agree within a few percent.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

void print_json_line(const Report& result, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += result.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.12g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string trace_out;
  bool have_seed = false;
  if (argc == 2 && std::strcmp(argv[1], "--about") == 0) {
    // The build half of the host fingerprint.  No benchmark library is
    // linked in, so its build type is "none".
    std::printf("{\"compiler\": \"%s %s\", \"build_type\": \"%s\", "
                "\"benchmark_library\": \"none\"}\n",
#if defined(__clang__)
                "clang",
#else
                "gcc",
#endif
                __VERSION__, PERFBENCH_BUILD_TYPE);
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const std::map<std::string, Workload> workloads = {
      {"sync_call", run_sync_call},
      {"notify_open", run_notify_open},
      {"ctrl_c", run_ctrl_c},
  };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) return usage("unknown --workload");
  if (!have_seed) return usage("--seed is required");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  clear_doct_env();
  const int cpu = pin_to_one_cpu();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d cpu=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, cpu);
  std::fflush(stdout);
  start_idle_spinner();
  Report result = it->second(options);
  stop_idle_spinner();

  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  const std::vector<Metric>& metrics =
      options.trace ? result.per_layer : result.end_to_end;
  for (const Metric& m : result.end_to_end) {
    std::printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (options.trace) {
    for (const Metric& m : result.per_layer) {
      std::printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    if (!trace_out.empty()) {
      const bool ok = write_chrome_trace(trace_out, result.spans, kTraceSpans);
      std::printf("chrome trace: %s (%zu spans recorded)%s\n", trace_out.c_str(),
                  result.spans.size(), ok ? "" : " WRITE FAILED");
    }
  }
  for (const std::string& v : result.violations) {
    std::printf("CHECK FAILED: %s\n", v.c_str());
  }
  print_json_line(result, metrics);
  std::fflush(stdout);
  return result.failed == 0 ? 0 : 1;
}
