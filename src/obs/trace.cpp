#include "obs/trace.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <thread>

namespace doct::obs {
namespace {

std::atomic<bool> g_tracing_enabled{false};

thread_local TraceContext t_current;

std::uint64_t this_track() {
  // Stable per-OS-thread id for the Chrome "tid" field; hashed and folded
  // so the numbers stay small enough to read.
  static thread_local const std::uint64_t track =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 97;
  return track;
}

}  // namespace

bool tracing_enabled() {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

void set_tracing_enabled(bool enabled) {
  if (enabled) flight().reserve();
  g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

TraceContext current_context() { return t_current; }

void set_current_context(TraceContext ctx) { t_current = ctx; }

Tracer& Tracer::global() {
  static Tracer* instance = new Tracer();  // never destroyed
  return *instance;
}

Tracer::Tracer() {
  // Export the overwrite counter alongside the metrics snapshot.  The
  // closure only reads atomics, so it never re-enters the registry
  // (snapshot_json pulls sources under its lock).
  metrics_source_ = metrics().register_source("obs", [] {
    return std::vector<std::pair<std::string, std::uint64_t>>{
        {"trace_dropped_total", flight().dropped_total()}};
  });
}

std::vector<Span> Tracer::snapshot_since(std::uint64_t after_seq) const {
  std::vector<Span> spans = flight().records_since(
      std::max(after_seq, cleared_.load(std::memory_order_relaxed)));
  std::erase_if(spans, [](const Span& span) { return !span.is_span(); });
  return spans;
}

std::string Tracer::to_chrome_json() const {
  const std::vector<Span> spans = snapshot();

  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;

  // One metadata record per node so Perfetto labels each track.
  std::set<std::uint64_t> nodes;
  for (const Span& span : spans) nodes.insert(span.node);
  for (const std::uint64_t node : nodes) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << node
        << ",\"tid\":0,\"args\":{\"name\":\"node " << node << "\"}}";
  }

  // Names and details were made JSON-safe when the record was written.
  for (const Span& span : spans) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << span.name
        << "\",\"cat\":\"doct\",\"ph\":\"X\",\"pid\":" << span.node
        << ",\"tid\":" << span.track << ",\"ts\":" << span.start_us
        << ",\"dur\":" << span.dur_us << ",\"args\":{\"trace_id\":\""
        << span.trace_id << "\",\"span_id\":\"" << span.span_id
        << "\",\"parent\":\"" << span.parent_span << "\"";
    if (span.detail[0] != '\0') out << ",\"detail\":\"" << span.detail << "\"";
    out << "}}";
  }
  out << "]}";
  return out.str();
}

void record_span(const char* name, std::uint64_t node, TraceContext parent,
                 std::int64_t start_us, std::int64_t dur_us,
                 std::string_view detail, std::uint64_t track) {
  if (!tracing_enabled() || !parent.valid()) return;
  Span span;
  span.trace_id = parent.trace_id;
  span.span_id = tracer().new_id();
  span.parent_span = parent.span_id;
  span.node = node;
  span.track = track;
  span.set_name(name);
  span.set_detail(detail);
  span.start_us = start_us;
  span.dur_us = dur_us;
  tracer().record(span);
}

void mark(const char* name, std::uint64_t node, std::string_view detail) {
  if (!tracing_enabled()) return;
  record_span(name, node, t_current, now_us(), 0, detail, this_track());
}

SpanGuard::SpanGuard(const char* name, std::uint64_t node,
                     std::string_view detail) {
  if (!tracing_enabled()) return;
  open(name, node, t_current, /*mint_if_absent=*/false, detail);
}

SpanGuard::SpanGuard(const char* name, std::uint64_t node, MintTraceTag,
                     std::string_view detail) {
  if (!tracing_enabled()) return;
  open(name, node, t_current, /*mint_if_absent=*/true, detail);
}

SpanGuard::SpanGuard(const char* name, std::uint64_t node, TraceContext parent,
                     std::string_view detail) {
  if (!tracing_enabled()) return;
  open(name, node, parent, /*mint_if_absent=*/false, detail);
}

void SpanGuard::open(const char* name, std::uint64_t node, TraceContext parent,
                     bool mint_if_absent, std::string_view detail) {
  if (!parent.valid()) {
    if (!mint_if_absent) return;
    parent = TraceContext{tracer().new_id(), 0};
  }
  active_ = true;
  span_.trace_id = parent.trace_id;
  span_.span_id = tracer().new_id();
  span_.parent_span = parent.span_id;
  span_.node = node;
  span_.track = this_track();
  span_.set_name(name);
  span_.set_detail(detail);
  span_.start_us = now_us();
  saved_ = t_current;
  t_current = TraceContext{span_.trace_id, span_.span_id};
}

SpanGuard::~SpanGuard() {
  if (!active_) return;
  t_current = saved_;
  span_.dur_us = now_us() - span_.start_us;
  tracer().record(span_);
}

}  // namespace doct::obs
