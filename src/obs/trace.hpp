// Causal tracing — a TraceContext (trace-id, span-id) minted where an event
// enters the system (raise / raise_and_wait / RPC call) and propagated
// through net::Message headers, RPC requests, kernel delivery, handler
// execution, and resume, so one event's life is reconstructible across
// nodes.  Spans land in the process's record ring (obs/flight.hpp) next to
// the flight recorder's breadcrumbs, and export as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing): one track per node, spans
// named raise/route/wire/deliver/handle/resume.
//
// Same cost contract as metrics: tracing_enabled() is a relaxed atomic load,
// and a disabled SpanGuard does no clock read, no allocation, no lock.  An
// enabled one does no allocation and no lock either.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace doct::obs {

[[nodiscard]] bool tracing_enabled();
// Turning tracing on reserves the record ring.
void set_tracing_enabled(bool enabled);

// Identity of one causal chain (trace_id) and the currently-open span within
// it.  trace_id == 0 means "no trace".
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  [[nodiscard]] bool valid() const { return trace_id != 0; }
};

// The ambient context for this OS thread; spans opened here become children
// of it, and outgoing messages stamp it into their headers.
[[nodiscard]] TraceContext current_context();
void set_current_context(TraceContext ctx);

// A finished span is a ring record with a trace id.  `name` comes from the
// fixed span vocabulary; `detail` carries the variable part (event name,
// RPC method).
using Span = Record;

// Span view of the process's record ring.
class Tracer {
 public:
  static Tracer& global();

  [[nodiscard]] std::uint64_t new_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // Multi-process runs: every process mints ids from the same counter start,
  // so two OS processes would reuse the same trace ids and stitching their
  // exported traces would conflate unrelated chains.  A node process seeds
  // its id space with the node id in the top bits (doct-node does this at
  // startup) to make ids globally disjoint.  Monotonic: never moves the
  // counter backwards.
  void seed_ids(std::uint64_t first) {
    std::uint64_t current = next_id_.load(std::memory_order_relaxed);
    while (current < first &&
           !next_id_.compare_exchange_weak(current, first,
                                           std::memory_order_relaxed)) {
    }
  }

  void record(const Span& span) { flight().write(span); }

  // Spans still in the ring since the last clear(), oldest first.
  [[nodiscard]] std::vector<Span> snapshot() const {
    return snapshot_since(0);
  }

  // Spans recorded after the given sequence number (exclusive), oldest
  // first.  The caller remembers the max seq it saw and passes it back —
  // incremental pulls instead of re-shipping the whole ring.  Spans the
  // ring overwrote before the cursor caught up are simply gone (count them
  // via dropped_total()).
  [[nodiscard]] std::vector<Span> snapshot_since(std::uint64_t after_seq) const;
  [[nodiscard]] std::uint64_t last_seq() const {
    return flight().noted_total();
  }

  // Hides everything recorded so far from snapshot() and snapshot_since().
  void clear() {
    cleared_.store(last_seq(), std::memory_order_relaxed);
  }

  // Ring records overwritten since process start; exported as
  // "obs.trace_dropped_total" so soaks can see when the window overflowed.
  [[nodiscard]] std::uint64_t dropped_total() const {
    return flight().dropped_total();
  }

  // Chrome trace-event JSON: {"traceEvents":[...]} with one "M"
  // process_name metadata record per node and one "X" complete event per
  // span (ts/dur in µs, pid = node, args = trace/span/parent ids).
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  Tracer();

  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> cleared_{0};
  MetricsRegistry::SourceHandle metrics_source_;
};

[[nodiscard]] inline Tracer& tracer() { return Tracer::global(); }

// Records an already-finished span as a child of `parent`; no-op when
// tracing is off or `parent` is invalid.  For legs whose start was stamped
// elsewhere (wire transit, reservation waits).
void record_span(const char* name, std::uint64_t node, TraceContext parent,
                 std::int64_t start_us, std::int64_t dur_us,
                 std::string_view detail = {}, std::uint64_t track = 0);

// A zero-duration span under the current context, on this thread's track:
// an outcome with no extent of its own (the default action, a dead target).
void mark(const char* name, std::uint64_t node, std::string_view detail = {});

// Tag selecting the SpanGuard constructor that starts a new trace when no
// ambient context exists (used at raise/RPC entry points).
struct MintTraceTag {};
inline constexpr MintTraceTag kMintTrace{};

// Scoped span.  While alive it installs itself as the thread's current
// context (restoring the previous one on destruction), so nested guards and
// outgoing messages pick it up; on destruction it records the span.
//
// Three linkage modes:
//   SpanGuard(name, node, detail)              child of current; inactive if
//                                              no current trace
//   SpanGuard(name, node, kMintTrace, detail)  child of current, or root of
//                                              a fresh trace if none
//   SpanGuard(name, node, parent, detail)      child of an explicit parent
//                                              context (from a message);
//                                              inactive if parent invalid
class SpanGuard {
 public:
  SpanGuard(const char* name, std::uint64_t node,
            std::string_view detail = {});
  SpanGuard(const char* name, std::uint64_t node, MintTraceTag,
            std::string_view detail = {});
  SpanGuard(const char* name, std::uint64_t node, TraceContext parent,
            std::string_view detail = {});
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  ~SpanGuard();

  [[nodiscard]] bool active() const { return active_; }

  // The context this span represents — copy into outgoing notices/messages.
  [[nodiscard]] TraceContext context() const {
    return TraceContext{span_.trace_id, span_.span_id};
  }

 private:
  void open(const char* name, std::uint64_t node, TraceContext parent,
            bool mint_if_absent, std::string_view detail);

  bool active_ = false;
  Span span_;
  TraceContext saved_;
};

}  // namespace doct::obs
