// The process's record ring — one bounded ring of fixed-size POD slots that
// is the only record format for both trace spans (obs::Tracer) and flight-
// recorder breadcrumbs (delivered events, lane-depth samples, fault-injector
// decisions).  It survives to a dump file when the process dies violently:
// every chaos/nightly failure gets a black box.  The ring dumps to
// DOCT_FLIGHT_DIR on SIGSEGV/SIGABRT/std::terminate (async-signal-safe
// path), on NODE_DOWN observation in surviving doct-node processes, and on
// demand.
//
// The ring is allocated the first time tracing is turned on or the recorder
// is armed; its capacity (DOCT_FLIGHT_RING, default 65536 slots of 128
// bytes) is fixed from then on.  A process that does neither pays nothing.
//
// Writing is lock-free and allocation-free: one relaxed fetch_add picks the
// slot, a CAS claims it, the body goes out as relaxed atomic words and the
// slot's seq is published last.  Readers (dumps, the collector's span pulls)
// run while writers do: they read seq, the body, then seq again, and keep the
// slot only if seq is non-zero and unchanged — so a slot is never returned
// torn, and the reads are race-free by construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace doct::obs {

// One ring slot: a span (trace_id != 0) or a breadcrumb (trace_id == 0).
struct Record {
  std::uint64_t seq = 0;      // publish order, 1-based; 0 = never written
  std::int64_t start_us = 0;  // steady clock (obs::now_us)
  std::int64_t dur_us = 0;    // 0 for breadcrumbs and instant spans
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  std::uint64_t node = 0;   // span: Chrome pid; breadcrumb: operand a
  std::uint64_t track = 0;  // span: tid within the node; breadcrumb: operand b
  char name[16] = {};       // span name or breadcrumb kind
  char detail[48] = {};     // truncated free text (event name, lane, reason)

  [[nodiscard]] bool is_span() const { return trace_id != 0; }
  // Bounded copies; always NUL-terminated, and any byte that would break
  // the hand-rolled (signal-safe) JSON emitters is replaced by '.'.
  void set_name(std::string_view text);
  void set_detail(std::string_view text);
};

class FlightRecorder {
 public:
  static FlightRecorder& global();

  // Allocates the ring unless it exists; the first call fixes the capacity.
  // `capacity` 0 reads DOCT_FLIGHT_RING (default 65536 slots).
  void reserve(std::size_t capacity = 0);

  // Arms the breadcrumb recorder: reserves the ring, remembers the node
  // label and the dump directory.  An empty dir still records — dumps then
  // need an explicit path.
  void configure(std::uint64_t node, std::string dir, std::size_t capacity = 0);

  // Arms from DOCT_FLIGHT_DIR / DOCT_FLIGHT_RING if set; no-op otherwise.
  // Returns whether the recorder is armed afterwards.
  bool configure_from_env(std::uint64_t node);

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // A breadcrumb; recorded only while armed.
  void note(const char* kind, std::string_view detail, std::uint64_t a = 0,
            std::uint64_t b = 0);

  // Publishes one record (its seq is assigned here); no-op until the ring
  // exists.  A writer that finds its slot still held by a writer a whole
  // lap behind drops its record instead of waiting.
  void write(const Record& record);

  // Published records with seq > after, oldest first.
  [[nodiscard]] std::vector<Record> records_since(std::uint64_t after) const;

  // Full-fidelity dump (ring + metrics + trace JSON) to
  // <dir>/flight-node<N>-<reason>.json.  NOT async-signal-safe.
  Status dump(const std::string& reason);
  Status dump_to(const std::string& path, const std::string& reason);

  // Async-signal-safe dump: ring only, open(2)/write(2), static buffers.
  // Called from the crash handlers; safe to call anywhere.
  void dump_signal(const char* reason);

  [[nodiscard]] std::uint64_t node() const {
    return node_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::string dir() const;
  [[nodiscard]] std::size_t capacity() const;
  // Records written (seqs handed out) since process start.
  [[nodiscard]] std::uint64_t noted_total() const {
    return head_.load(std::memory_order_relaxed);
  }
  // Records overwritten by the ring wrapping since process start.
  [[nodiscard]] std::uint64_t dropped_total() const;

 private:
  struct Slot;

  FlightRecorder() = default;
  // Calls fn(record) for each published record with seq > after, oldest
  // first.  Allocates nothing, so the crash dump can use it.
  template <typename Fn>
  void for_each_since(std::uint64_t after, Fn&& fn) const;
  // The "entries" array of both dump formats; signal-safe.  False on a
  // failed write.
  bool write_entries(int fd) const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> node_{0};
  std::atomic<std::uint64_t> head_{0};
  std::atomic<Slot*> ring_{nullptr};  // published once, never freed
  std::size_t capacity_ = 0;          // written before ring_ is published
  // Serialises the one-time allocation and guards dir_.
  mutable std::mutex mu_;
  std::string dir_;
};

[[nodiscard]] inline FlightRecorder& flight() {
  return FlightRecorder::global();
}

// Installs SIGSEGV/SIGBUS/SIGFPE/SIGABRT handlers and a std::terminate
// handler that write the async-signal-safe flight dump and then re-raise so
// the default disposition (core, nonzero exit) still happens.  Idempotent.
void install_crash_handlers();

}  // namespace doct::obs
