// Building blocks shared by the event workloads: the tag every benchmark
// payload starts with, the ledger that checks exact handler counts and
// per-target FIFO from the recorded history, and the set of passive objects
// and parked threads on nodes 1-3 that the load targets.
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "harness.hpp"

namespace perfbench {

inline constexpr const char* kEventName = "PERFBENCH_EVENT";
inline constexpr const char* kThreadProc = "perfbench.on_event";
inline constexpr const char* kNoopMethod = "perfbench.noop";

// First 32 bytes of every payload the benchmark sends.  `seq` counts the
// ops one source sent to one target, so the handler can check FIFO.
struct Tag {
  std::uint16_t source = 0;
  std::uint16_t target = 0;
  std::uint32_t seq = 0;
  std::uint64_t op = 0;
  std::int64_t due_ns = 0;   // open loop: when the op was due
  std::int64_t sent_ns = 0;  // when the raise (or call) was entered
};
static_assert(sizeof(Tag) == 32);

inline std::vector<std::uint8_t> encode(const Tag& tag, std::size_t size) {
  std::vector<std::uint8_t> out(std::max(size, sizeof(Tag)));
  std::memcpy(out.data(), &tag, sizeof(Tag));
  for (std::size_t i = sizeof(Tag); i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(tag.seq + i);
  }
  return out;
}

inline bool decode(const std::vector<std::uint8_t>& data, Tag& tag) {
  if (data.size() < sizeof(Tag)) return false;
  std::memcpy(&tag, data.data(), sizeof(Tag));
  return true;
}

// Exact handler counts and per-(source, target) FIFO, checked against the
// history the handlers record.
class Ledger {
 public:
  Ledger(std::size_t sources, std::size_t targets)
      : targets_(targets),
        next_(std::make_unique<std::atomic<std::uint32_t>[]>(sources * targets)),
        sent_(sources * targets, 0),
        runs_(std::make_unique<std::atomic<std::uint64_t>[]>(sources * targets)) {
    for (std::size_t i = 0; i < sources * targets; ++i) {
      next_[i].store(0);
      runs_[i].store(0);
    }
  }

  // Source side: the sequence number of the next op from `source` to
  // `target`.  Each source is one thread.
  std::uint32_t next_seq(std::size_t source, std::size_t target) {
    return static_cast<std::uint32_t>(sent_[source * targets_ + target]++);
  }

  // Handler side: false when the op arrived out of order or twice.
  bool on_handle(const Tag& tag) {
    const std::size_t slot = tag.source * targets_ + tag.target;
    runs_[slot].fetch_add(1, std::memory_order_relaxed);
    const std::uint32_t expected =
        next_[slot].exchange(tag.seq + 1, std::memory_order_relaxed);
    return expected == tag.seq;
  }

  // Handler runs minus ops sent, summed as |difference| over every
  // (source, target): lost and duplicated handler runs.
  [[nodiscard]] std::size_t count_mismatches() const {
    std::size_t bad = 0;
    for (std::size_t i = 0; i < sent_.size(); ++i) {
      const auto runs = runs_[i].load();
      bad += runs > sent_[i] ? runs - sent_[i] : sent_[i] - runs;
    }
    return bad;
  }

 private:
  std::size_t targets_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> next_;
  std::vector<std::uint64_t> sent_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> runs_;
};

// Called by every benchmark handler with the payload it received and the
// handler's start and end stamps.
using HandleHook = std::function<void(const std::vector<std::uint8_t>& data,
                                      std::int64_t start_ns,
                                      std::int64_t end_ns)>;

// Passive objects and parked logical threads on nodes 1..3.  Target index
// order: every object first (node-major), then every thread.
class TargetSet {
 public:
  TargetSet(runtime::Cluster& cluster, int objects_per_node,
            int threads_per_node, HandleHook hook);
  ~TargetSet();

  [[nodiscard]] std::size_t size() const {
    return objects.size() + threads.size();
  }
  [[nodiscard]] bool is_thread(std::size_t target) const {
    return target >= objects.size();
  }

  EventId event;
  std::vector<ObjectId> objects;
  std::vector<ThreadId> threads;
  std::vector<runtime::NodeRuntime*> thread_nodes;

 private:
  runtime::Cluster& cluster_;
  std::shared_ptr<HandleHook> hook_;
  std::atomic<int> ready_{0};
  std::atomic<bool> release_{false};
};

}  // namespace perfbench
