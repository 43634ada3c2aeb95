// Lock-free queueing substrate (DAPL "future directions": fewer context
// switches, fewer locks, fewer atomics on the event hot path).
//
// Three cooperating pieces:
//
//   MpscChain   intrusive lock-free multi-producer/single-consumer chain.
//               push() is ONE CAS and reports the empty→non-empty
//               transition; take_all() is ONE exchange plus a pointer
//               reversal, so draining a burst of N nodes costs O(N) pointer
//               writes and exactly one atomic — no mutex, no per-item pops.
//   WakeupGate  coalesces producer→consumer wakeups: a burst of N pushes
//               costs at most ONE condvar notify (the futex/eventfd pattern
//               without requiring eventfd).  The empty lock acquisition in
//               signal() is the classic fence against the
//               checked-predicate-then-wait race: a consumer between its
//               predicate check and cv wait still holds the mutex, so the
//               producer's lock_guard serializes behind it and the notify
//               cannot be lost.
//   Mailbox<T>  closable MPSC mailbox: the lock-free chain with a
//               pooled-node freelist and the wakeup gate.  Network node
//               mailboxes and SocketTransport inbound/writer queues run on
//               it.
//
// Closed-state contract (what the network's in-flight accounting needs):
// push/push_bounded linearize against close() on one atomic state word, so a
// push either (a) returns kClosed/kFull and the item is dropped by the
// CALLER, or (b) succeeds and the item is guaranteed retrievable by the
// consumer's post-close drain — no third outcome, even under races.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

namespace doct::common {

// ---------------------------------------------------------------------------
// MpscChain

struct MpscNode {
  MpscNode* next = nullptr;
};

// Intrusive MPSC chain: producers CAS nodes onto a stack head; the single
// consumer exchanges the whole stack out and reverses it into FIFO order.
// The reversal puts the O(N) work on the consumer, off the producers' (hot)
// side, and preserves per-producer push order — which is what the executor's
// per-key FIFO guarantee builds on.
class MpscChain {
 public:
  // Returns true when the chain was empty (the empty→non-empty transition):
  // exactly the pushes that must signal the consumer's wakeup gate.
  bool push(MpscNode* node) noexcept {
    MpscNode* head = head_.load(std::memory_order_relaxed);
    do {
      node->next = head;
    } while (!head_.compare_exchange_weak(head, node,
                                          std::memory_order_release,
                                          std::memory_order_relaxed));
    return head == nullptr;
  }

  // Takes every queued node in FIFO order (oldest first).  Single consumer.
  [[nodiscard]] MpscNode* take_all() noexcept {
    MpscNode* node = head_.exchange(nullptr, std::memory_order_acquire);
    MpscNode* fifo = nullptr;
    while (node != nullptr) {
      MpscNode* next = node->next;
      node->next = fifo;
      fifo = node;
      node = next;
    }
    return fifo;
  }

  [[nodiscard]] bool empty() const noexcept {
    return head_.load(std::memory_order_acquire) == nullptr;
  }

 private:
  std::atomic<MpscNode*> head_{nullptr};
};

// ---------------------------------------------------------------------------
// WakeupGate

// Producer→consumer wakeup coalescing.  signal() from any thread; ONE
// consumer thread alternates consume_pending()/wait().  However many signals
// land between two waits, at most one of them pays the mutex+notify.
class WakeupGate {
 public:
  void signal() {
    signals_.fetch_add(1, std::memory_order_relaxed);
    if (pending_.exchange(true, std::memory_order_acq_rel)) return;
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    { std::lock_guard<std::mutex> lock(mu_); }  // fence vs. a racing wait()
    cv_.notify_one();
  }

  // Wakes the waiter without setting pending (close/shutdown paths: the
  // waiter's extra predicate decides).
  void kick() {
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  }

  // Consumer: clear the pending flag BEFORE scanning for work, so a signal
  // that lands after the scan re-arms the gate.
  bool consume_pending() noexcept {
    return pending_.exchange(false, std::memory_order_acq_rel);
  }

  // Consumer: sleep until signalled or `extra()` (e.g. closed) holds.
  template <typename ExtraPred>
  void wait(ExtraPred extra) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return pending_.load(std::memory_order_acquire) || extra();
    });
  }

  // Instrumentation for the coalescing invariant tests/bench: wakeups()
  // counts notifies actually paid, signals() counts signal() calls.
  [[nodiscard]] std::uint64_t wakeups() const noexcept {
    return wakeups_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t signals() const noexcept {
    return signals_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> pending_{false};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> signals_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

// ---------------------------------------------------------------------------
// MpmcRing

// Bounded MPMC ring (Vyukov sequence-number scheme) used as an ABA-safe
// freelist: recycled nodes flow consumer→pool→producers without a lock and
// without the Treiber-stack ABA hazard.
template <typename T>
class MpmcRing {
 public:
  explicit MpmcRing(std::size_t capacity) {
    std::size_t cap = 8;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  bool push(T value) noexcept {
    Cell* cell;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                                 static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(value);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  bool pop(T& out) noexcept {
    Cell* cell;
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                                 static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(cell->value);
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::atomic<std::size_t> head_{0};
};

// ---------------------------------------------------------------------------
// Mailbox

// Closable MPSC mailbox.  Any thread may push; the consumer side (pop_all /
// try_pop) must stay single-threaded — exactly how every user runs it (one
// delivery/writer thread per mailbox, and teardown flushes only after
// joining that thread).
template <typename T>
class Mailbox {
 public:
  // kFull: a bounded push found `capacity` items queued (the caller counts a
  // drop).  kClosed: the consumer is gone.  Either way the item is dropped.
  enum class PushResult { kOk, kClosed, kFull };

  explicit Mailbox(std::size_t pool_capacity = 512) : pool_(pool_capacity) {}

  ~Mailbox() {
    MpscNode* node = chain_.take_all();
    while (node != nullptr) {
      MpscNode* next = node->next;
      delete static_cast<Node*>(node);
      node = next;
    }
    Node* pooled = nullptr;
    while (pool_.pop(pooled)) delete pooled;
  }

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  // Returns false if the mailbox is closed (item is dropped).
  bool push(T item) {
    return push_bounded(std::move(item), 0) == PushResult::kOk;
  }

  // Bounded push: refuses the item (kFull) when `capacity` items are already
  // queued, so a slow consumer exerts backpressure instead of growing the
  // mailbox without bound.  capacity 0 = unbounded.
  PushResult push_bounded(T item, std::size_t capacity) {
    // Admission first, on the shared state word: fetch_add linearizes
    // against close()'s fetch_or, so "admitted" and "closed" are mutually
    // exclusive outcomes and the depth check is exact.
    const std::uint64_t prev =
        state_.fetch_add(1, std::memory_order_acq_rel);
    if ((prev & kClosedBit) != 0) {
      state_.fetch_sub(1, std::memory_order_relaxed);
      return PushResult::kClosed;
    }
    if (capacity != 0 && (prev & kDepthMask) >= capacity) {
      state_.fetch_sub(1, std::memory_order_relaxed);
      return PushResult::kFull;
    }
    Node* node = nullptr;
    if (!pool_.pop(node)) node = new Node;
    node->value.emplace(std::move(item));
    if (chain_.push(node)) gate_.signal();
    return PushResult::kOk;
  }

  // Blocks until items are available or the mailbox is closed AND fully
  // drained; an empty deque means closed-and-drained (consumer exits).
  std::deque<T> pop_all() {
    std::deque<T> out;
    if (!drained_.empty()) {
      out.swap(drained_);
      return out;
    }
    for (;;) {
      gate_.consume_pending();
      harvest(out);
      if (!out.empty()) return out;
      const std::uint64_t state = state_.load(std::memory_order_acquire);
      if ((state & kClosedBit) != 0) {
        if ((state & kDepthMask) == 0) return out;  // closed-and-drained
        // An admitted push has not landed on the chain yet (producer is
        // between fetch_add and chain.push); it is a handful of
        // instructions away.
        std::this_thread::yield();
        continue;
      }
      gate_.wait([&] {
        return (state_.load(std::memory_order_acquire) & kClosedBit) != 0;
      });
    }
  }

  std::optional<T> try_pop() {
    while (drained_.empty()) {
      std::deque<T> got;
      harvest(got);
      if (!got.empty()) {
        drained_.swap(got);
        break;
      }
      const std::uint64_t state = state_.load(std::memory_order_acquire);
      // Post-close flushes must retrieve every admitted item: spin out the
      // in-flight producers (see pop_all).
      if ((state & kClosedBit) != 0 && (state & kDepthMask) != 0) {
        std::this_thread::yield();
        continue;
      }
      return std::nullopt;
    }
    T item = std::move(drained_.front());
    drained_.pop_front();
    return item;
  }

  void close() {
    state_.fetch_or(kClosedBit, std::memory_order_acq_rel);
    gate_.kick();
  }

  [[nodiscard]] bool closed() const {
    return (state_.load(std::memory_order_acquire) & kClosedBit) != 0;
  }

  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(state_.load(std::memory_order_acquire) &
                                    kDepthMask);
  }

  // Wakeup-coalescing instrumentation.
  [[nodiscard]] std::uint64_t wakeups() const noexcept {
    return gate_.wakeups();
  }
  [[nodiscard]] std::uint64_t signals() const noexcept {
    return gate_.signals();
  }

 private:
  struct Node : MpscNode {
    std::optional<T> value;
  };

  void harvest(std::deque<T>& out) {
    MpscNode* node = chain_.take_all();
    std::uint64_t taken = 0;
    while (node != nullptr) {
      MpscNode* next = node->next;
      Node* typed = static_cast<Node*>(node);
      out.push_back(std::move(*typed->value));
      typed->value.reset();
      if (!pool_.push(typed)) delete typed;
      node = next;
      ++taken;
    }
    if (taken != 0) state_.fetch_sub(taken, std::memory_order_acq_rel);
  }

  static constexpr std::uint64_t kClosedBit = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kDepthMask = kClosedBit - 1;

  MpscChain chain_;
  WakeupGate gate_;
  // depth (admitted, not yet harvested) | closed bit.
  std::atomic<std::uint64_t> state_{0};
  MpmcRing<Node*> pool_;
  std::deque<T> drained_;  // consumer-local overflow for try_pop
};

}  // namespace doct::common
