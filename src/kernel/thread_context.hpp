// ThreadContext — the per-node state of a logical distributed thread.
//
// A logical thread exists at exactly one node at a time.  When it invokes an
// object on another node, the local carrier blocks inside the RPC, the local
// context is marked departed (here=false, next_hop set — this is the TCB
// trail §7.1's path-following locator walks), and a fresh context is adopted
// on the target node.  On return the trail is popped.
//
// Event delivery is cooperative: notices are queued here and processed at
// delivery points (invocation entry/exit, explicit poll, interruptible kernel
// waits).  That reproduces the paper's semantics — the thread is "stopped at
// the point of delivery", the handler runs synchronously, then the thread is
// resumed or terminated — without undefined preemption.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "common/clock.hpp"

#include "common/ids.hpp"
#include "kernel/attributes.hpp"
#include "kernel/event_notice.hpp"

namespace doct::kernel {

// Always owned by a shared_ptr: a raiser blocked in await_resume hands
// shared_from_this() to its waiter, so the resumer can wake it even after
// the context leaves the kernel's table.
class ThreadContext : public std::enable_shared_from_this<ThreadContext> {
 public:
  ThreadContext(ThreadId tid, NodeId node) : tid_(tid), node_(node) {}

  ThreadContext(const ThreadContext&) = delete;
  ThreadContext& operator=(const ThreadContext&) = delete;

  [[nodiscard]] ThreadId tid() const { return tid_; }
  [[nodiscard]] NodeId node() const { return node_; }

  // Attributes travel with the thread.  The carrier thread may use the bare
  // references between kernel calls; any cross-thread access (timer service,
  // delivery engine) must go through with_attributes().
  ThreadAttributes& attributes() { return attributes_; }
  const ThreadAttributes& attributes() const { return attributes_; }

  template <typename Fn>
  auto with_attributes(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    return fn(attributes_);
  }

  void notify() { cv_.notify_all(); }

  // Current object the thread executes in (invalid when outside any object).
  [[nodiscard]] ObjectId current_object() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_object_;
  }
  void set_current_object(ObjectId object) {
    std::lock_guard<std::mutex> lock(mu_);
    current_object_ = object;
  }

  // Presence: false while the thread is executing at another node.
  [[nodiscard]] bool here() const {
    std::lock_guard<std::mutex> lock(mu_);
    return here_;
  }
  [[nodiscard]] NodeId next_hop() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_hop_;
  }
  void depart(NodeId to) {
    std::lock_guard<std::mutex> lock(mu_);
    here_ = false;
    next_hop_ = to;
  }
  void arrive_back() {
    std::lock_guard<std::mutex> lock(mu_);
    here_ = true;
    next_hop_ = NodeId{};
  }

  // Termination is sticky; kernel waits and delivery points observe it.
  [[nodiscard]] bool terminated() const {
    return terminated_.load(std::memory_order_acquire);
  }
  void mark_terminated() {
    terminated_.store(true, std::memory_order_release);
    cv_.notify_all();
  }

  // --- pending event queue ---------------------------------------------

  // Control events (TERMINATE/ABORT-class) overtake ordinary notices.
  void enqueue(EventNotice notice, bool urgent = false) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (urgent) {
        pending_.push_front(std::move(notice));
      } else {
        pending_.push_back(std::move(notice));
      }
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool has_pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return !pending_.empty();
  }

  std::optional<EventNotice> dequeue() {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) return std::nullopt;
    EventNotice notice = std::move(pending_.front());
    pending_.pop_front();
    return notice;
  }

  // Blocks until `extra()` holds, a notice is pending, the thread is
  // terminated, or `deadline` passes.  Returns immediately if any condition
  // already holds.  `extra` is evaluated under the context lock.
  template <typename Pred>
  void wait_for_signal(Pred&& extra, TimePoint deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, deadline, [&] {
      return extra() || !pending_.empty() ||
             terminated_.load(std::memory_order_acquire);
    });
  }

  // Handler re-entrancy depth (a handler raising an event handled by another
  // handler is legal; unbounded recursion is a bug we guard against).
  [[nodiscard]] int handler_depth() const {
    return handler_depth_.load(std::memory_order_relaxed);
  }
  void enter_handler() { handler_depth_.fetch_add(1, std::memory_order_relaxed); }
  void exit_handler() { handler_depth_.fetch_sub(1, std::memory_order_relaxed); }

  std::mutex& mu() { return mu_; }
  std::condition_variable& cv() { return cv_; }

 private:
  const ThreadId tid_;
  const NodeId node_;
  ThreadAttributes attributes_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<EventNotice> pending_;
  ObjectId current_object_;
  bool here_ = true;
  NodeId next_hop_;
  std::atomic<bool> terminated_{false};
  std::atomic<int> handler_depth_{0};
};

}  // namespace doct::kernel
