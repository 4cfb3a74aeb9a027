#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/task.hpp"
#include "sim/time.hpp"

namespace gemsd::sim {

/// Discrete-event scheduler. All model activity runs as coroutine processes
/// resumed from the central event queue; every cross-process wakeup goes
/// through schedule(), never by resuming a handle inline. That single rule
/// makes the simulation reentrancy-free and teardown safe.
///
/// Every event is the resume of a coroutine process: a trivially copyable
/// 24-byte heap entry carrying the handle address. The heap vector persists
/// and is reused across run_until() calls, so a steady-state simulation
/// schedules millions of events without touching the allocator. Coroutine
/// frames created while the scheduler runs come from its own frame pool
/// (detail::FramePool), and the live root processes form an intrusive list
/// threaded through their promises, so spawning, awaiting and reaping
/// processes recycle memory instead of allocating it.
///
/// A Scheduler is strictly single-threaded: no two threads may touch it at
/// the same time. Parallelism is across Scheduler instances, one per
/// simulation run (core/sweep.hpp).
class Scheduler {
 public:
  Scheduler() { heap_.reserve(kInitialHeapCapacity); }
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimTime now() const { return now_; }

  /// Resume `h` at absolute time `t` (>= now). Fast path: no allocation.
  void schedule(SimTime t, std::coroutine_handle<> h) {
    push(Ev{t, seq_++, reinterpret_cast<std::uintptr_t>(h.address())});
  }

  /// Start a root process. The scheduler owns the frame; it is destroyed
  /// when the process finishes or when the scheduler is destroyed.
  void spawn(Task<void> t);

  /// Process events with timestamp <= end; then advance now to end.
  /// Returns the number of events processed.
  std::uint64_t run_until(SimTime end);
  /// Process all remaining events. Returns the number processed.
  std::uint64_t run_all();

  bool empty() const { return heap_.empty(); }
  std::size_t queued_events() const { return heap_.size(); }
  /// Event-queue high-water mark (lifetime; not reset between runs).
  std::size_t max_queued() const { return max_queued_; }
  std::uint64_t events_processed() const { return processed_; }
  std::size_t live_processes() const { return live_roots_; }
  /// 64 KiB chunks the frame pool has allocated (lifetime).
  std::size_t frame_chunks() const { return frames_.chunks(); }
  /// True when `frame` (a live coroutine handle's address) came from this
  /// scheduler's frame pool, not from the global heap or another pool.
  bool owns_frame(const void* frame) const {
    return detail::FramePool::owner(frame) == &frames_;
  }

  /// Awaitable: suspend the calling process for `d` simulated time.
  auto delay(SimTime d) {
    struct Awaiter {
      Scheduler& s;
      SimTime d;
      bool await_ready() const noexcept { return d <= 0.0; }
      void await_suspend(std::coroutine_handle<> h) {
        s.schedule(s.now_ + d, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// Awaitable: suspend the calling process and hand its handle to `fn`,
  /// which must arrange resumption later via schedule(). Used by lock
  /// managers and futures to park processes on their own wait queues.
  template <typename Fn>
  auto suspend(Fn fn) {
    struct Awaiter {
      Fn fn;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { fn(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{std::move(fn)};
  }

  /// Internal: called from a finished root task's final suspend.
  void reap(detail::PromiseBase& root, std::coroutine_handle<> h);

  /// Invoke `cb` after every `every` processed events (0 disables). The hook
  /// is observation-only plumbing for the --progress heartbeat: it costs one
  /// predictable branch on the event loop when disabled and must not mutate
  /// simulation state (it runs between events, so any mutation would change
  /// results). `cb` must outlive the scheduler or be cleared first.
  void set_progress_hook(std::function<void()> cb, std::uint64_t every) {
    progress_cb_ = std::move(cb);
    progress_every_ = progress_cb_ ? every : 0;
    progress_left_ = progress_every_;
  }

 private:
  /// Flat-heap entry. `seq` (the schedule sequence number) gives FIFO order
  /// among same-timestamp events, so (t, seq) is a strict total order and
  /// pop order never depends on the heap's shape.
  struct Ev {
    SimTime t;
    std::uint64_t seq;
    std::uintptr_t handle;  ///< coroutine handle address
  };
  static bool before(const Ev& a, const Ev& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }

  static constexpr std::size_t kInitialHeapCapacity = 1024;

  void push(Ev ev);
  Ev pop_top();
  /// The event loop of run_until() and run_all(): process events with
  /// timestamp <= end.
  std::uint64_t drain(SimTime end);
  void drain_dead() {
    if (!dead_.empty()) drain_dead_slow();
  }
  void drain_dead_slow();

  /// Declared first so it is destroyed last: ~Scheduler destroys the
  /// still-suspended roots, whose frames return their blocks to it.
  detail::FramePool frames_;
  std::vector<Ev> heap_;  ///< 4-ary min-heap ordered by (t, seq)
  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::size_t max_queued_ = 0;
  std::uint64_t processed_ = 0;
  detail::PromiseBase* roots_ = nullptr;  ///< live root processes
  std::size_t live_roots_ = 0;
  std::vector<std::coroutine_handle<>> dead_;
  std::function<void()> progress_cb_;
  std::uint64_t progress_every_ = 0;  ///< 0 = hook disabled
  std::uint64_t progress_left_ = 0;
};

namespace detail {

template <typename Promise>
std::coroutine_handle<> PromiseBase::FinalAwaiter::await_suspend(
    std::coroutine_handle<Promise> h) noexcept {
  auto& pb = h.promise();
  if (pb.continuation) return pb.continuation;
  if (pb.reaper != nullptr) pb.reaper->reap(pb, h);
  return std::noop_coroutine();
}

}  // namespace detail

}  // namespace gemsd::sim
