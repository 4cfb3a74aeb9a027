#include "sim/scheduler.hpp"

#include <cassert>
#include <utility>

namespace gemsd::sim {

Scheduler::~Scheduler() {
  drain_dead();
  // Destroy still-suspended root processes; nested frames are owned by their
  // parents' Task locals and cascade automatically.
  for (void* p : roots_) {
    std::coroutine_handle<>::from_address(p).destroy();
  }
}

// The heap is 4-ary: half the tree height of a binary heap, and the four
// children of a node sit in one 32-byte span of the flat Ev array (about a
// cache line), so the extra comparisons per level are nearly free while the
// sift paths — the part deep queues pay for — shrink by 2x. Because (t, key)
// is a strict total order (key embeds the unique schedule sequence number),
// pop order is independent of heap arity: results are bit-identical to the
// binary heap this replaces. See BM_QueueDepth in bench/bench_kernel.cpp.
void Scheduler::push(Ev ev) {
  assert(ev.t >= now_);
  heap_.push_back(ev);
  if (heap_.size() > max_queued_) max_queued_ = heap_.size();
  // Sift up: hole-based (move the parent down instead of swapping).
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(ev, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = ev;
}

Scheduler::Ev Scheduler::pop_top() {
  const Ev top = heap_.front();
  const Ev last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  // Sift down: pick the smallest of up to four children per level.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    std::size_t min = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[min])) min = c;
    }
    if (!before(heap_[min], last)) break;
    heap_[i] = heap_[min];
    i = min;
  }
  heap_[i] = last;
  return top;
}

void Scheduler::schedule_call(SimTime t, std::function<void()> fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(fn));
  }
  push(Ev{t, (seq_++ << 1) | 1u, slot});
}

void Scheduler::dispatch(const Ev& ev) {
  if (ev.key & 1u) {
    // Move the callable out and recycle its slot before invoking: the
    // callback may itself schedule_call(), which must be free to reuse it.
    auto fn = std::move(slab_[ev.payload]);
    slab_[ev.payload] = nullptr;
    free_slots_.push_back(static_cast<std::uint32_t>(ev.payload));
    fn();
  } else {
    std::coroutine_handle<>::from_address(
        reinterpret_cast<void*>(ev.payload))
        .resume();
  }
}

void Scheduler::spawn(Task<void> t) {
  auto h = t.release();
  h.promise().reaper = this;
  roots_.insert(h.address());
  schedule(now_, h);
}

void Scheduler::reap(std::coroutine_handle<> h) {
  roots_.erase(h.address());
  dead_.push_back(h);
}

void Scheduler::drain_dead_slow() {
  for (auto h : dead_) h.destroy();
  dead_.clear();
}

std::uint64_t Scheduler::run_until(SimTime end) {
  std::uint64_t n = 0;
  while (!heap_.empty() && heap_.front().t <= end) {
    const Ev ev = pop_top();
    now_ = ev.t;
    dispatch(ev);
    drain_dead();
    ++n;
    // Kept live per event (not folded in at loop exit) so the progress
    // heartbeat sees a moving count mid-segment.
    ++processed_;
    if (progress_every_ != 0 && --progress_left_ == 0) {
      progress_left_ = progress_every_;
      progress_cb_();
    }
  }
  now_ = end;
  return n;
}

std::uint64_t Scheduler::run_all() {
  std::uint64_t n = 0;
  while (!heap_.empty()) {
    const Ev ev = pop_top();
    now_ = ev.t;
    dispatch(ev);
    drain_dead();
    ++n;
    // Kept live per event (not folded in at loop exit) so the progress
    // heartbeat sees a moving count mid-segment.
    ++processed_;
    if (progress_every_ != 0 && --progress_left_ == 0) {
      progress_left_ = progress_every_;
      progress_cb_();
    }
  }
  return n;
}

}  // namespace gemsd::sim
