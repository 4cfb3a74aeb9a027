#include "sim/scheduler.hpp"

#include <cassert>
#include <limits>
#include <utility>

namespace gemsd::sim {

namespace detail {

FramePool::~FramePool() {
  for (void* c : chunks_) {
    unpoison(c, kChunkBytes);
    ::operator delete(c, kChunkBytes);
  }
}

void FramePool::new_chunk() {
  // The tail of the previous chunk, smaller than the block asked for, is
  // left unused: at most 2 KiB of every 64 KiB.
  void* c = ::operator new(kChunkBytes);
  chunks_.push_back(c);
  bump_ = static_cast<char*>(c);
  end_ = bump_ + kChunkBytes;
  poison(c, kChunkBytes);
}

}  // namespace detail

Scheduler::~Scheduler() {
  drain_dead();
  // Destroy still-suspended root processes; nested frames are owned by their
  // parents' Task locals and cascade automatically.
  while (roots_ != nullptr) {
    auto& root = static_cast<Task<void>::promise_type&>(*roots_);
    roots_ = roots_->next_root;
    std::coroutine_handle<Task<void>::promise_type>::from_promise(root)
        .destroy();
  }
}

// The heap is 4-ary: half the tree height of a binary heap, and the four
// children of a node sit in one 32-byte span of the flat Ev array (about a
// cache line), so the extra comparisons per level are nearly free while the
// sift paths — the part deep queues pay for — shrink by 2x. Because (t, seq)
// is a strict total order (seq is the unique schedule sequence number),
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

void Scheduler::spawn(Task<void> t) {
  auto h = t.release();
  auto& root = h.promise();
  root.reaper = this;
  root.next_root = roots_;
  if (roots_ != nullptr) roots_->prev_root = &root;
  roots_ = &root;
  ++live_roots_;
  schedule(now_, h);
}

void Scheduler::reap(detail::PromiseBase& root, std::coroutine_handle<> h) {
  if (root.prev_root != nullptr) {
    root.prev_root->next_root = root.next_root;
  } else {
    roots_ = root.next_root;
  }
  if (root.next_root != nullptr) root.next_root->prev_root = root.prev_root;
  --live_roots_;
  dead_.push_back(h);
}

void Scheduler::drain_dead_slow() {
  for (auto h : dead_) h.destroy();
  dead_.clear();
}

std::uint64_t Scheduler::drain(SimTime end) {
  detail::FramePool::Use use(frames_);
  std::uint64_t n = 0;
  while (!heap_.empty() && heap_.front().t <= end) {
    const Ev ev = pop_top();
    now_ = ev.t;
    std::coroutine_handle<>::from_address(reinterpret_cast<void*>(ev.handle))
        .resume();
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

std::uint64_t Scheduler::run_until(SimTime end) {
  const std::uint64_t n = drain(end);
  now_ = end;
  return n;
}

std::uint64_t Scheduler::run_all() {
  return drain(std::numeric_limits<SimTime>::infinity());
}

}  // namespace gemsd::sim
