// Unit tests for the Scheduler's coroutine-frame pool and its intrusive list
// of live root processes: which pool a frame comes from and goes back to,
// teardown with suspended frames, and steady-state reuse.
#include <gtest/gtest.h>

#include <coroutine>
#include <vector>

#include "sim/oneshot.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace gemsd::sim {
namespace {

/// Awaitable that yields the calling coroutine's frame address without
/// suspending it.
struct FrameAddress {
  void* addr = nullptr;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) noexcept {
    addr = h.address();
    return false;
  }
  void* await_resume() const noexcept { return addr; }
};

/// Records, for each frame it runs in, whether `owner` owns it.
struct OwnerLog {
  const Scheduler* owner;
  int owned = 0;
  int foreign = 0;
};

Task<void> probe(Scheduler& s, OwnerLog* log) {
  void* me = co_await FrameAddress{};
  ++(log->owner->owns_frame(me) ? log->owned : log->foreign);
  co_await s.delay(1.0);
}

/// Root process (created outside a run, so on the global heap) that awaits a
/// fresh child frame every simulated second.
Task<void> prober(Scheduler& s, OwnerLog* log, int rounds) {
  for (int i = 0; i < rounds; ++i) co_await probe(s, log);
}

TEST(FramePool, InterleavedSchedulersKeepTheirOwnFrames) {
  Scheduler a;
  Scheduler b;
  OwnerLog la{&a};
  OwnerLog lb{&b};
  a.spawn(prober(a, &la, 20));
  b.spawn(prober(b, &lb, 20));
  for (int t = 0; t <= 20; ++t) {
    a.run_until(t);
    b.run_until(t + 0.5);
  }
  EXPECT_EQ(la.owned, 20);
  EXPECT_EQ(la.foreign, 0);
  EXPECT_EQ(lb.owned, 20);
  EXPECT_EQ(lb.foreign, 0);
  EXPECT_EQ(a.live_processes(), 0u);
  EXPECT_EQ(b.live_processes(), 0u);
}

TEST(FramePool, NestedRunOfAnotherSchedulerRestoresTheOuterPool) {
  Scheduler a;
  Scheduler b;
  OwnerLog la{&a};
  OwnerLog lb{&b};
  b.spawn(prober(b, &lb, 3));
  a.schedule_call(1.0, [&] {
    // b runs inside a's event: b's frames come from b's pool, and a's
    // frames created after b returns come from a's pool again.
    b.run_all();
    a.spawn(prober(a, &la, 3));
  });
  a.run_all();
  EXPECT_EQ(lb.owned, 3);
  EXPECT_EQ(lb.foreign, 0);
  EXPECT_EQ(la.owned, 3);
  EXPECT_EQ(la.foreign, 0);
}

Task<void> child_of(Scheduler& s, Task<void> inner) {
  co_await s.delay(1.0);
  co_await std::move(inner);
}

Task<void> leaf(Scheduler& s, void** where) {
  *where = co_await FrameAddress{};
  co_await s.delay(1.0);
}

TEST(FramePool, FrameCreatedOutsideARunIsDestroyedInsideOne) {
  Scheduler s;
  void* leaf_frame = nullptr;
  // Both frames are created here, outside any run: the global heap serves
  // them, and they are freed back to it when reaped inside run_all().
  s.spawn(child_of(s, leaf(s, &leaf_frame)));
  EXPECT_EQ(s.frame_chunks(), 0u);
  s.run_until(1.5);
  ASSERT_NE(leaf_frame, nullptr);
  EXPECT_FALSE(s.owns_frame(leaf_frame));
  s.run_all();
  EXPECT_EQ(s.live_processes(), 0u);
  EXPECT_EQ(s.frame_chunks(), 0u);
}

/// Counts destructions of the frames that hold one.
struct Tally {
  int* n;
  explicit Tally(int* count) : n(count) {}
  Tally(const Tally&) = delete;
  Tally& operator=(const Tally&) = delete;
  ~Tally() { ++*n; }
};

Task<int> stuck(OneShot<int>& never, int* destroyed) {
  Tally t(destroyed);
  co_return co_await never.wait();
}

Task<int> middle(OneShot<int>& never, int* destroyed) {
  Tally t(destroyed);
  co_return co_await stuck(never, destroyed);
}

Task<void> root(Scheduler& s, OneShot<int>& never, int* destroyed) {
  Tally t(destroyed);
  co_await s.delay(1.0);
  (void)co_await middle(never, destroyed);
}

Task<void> spawner(Scheduler& s, OneShot<int>& never, int* destroyed,
                   int n) {
  for (int i = 0; i < n; ++i) s.spawn(root(s, never, destroyed));
  co_return;
}

TEST(FramePool, TeardownDestroysSuspendedRootsAndNestedFrames) {
  int destroyed = 0;
  {
    Scheduler s;
    OneShot<int> never(s);
    // The roots are spawned inside the run, so all three frames of each
    // chain come from the pool, which must outlive their destruction.
    s.spawn(spawner(s, never, &destroyed, 5));
    s.run_until(2.0);
    EXPECT_EQ(s.live_processes(), 5u);
    EXPECT_GE(s.frame_chunks(), 1u);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 15);
}

Task<void> sleeper(Scheduler& s, double d) { co_await s.delay(d); }

TEST(FramePool, LiveProcessesFollowSpawnAndReap) {
  Scheduler s;
  EXPECT_EQ(s.live_processes(), 0u);
  for (int i = 1; i <= 4; ++i) s.spawn(sleeper(s, i));
  EXPECT_EQ(s.live_processes(), 4u);
  s.run_until(2.5);  // the sleepers of 1 and 2 finish and are reaped
  EXPECT_EQ(s.live_processes(), 2u);
  s.spawn(sleeper(s, 0.25));
  EXPECT_EQ(s.live_processes(), 3u);
  s.run_until(3.0);
  EXPECT_EQ(s.live_processes(), 1u);
  s.run_all();
  EXPECT_EQ(s.live_processes(), 0u);
}

Task<int> chain(Scheduler& s, int depth) {
  if (depth == 0) {
    co_await s.delay(1e-3);
    co_return 1;
  }
  co_return 1 + co_await chain(s, depth - 1);
}

Task<void> worker(Scheduler& s, int* sum) { *sum += co_await chain(s, 4); }

Task<void> wave(Scheduler& s, int n, int* sum) {
  for (int i = 0; i < n; ++i) s.spawn(worker(s, sum));
  co_return;
}

TEST(FramePool, RepeatedWorkloadStopsAddingChunksAfterFirstPass) {
  Scheduler s;
  int sum = 0;
  std::vector<std::size_t> chunks;
  for (int pass = 0; pass < 5; ++pass) {
    s.spawn(wave(s, 200, &sum));
    s.run_all();
    chunks.push_back(s.frame_chunks());
  }
  EXPECT_EQ(sum, 5 * 200 * 5);
  EXPECT_GE(chunks[0], 1u);
  for (std::size_t c : chunks) EXPECT_EQ(c, chunks[0]);
}

TEST(FramePool, FinishedFrameIsPoisonedUnderAddressSanitizer) {
#if defined(__SANITIZE_ADDRESS__)
  Scheduler s;
  void* frame = nullptr;
  // Spawned from inside a run, so the frame comes from the pool.
  s.schedule_call(0.0, [&] { s.spawn(leaf(s, &frame)); });
  s.run_until(0.5);
  ASSERT_NE(frame, nullptr);
  ASSERT_TRUE(s.owns_frame(frame));
  EXPECT_FALSE(__asan_address_is_poisoned(frame));
  s.run_all();  // the leaf finishes and is reaped
  EXPECT_TRUE(__asan_address_is_poisoned(frame));
#else
  GTEST_SKIP() << "needs -fsanitize=address";
#endif
}

}  // namespace
}  // namespace gemsd::sim
