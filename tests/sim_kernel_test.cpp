// Unit tests for the discrete-event kernel: scheduler ordering, coroutine
// task composition, resources (FCFS k-server), one-shot futures, RNG and
// statistics.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/oneshot.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace gemsd::sim {
namespace {

/// Runs `fn` at absolute time `t`: the process form of a timer callback.
Task<void> at(Scheduler& s, SimTime t, std::function<void()> fn) {
  co_await s.delay(t - s.now());
  fn();
}

TEST(Scheduler, RunsCallbacksInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.spawn(at(s, 3.0, [&] { order.push_back(3); }));
  s.spawn(at(s, 1.0, [&] { order.push_back(1); }));
  s.spawn(at(s, 2.0, [&] { order.push_back(2); }));
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Scheduler, SameTimeEventsAreFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.spawn(at(s, 5.0, [&order, i] { order.push_back(i); }));
  }
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Scheduler s;
  int hits = 0;
  s.spawn(at(s, 1.0, [&] { ++hits; }));
  s.spawn(at(s, 2.5, [&] { ++hits; }));
  s.spawn(at(s, 7.0, [&] { ++hits; }));
  s.run_until(0.0);  // the three starts: each process parks on its delay
  EXPECT_EQ(s.run_until(3.0), 2u);
  EXPECT_EQ(hits, 2);
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
  s.run_all();
  EXPECT_EQ(hits, 3);
}

Task<void> delayer(Scheduler& s, double d, double* done_at) {
  co_await s.delay(d);
  *done_at = s.now();
}

TEST(Scheduler, SpawnedProcessDelays) {
  Scheduler s;
  double done = -1.0;
  s.spawn(delayer(s, 4.5, &done));
  s.run_all();
  EXPECT_DOUBLE_EQ(done, 4.5);
  EXPECT_EQ(s.live_processes(), 0u);
}

Task<int> add_after(Scheduler& s, double d, int a, int b) {
  co_await s.delay(d);
  co_return a + b;
}

Task<void> parent(Scheduler& s, int* out) {
  const int x = co_await add_after(s, 1.0, 2, 3);
  const int y = co_await add_after(s, 2.0, x, 10);
  *out = y;
}

TEST(Task, NestedAwaitPropagatesValuesAndTime) {
  Scheduler s;
  int out = 0;
  s.spawn(parent(s, &out));
  s.run_all();
  EXPECT_EQ(out, 15);
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

Task<void> forever(Scheduler& s, int* steps) {
  for (;;) {
    co_await s.delay(1.0);
    ++*steps;
  }
}

TEST(Scheduler, TeardownDestroysSuspendedProcesses) {
  int steps = 0;
  {
    Scheduler s;
    s.spawn(forever(s, &steps));
    s.spawn(forever(s, &steps));
    s.run_until(10.0);
    EXPECT_EQ(s.live_processes(), 2u);
  }  // destructor must free both frames (ASAN/valgrind would flag leaks)
  EXPECT_EQ(steps, 20);
}

Task<void> worker(Scheduler&, Resource& r, double service, int* done) {
  co_await r.use(service);
  ++*done;
}

TEST(Resource, SingleServerSerializesFcfs) {
  Scheduler s;
  Resource r(s, 1, "disk");
  int done = 0;
  for (int i = 0; i < 4; ++i) s.spawn(worker(s, r, 2.0, &done));
  s.run_all();
  EXPECT_EQ(done, 4);
  EXPECT_DOUBLE_EQ(s.now(), 8.0);  // 4 jobs x 2.0 serialized
  EXPECT_EQ(r.completions(), 4u);
}

TEST(Resource, MultiServerRunsInParallel) {
  Scheduler s;
  Resource r(s, 4, "cpu");
  int done = 0;
  for (int i = 0; i < 4; ++i) s.spawn(worker(s, r, 2.0, &done));
  s.run_all();
  EXPECT_EQ(done, 4);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

TEST(Resource, UtilizationAccounting) {
  Scheduler s;
  Resource r(s, 2, "cpu");
  int done = 0;
  // Two jobs of 3s on 2 servers over a 6s horizon -> utilization 0.5.
  for (int i = 0; i < 2; ++i) s.spawn(worker(s, r, 3.0, &done));
  s.run_until(6.0);
  EXPECT_NEAR(r.utilization(), 0.5, 1e-12);
}

TEST(Resource, WaitTimesMeasured) {
  Scheduler s;
  Resource r(s, 1);
  int done = 0;
  for (int i = 0; i < 3; ++i) s.spawn(worker(s, r, 1.0, &done));
  s.run_all();
  // Waits: 0, 1, 2 -> mean 1.0
  EXPECT_NEAR(r.wait_stat().mean(), 1.0, 1e-12);
  EXPECT_EQ(r.wait_stat().count(), 3u);
}

Task<void> producer(Scheduler& s, OneShot<int>& o) {
  co_await s.delay(5.0);
  o.set(42);
}

Task<void> consumer(Scheduler& s, OneShot<int>& o, int* got, double* at) {
  *got = co_await o.wait();
  *at = s.now();
}

TEST(OneShot, WaitThenSet) {
  Scheduler s;
  OneShot<int> o(s);
  int got = 0;
  double at = 0;
  s.spawn(consumer(s, o, &got, &at));
  s.spawn(producer(s, o));
  s.run_all();
  EXPECT_EQ(got, 42);
  EXPECT_DOUBLE_EQ(at, 5.0);
}

TEST(OneShot, SetThenWait) {
  Scheduler s;
  OneShot<int> o(s);
  o.set(7);
  int got = 0;
  double at = -1;
  s.spawn(consumer(s, o, &got, &at));
  s.run_all();
  EXPECT_EQ(got, 7);
  EXPECT_DOUBLE_EQ(at, 0.0);
}

TEST(Stats, MeanStatBasics) {
  MeanStat m;
  for (double x : {1.0, 2.0, 3.0, 4.0}) m.add(x);
  EXPECT_DOUBLE_EQ(m.mean(), 2.5);
  EXPECT_DOUBLE_EQ(m.min(), 1.0);
  EXPECT_DOUBLE_EQ(m.max(), 4.0);
  EXPECT_NEAR(m.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_EQ(m.count(), 4u);
}

TEST(Stats, TimeWeightedMean) {
  TimeWeighted tw;
  tw.set(0.0, 1.0);   // value 1 over [0,4)
  tw.set(4.0, 3.0);   // value 3 over [4,8)
  EXPECT_NEAR(tw.mean(8.0), 2.0, 1e-12);
  tw.reset(8.0);
  EXPECT_NEAR(tw.mean(10.0), 3.0, 1e-12);
}

TEST(Stats, HistogramQuantiles) {
  Histogram h(1e-4, 10.0, 200);
  for (int i = 1; i <= 1000; ++i) h.add(i * 1e-3);  // 1ms..1s uniform
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.05);
  EXPECT_NEAR(h.quantile(0.95), 0.95, 0.08);
}

TEST(Rng, ExponentialMean) {
  Rng rng(1);
  MeanStat m;
  for (int i = 0; i < 200000; ++i) m.add(rng.exponential(0.01));
  EXPECT_NEAR(m.mean(), 0.01, 2e-4);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Zipf, SkewIncreasesHeadMass) {
  Rng rng(3);
  ZipfGenerator flat(100, 0.0), skew(100, 1.0);
  int flat_head = 0, skew_head = 0;
  for (int i = 0; i < 20000; ++i) {
    if (flat.sample(rng) < 10) ++flat_head;
    if (skew.sample(rng) < 10) ++skew_head;
  }
  EXPECT_GT(skew_head, flat_head * 2);
  EXPECT_NEAR(flat_head / 20000.0, 0.10, 0.02);
}

TEST(Zipf, RanksWithinRange) {
  Rng rng(4);
  ZipfGenerator z(17, 0.8);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(z.sample(rng), 17u);
}

}  // namespace
}  // namespace gemsd::sim
