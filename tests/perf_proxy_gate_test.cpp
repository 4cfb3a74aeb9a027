// Gate on the simulator's deterministic cost proxies. A short fixed cell of
// each benchmark workload (dc_pcl, trace_pcl, scale_out_256, built through
// the public factories like perfbench/src/workloads.cpp builds them) must
// process exactly the committed number of events and commits in its measured
// interval, and call operator new at most the committed number of times per
// commit. This binary replaces the global allocation functions to count the
// calls, so it is its own executable.
//
// A change that lowers a count re-records the committed value; a change
// that raises one has to say why. Both counts repeat exactly for a seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <string>

#include "core/config.hpp"
#include "core/experiment.hpp"
#include "core/system.hpp"
#include "sim/random.hpp"
#include "workload/scale_out.hpp"
#include "workload/trace.hpp"
#include "workload/trace_generator.hpp"

namespace {

// Counts operator new calls on this thread while counting is on.
thread_local bool t_counting = false;
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  if (t_counting) ++t_allocs;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  if (t_counting) ++t_allocs;
  auto a = static_cast<std::size_t>(al);
  if (a < sizeof(void*)) a = sizeof(void*);
  return std::aligned_alloc(a, ((n == 0 ? 1 : n) + a - 1) / a * a);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return operator new(n, al);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
// Out of line, so the compiler does not pair a visible std::free with the
// operator new at the call site (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}

namespace gemsd {
namespace {

constexpr std::uint64_t kSeed = 1;

/// One workload's fixed cell and its committed counts.
struct Cell {
  const char* name;
  double warmup_s;
  double measure_s;
  std::uint64_t events;   ///< scheduler events in the measured interval
  std::uint64_t commits;  ///< commits in the measured interval
  double allocs_ceiling;  ///< operator new calls per commit, at most
};

void PrintTo(const Cell& c, std::ostream* os) { *os << c.name; }

struct Measured {
  std::uint64_t events = 0, commits = 0, allocs = 0;
};

/// Builds the cell's System from the workload factories, warms it up, resets
/// its statistics and counts over the measured interval.
Measured run_cell(const Cell& c) {
  SystemConfig cfg;
  System::Workload wl;
  std::unique_ptr<workload::Trace> trace;
  const std::string name = c.name;
  if (name == "dc_pcl") {
    cfg = make_debit_credit_config();
    cfg.nodes = 8;
    cfg.coupling = Coupling::PrimaryCopy;
    cfg.update = UpdateStrategy::NoForce;
    cfg.routing = Routing::Random;
    cfg.arrival_rate_per_node = 100.0;
    cfg.buffer_pages = 200;
    cfg.seed = kSeed;
    wl = make_debit_credit_workload(cfg);
  } else if (name == "trace_pcl") {
    sim::Rng trace_rng(kSeed);
    trace = std::make_unique<workload::Trace>(
        workload::generate_synthetic_trace({}, trace_rng));
    cfg = make_trace_config(*trace);
    cfg.nodes = 8;
    cfg.coupling = Coupling::PrimaryCopy;
    cfg.update = UpdateStrategy::NoForce;
    cfg.routing = Routing::Affinity;
    cfg.arrival_rate_per_node = 50.0;
    cfg.buffer_pages = 1000;
    cfg.pcl_read_optimization = true;
    cfg.seed = kSeed;
    wl = make_trace_workload(cfg, *trace);
  } else {
    cfg = workload::make_scale_out_config(256);
    cfg.gem.shards = 16;
    cfg.seed = kSeed;
    auto bundle = workload::make_scale_out_workload(cfg);
    wl.gen = std::move(bundle.gen);
    wl.router = std::move(bundle.router);
    wl.gla = std::move(bundle.gla);
    wl.arrival_factor = std::move(bundle.arrival_factor);
  }
  cfg.warmup = c.warmup_s;
  cfg.measure = c.measure_s;

  System sys(cfg, std::move(wl));
  sys.start_source();
  sys.run_until(c.warmup_s);
  sys.reset_stats();
  Measured m;
  const std::uint64_t ev0 = sys.scheduler().events_processed();
  t_allocs = 0;
  t_counting = true;
  sys.run_until(c.warmup_s + c.measure_s);
  t_counting = false;
  m.allocs = t_allocs;
  m.events = sys.scheduler().events_processed() - ev0;
  m.commits = sys.collect().commits;
  return m;
}

class PerfProxyGate : public ::testing::TestWithParam<Cell> {};

TEST_P(PerfProxyGate, EventsExactAndAllocsUnderCeiling) {
  const Cell& c = GetParam();
  const Measured m = run_cell(c);
  ASSERT_GT(m.commits, 0u);
  const double allocs_per_commit =
      static_cast<double>(m.allocs) / static_cast<double>(m.commits);
  std::printf("%s: %llu events, %llu commits (%.4f events/commit), "
              "%.4f allocs/commit\n",
              c.name, static_cast<unsigned long long>(m.events),
              static_cast<unsigned long long>(m.commits),
              static_cast<double>(m.events) / static_cast<double>(m.commits),
              allocs_per_commit);
  EXPECT_EQ(m.events, c.events) << "events/commit moved";
  EXPECT_EQ(m.commits, c.commits) << "commits moved";
  EXPECT_LE(allocs_per_commit, c.allocs_ceiling)
      << "allocs/commit rose above its ceiling";
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PerfProxyGate,
    // Recorded at seed 1; the ceilings are the measured allocs/commit
    // (2.477, 19.395, 2.559) plus about 5%.
    ::testing::Values(Cell{"dc_pcl", 2.0, 4.0, 205354, 3158, 2.6},
                      Cell{"trace_pcl", 8.0, 4.0, 541814, 1579, 20.4},
                      Cell{"scale_out_256", 0.5, 0.5, 721504, 14282, 2.7}),
    [](const ::testing::TestParamInfo<Cell>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace gemsd
