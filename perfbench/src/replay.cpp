#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "alloc_counter.hpp"
#include "cc/directory.hpp"
#include "cc/lock_table.hpp"
#include "cc/shard_map.hpp"
#include "core/lru.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using gemsd::LockMode;
using gemsd::PageId;

/// References replayed per pass; large enough that the lock table, the
/// directory and the LRU reach their steady size.
constexpr std::size_t kStreamRefs = 300000;
/// Timed passes per replay; the median pass is reported.
constexpr int kPasses = 5;
/// Transactions holding locks at once in the lock-table replay.
constexpr std::size_t kOpenTxns = 32;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Keeps a value alive so the optimiser cannot drop the loop computing it.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// Runs `pass` kPasses times; returns the median seconds per pass and the
/// allocations of the last pass (earlier passes may grow reused harness
/// buffers). Each pass is one span.
template <typename Fn>
std::pair<double, std::uint64_t> timed_passes(SpanLog& spans,
                                              const std::string& span,
                                              Fn&& pass) {
  std::vector<double> secs;
  std::uint64_t allocs = 0;
  for (int i = 0; i < kPasses; ++i) {
    SpanScope s(spans, span);
    std::uint64_t a = 0;
    const auto t0 = Clock::now();
    {
      AllocScope count(a);
      pass();
    }
    secs.push_back(seconds_since(t0));
    allocs = a;
  }
  return {median(std::move(secs)), allocs};
}

struct Ref {
  std::uint32_t txn;
  gemsd::NodeId node;
  gemsd::workload::PageRef ref;
};

struct Stream {
  std::vector<Ref> refs;  ///< in transaction order
  std::size_t txns = 0;
  double next_s = 0;      ///< host seconds spent in generator next()
};

/// The workload's own transactions: generator next() with the workload seed,
/// then the workload's router, as the SOURCE would draw them.
Stream make_stream(BuiltWorkload& b, std::uint64_t seed, SpanLog& spans) {
  SpanScope s(spans, "replay.workload.next");
  gemsd::sim::Rng rng(seed);
  std::vector<gemsd::workload::TxnSpec> specs;
  std::size_t refs = 0;
  const auto t0 = Clock::now();
  while (refs < kStreamRefs && specs.size() < kStreamRefs) {
    specs.push_back(b.wl.gen->next(rng));
    refs += specs.back().refs.size();
  }
  Stream st;
  st.next_s = seconds_since(t0);
  st.txns = specs.size();
  st.refs.reserve(refs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const gemsd::NodeId node = b.wl.router->route(specs[i], rng);
    for (const auto& r : specs[i].refs) {
      st.refs.push_back(Ref{static_cast<std::uint32_t>(i), node, r});
    }
  }
  return st;
}

bool is_append(const Ref& r) { return r.ref.page.page == gemsd::kAppendPage; }

LockMode mode_of(const gemsd::workload::PageRef& r) {
  return r.write ? LockMode::Write
                 : r.update_intent ? LockMode::Update : LockMode::Read;
}

/// Lock-table replay harness: strict 2PL over a sliding window of open
/// transactions. Each transaction acquires its references' locks, then holds
/// them until kOpenTxns newer transactions have started. A request that
/// would wait is cancelled and its transaction releases everything, like a
/// deadlock victim. The window's slots keep their capacity across passes,
/// so after the first pass the harness itself allocates nothing.
class LockReplay {
 public:
  /// One pass on a fresh table; returns the lock-table operations made.
  std::uint64_t pass(const Stream& st,
                     const std::vector<gemsd::PartitionConfig>& parts) {
    gemsd::cc::LockTable lt;
    ops_ = 0;
    bool first = true, aborted = false;
    std::uint32_t txn = 0;
    for (const Ref& r : st.refs) {
      if (first || r.txn != txn) {
        first = false;
        txn = r.txn;
        // The slot's previous transaction is the oldest open one.
        Slot& slot = slots_[txn % kOpenTxns];
        release_all(lt, slot);
        slot.txn = txn;
        aborted = false;
      }
      if (aborted || is_append(r) ||
          !parts[static_cast<std::size_t>(r.ref.page.partition)].locked) {
        continue;
      }
      Slot& o = slots_[txn % kOpenTxns];
      const LockMode want = mode_of(r.ref);
      auto held = std::find_if(o.held.begin(), o.held.end(),
                               [&](const auto& h) { return h.first == r.ref.page; });
      if (held != o.held.end() &&
          gemsd::lock_strength(held->second) >= gemsd::lock_strength(want)) {
        continue;
      }
      ++ops_;
      if (lt.acquire(r.ref.page, o.txn, r.node, want, [] {}) ==
          gemsd::cc::LockTable::Outcome::Waiting) {
        lt.cancel_wait(r.ref.page, o.txn);
        ++ops_;
        release_all(lt, o);
        aborted = true;
      } else if (held != o.held.end()) {
        held->second = want;
      } else {
        o.held.emplace_back(r.ref.page, want);
      }
    }
    for (Slot& o : slots_) release_all(lt, o);
    return ops_;
  }

 private:
  struct Slot {
    gemsd::TxnId txn = 0;
    std::vector<std::pair<PageId, LockMode>> held;
  };

  void release_all(gemsd::cc::LockTable& lt, Slot& o) {
    for (const auto& h : o.held) {
      lt.release(h.first, o.txn);
      ++ops_;
    }
    o.held.clear();
  }

  std::vector<Slot> slots_ = std::vector<Slot>(kOpenTxns);
  std::uint64_t ops_ = 0;
};

gemsd::sim::Task<void> ticker(gemsd::sim::Scheduler& s,
                              const std::vector<double>& gaps,
                              std::size_t i) {
  for (;;) {
    co_await s.delay(gaps[i]);
    i = (i + 7) % gaps.size();
  }
}

gemsd::sim::Task<void> trivial() { co_return; }

}  // namespace

std::vector<Metric> run_replays(const WorkloadDef& def, std::uint64_t seed,
                                std::size_t queue_depth, SpanLog& spans) {
  std::vector<Metric> out;
  BuiltWorkload b = build_workload(def, seed);
  const Stream st = make_stream(b, seed, spans);
  const double refs = static_cast<double>(st.refs.size());
  out.push_back({"workload.next_ns_per_txn",
                 st.next_s * 1e9 / static_cast<double>(st.txns), "ns"});
  out.push_back(
      {"workload.refs_per_txn", refs / static_cast<double>(st.txns), "count"});

  // sim: event dispatch with the heap held at the workload's depth.
  {
    const std::size_t depth = std::max<std::size_t>(queue_depth, 1);
    gemsd::sim::Rng rng(seed);
    std::vector<double> gaps(4096);
    for (double& g : gaps) g = rng.exponential(1.0);
    constexpr double kEvents = 1e6;
    std::uint64_t events = 0;
    const auto [secs, allocs] = timed_passes(spans, "replay.sim.scheduler", [&] {
      gemsd::sim::Scheduler s;
      for (std::size_t i = 0; i < depth; ++i) {
        s.spawn(ticker(s, gaps, i % gaps.size()));
      }
      s.run_until(0.0);  // start every process
      const std::uint64_t e0 = s.events_processed();
      s.run_until(kEvents / static_cast<double>(depth));
      events = s.events_processed() - e0;
    });
    (void)allocs;
    // The pass time includes spawning the processes; at 1M events that is
    // well under 1%.
    out.push_back({"sim.sched_ns_per_event",
                   secs * 1e9 / static_cast<double>(events), "ns"});
  }
  // sim: spawn and reap of a trivial process.
  {
    constexpr int kBatch = 1000, kBatches = 200;
    gemsd::sim::Scheduler s;
    auto batch = [&] {
      for (int i = 0; i < kBatch; ++i) s.spawn(trivial());
      s.run_all();
    };
    batch();  // grow the heap and the root set once, outside the count
    const auto [secs, allocs] = timed_passes(spans, "replay.sim.spawn", [&] {
      for (int j = 0; j < kBatches; ++j) batch();
    });
    const double n = static_cast<double>(kBatch) * kBatches;
    out.push_back({"sim.spawn_ns", secs * 1e9 / n, "ns"});
    out.push_back({"sim.spawn_allocs", static_cast<double>(allocs) / n,
                   "count"});
  }
  // sim: exponential draws.
  {
    constexpr int kDraws = 2000000;
    gemsd::sim::Rng rng(seed);
    const auto [secs, allocs] = timed_passes(spans, "replay.sim.rng", [&] {
      double sum = 0;
      for (int i = 0; i < kDraws; ++i) sum += rng.exponential(1.0);
      keep(sum);
    });
    (void)allocs;
    out.push_back({"sim.rng_ns_per_draw", secs * 1e9 / kDraws, "ns"});
  }
  // cc: lock table.
  {
    LockReplay replay;
    std::uint64_t ops = 0;
    const auto [secs, allocs] =
        timed_passes(spans, "replay.cc.lock_table",
                     [&] { ops = replay.pass(st, b.cfg.partitions); });
    const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
    out.push_back({"cc.lock_table_ns_per_op", secs * 1e9 / n, "ns"});
    out.push_back({"cc.lock_table_allocs_per_op",
                   static_cast<double>(allocs) / n, "count"});
  }
  // cc: coherency directory (commit for writes, version lookup for reads).
  {
    std::uint64_t ops = 0;
    const auto [secs, allocs] =
        timed_passes(spans, "replay.cc.directory", [&] {
          gemsd::cc::CoherencyDirectory dir;
          gemsd::SeqNo sum = 0;
          ops = 0;
          for (const Ref& r : st.refs) {
            if (is_append(r)) continue;
            ++ops;
            sum += r.ref.write ? dir.committed(r.ref.page, r.node)
                               : dir.seqno(r.ref.page);
          }
          keep(sum);
        });
    (void)allocs;
    out.push_back({"cc.directory_ns_per_op",
                   secs * 1e9 / static_cast<double>(std::max<std::uint64_t>(
                                    ops, 1)),
                   "ns"});
  }
  // cc: GLT shard routing at the workload's shard count.
  {
    const auto map = gemsd::cc::ShardMap::hashed(b.cfg.gem.shards);
    const auto [secs, allocs] =
        timed_passes(spans, "replay.cc.shard_map", [&] {
          long sum = 0;
          for (const Ref& r : st.refs) sum += map.shard_of(r.ref.page);
          keep(sum);
        });
    (void)allocs;
    out.push_back({"cc.shard_route_ns", secs * 1e9 / refs, "ns"});
  }
  // node: one LRU per node at the workload's buffer size.
  {
    std::uint64_t accesses = 0;
    const auto [secs, allocs] = timed_passes(spans, "replay.node.lru", [&] {
      std::vector<gemsd::LruMap<int>> lrus(
          static_cast<std::size_t>(b.cfg.nodes),
          gemsd::LruMap<int>(static_cast<std::size_t>(b.cfg.buffer_pages)));
      accesses = 0;
      for (const Ref& r : st.refs) {
        if (is_append(r)) continue;
        ++accesses;
        auto& lru = lrus[static_cast<std::size_t>(r.node)];
        if (lru.touch(r.ref.page) != nullptr) continue;
        if (lru.full()) lru.erase(lru.lru()->first);
        lru.insert(r.ref.page, 0);
      }
    });
    const double n = static_cast<double>(std::max<std::uint64_t>(accesses, 1));
    out.push_back({"node.lru_ns_per_access", secs * 1e9 / n, "ns"});
    out.push_back({"node.lru_allocs_per_access",
                   static_cast<double>(allocs) / n, "count"});
  }
  return out;
}

}  // namespace perfbench
