// Property-based tests: random operation sequences checked against reference
// models and invariants — the lock table against a brute-force compatibility
// checker, the LRU map against an ordered-list reference, the workload
// allocation heuristics against balance bounds across node counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <set>

#include "cc/lock_table.hpp"
#include "core/lru.hpp"
#include "sim/random.hpp"
#include "workload/trace.hpp"
#include "workload/trace_generator.hpp"

namespace gemsd {
namespace {

// ---------- LockTable random schedules ----------

struct LockFuzz : ::testing::TestWithParam<int> {};

TEST_P(LockFuzz, GrantedSetsAlwaysCompatibleAndNoLostWakeups) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  cc::LockTable lt;

  struct TxnState {
    std::map<std::int64_t, LockMode> held;  // page -> mode
    bool waiting = false;
  };
  std::map<TxnId, TxnState> txns;
  for (TxnId t = 1; t <= 8; ++t) txns[t];

  int grants_fired = 0;
  const auto check_granted_compat = [&] {
    // Reconstruct granted sets from our shadow state and assert pairwise
    // compatibility page by page.
    std::map<std::int64_t, std::vector<LockMode>> by_page;
    for (const auto& [id, st] : txns) {
      for (const auto& [p, m] : st.held) by_page[p].push_back(m);
    }
    for (const auto& [p, modes] : by_page) {
      for (std::size_t i = 0; i < modes.size(); ++i) {
        for (std::size_t j = i + 1; j < modes.size(); ++j) {
          ASSERT_TRUE(lock_compatible(modes[i], modes[j]))
              << "incompatible granted pair on page " << p;
        }
      }
    }
  };

  for (int step = 0; step < 3000; ++step) {
    const TxnId t = static_cast<TxnId>(rng.uniform_int(1, 8));
    auto& st = txns[t];
    if (st.waiting) continue;  // parked until its grant fires

    if (!st.held.empty() && rng.bernoulli(0.4)) {
      // Release everything this txn holds (commit).
      for (const auto& [p, m] : st.held) lt.release(PageId{0, p}, t);
      st.held.clear();
      // Grants may have fired for other txns; sync handled via callbacks.
      check_granted_compat();
      continue;
    }
    const std::int64_t page = rng.uniform_int(0, 5);
    const LockMode mode = static_cast<LockMode>(rng.uniform_int(0, 2));
    const auto it = st.held.find(page);
    if (it != st.held.end() && lock_covers(it->second, mode)) continue;

    auto res = lt.acquire(
        PageId{0, page}, t, 0, mode, [&txns, &grants_fired, t, page, mode] {
          ++grants_fired;
          txns[t].waiting = false;
          txns[t].held[page] = mode;
        });
    if (res == cc::LockTable::Outcome::Granted) {
      st.held[page] = mode;
    } else if (lt.creates_deadlock(t)) {
      lt.cancel_wait(PageId{0, page}, t);
      // Abort: release everything.
      for (const auto& [p, m] : st.held) lt.release(PageId{0, p}, t);
      st.held.clear();
    } else {
      st.waiting = true;
    }
    check_granted_compat();
  }

  // Drain: force-release everything; every waiter must be woken or have
  // been cancelled (no lost wakeups / stuck entries).
  for (int round = 0; round < 10; ++round) {
    for (auto& [id, st] : txns) {
      if (st.waiting) continue;
      for (const auto& [p, m] : st.held) lt.release(PageId{0, p}, id);
      st.held.clear();
    }
  }
  for (auto& [id, st] : txns) {
    if (st.waiting) {
      // Its grant must fire as soon as holders released above.
      for (const auto& [p2, m2] : st.held) lt.release(PageId{0, p2}, id);
    }
  }
  EXPECT_GT(grants_fired, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockFuzz, ::testing::Values(1, 2, 3, 4, 5));

// ---------- LRU map vs reference model ----------

struct LruFuzz : ::testing::TestWithParam<int> {};

TEST_P(LruFuzz, MatchesReferenceModel) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
  LruMap<int> m(8);
  std::list<std::pair<std::int64_t, int>> ref;  // front = MRU

  const auto ref_find = [&](std::int64_t k) {
    return std::find_if(ref.begin(), ref.end(),
                        [&](const auto& e) { return e.first == k; });
  };

  for (int step = 0; step < 5000; ++step) {
    const std::int64_t key = rng.uniform_int(0, 19);
    const int op = static_cast<int>(rng.uniform_int(0, 3));
    const PageId p{0, key};
    switch (op) {
      case 0: {  // touch
        int* v = m.touch(p);
        auto it = ref_find(key);
        if (it == ref.end()) {
          ASSERT_EQ(v, nullptr);
        } else {
          ASSERT_NE(v, nullptr);
          ASSERT_EQ(*v, it->second);
          ref.splice(ref.begin(), ref, it);
        }
        break;
      }
      case 1: {  // insert (evicting LRU first if full)
        if (m.contains(p)) break;
        if (m.full()) {
          const auto victim = m.lru();
          ASSERT_TRUE(victim.has_value());
          ASSERT_EQ(victim->first.page, ref.back().first);
          m.erase(victim->first);
          ref.pop_back();
        }
        const int val = static_cast<int>(rng.uniform_int(0, 1000));
        m.insert(p, val);
        ref.emplace_front(key, val);
        break;
      }
      case 2: {  // erase
        const bool erased = m.erase(p);
        auto it = ref_find(key);
        ASSERT_EQ(erased, it != ref.end());
        if (it != ref.end()) ref.erase(it);
        break;
      }
      case 3: {  // peek
        const int* v = m.peek(p);
        auto it = ref_find(key);
        ASSERT_EQ(v != nullptr, it != ref.end());
        if (v) {
          ASSERT_EQ(*v, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  // Final order check, MRU -> LRU.
  auto rit = ref.begin();
  for (const auto& [k, v] : m) {
    ASSERT_EQ(k.page, rit->first);
    ASSERT_EQ(v, rit->second);
    ++rit;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruFuzz, ::testing::Values(1, 2, 3));

// ---------- allocation heuristics balance across node counts ----------

struct HeuristicSweep : ::testing::TestWithParam<int> {};

TEST_P(HeuristicSweep, RoutingBalancesLoadWithinBound) {
  const int nodes = GetParam();
  sim::Rng rng(7);
  const auto trace = workload::generate_synthetic_trace({}, rng);
  const auto prof = workload::profile_trace(trace);
  const auto share = workload::make_affinity_routing(prof, nodes);

  std::vector<double> load(static_cast<std::size_t>(nodes), 0.0);
  double total = 0;
  for (std::size_t ty = 0; ty < share.size(); ++ty) {
    for (int n = 0; n < nodes; ++n) {
      load[static_cast<std::size_t>(n)] +=
          share[ty][static_cast<std::size_t>(n)] * prof.type_load[ty];
    }
    total += prof.type_load[ty];
  }
  const double capacity = total / nodes;
  for (double l : load) {
    EXPECT_LT(l, capacity * 1.25) << "node overload at N=" << nodes;
    EXPECT_GT(l, capacity * 0.5) << "node starvation at N=" << nodes;
  }
}

TEST_P(HeuristicSweep, GlaCoversEveryFileExactlyOnce) {
  const int nodes = GetParam();
  sim::Rng rng(7);
  const auto trace = workload::generate_synthetic_trace({}, rng);
  const auto prof = workload::profile_trace(trace);
  const auto share = workload::make_affinity_routing(prof, nodes);
  const auto gla = workload::make_gla_assignment(prof, share, nodes);
  ASSERT_EQ(gla.size(), static_cast<std::size_t>(trace.num_files));
  for (NodeId g : gla) {
    EXPECT_GE(g, 0);
    EXPECT_LT(g, nodes);
  }
  // Every node should hold authority over something when there are enough
  // files to go around.
  if (nodes <= trace.num_files) {
    std::set<NodeId> used(gla.begin(), gla.end());
    EXPECT_EQ(used.size(), static_cast<std::size_t>(nodes));
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, HeuristicSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

}  // namespace
}  // namespace gemsd
