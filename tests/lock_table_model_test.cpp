// Differential test of LockTable against a reference model: the earlier
// vector-per-page lock table, kept here verbatim in behaviour. Seeded random
// sequences of acquire (read, update, write and upgrades), release and
// cancel_wait over a few pages and transactions drive both tables; after
// every step the outcomes, the grant callbacks and trace hooks (in order),
// and every query (holds, blockers, waiters, waiting_on, creates_deadlock,
// locked_pages) must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cc/lock_table.hpp"
#include "sim/random.hpp"

namespace gemsd::cc {
namespace {

/// The reference: one vector of requests per page (granted entries first,
/// then FIFO waiters, upgrades inserted before the first waiter) and a
/// txn -> page map of waiters.
class RefLockTable {
 public:
  using Outcome = LockTable::Outcome;
  using GrantFn = LockTable::GrantFn;

  struct Request {
    TxnId txn;
    NodeId node;
    LockMode mode;
    bool granted = false;
    bool upgrade = false;
    GrantFn on_grant;
  };

  void set_trace_hooks(LockTable::TraceHooks hooks) {
    hooks_ = std::move(hooks);
  }

  Outcome acquire(PageId page, TxnId txn, NodeId node, LockMode mode,
                  GrantFn on_grant) {
    auto& q = pages_[page];
    bool is_upgrade = false;
    for (auto& r : q) {
      if (r.txn == txn && r.granted) {
        is_upgrade = true;
        break;
      }
    }
    if (is_upgrade) {
      bool clear = true;
      for (const auto& r : q) {
        if (r.granted && r.txn != txn && !lock_compatible(r.mode, mode)) {
          clear = false;
          break;
        }
      }
      if (clear) {
        for (auto& r : q) {
          if (r.txn == txn && r.granted) r.mode = mode;
        }
        if (hooks_.queue_changed) hooks_.queue_changed(page, txn);
        return Outcome::Granted;
      }
      Request req{txn, node, mode, false, true, std::move(on_grant)};
      auto it = std::find_if(q.begin(), q.end(),
                             [](const Request& r) { return !r.granted; });
      q.insert(it, std::move(req));
      waiting_[txn] = page;
      if (hooks_.queue_changed) hooks_.queue_changed(page, txn);
      return Outcome::Waiting;
    }
    if (compatible_with_granted(q, txn, mode) && !any_waiter_ahead(q, txn)) {
      q.push_back(Request{txn, node, mode, true, false, {}});
      return Outcome::Granted;
    }
    q.push_back(Request{txn, node, mode, false, false, std::move(on_grant)});
    waiting_[txn] = page;
    return Outcome::Waiting;
  }

  void release(PageId page, TxnId txn) {
    auto pit = pages_.find(page);
    if (pit == pages_.end()) return;
    auto& q = pit->second;
    q.erase(std::remove_if(q.begin(), q.end(),
                           [&](const Request& r) {
                             return r.txn == txn && r.granted;
                           }),
            q.end());
    promote(page, q);
    if (q.empty()) {
      pages_.erase(pit);
    } else if (hooks_.queue_changed) {
      hooks_.queue_changed(page, txn);
    }
  }

  bool cancel_wait(PageId page, TxnId txn) {
    auto pit = pages_.find(page);
    if (pit == pages_.end()) return false;
    auto& q = pit->second;
    const auto before = q.size();
    q.erase(std::remove_if(q.begin(), q.end(),
                           [&](const Request& r) {
                             return r.txn == txn && !r.granted;
                           }),
            q.end());
    const bool removed = q.size() != before;
    if (removed) waiting_.erase(txn);
    promote(page, q);
    if (q.empty()) {
      pages_.erase(pit);
    } else if (hooks_.queue_changed) {
      hooks_.queue_changed(page, txn);
    }
    return removed;
  }

  bool holds(PageId page, TxnId txn, LockMode at_least) const {
    auto pit = pages_.find(page);
    if (pit == pages_.end()) return false;
    for (const auto& r : pit->second) {
      if (r.txn == txn && r.granted) return lock_covers(r.mode, at_least);
    }
    return false;
  }

  std::optional<PageId> waiting_on(TxnId txn) const {
    auto it = waiting_.find(txn);
    if (it == waiting_.end()) return std::nullopt;
    return it->second;
  }

  std::vector<TxnId> blockers(PageId page, TxnId txn) const {
    std::vector<TxnId> out;
    auto pit = pages_.find(page);
    if (pit == pages_.end()) return out;
    const auto& q = pit->second;
    auto self = std::find_if(q.begin(), q.end(), [&](const Request& r) {
      return r.txn == txn && !r.granted;
    });
    if (self == q.end()) return out;
    for (auto it = q.begin(); it != self; ++it) {
      if (it->txn == txn) continue;
      if (it->granted) {
        if (!lock_compatible(it->mode, self->mode)) out.push_back(it->txn);
      } else {
        out.push_back(it->txn);
      }
    }
    return out;
  }

  std::vector<std::pair<TxnId, NodeId>> waiters(PageId page) const {
    std::vector<std::pair<TxnId, NodeId>> out;
    auto pit = pages_.find(page);
    if (pit == pages_.end()) return out;
    for (const auto& r : pit->second) {
      if (!r.granted) out.emplace_back(r.txn, r.node);
    }
    return out;
  }

  bool creates_deadlock(TxnId start) const {
    std::unordered_set<TxnId> visited;
    std::vector<TxnId> stack{start};
    bool first = true;
    while (!stack.empty()) {
      const TxnId t = stack.back();
      stack.pop_back();
      if (!first) {
        if (t == start) return true;
        if (!visited.insert(t).second) continue;
      }
      first = false;
      const auto page = waiting_on(t);
      if (!page) continue;
      for (TxnId b : blockers(*page, t)) stack.push_back(b);
    }
    return false;
  }

  std::size_t locked_pages() const { return pages_.size(); }

 private:
  static bool compatible_with_granted(const std::vector<Request>& q,
                                      TxnId txn, LockMode mode) {
    for (const auto& r : q) {
      if (!r.granted || r.txn == txn) continue;
      if (!lock_compatible(r.mode, mode)) return false;
    }
    return true;
  }
  static bool any_waiter_ahead(const std::vector<Request>& q, TxnId txn) {
    for (const auto& r : q) {
      if (!r.granted && r.txn != txn) return true;
    }
    return false;
  }

  void promote(PageId page, std::vector<Request>& q) {
    for (;;) {
      auto it = std::find_if(q.begin(), q.end(),
                             [](const Request& r) { return !r.granted; });
      if (it == q.end()) return;
      if (it->upgrade) {
        bool clear = true;
        for (const auto& r : q) {
          if (r.granted && r.txn != it->txn &&
              !lock_compatible(r.mode, it->mode)) {
            clear = false;
            break;
          }
        }
        if (!clear) return;
        const LockMode target = it->mode;
        for (auto& r : q) {
          if (r.granted && r.txn == it->txn) r.mode = target;
        }
        auto fn = std::move(it->on_grant);
        const TxnId t = it->txn;
        const NodeId n = it->node;
        q.erase(it);
        waiting_.erase(t);
        if (hooks_.granted) hooks_.granted(page, t, n);
        if (fn) fn();
        continue;
      }
      if (!compatible_with_granted(q, it->txn, it->mode)) return;
      it->granted = true;
      auto fn = std::move(it->on_grant);
      waiting_.erase(it->txn);
      if (hooks_.granted) hooks_.granted(page, it->txn, it->node);
      if (fn) fn();
    }
  }

  std::unordered_map<PageId, std::vector<Request>> pages_;
  std::unordered_map<TxnId, PageId> waiting_;
  LockTable::TraceHooks hooks_;
};

constexpr int kPages = 4;
constexpr int kTxns = 7;

/// What the driver knows of each transaction: the locks it holds (from
/// outcomes and grant callbacks) and the page it waits for.
struct TxnState {
  std::map<int, LockMode> held;  // page index -> mode
  int waiting = -1;              // page index, or -1
  LockMode want = LockMode::Read;
};

PageId page_of(int i) {
  // Two partitions, so keys that share a page number stay distinct.
  return PageId{static_cast<PartitionId>(i % 2), 100 + i / 2};
}

struct LockTableModel : ::testing::TestWithParam<int> {};

TEST_P(LockTableModel, MatchesVectorReferenceOverRandomSequences) {
  constexpr int kSteps = 40000;
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  LockTable lt;
  RefLockTable ref;
  std::vector<std::string> log, ref_log;
  const auto hooks = [](std::vector<std::string>& out) {
    LockTable::TraceHooks h;
    h.granted = [&out](PageId p, TxnId t, NodeId n) {
      out.push_back("grant " + std::to_string(p.partition) + "/" +
                    std::to_string(p.page) + " " + std::to_string(t) + "@" +
                    std::to_string(n));
    };
    h.queue_changed = [&out](PageId p, TxnId exclude) {
      out.push_back("queue " + std::to_string(p.partition) + "/" +
                    std::to_string(p.page) + " -" + std::to_string(exclude));
    };
    return h;
  };
  lt.set_trace_hooks(hooks(log));
  ref.set_trace_hooks(hooks(ref_log));

  std::vector<TxnState> txns(kTxns);
  const auto txn_id = [](int t) { return static_cast<TxnId>(t + 1); };
  // Grant callbacks: the table under test also keeps the driver's view.
  const auto on_grant = [&](int t, int page) {
    return [&, t, page] {
      log.push_back("cb " + std::to_string(t) + " " + std::to_string(page));
      TxnState& s = txns[static_cast<std::size_t>(t)];
      s.waiting = -1;
      s.held[page] = s.want;
    };
  };
  const auto ref_on_grant = [&](int t, int page) {
    return [&, t, page] {
      ref_log.push_back("cb " + std::to_string(t) + " " +
                        std::to_string(page));
    };
  };
  const auto release_all = [&](int t) {
    TxnState& s = txns[static_cast<std::size_t>(t)];
    const auto held = s.held;
    s.held.clear();
    for (const auto& [page, mode] : held) {
      lt.release(page_of(page), txn_id(t));
      ref.release(page_of(page), txn_id(t));
    }
  };

  std::uint64_t waits = 0, deadlocks = 0, upgrades = 0, upgrade_waits = 0;
  for (int step = 0; step < kSteps; ++step) {
    const int t = static_cast<int>(rng.uniform_int(0, kTxns - 1));
    TxnState& s = txns[static_cast<std::size_t>(t)];
    const TxnId id = txn_id(t);
    const int op = static_cast<int>(rng.uniform_int(0, 99));
    if (s.waiting >= 0) {
      // A waiting transaction only gets cancelled (a deadlock victim or a
      // failure elsewhere), now and then, and releases everything.
      if (op < 10) {
        const PageId p = page_of(s.waiting);
        ASSERT_EQ(lt.cancel_wait(p, id), ref.cancel_wait(p, id));
        s.waiting = -1;
        release_all(t);
      }
    } else if (op < 60) {  // acquire a new lock or upgrade a held one
      const int page = static_cast<int>(rng.uniform_int(0, kPages - 1));
      const auto mode = static_cast<LockMode>(rng.uniform_int(0, 2));
      const auto h = s.held.find(page);
      if (h != s.held.end() &&
          lock_strength(h->second) >= lock_strength(mode)) {
        continue;  // callers never re-acquire a held mode
      }
      if (h != s.held.end()) ++upgrades;
      s.want = mode;
      const auto got = lt.acquire(page_of(page), id, t % 3, mode,
                                  on_grant(t, page));
      const auto want = ref.acquire(page_of(page), id, t % 3, mode,
                                    ref_on_grant(t, page));
      ASSERT_EQ(got, want) << "step " << step;
      if (got == LockTable::Outcome::Granted) {
        s.held[page] = mode;
      } else {
        ++waits;
        if (h != s.held.end()) ++upgrade_waits;
        s.waiting = page;
        const bool cycle = lt.creates_deadlock(id);
        ASSERT_EQ(cycle, ref.creates_deadlock(id)) << "step " << step;
        if (cycle) {  // the protocols' victim rule
          ++deadlocks;
          ASSERT_TRUE(lt.cancel_wait(page_of(page), id));
          ASSERT_TRUE(ref.cancel_wait(page_of(page), id));
          s.waiting = -1;
          release_all(t);
        }
      }
    } else if (op < 85) {  // release one held lock (or a page not held)
      int page = static_cast<int>(rng.uniform_int(0, kPages - 1));
      if (!s.held.empty() && op < 82) {
        auto it = s.held.begin();
        std::advance(it, rng.uniform_int(
                             0, static_cast<std::int64_t>(s.held.size()) - 1));
        page = it->first;
      }
      s.held.erase(page);
      lt.release(page_of(page), id);
      ref.release(page_of(page), id);
    } else if (op < 95) {  // commit: release everything
      release_all(t);
    } else {  // cancel_wait of a transaction that is not waiting
      const int page = static_cast<int>(rng.uniform_int(0, kPages - 1));
      ASSERT_EQ(lt.cancel_wait(page_of(page), id),
                ref.cancel_wait(page_of(page), id));
    }

    ASSERT_EQ(log, ref_log) << "step " << step;
    ASSERT_EQ(lt.locked_pages(), ref.locked_pages()) << "step " << step;
    for (int p = 0; p < kPages; ++p) {
      ASSERT_EQ(lt.waiters(page_of(p)), ref.waiters(page_of(p)));
      for (int u = 0; u < kTxns; ++u) {
        ASSERT_EQ(lt.blockers(page_of(p), txn_id(u)),
                  ref.blockers(page_of(p), txn_id(u)));
        for (int m = 0; m < 3; ++m) {
          const auto mode = static_cast<LockMode>(m);
          ASSERT_EQ(lt.holds(page_of(p), txn_id(u), mode),
                    ref.holds(page_of(p), txn_id(u), mode));
        }
      }
    }
    for (int u = 0; u < kTxns; ++u) {
      ASSERT_EQ(lt.waiting_on(txn_id(u)), ref.waiting_on(txn_id(u)));
      ASSERT_EQ(lt.creates_deadlock(txn_id(u)),
                ref.creates_deadlock(txn_id(u)));
    }
    log.clear();
    ref_log.clear();
  }
  // The sequence exercised what it is meant to.
  EXPECT_GT(waits, 3000u);
  EXPECT_GT(deadlocks, 300u);
  EXPECT_GT(upgrades, 400u);
  EXPECT_GT(upgrade_waits, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockTableModel, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace gemsd::cc
