// Differential test of LruMap against a std::list reference model: a long
// seeded sequence of every operation, on a small map whose keys collide
// across partitions, alternating insert-heavy and erase-heavy phases so the
// open-addressing index grows, refills and shifts entries back across its
// wraparound point.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>
#include <vector>

#include "core/lru.hpp"
#include "sim/random.hpp"

namespace gemsd {
namespace {

class Model {
 public:
  using Entry = std::pair<PageId, int>;

  std::list<Entry>::iterator find(PageId p) {
    return std::find_if(list_.begin(), list_.end(),
                        [&](const Entry& e) { return e.first == p; });
  }
  bool contains(PageId p) { return find(p) != list_.end(); }
  int* touch(PageId p) {
    auto it = find(p);
    if (it == list_.end()) return nullptr;
    list_.splice(list_.begin(), list_, it);
    return &list_.front().second;
  }
  int* peek(PageId p) {
    auto it = find(p);
    return it == list_.end() ? nullptr : &it->second;
  }
  void insert(PageId p, int v) { list_.emplace_front(p, v); }
  bool erase(PageId p) {
    auto it = find(p);
    if (it == list_.end()) return false;
    list_.erase(it);
    return true;
  }
  std::optional<Entry> lru() const {
    if (list_.empty()) return std::nullopt;
    return list_.back();
  }
  template <typename Pred>
  std::optional<PageId> find_lru_if(Pred pred, std::size_t limit) const {
    std::size_t scanned = 0;
    for (auto it = list_.rbegin(); it != list_.rend() && scanned < limit;
         ++it, ++scanned) {
      if (pred(it->second)) return it->first;
    }
    return std::nullopt;
  }
  void clear() { list_.clear(); }
  std::size_t size() const { return list_.size(); }
  const std::list<Entry>& entries() const { return list_; }

 private:
  std::list<Entry> list_;  // front = MRU
};

struct LruModel : ::testing::TestWithParam<int> {};

TEST_P(LruModel, MatchesListReferenceOverLongRandomSequence) {
  constexpr std::size_t kCapacity = 24;
  constexpr int kOps = 120000;
  constexpr int kPhase = 3000;
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  LruMap<int> m(kCapacity);
  Model ref;
  // The same few page numbers in four partitions: keys that agree in the
  // page number and differ only in the partition must stay distinct.
  const auto random_page = [&] {
    return PageId{static_cast<PartitionId>(rng.uniform_int(0, 3)),
                  rng.uniform_int(0, 11)};
  };

  for (int step = 0; step < kOps; ++step) {
    const bool draining = (step / kPhase) % 2 == 1;
    const PageId p = random_page();
    const int op = static_cast<int>(rng.uniform_int(0, 99));
    if (op < (draining ? 10 : 35)) {  // insert, evicting the LRU when full
      if (ref.contains(p)) continue;
      if (m.full()) {
        const auto victim = m.lru();
        ASSERT_EQ(victim, ref.lru());
        ASSERT_TRUE(m.erase(victim->first));
        ASSERT_TRUE(ref.erase(victim->first));
      }
      const int v = static_cast<int>(rng.uniform_int(0, 1000));
      int* got = m.insert(p, v);
      ref.insert(p, v);
      ASSERT_EQ(*got, v);
    } else if (op < (draining ? 70 : 45)) {  // erase
      ASSERT_EQ(m.erase(p), ref.erase(p));
    } else if (op < (draining ? 80 : 70)) {  // touch, sometimes writing
      int* got = m.touch(p);
      int* want = ref.touch(p);
      ASSERT_EQ(got == nullptr, want == nullptr);
      if (got != nullptr) {
        ASSERT_EQ(*got, *want);
        if (rng.bernoulli(0.5)) *got = *want = *want + 1;
      }
    } else if (op < (draining ? 86 : 80)) {  // peek
      const LruMap<int>& cm = m;
      const int* got = cm.peek(p);
      int* want = ref.peek(p);
      ASSERT_EQ(got == nullptr, want == nullptr);
      if (got != nullptr) {
        ASSERT_EQ(*got, *want);
      }
      ASSERT_EQ(m.contains(p), want != nullptr);
    } else if (op < (draining ? 90 : 86)) {  // lru
      ASSERT_EQ(m.lru(), ref.lru());
    } else if (op < 99) {  // find_lru_if with a random predicate and limit
      const int mod = static_cast<int>(rng.uniform_int(2, 5));
      const int rem = static_cast<int>(rng.uniform_int(0, mod - 1));
      const auto limit = static_cast<std::size_t>(rng.uniform_int(0, 30));
      const auto pred = [&](int v) { return v % mod == rem; };
      ASSERT_EQ(m.find_lru_if(pred, limit), ref.find_lru_if(pred, limit));
    } else if (rng.bernoulli(0.02)) {  // rare clear
      m.clear();
      ref.clear();
    }
    ASSERT_EQ(m.size(), ref.size());
    if (step % 64 == 0 || m.size() <= 2) {  // full MRU -> LRU order
      std::vector<Model::Entry> got(m.begin(), m.end());
      std::vector<Model::Entry> want(ref.entries().begin(),
                                     ref.entries().end());
      ASSERT_EQ(got, want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruModel, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace gemsd
