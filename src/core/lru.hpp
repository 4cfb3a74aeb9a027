#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace gemsd {

/// LRU-ordered page map used by main-memory buffers and disk caches.
/// O(1) lookup/touch/insert/erase. Most-recently-used at the front.
///
/// Entries live in a slab (`std::vector`) and are chained MRU -> LRU through
/// 32-bit slot links; erased slots are recycled through a free list. Lookup
/// goes through an open-addressing PageId -> slot index (linear probing,
/// backward-shift deletion, so no tombstones) kept at most half full. Both
/// grow on demand and are reused after erase, so a map that has reached its
/// working size installs and evicts pages without allocating. The slab may
/// relocate on insert: a `V*` returned earlier is invalidated by insert(),
/// but not by touch(), peek() or erase() of another page.
template <typename V>
class LruMap {
 public:
  using Entry = std::pair<PageId, V>;

 private:
  struct Node {
    Entry kv;
    std::uint32_t prev;  ///< toward MRU
    std::uint32_t next;  ///< toward LRU; free-list link while unused
  };

 public:
  explicit LruMap(std::size_t capacity) : cap_(capacity) {}

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }
  bool full() const { return size_ >= cap_; }

  /// Find and promote to MRU. Returns nullptr if absent.
  V* touch(PageId p) {
    const std::uint32_t s = slot_of(p);
    if (s == kNil) return nullptr;
    if (s != head_) {
      unlink(s);
      link_front(s);
    }
    return &nodes_[s].kv.second;
  }

  /// Find without promoting.
  V* peek(PageId p) {
    const std::uint32_t s = slot_of(p);
    return s == kNil ? nullptr : &nodes_[s].kv.second;
  }
  const V* peek(PageId p) const {
    const std::uint32_t s = slot_of(p);
    return s == kNil ? nullptr : &nodes_[s].kv.second;
  }

  bool contains(PageId p) const { return slot_of(p) != kNil; }

  /// Insert as MRU (must not already be present; capacity not enforced here —
  /// call evict_candidate()/erase() first when full).
  V* insert(PageId p, V v) {
    assert(!contains(p));
    std::uint32_t s;
    if (free_ != kNil) {
      s = free_;
      free_ = nodes_[s].next;
      nodes_[s].kv = Entry(p, std::move(v));
    } else {
      s = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{Entry(p, std::move(v)), kNil, kNil});
    }
    link_front(s);
    ++size_;
    if (2 * size_ > index_.size()) {
      rehash(index_.empty() ? kMinIndex : 2 * index_.size());
    } else {
      index_put(s);
    }
    return &nodes_[s].kv.second;
  }

  /// The LRU entry (eviction candidate), or nullopt when empty.
  std::optional<Entry> lru() const {
    if (tail_ == kNil) return std::nullopt;
    return nodes_[tail_].kv;
  }

  /// LRU entry matching pred (scanning backwards from LRU end, at most
  /// `scan_limit` entries), for "evict the oldest clean page" policies.
  template <typename Pred>
  std::optional<PageId> find_lru_if(Pred pred, std::size_t scan_limit) const {
    std::size_t scanned = 0;
    for (std::uint32_t s = tail_; s != kNil && scanned < scan_limit;
         s = nodes_[s].prev, ++scanned) {
      if (pred(nodes_[s].kv.second)) return nodes_[s].kv.first;
    }
    return std::nullopt;
  }

  bool erase(PageId p) {
    const std::size_t pos = index_pos(p);
    if (pos == kNoPos) return false;
    const std::uint32_t s = index_[pos];
    index_remove(pos);
    unlink(s);
    nodes_[s].next = free_;
    free_ = s;
    --size_;
    return true;
  }

  void clear() {
    nodes_.clear();
    index_.assign(index_.size(), kNil);
    head_ = tail_ = free_ = kNil;
    size_ = 0;
  }

  /// Iterates MRU -> LRU over `const Entry&`.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using pointer = const Entry*;
    using reference = const Entry&;

    const_iterator() = default;
    reference operator*() const { return (*nodes_)[s_].kv; }
    pointer operator->() const { return &(*nodes_)[s_].kv; }
    const_iterator& operator++() {
      s_ = (*nodes_)[s_].next;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.s_ == b.s_;
    }

   private:
    friend class LruMap;
    const_iterator(const std::vector<Node>* nodes, std::uint32_t s)
        : nodes_(nodes), s_(s) {}
    const std::vector<Node>* nodes_ = nullptr;
    std::uint32_t s_ = kNil;
  };

  const_iterator begin() const { return const_iterator(&nodes_, head_); }
  const_iterator end() const { return const_iterator(&nodes_, kNil); }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  static constexpr std::size_t kNoPos = SIZE_MAX;
  static constexpr std::size_t kMinIndex = 16;

  std::size_t home(PageId p) const {
    return std::hash<PageId>{}(p) & (index_.size() - 1);
  }

  /// Index position holding `p`, or kNoPos.
  std::size_t index_pos(PageId p) const {
    if (index_.empty()) return kNoPos;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = home(p);; i = (i + 1) & mask) {
      const std::uint32_t s = index_[i];
      if (s == kNil) return kNoPos;
      if (nodes_[s].kv.first == p) return i;
    }
  }
  std::uint32_t slot_of(PageId p) const {
    const std::size_t pos = index_pos(p);
    return pos == kNoPos ? kNil : index_[pos];
  }

  void index_put(std::uint32_t s) {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = home(nodes_[s].kv.first);
    while (index_[i] != kNil) i = (i + 1) & mask;
    index_[i] = s;
  }

  /// Empties position `i`, shifting later entries of its probe run back so
  /// every entry stays reachable from its home without tombstones.
  void index_remove(std::size_t i) {
    const std::size_t mask = index_.size() - 1;
    for (std::size_t j = (i + 1) & mask; index_[j] != kNil;
         j = (j + 1) & mask) {
      // The entry at j may fill the hole at i unless its home lies
      // cyclically in (i, j].
      const std::size_t h = home(nodes_[index_[j]].kv.first);
      if (((j - h) & mask) >= ((j - i) & mask)) {
        index_[i] = index_[j];
        i = j;
      }
    }
    index_[i] = kNil;
  }

  void rehash(std::size_t n) {
    index_.assign(n, kNil);
    for (std::uint32_t s = head_; s != kNil; s = nodes_[s].next) index_put(s);
  }

  void unlink(std::uint32_t s) {
    Node& n = nodes_[s];
    if (n.prev != kNil) {
      nodes_[n.prev].next = n.next;
    } else {
      head_ = n.next;
    }
    if (n.next != kNil) {
      nodes_[n.next].prev = n.prev;
    } else {
      tail_ = n.prev;
    }
  }

  void link_front(std::uint32_t s) {
    Node& n = nodes_[s];
    n.prev = kNil;
    n.next = head_;
    if (head_ != kNil) nodes_[head_].prev = s;
    head_ = s;
    if (tail_ == kNil) tail_ = s;
  }

  std::size_t cap_;
  std::size_t size_ = 0;
  std::vector<Node> nodes_;           ///< slab of entries, live and free
  std::vector<std::uint32_t> index_;  ///< open-addressing PageId -> slot
  std::uint32_t head_ = kNil;        ///< MRU
  std::uint32_t tail_ = kNil;        ///< LRU
  std::uint32_t free_ = kNil;        ///< recycled slots
};

}  // namespace gemsd
