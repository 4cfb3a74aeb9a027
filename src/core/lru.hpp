#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <utility>

#include "core/page_index.hpp"
#include "core/types.hpp"

namespace gemsd {

/// LRU-ordered page map used by main-memory buffers and disk caches.
/// O(1) lookup/touch/insert/erase. Most-recently-used at the front.
///
/// Entries live in a Slab and are chained MRU -> LRU through 32-bit slot
/// links; lookup goes through a PageIndex. Both grow on demand and are reused
/// after erase, so a map that has reached its working size installs and
/// evicts pages without allocating. The slab may relocate on insert: a `V*`
/// returned earlier is invalidated by insert(), but not by touch(), peek() or
/// erase() of another page.
template <typename V>
class LruMap {
 public:
  using Entry = std::pair<PageId, V>;

 private:
  struct Node {
    Entry kv;
    std::uint32_t prev;  ///< toward MRU
    std::uint32_t next;  ///< toward LRU
  };

 public:
  explicit LruMap(std::size_t capacity) : cap_(capacity) {}

  std::size_t size() const { return index_.size(); }
  std::size_t capacity() const { return cap_; }
  bool full() const { return size() >= cap_; }

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
    const std::uint32_t s =
        nodes_.alloc(Node{Entry(p, std::move(v)), kNil, kNil});
    index_.insert(s, key_of());
    link_front(s);
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
    const std::uint32_t s = index_.erase(p, key_of());
    if (s == kNil) return false;
    unlink(s);
    nodes_.free(s);
    return true;
  }

  void clear() {
    nodes_.clear();
    index_.clear();
    head_ = tail_ = kNil;
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
    const_iterator(const Slab<Node>* nodes, std::uint32_t s)
        : nodes_(nodes), s_(s) {}
    const Slab<Node>* nodes_ = nullptr;
    std::uint32_t s_ = kNil;
  };

  const_iterator begin() const { return const_iterator(&nodes_, head_); }
  const_iterator end() const { return const_iterator(&nodes_, kNil); }

 private:
  static constexpr std::uint32_t kNil = PageIndex::kNil;

  auto key_of() const {
    return [this](std::uint32_t s) -> const PageId& {
      return nodes_[s].kv.first;
    };
  }
  std::uint32_t slot_of(PageId p) const { return index_.find(p, key_of()); }

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
  Slab<Node> nodes_;
  PageIndex index_;
  std::uint32_t head_ = kNil;  ///< MRU
  std::uint32_t tail_ = kNil;  ///< LRU
};

}  // namespace gemsd
