#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace gemsd {

/// Open-addressing index from a key to a 32-bit slot of its owner's slab:
/// linear probing, backward-shift deletion (so no tombstones), kept at most
/// half full. The keys live in the owner's slab, not here; every probing call
/// takes `key_of(slot)`, which returns the key stored at a slot. The table
/// grows on demand and keeps its size through erase() and clear(), so an
/// owner that has reached its working size indexes without allocating.
template <typename Key, typename Hash = std::hash<Key>>
class SlotIndex {
 public:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  std::size_t size() const { return size_; }

  /// Slot of `k`, or kNil.
  template <typename KeyOf>
  std::uint32_t find(const Key& k, const KeyOf& key_of) const {
    const std::size_t pos = position(k, key_of);
    return pos == kNoPos ? kNil : cells_[pos];
  }

  /// Indexes slot `s`, whose key must not be indexed yet.
  template <typename KeyOf>
  void insert(std::uint32_t s, const KeyOf& key_of) {
    assert(position(key_of(s), key_of) == kNoPos);
    ++size_;
    if (2 * size_ > cells_.size()) {
      std::vector<std::uint32_t> old(cells_.empty() ? kMinCells
                                                    : 2 * cells_.size(),
                                     kNil);
      old.swap(cells_);
      for (std::uint32_t o : old) {
        if (o != kNil) put(o, key_of);
      }
    }
    put(s, key_of);
  }

  /// Unindexes `k`; returns its slot, or kNil when absent.
  template <typename KeyOf>
  std::uint32_t erase(const Key& k, const KeyOf& key_of) {
    std::size_t i = position(k, key_of);
    if (i == kNoPos) return kNil;
    const std::uint32_t s = cells_[i];
    const std::size_t mask = cells_.size() - 1;
    // Shift later entries of the probe run back into the hole, so every
    // entry stays reachable from its home. The entry at j may fill the hole
    // at i unless its home lies cyclically in (i, j].
    for (std::size_t j = (i + 1) & mask; cells_[j] != kNil;
         j = (j + 1) & mask) {
      const std::size_t h = home(key_of(cells_[j]));
      if (((j - h) & mask) >= ((j - i) & mask)) {
        cells_[i] = cells_[j];
        i = j;
      }
    }
    cells_[i] = kNil;
    --size_;
    return s;
  }

  void clear() {
    cells_.assign(cells_.size(), kNil);
    size_ = 0;
  }

 private:
  static constexpr std::size_t kNoPos = SIZE_MAX;
  static constexpr std::size_t kMinCells = 16;

  std::size_t home(const Key& k) const {
    return Hash{}(k) & (cells_.size() - 1);
  }

  template <typename KeyOf>
  std::size_t position(const Key& k, const KeyOf& key_of) const {
    if (cells_.empty()) return kNoPos;
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t i = home(k);; i = (i + 1) & mask) {
      const std::uint32_t s = cells_[i];
      if (s == kNil) return kNoPos;
      if (key_of(s) == k) return i;
    }
  }

  template <typename KeyOf>
  void put(std::uint32_t s, const KeyOf& key_of) {
    const std::size_t mask = cells_.size() - 1;
    std::size_t i = home(key_of(s));
    while (cells_[i] != kNil) i = (i + 1) & mask;
    cells_[i] = s;
  }

  std::vector<std::uint32_t> cells_;
  std::size_t size_ = 0;
};

/// The page-keyed index shared by LruMap, PageMap and the lock table.
using PageIndex = SlotIndex<PageId>;

/// Records in one vector, addressed by 32-bit slot; freed slots are handed
/// out again (last freed first) before the vector grows. A `T&` is valid
/// until the next alloc().
template <typename T>
class Slab {
 public:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  std::uint32_t alloc(T v) {
    if (!free_.empty()) {
      const std::uint32_t s = free_.back();
      free_.pop_back();
      items_[s] = std::move(v);
      return s;
    }
    items_.push_back(std::move(v));
    return static_cast<std::uint32_t>(items_.size() - 1);
  }
  void free(std::uint32_t s) { free_.push_back(s); }

  T& operator[](std::uint32_t s) { return items_[s]; }
  const T& operator[](std::uint32_t s) const { return items_[s]; }

  /// Slots ever handed out, live and free.
  std::size_t slots() const { return items_.size(); }
  void clear() {
    items_.clear();
    free_.clear();
  }

 private:
  std::vector<T> items_;
  std::vector<std::uint32_t> free_;
};

/// PageId -> V map: entries in a Slab, found through a PageIndex. A map that
/// has reached its working size inserts and erases without allocating. A
/// `V*` is valid until the next insert().
template <typename V>
class PageMap {
 public:
  std::size_t size() const { return index_.size(); }
  /// Slab slots ever used, live and free (erased slots are reused).
  std::size_t slots() const { return slab_.slots(); }
  bool contains(PageId p) const { return find(p) != nullptr; }

  V* find(PageId p) {
    const std::uint32_t s = index_.find(p, key_of());
    return s == PageIndex::kNil ? nullptr : &slab_[s].second;
  }
  const V* find(PageId p) const {
    const std::uint32_t s = index_.find(p, key_of());
    return s == PageIndex::kNil ? nullptr : &slab_[s].second;
  }

  /// Inserts `p` (which must be absent) with value `v`.
  V& insert(PageId p, V v) {
    const std::uint32_t s = slab_.alloc({p, std::move(v)});
    index_.insert(s, key_of());
    return slab_[s].second;
  }

  /// The value of `p`, inserted as V{} when absent.
  V& operator[](PageId p) {
    if (V* v = find(p)) return *v;
    return insert(p, V{});
  }

  bool erase(PageId p) {
    const std::uint32_t s = index_.erase(p, key_of());
    if (s == PageIndex::kNil) return false;
    slab_.free(s);
    return true;
  }

  void clear() {
    slab_.clear();
    index_.clear();
  }

 private:
  auto key_of() const {
    return [this](std::uint32_t s) -> const PageId& { return slab_[s].first; };
  }

  Slab<std::pair<PageId, V>> slab_;
  PageIndex index_;
};

}  // namespace gemsd
