#pragma once

#include <cstdint>

#include "core/types.hpp"

namespace gemsd::cc {

/// Deterministic page/key -> shard routing shared by every authority layer
/// that partitions global state across servers:
///
///   * the sharded GLT (`gem_shards=M`): GemLockProtocol routes every GLT
///     entry operation for page p to StorageManager's GEM shard
///     `shard_of(p)`, so independent lock entries queue on independent
///     k-server stations;
///   * PCL's global lock authorities: the shipped GLA maps
///     (DebitCreditGlaMap, KeyGlaMap, ModGla) are block policies over a node
///     count — `blocked(nodes, keys_per_block)` reproduces them exactly, so
///     both coupling modes share one routing/repartitioning layer.
///
/// Routing is a pure function of (policy, shard count, PageId/key): no
/// simulation state, no randomness — the same reference stream routes the
/// same way at any sweep parallelism, which is
/// what makes sharded runs deterministic and `shards=1` the oracle (every
/// policy maps everything to shard 0 when shards == 1).
class ShardMap {
 public:
  enum class Policy {
    Hashed,   ///< splitmix64 over PageId::key() — spreads hot pages
    Blocked,  ///< (key / keys_per_block) % shards — contiguous blocks
  };

  /// Hash policy over full page identity (GLT sharding default): adjacent
  /// pages land on different shards, so a drifting hotspot cannot camp on
  /// one lock server.
  static ShardMap hashed(int shards) {
    return ShardMap(Policy::Hashed, shards, 1);
  }

  /// Block policy over a caller-chosen key (GLA partitioning): key k maps to
  /// shard (k / keys_per_block) % shards. With keys_per_block=1 this is the
  /// classic modulo map.
  static ShardMap blocked(int shards, std::int64_t keys_per_block = 1) {
    return ShardMap(Policy::Blocked, shards, keys_per_block);
  }

  int shard_of(PageId p) const {
    if (shards_ == 1) return 0;
    if (policy_ == Policy::Hashed) return static_cast<int>(mix(p.key()) % m());
    return shard_of_key(p.page);
  }

  /// Block routing for an extracted partitioning key (branch number, lock
  /// name hash, ...).
  int shard_of_key(std::int64_t key) const {
    if (shards_ == 1) return 0;
    const auto block = static_cast<std::uint64_t>(key) /
                       static_cast<std::uint64_t>(keys_per_block_);
    return static_cast<int>(block % m());
  }

  /// Node-affine routing (per-node state on a shared substrate: GEM message
  /// mailboxes, GEM-resident logs).
  int shard_of_node(NodeId n) const {
    if (shards_ == 1) return 0;
    return static_cast<int>(static_cast<std::uint64_t>(n) % m());
  }

  int shards() const { return shards_; }
  Policy policy() const { return policy_; }
  std::int64_t keys_per_block() const { return keys_per_block_; }

  /// Fraction of `pages` consecutive page numbers (partition 0) whose shard
  /// changes when repartitioning from `from` to `to` — the coordination cost
  /// of growing/shrinking the authority fleet.
  static double moved_fraction(const ShardMap& from, const ShardMap& to,
                               std::int64_t pages) {
    if (pages <= 0) return 0.0;
    std::int64_t moved = 0;
    for (std::int64_t i = 0; i < pages; ++i) {
      const PageId p{0, i};
      if (from.shard_of(p) != to.shard_of(p)) ++moved;
    }
    return static_cast<double>(moved) / static_cast<double>(pages);
  }

 private:
  ShardMap(Policy policy, int shards, std::int64_t keys_per_block);

  std::uint64_t m() const { return static_cast<std::uint64_t>(shards_); }

  /// splitmix64 finalizer — the same mix as std::hash<PageId>, so the shard
  /// distribution matches the hash-map distribution the directory sees.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  Policy policy_;
  int shards_;
  std::int64_t keys_per_block_;
};

}  // namespace gemsd::cc
