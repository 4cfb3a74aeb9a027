#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "cc/shard_map.hpp"
#include "core/config.hpp"
#include "sim/random.hpp"
#include "workload/workload.hpp"

namespace gemsd::workload {

/// Parameters of the scale_out workload family: a key-partitioned OLTP load
/// built to stress the sharded coupling core at 64-512 nodes and >= 1M
/// commits. Unlike the paper's debit-credit (whose hot set is stationary),
/// scale_out has
///
///   * a *time-drifting Zipf hotspot*: the Zipf rank-0 key advances through
///     the key space as transactions are generated, so the hot lock entries
///     (and with them the hot GLT shard and the hot node) migrate over the
///     run instead of camping on one authority;
///   * a *diurnal arrival curve*: the offered rate is modulated by a sinus
///     around the configured per-node rate, exercising the system across a
///     load range inside a single run.
///
/// Both effects are deterministic: the drift is keyed on the generator's own
/// transaction counter (the SOURCE draws in global event order), and the
/// diurnal factor is a pure function of simulated time — results stay
/// bit-identical at any `--jobs`.
struct ScaleOutSpec {
  std::int64_t keys_per_node = 100;  ///< affinity-key blocks per node
  std::int64_t pages_per_key = 10;   ///< DATA pages owned by one key
  int refs_per_txn = 4;              ///< page references per transaction
  /// Write probability per reference. X locks are held to EOT under
  /// NOFORCE, so the write share (with the skew below) sets how close the
  /// hot pages run to their serialization limit.
  double write_fraction = 0.3;
  double remote_fraction = 0.15;     ///< refs leaving the txn's key block
  double zipf_theta = 0.6;           ///< key-popularity skew
  /// The hotspot advances by one key every this many generated transactions
  /// (0 disables the drift). At the default the rank-0 key crosses several
  /// node blocks over a 45 s run.
  std::int64_t drift_every_txns = 500;
  /// rate(t) = base * (1 + amplitude * sin(2*pi*t / period)); amplitude 0
  /// disables the diurnal curve.
  double diurnal_amplitude = 0.5;
  double diurnal_period_s = 20.0;
};

/// Partition layout of the scale_out database.
struct ScaleOutIds {
  static constexpr PartitionId kData = 0;
};

/// Generator: per transaction one Zipf-drawn affinity key (rotated by the
/// drift offset), refs_per_txn pages mostly inside that key's page block.
class ScaleOutGenerator : public WorkloadGenerator {
 public:
  ScaleOutGenerator(ScaleOutSpec spec, int nodes);

  TxnSpec next(sim::Rng& rng) override;
  int num_types() const override { return 1; }

  std::int64_t total_keys() const { return total_keys_; }
  /// Current rotation of the Zipf hotspot through the key space (tests).
  std::int64_t hot_key_offset() const {
    return spec_.drift_every_txns > 0
               ? static_cast<std::int64_t>(generated_ /
                                           static_cast<std::uint64_t>(
                                               spec_.drift_every_txns)) %
                     total_keys_
               : 0;
  }

 private:
  std::int64_t key_of_rank(std::int64_t rank, std::int64_t offset) const {
    return (offset + rank * stride_) % total_keys_;
  }

  ScaleOutSpec spec_;
  std::int64_t total_keys_;
  /// Zipf ranks are scattered over the key space with a stride coprime to
  /// the key count: consecutive hot ranks land in different node blocks, so
  /// the skew loads pages and GLT entries without parking ~20% of the
  /// cluster's transactions on whichever node owns a contiguous hot block.
  std::int64_t stride_;
  sim::ZipfGenerator zipf_;
  std::uint64_t generated_ = 0;  ///< keys the hotspot drift
};

/// Affinity router over the same block partitioning the GLA uses: key k's
/// transactions run where k's pages are synchronized.
class ShardMapRouter : public Router {
 public:
  explicit ShardMapRouter(cc::ShardMap map) : map_(map) {}
  NodeId route(const TxnSpec& t, sim::Rng&) override {
    return static_cast<NodeId>(map_.shard_of_key(t.affinity_key));
  }

 private:
  cc::ShardMap map_;
};

/// GLA map delegating to ShardMap::blocked over DATA page numbers: page p
/// belongs to key p/pages_per_key, and key blocks of keys_per_node map onto
/// nodes — the generic form of DebitCreditGlaMap's branch-block rule.
class ShardMapGlaMap : public GlaMap {
 public:
  explicit ShardMapGlaMap(cc::ShardMap map) : map_(map) {}
  NodeId gla(PageId p) const override {
    return static_cast<NodeId>(map_.shard_of_key(p.page));
  }

 private:
  cc::ShardMap map_;
};

/// SystemConfig for the scale_out family: one locked GEM-resident DATA
/// partition (the run is coupling/GLT-bound, not disk-bound — disk queues at
/// 512 nodes would bury the effect under I/O noise and hours of wall clock).
SystemConfig make_scale_out_config(int nodes, const ScaleOutSpec& spec = {});

/// Complete workload bundle (generator, router, GLA, diurnal curve) for a
/// scale_out config.
struct ScaleOutBundle {
  std::unique_ptr<WorkloadGenerator> gen;
  std::unique_ptr<Router> router;
  std::unique_ptr<GlaMap> gla;
  std::function<double(sim::SimTime)> arrival_factor;
};
ScaleOutBundle make_scale_out_workload(const SystemConfig& cfg,
                                       ScaleOutSpec spec = {});

}  // namespace gemsd::workload
