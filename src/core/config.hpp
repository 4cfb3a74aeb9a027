#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "sim/time.hpp"

namespace gemsd {

/// Per-node CPU complex (Table 4.1: 4 processors of 10 MIPS each).
struct CpuConfig {
  int processors = 4;
  double mips = 10.0;  ///< per processor

  double instr_to_seconds(double instr) const { return instr / (mips * 1e6); }
};

/// Global Extended Memory device (Table 4.1).
struct GemConfig {
  int servers = 1;
  /// Independent GEM servers the global lock/coherency authority is sharded
  /// over (spec key `gem_shards`). Each shard is its own k-server station
  /// with `servers` servers; GLT entry ops route by cc::ShardMap. 1 (the
  /// default, and the paper's model) keeps the single-GEM behaviour
  /// bit-identical — shards=1 is the oracle for the sharded code paths.
  int shards = 1;
  sim::SimTime page_access = sim::usec(50);
  sim::SimTime entry_access = sim::usec(2);
  double io_instr = 300;  ///< CPU instructions to initiate a GEM page I/O
};

/// How inter-node messages travel.
enum class MsgTransport {
  Network,   ///< interconnection network, full protocol stack CPU cost
  GemStore,  ///< storage-based communication: messages exchanged across GEM
             ///< (Section 2) — synchronous GEM accesses, slim CPU path
};

/// Interconnection network + message costs (Table 4.1).
struct CommConfig {
  double bandwidth = 10e6;          ///< bytes/s
  double short_bytes = 100;         ///< control message size
  double long_bytes = 4096;         ///< page-transfer message size
  double short_instr = 5000;        ///< CPU instr per send OR receive (short)
  double long_instr = 8000;         ///< CPU instr per send OR receive (long)
  MsgTransport transport = MsgTransport::Network;
  /// CPU instructions per send or receive when messages go through GEM (no
  /// protocol stack; copy + signal).
  double gem_msg_instr = 1000;
};

/// Magnetic disk subsystem timing (Table 4.1).
struct DiskConfig {
  sim::SimTime db_disk = sim::msec(15);      ///< DB disk service time (mean)
  sim::SimTime log_disk = sim::msec(5);      ///< log disk service time (mean)
  sim::SimTime controller = sim::msec(1);    ///< controller service (mean)
  sim::SimTime transfer = sim::msec(0.4);    ///< page transfer delay
  double io_instr = 3000;                    ///< CPU instr per page I/O
};

/// One database partition as allocated to storage. Sizes are *per node unit*
/// (the TPC scaling rule: the database grows with the configured throughput);
/// `System` multiplies by the node count where scale_with_nodes is set.
struct PartitionConfig {
  std::string name;
  std::int64_t pages_per_unit = 0;  ///< 0 => unbounded sequential file
  int blocking_factor = 1;
  bool locked = true;               ///< false => latch-synchronized (no locks)
  bool scale_with_nodes = true;
  StorageKind storage = StorageKind::Disk;
  int disks_per_unit = 8;           ///< arms in this partition's disk group
  std::int64_t disk_cache_pages = 0;///< shared disk cache capacity (if cached)
  std::int64_t gem_cache_pages = 0; ///< GEM page cache capacity (DiskGemCache)
};

/// Transaction CPU path-length model: exponential bursts at BOT, per record
/// access, and at EOT (Table 4.1: 250k instructions mean total).
struct PathLengthConfig {
  double bot_instr = 40000;
  double per_ref_instr = 40000;
  double eot_instr = 50000;
};

struct WorkloadKindDebitCredit {};

/// Everything a single simulation run needs. Defaults reproduce Table 4.1.
struct SystemConfig {
  int nodes = 1;
  double arrival_rate_per_node = 100.0;  ///< transactions per second
  Coupling coupling = Coupling::GemLocking;
  UpdateStrategy update = UpdateStrategy::NoForce;
  Routing routing = Routing::Random;
  int mpl = 50;                 ///< per-node multiprogramming level
  int buffer_pages = 200;       ///< per-node main-memory DB buffer
  StorageKind log_storage = StorageKind::Disk;
  int log_disks_per_node = 2;
  /// Group commit: concurrent committers share one physical log write
  /// (flushed when the window closes or the group is full).
  bool log_group_commit = false;
  sim::SimTime log_group_window = sim::msec(2);
  int log_group_max = 8;
  bool pcl_read_optimization = false;  ///< PCL: local read locks via read-authorizations
  /// GEM locking refinement (Sections 2/3.2): authorize local lock managers
  /// to process read locks without GLT accesses; writers revoke.
  bool gem_read_authorizations = false;
  double lock_instr = 250;      ///< CPU instr per local lock/unlock operation
  /// Lock service time of the [Yu87]-style central lock engine
  /// (Coupling::LockEngine); that study assumed 100-500 us per operation.
  sim::SimTime lock_engine_service = sim::usec(200);

  CpuConfig cpu;
  GemConfig gem;
  CommConfig comm;
  DiskConfig disk;
  PathLengthConfig path;
  std::vector<PartitionConfig> partitions;

  /// Statistics discarded before this time. The default (5 s simulated) is
  /// the single source of truth for every front end: BenchOptions starts
  /// from it, and --quick lowers it to 2 s (with measure = 6 s) as an
  /// explicit override — later flags win, so `--quick --warmup=5` restores
  /// the default and `--warmup=5 --quick` does not. gemsd_analyze
  /// --timeseries checks this cut against an MSER estimate after the fact.
  sim::SimTime warmup = 5.0;
  sim::SimTime measure = 30.0;  ///< measured interval after warm-up
  std::uint64_t seed = 42;

  /// Restart back-off after a deadlock abort.
  sim::SimTime restart_delay = sim::msec(10);

  /// Observability (src/obs): pure observation — none of these settings
  /// change simulation results, only what gets recorded about them.
  struct ObsConfig {
    /// Record trace events into a preallocated ring buffer (exported as
    /// Chrome trace-event JSON, see docs/observability.md).
    bool trace = false;
    std::size_t trace_capacity = std::size_t{1} << 18;  ///< ring entries
    /// Regex over event names (obs::to_string(TraceName)); only matching
    /// events are recorded. "" records everything. Filtered events never
    /// enter the ring, so they don't contribute to the `dropped` overwrite
    /// count — the knob that lets long runs keep a complete window of just
    /// lock/flow/IO events.
    std::string trace_filter = "";
    /// Keep the K slowest transactions with full phase breakdowns (0 = off).
    int slow_k = 0;
    /// Online invariant auditors in the TM/lock/buffer hot paths (fail fast
    /// with a trace cursor on the first violated invariant).
    bool audit = false;
    /// Heartbeat period in wall seconds (0 = off): one stderr JSONL line
    /// with sim-time, commits, events/s and RSS, plus rates over
    /// the last heartbeat interval.
    double progress_every_s = 0.0;
    /// Streaming per-window time series (obs/timeseries.hpp). Pure
    /// observation: no scheduler events are inserted, so metrics are
    /// byte-identical on/off and the export is identical at any `--jobs`.
    bool timeseries = false;
    double timeseries_window = 0.5;   ///< window width in simulated seconds
    std::size_t timeseries_cap = 512; ///< max windows before coarsening
    /// Per-resource queueing snapshot (obs/resources.hpp): exports the
    /// gemsd.resources.v1 document and records per-station wait sketches.
    /// Pure observation — no scheduler events, metrics byte-identical
    /// on/off at any `--jobs`.
    bool resources = false;
  } obs;

  /// Failure/recovery model (Section 1-2 motivate availability; GEM's
  /// non-volatility keeps the global lock table alive across node crashes,
  /// while PCL must freeze and reconstruct the failed node's lock authority).
  struct FailureConfig {
    sim::SimTime detection = sim::msec(100);   ///< crash detection delay
    /// REDO: log pages scanned per owned dirty page (reads from the failed
    /// node's log device) before the page is force-written.
    int redo_log_pages_per_page = 2;
    /// PCL only: reconstructing the failed GLA's lock table from the
    /// survivors (communication + rebuild) before its partition unfreezes.
    sim::SimTime gla_rebuild = sim::sec(2.0);
    /// Node restart time before it accepts new transactions again.
    sim::SimTime node_restart = sim::sec(5.0);
  } failure;

  std::int64_t partition_pages(PartitionId p) const {
    const auto& pc = partitions[static_cast<std::size_t>(p)];
    return pc.scale_with_nodes ? pc.pages_per_unit * nodes
                               : pc.pages_per_unit;
  }
};

/// Debit-credit schema per Table 4.1, with BRANCH/TELLER clustering: the
/// clustered partition holds one BRANCH plus its ten TELLER records per page
/// (100 pages per node unit); ACCOUNT has 10M records at blocking factor 10
/// (1M pages per unit); HISTORY is an unbounded sequential file with blocking
/// factor 20 and no locks (latch-protected end-of-file).
struct DebitCreditIds {
  static constexpr PartitionId kBranchTeller = 0;
  static constexpr PartitionId kAccount = 1;
  static constexpr PartitionId kHistory = 2;
  static constexpr std::int64_t kBranchesPerUnit = 100;
  static constexpr std::int64_t kTellersPerBranch = 10;
  static constexpr std::int64_t kAccountsPerBranch = 100000;
  static constexpr std::int64_t kAccountsPerPage = 10;
};

/// SystemConfig with the paper's Table 4.1 defaults for debit-credit.
SystemConfig make_debit_credit_config();

}  // namespace gemsd
