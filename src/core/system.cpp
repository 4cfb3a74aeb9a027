#include "core/system.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "cc/gem_lock_protocol.hpp"
#include "cc/lock_engine_protocol.hpp"
#include "cc/primary_copy_protocol.hpp"
#include "obs/memory.hpp"
#include "obs/resources.hpp"
#include "obs/timeseries.hpp"
#include "workload/debit_credit.hpp"

namespace gemsd {

System::System(const SystemConfig& cfg, Workload wl)
    : cfg_(cfg),
      rng_(cfg.seed),
      metrics_(cfg.partitions.size(),
               static_cast<std::size_t>(wl.gen ? wl.gen->num_types() : 1)),
      wl_(std::move(wl)) {
  storage_ = std::make_unique<storage::StorageManager>(sched_, rng_, cfg_);
  network_ = std::make_unique<net::Network>(sched_, cfg_.comm);
  comm_ = std::make_unique<net::Comm>(sched_, *network_, cfg_.comm,
                                      storage_.get());

  std::vector<node::CpuSet*> cpu_ptrs;
  for (int n = 0; n < cfg_.nodes; ++n) {
    cpus_.push_back(std::make_unique<node::CpuSet>(
        sched_, cfg_.cpu, "cpu" + std::to_string(n)));
    cpu_ptrs.push_back(cpus_.back().get());
    bufs_.push_back(std::make_unique<node::BufferManager>(
        sched_, cfg_, n, *cpus_.back(), *storage_, metrics_));
  }
  comm_->attach_nodes(cpu_ptrs);

  // Observability: the recorders are owned here and reached by components
  // via Metrics (null pointers when disabled — every record site is guarded,
  // and with GEMSD_TRACING_ENABLED=0 compiled away).
  // Installed BEFORE the protocol so its constructor can wire the lock
  // table's trace hooks.
  if (cfg_.obs.trace) {
    trace_ = std::make_unique<obs::TraceRecorder>(cfg_.obs.trace_capacity);
    if (!cfg_.obs.trace_filter.empty()) {
      trace_->set_filter(obs::trace_name_filter(cfg_.obs.trace_filter));
    }
    metrics_.trace = trace_.get();
    comm_->set_trace(trace_.get());
  }
  if (cfg_.obs.audit) {
    audit_ = std::make_unique<obs::Auditor>(trace_.get());
    metrics_.audit = audit_.get();
  }
  if (cfg_.obs.timeseries) {
    ts_ = std::make_unique<obs::TimeSeriesRecorder>(
        cfg_.obs.timeseries_window, cfg_.obs.timeseries_cap, cfg_.nodes);
    metrics_.ts = ts_.get();
    // Cumulative-counter reader: invoked from inside TM hook processing when
    // a window rolls over. Reads counters and busy-time integrals only —
    // never mutates simulation state or draws random numbers.
    ts_->set_poller([this](obs::TsCumulative& c) {
      c.events = sched_.events_processed();
      c.lock_waits = metrics_.lock_waits.value();
      c.deadlocks = metrics_.deadlocks.value();
      std::uint64_t h = 0, m = 0;
      for (std::size_t p = 0; p < metrics_.hits.size(); ++p) {
        h += metrics_.hits[p].value();
        m += metrics_.misses[p].value();
      }
      c.hits = h;
      c.misses = m;
      c.msgs = comm_->messages_sent();
      double cpu = 0;
      for (const auto& cp : cpus_) cpu += cp->resource().busy_time();
      c.cpu_busy_s = cpu;
      double gem_busy = 0;
      for (int s = 0; s < storage_->gem_shards(); ++s) {
        gem_busy += storage_->gem(s).server().busy_time();
      }
      c.gem_busy_s = gem_busy;
      c.net_busy_s = network_->link().busy_time();
      double disk = 0;
      for (std::size_t p = 0; p < cfg_.partitions.size(); ++p) {
        if (const auto* g = storage_->group(static_cast<PartitionId>(p))) {
          disk += g->arms().busy_time();
        }
      }
      double log_busy = 0;
      for (int n = 0; n < cfg_.nodes; ++n) {
        if (const auto* g = storage_->log_group_if_built(n)) {
          log_busy += g->arms().busy_time();
        }
      }
      c.disk_busy_s = disk + log_busy;
      // Population integrals: admitted transactions are the MPL pools' busy
      // slots, the MPL queue their waiters, the disk queue the DB arms'.
      double admitted = 0, mpl_queue = 0;
      for (const auto& tm : tms_) {
        admitted += tm->mpl().busy_time();
        mpl_queue += tm->mpl().queue_integral();
      }
      c.admitted_s = admitted;
      c.mpl_queue_s = mpl_queue;
      double disk_queue = 0;
      for (std::size_t p = 0; p < cfg_.partitions.size(); ++p) {
        if (const auto* g = storage_->group(static_cast<PartitionId>(p))) {
          disk_queue += g->arms().queue_integral();
        }
      }
      c.disk_queue_s = disk_queue;
      // Tracked stations, same order as set_stations below: GEM shards,
      // network, disk partition arms, log aggregate.
      c.station_busy_s.clear();
      for (int s = 0; s < storage_->gem_shards(); ++s) {
        c.station_busy_s.push_back(storage_->gem(s).server().busy_time());
      }
      c.station_busy_s.push_back(network_->link().busy_time());
      for (std::size_t p = 0; p < cfg_.partitions.size(); ++p) {
        if (const auto* g = storage_->group(static_cast<PartitionId>(p))) {
          c.station_busy_s.push_back(g->arms().busy_time());
        }
      }
      c.station_busy_s.push_back(log_busy);
    });
    double disk_arms = 0;
    for (std::size_t p = 0; p < cfg_.partitions.size(); ++p) {
      if (const auto* g = storage_->group(static_cast<PartitionId>(p))) {
        disk_arms += static_cast<double>(g->arms().capacity());
      }
    }
    // Log groups are built lazily; their arm capacity is config-determined.
    disk_arms += static_cast<double>(cfg_.nodes) *
                 std::max(cfg_.log_disks_per_node, 1);
    double gem_servers = 0;
    for (int s = 0; s < storage_->gem_shards(); ++s) {
      gem_servers += static_cast<double>(storage_->gem(s).server().capacity());
    }
    ts_->set_capacities(
        static_cast<double>(cfg_.nodes) * cfg_.cpu.processors,
        gem_servers,
        static_cast<double>(network_->link().capacity()), disk_arms);
    // Per-station series (bounded: shards + partitions + 2, never per-node):
    // the per-window utilization of each station is what shows a bottleneck
    // migrating — e.g. network vs GEM under scale_out's diurnal curve.
    {
      std::vector<obs::TsStation> stations;
      for (int s = 0; s < storage_->gem_shards(); ++s) {
        obs::TsStation st;
        st.name = storage_->gem_shards() == 1 ? "gem"
                                              : "gem.shard" + std::to_string(s);
        st.capacity =
            static_cast<double>(storage_->gem(s).server().capacity());
        stations.push_back(std::move(st));
      }
      stations.push_back(obs::TsStation{
          "net", static_cast<double>(network_->link().capacity())});
      for (std::size_t p = 0; p < cfg_.partitions.size(); ++p) {
        if (const auto* g = storage_->group(static_cast<PartitionId>(p))) {
          stations.push_back(obs::TsStation{
              "disk." + cfg_.partitions[p].name,
              static_cast<double>(g->arms().capacity())});
        }
      }
      stations.push_back(obs::TsStation{
          "log", static_cast<double>(cfg_.nodes) *
                     std::max(cfg_.log_disks_per_node, 1)});
      ts_->set_stations(std::move(stations));
    }
  }
  if (cfg_.obs.progress_every_s > 0.0) {
    // Check the wall clock every few thousand events (one predictable branch
    // on the scheduler hot path otherwise); the tick itself decides whether
    // a heartbeat period has elapsed.
    sched_.set_progress_hook([this] { progress_tick(); }, 8192);
  }

  cc::Protocol::Env env;
  env.sched = &sched_;
  env.cfg = &cfg_;
  env.metrics = &metrics_;
  env.comm = comm_.get();
  env.net = network_.get();
  env.storage = storage_.get();
  env.cpus = cpu_ptrs;
  for (auto& b : bufs_) env.bufs.push_back(b.get());

  if (cfg_.coupling == Coupling::GemLocking) {
    protocol_ = std::make_unique<cc::GemLockProtocol>(std::move(env));
  } else if (cfg_.coupling == Coupling::LockEngine) {
    if (cfg_.update != UpdateStrategy::Force) {
      // [Yu87]'s coherency scheme (broadcast invalidation, storage always
      // current) is only sound with FORCE.
      throw std::invalid_argument(
          "Coupling::LockEngine requires UpdateStrategy::Force");
    }
    protocol_ = std::make_unique<cc::LockEngineProtocol>(
        std::move(env), cfg_.lock_engine_service);
  } else {
    protocol_ = std::make_unique<cc::PrimaryCopyProtocol>(
        std::move(env), wl_.gla.get(), cfg_.pcl_read_optimization);
  }
  for (auto& b : bufs_) {
    b->set_writeback_hook([this](NodeId n, PageId p, SeqNo s) {
      protocol_->on_writeback(n, p, s);
    });
  }
  for (int n = 0; n < cfg_.nodes; ++n) {
    logs_.push_back(std::make_unique<node::LogManager>(
        sched_, cfg_, n, *cpus_[static_cast<std::size_t>(n)], *storage_));
    tms_.push_back(std::make_unique<node::TransactionManager>(
        sched_, rng_, cfg_, n, *cpus_[static_cast<std::size_t>(n)],
        *bufs_[static_cast<std::size_t>(n)],
        *logs_[static_cast<std::size_t>(n)], *protocol_, metrics_));
  }
  node_up_.assign(static_cast<std::size_t>(cfg_.nodes), true);

  if (cfg_.obs.resources) {
    // Wait-sketch recording: the recorder owns per-station bucket vectors
    // registered with each sim::Resource. Installed after every station
    // exists; lazily built log groups attach through the storage hook the
    // moment they are constructed. Costs one branch per acquisition and
    // inserts no scheduler events, so metrics stay byte-identical on/off.
    resrec_ = std::make_unique<obs::ResourceRecorder>();
    for (auto& c : cpus_) resrec_->attach(c->resource());
    for (auto& tm : tms_) resrec_->attach(tm->mpl_pool());
    for (int s = 0; s < storage_->gem_shards(); ++s) {
      resrec_->attach(storage_->gem(s).server());
    }
    resrec_->attach(network_->link());
    for (std::size_t p = 0; p < cfg_.partitions.size(); ++p) {
      if (auto* g = storage_->group(static_cast<PartitionId>(p))) {
        resrec_->attach(g->arms());
        resrec_->attach(g->controllers());
      }
    }
    storage_->set_group_built_hook([this](storage::DiskGroup& g) {
      resrec_->attach(g.arms());
      resrec_->attach(g.controllers());
    });
  }
}

System::~System() = default;

sim::Task<void> System::source() {
  const double rate = cfg_.arrival_rate_per_node * cfg_.nodes;
  for (;;) {
    // Optional diurnal modulation (scale_out): a non-homogeneous Poisson
    // stream via per-arrival thinning of the mean inter-arrival time. The
    // unset default keeps the draw expression — and its bytes — unchanged.
    const double mean_gap =
        wl_.arrival_factor
            ? 1.0 / (rate * std::max(wl_.arrival_factor(sched_.now()), 1e-9))
            : 1.0 / rate;
    co_await sched_.delay(rng_.exponential(mean_gap));
    auto spec = wl_.gen->next(rng_);
    NodeId n = wl_.router->route(spec, rng_);
    // Route around crashed nodes (simple successor fallback).
    for (int hops = 0; hops < cfg_.nodes &&
                       !node_up_[static_cast<std::size_t>(n)];
         ++hops) {
      n = (n + 1) % cfg_.nodes;
    }
    if (!node_up_[static_cast<std::size_t>(n)]) continue;  // whole cluster down
    tms_[static_cast<std::size_t>(n)]->submit(std::move(spec), sched_.now());
  }
}

void System::fail_node(NodeId n) {
  if (!node_up_[static_cast<std::size_t>(n)]) return;
  node_up_[static_cast<std::size_t>(n)] = false;
  tms_[static_cast<std::size_t>(n)]->set_failed(true);
  // Volatile state is gone (in-flight device writes may still complete).
  bufs_[static_cast<std::size_t>(n)]->crash_clear();
  if (cfg_.coupling == Coupling::PrimaryCopy) {
    static_cast<cc::PrimaryCopyProtocol&>(*protocol_).freeze_gla(n);
  }
  sched_.spawn(recovery_process(n, sched_.now()));
}

sim::Task<void> System::recovery_process(NodeId n, sim::SimTime crash_time) {
  co_await sched_.delay(cfg_.failure.detection);

  if (cfg_.coupling == Coupling::PrimaryCopy) {
    // Reconstruct the lost lock authority from the survivors before its
    // partition can lock again. (GEM's GLT is non-volatile: no equivalent.)
    co_await sched_.delay(cfg_.failure.gla_rebuild);
    static_cast<cc::PrimaryCopyProtocol&>(*protocol_).thaw_gla(n);
  }

  // REDO the pages whose only current copy died with the node (NOFORCE).
  // A surviving coordinator write-locks each page, replays the log records
  // from the failed node's (surviving) log device, force-writes the page,
  // and releases — after which storage is current again.
  NodeId coord = (n + 1) % cfg_.nodes;
  while (coord != n && !node_up_[static_cast<std::size_t>(coord)]) {
    coord = (coord + 1) % cfg_.nodes;
  }
  const auto owned = protocol_->directory().pages_owned_by(n);
  if (coord != n && !owned.empty()) {
    // Privileged recovery path: write-lock one page at a time directly on
    // the logical lock table (the recovery manager owns the reconstructed
    // lock state — no protocol messages), REDO it from the failed node's
    // log, force-write it, release. Holding a single lock at a time keeps
    // normal traffic flowing and cannot deadlock.
    const TxnId rec_id = (TxnId{0xFEC0} << 40) | recovery_ids_++;
    auto& table = protocol_->table();
    for (PageId p : owned) {
      sim::OneShot<bool> granted(sched_);
      const auto res = table.acquire(p, rec_id, coord, LockMode::Write,
                                     [&granted] { granted.set(true); });
      if (res != cc::LockTable::Outcome::Granted) co_await granted.wait();
      for (int k = 0; k < cfg_.failure.redo_log_pages_per_page; ++k) {
        co_await storage_->log_group(n).read(PageId{-1, k});
      }
      co_await storage_->write(p);
      protocol_->directory().written_back(p, n,
                                          protocol_->directory().seqno(p));
      table.release(p, rec_id);
    }
  }
  metrics_.recovery_time.add(sched_.now() - crash_time);

  // Node restart: cold buffer, accepts work again.
  const sim::SimTime rejoin_at =
      std::max(crash_time + cfg_.failure.node_restart, sched_.now());
  co_await sched_.delay(rejoin_at - sched_.now());
  bufs_[static_cast<std::size_t>(n)]->crash_clear();
  tms_[static_cast<std::size_t>(n)]->set_failed(false);
  node_up_[static_cast<std::size_t>(n)] = true;
}

void System::progress_tick() {
  const double now_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - progress_epoch_)
                           .count();
  if (now_s - progress_last_s_ < cfg_.obs.progress_every_s) return;
  const std::uint64_t events = sched_.events_processed();
  const std::uint64_t commits = metrics_.commits.value();
  const sim::SimTime sim_now = sched_.now();
  // Rates over the heartbeat interval (first interval spans construction).
  // The commit counter is zeroed at warm-up end, so a shrinking value means
  // the interval restarted at the reset.
  const double dt = now_s - progress_last_s_;
  const double eps = static_cast<double>(events - progress_prev_events_) / dt;
  const std::uint64_t int_commits =
      commits >= progress_prev_commits_ ? commits - progress_prev_commits_
                                        : commits;
  const double cps = static_cast<double>(int_commits) / dt;
  const double sim_per_s = (sim_now - progress_prev_sim_) / dt;
  // One JSONL line on stderr: greppable, and invisible to every stdout
  // consumer (CSV, tables, JSON exports). events_per_s / commits_per_s /
  // sim_per_s cover the last interval; commits and events are cumulative.
  // rss_bytes is the interval resident-set reading (0 where unavailable) —
  // the live view of the memory.* results block.
  std::fprintf(stderr,
               "{\"progress\":{\"sim_s\":%.3f,\"commits\":%" PRIu64
               ",\"events\":%" PRIu64 ",\"events_per_s\":%.0f"
               ",\"interval_commits\":%" PRIu64 ",\"commits_per_s\":%.1f"
               ",\"sim_per_s\":%.3f,\"nodes\":%d,\"rss_bytes\":%" PRIu64
               "}}\n",
               sim_now, commits, events, eps, int_commits, cps, sim_per_s,
               cfg_.nodes, obs::current_rss_bytes());
  progress_last_s_ = now_s;
  progress_prev_events_ = events;
  progress_prev_commits_ = commits;
  progress_prev_sim_ = sim_now;
}

void System::start_source() {
  if (source_started_) return;
  source_started_ = true;
  sched_.spawn(source());
}

void System::reset_stats() {
  // Distribute the cumulative deltas accrued up to this instant BEFORE the
  // counters are zeroed; the recorder itself is kept — the series spans the
  // whole run so warm-up convergence stays visible to the analyzer.
  if (ts_) ts_->fold(sched_.now());
  metrics_.reset();
  network_->reset_stats();
  comm_->reset_stats();
  storage_->reset_stats();
  for (auto& c : cpus_) c->reset_stats();
  // MPL admission pools are stations too: without this their queue integrals
  // span warm-up and the operational-law auditors could never reconcile them
  // against the measurement horizon.
  for (auto& tm : tms_) tm->reset_stats();
  protocol_->table().reset_stats();
  if (resrec_) resrec_->reset();
  stats_start_ = sched_.now();
  // Warm-up events are discarded like warm-up statistics.
  if (trace_) trace_->clear();
  if (ts_) {
    ts_->rebase(sched_.now());  // counters were just zeroed
    ts_->mark_stats_start(sched_.now());
  }
}

void System::run_until(sim::SimTime t) { sched_.run_until(t); }

RunResult System::run() {
  start_source();
  run_until(cfg_.warmup);
  reset_stats();
  run_until(cfg_.warmup + cfg_.measure);
  return collect();
}

RunResult System::collect() const {
  RunResult r;
  r.nodes = cfg_.nodes;
  r.coupling = cfg_.coupling;
  r.update = cfg_.update;
  r.routing = cfg_.routing;
  r.buffer_pages = cfg_.buffer_pages;
  r.arrival_rate_per_node = cfg_.arrival_rate_per_node;

  const double horizon = sched_.now() - stats_start_;
  const auto commits = metrics_.commits.value();
  const double per_txn =
      commits ? 1.0 / static_cast<double>(commits) : 0.0;

  r.resp_ms = metrics_.response.mean() * 1e3;
  r.resp_ci_ms = metrics_.response_batches.half_width_95() * 1e3;
  r.resp_p95_ms = metrics_.response_hist.quantile(0.95) * 1e3;
  r.resp_norm_ms = metrics_.response_per_ref.count()
                       ? metrics_.response_per_ref.mean() * 1e3
                       : 0.0;
  r.throughput = horizon > 0 ? static_cast<double>(commits) / horizon : 0.0;
  r.commits = commits;
  r.aborts = metrics_.aborts.value();
  r.deadlocks = metrics_.deadlocks.value();

  double util_sum = 0, util_max = 0;
  for (const auto& c : cpus_) {
    const double u = c->utilization();
    util_sum += u;
    util_max = std::max(util_max, u);
  }
  r.cpu_util = util_sum / static_cast<double>(cpus_.size());
  r.cpu_util_max = util_max;
  {
    // Mean utilization across the GEM shards (the single device's own value
    // when gem_shards=1 — shard 0 IS the device there).
    double g = 0;
    for (int s = 0; s < storage_->gem_shards(); ++s) {
      g += storage_->gem(s).utilization();
    }
    r.gem_util = g / static_cast<double>(storage_->gem_shards());
  }
  // Per-shard GEM rows (always populated; one row when gem_shards=1). These
  // are first-class results — `gemsd_analyze --compare` gates them whenever
  // both documents carry the block.
  for (int s = 0; s < storage_->gem_shards(); ++s) {
    const auto& dev = storage_->gem(s);
    RunResult::GemShardStat gs;
    gs.util = dev.utilization();
    gs.queue_mean = dev.server().mean_queue_length();
    gs.wait_ms = dev.server().wait_stat().mean() * 1e3;
    gs.completions = dev.server().completions();
    r.gem_shards.push_back(gs);
  }
  r.net_util = network_->utilization();
  r.tps_per_node_at_80 =
      util_max > 0 ? cfg_.arrival_rate_per_node * 0.8 / util_max : 0.0;

  for (std::size_t p = 0; p < cfg_.partitions.size(); ++p) {
    r.hit_ratio.push_back(metrics_.hit_ratio(p));
  }
  r.invalidations_per_txn =
      static_cast<double>(metrics_.invalidations.value()) * per_txn;
  r.page_requests_per_txn =
      static_cast<double>(metrics_.page_requests.value()) * per_txn;
  r.page_request_delay_ms = metrics_.page_request_delay.mean() * 1e3;
  r.evict_writes_per_txn =
      static_cast<double>(metrics_.evict_writes.value()) * per_txn;
  r.force_writes_per_txn =
      static_cast<double>(metrics_.force_writes.value()) * per_txn;

  r.local_lock_fraction = metrics_.local_lock_fraction();
  r.lock_waits_per_txn =
      static_cast<double>(metrics_.lock_waits.value()) * per_txn;
  r.lock_wait_ms = metrics_.lock_wait_time.mean() * 1e3;
  r.messages_per_txn =
      static_cast<double>(comm_->messages_sent()) * per_txn;
  r.revocations_per_txn =
      static_cast<double>(metrics_.revocations.value()) * per_txn;

  r.brk_cpu_ms = metrics_.breakdown_cpu.mean() * 1e3;
  r.brk_cpu_wait_ms = metrics_.breakdown_cpu_wait.mean() * 1e3;
  r.brk_io_ms = metrics_.breakdown_io.mean() * 1e3;
  r.brk_cc_ms = metrics_.breakdown_cc.mean() * 1e3;
  r.brk_queue_ms = metrics_.breakdown_queue.mean() * 1e3;

  const auto pct = [](const sim::Histogram& h) {
    RunResult::Percentiles p;
    p.p50 = h.quantile(0.50) * 1e3;
    p.p95 = h.quantile(0.95) * 1e3;
    p.p99 = h.quantile(0.99) * 1e3;
    return p;
  };
  r.pct_resp = pct(metrics_.response_hist);
  r.pct_cpu = pct(metrics_.breakdown_cpu_hist);
  r.pct_cpu_wait = pct(metrics_.breakdown_cpu_wait_hist);
  r.pct_io = pct(metrics_.breakdown_io_hist);
  r.pct_cc = pct(metrics_.breakdown_cc_hist);
  r.pct_queue = pct(metrics_.breakdown_queue_hist);

  // Full telemetry payload: a flat dump of every Metrics field and every
  // Resource's utilization/queue/completion stats (fixed order — the JSON
  // exporter writes these verbatim), plus the trace ring, the time series
  // and the resource snapshot. Shared so sweep-level copies of RunResult
  // stay cheap.
  auto tel = std::make_shared<obs::RunTelemetry>();
  tel->stats_start = stats_start_;
  tel->end = sched_.now();
  auto& d = tel->detail;
  auto add = [&d](std::string name, double v) {
    d.emplace_back(std::move(name), v);
  };

  add("response.mean_s", metrics_.response.mean());
  add("response.stddev_s", metrics_.response.stddev());
  add("response.min_s", metrics_.response.min());
  add("response.max_s", metrics_.response.max());
  add("response.count", static_cast<double>(metrics_.response.count()));
  add("response.ci95_s", metrics_.response_batches.half_width_95());
  add("response.batches", static_cast<double>(metrics_.response_batches.batches()));
  add("response.p50_s", metrics_.response_hist.quantile(0.50));
  add("response.p95_s", metrics_.response_hist.quantile(0.95));
  add("response.p99_s", metrics_.response_hist.quantile(0.99));
  add("response.per_ref_s", metrics_.response_per_ref.mean());
  for (std::size_t t = 0; t < metrics_.per_type_response.size(); ++t) {
    add("response.type" + std::to_string(t) + ".mean_s",
        metrics_.per_type_response[t].mean());
    add("response.type" + std::to_string(t) + ".count",
        static_cast<double>(metrics_.per_type_response[t].count()));
  }
  add("txn.commits", static_cast<double>(commits));
  add("txn.aborts", static_cast<double>(metrics_.aborts.value()));
  add("txn.restarts", static_cast<double>(metrics_.restarts.value()));
  add("txn.lost", static_cast<double>(metrics_.lost_txns.value()));
  add("txn.mpl_wait_s", metrics_.mpl_wait.mean());
  add("recovery.count", static_cast<double>(metrics_.recovery_time.count()));
  add("recovery.mean_s", metrics_.recovery_time.mean());
  add("breakdown.cpu_s", metrics_.breakdown_cpu.mean());
  add("breakdown.cpu_wait_s", metrics_.breakdown_cpu_wait.mean());
  add("breakdown.io_s", metrics_.breakdown_io.mean());
  add("breakdown.cc_s", metrics_.breakdown_cc.mean());
  add("breakdown.queue_s", metrics_.breakdown_queue.mean());

  for (std::size_t p = 0; p < cfg_.partitions.size(); ++p) {
    const std::string pre = "buffer." + cfg_.partitions[p].name + ".";
    add(pre + "hits", static_cast<double>(metrics_.hits[p].value()));
    add(pre + "misses", static_cast<double>(metrics_.misses[p].value()));
    add(pre + "hit_ratio", metrics_.hit_ratio(p));
    add(pre + "invalidations",
        static_cast<double>(metrics_.invalidations_by_partition[p].value()));
  }
  add("buffer.invalidations",
      static_cast<double>(metrics_.invalidations.value()));
  add("buffer.page_requests",
      static_cast<double>(metrics_.page_requests.value()));
  add("buffer.page_request_misses",
      static_cast<double>(metrics_.page_request_misses.value()));
  add("buffer.page_request_delay_s", metrics_.page_request_delay.mean());
  add("buffer.evict_writes", static_cast<double>(metrics_.evict_writes.value()));
  add("buffer.force_writes", static_cast<double>(metrics_.force_writes.value()));

  add("cc.lock_requests", static_cast<double>(metrics_.lock_requests.value()));
  add("cc.lock_local", static_cast<double>(metrics_.lock_local.value()));
  add("cc.lock_remote", static_cast<double>(metrics_.lock_remote.value()));
  add("cc.lock_auth_local",
      static_cast<double>(metrics_.lock_auth_local.value()));
  add("cc.local_lock_fraction", metrics_.local_lock_fraction());
  add("cc.lock_waits", static_cast<double>(metrics_.lock_waits.value()));
  add("cc.lock_wait_s", metrics_.lock_wait_time.mean());
  add("cc.deadlocks", static_cast<double>(metrics_.deadlocks.value()));
  add("cc.revocations", static_cast<double>(metrics_.revocations.value()));
  add("cc.coherency_violations",
      static_cast<double>(metrics_.coherency_violations.value()));

  auto add_resource = [&](const std::string& pre, const sim::Resource& res) {
    add(pre + ".util", res.utilization());
    add(pre + ".queue_mean", res.mean_queue_length());
    add(pre + ".wait_mean_s", res.wait_stat().mean());
    add(pre + ".completions", static_cast<double>(res.completions()));
  };
  for (std::size_t n = 0; n < cpus_.size(); ++n) {
    add_resource("cpu.node" + std::to_string(n), cpus_[n]->resource());
  }
  for (std::size_t n = 0; n < tms_.size(); ++n) {
    add_resource("mpl.node" + std::to_string(n), tms_[n]->mpl());
  }
  // GEM detail: with a single shard the canonical keys keep their exact
  // bytes (shard 0 is the device); sharded runs add aggregate totals plus
  // additive per-shard keys — `gemsd_analyze --compare` ignores detail keys,
  // so the extra rows never break baseline comparisons.
  if (storage_->gem_shards() == 1) {
    add_resource("gem", storage_->gem().server());
    add("gem.page_ops", static_cast<double>(storage_->gem().page_ops()));
    add("gem.entry_ops", static_cast<double>(storage_->gem().entry_ops()));
  } else {
    double g_util = 0, g_queue = 0;
    std::uint64_t g_pages = 0, g_entries = 0, g_completions = 0;
    for (int s = 0; s < storage_->gem_shards(); ++s) {
      const auto& dev = storage_->gem(s);
      g_util += dev.utilization();
      g_queue += dev.server().mean_queue_length();
      g_pages += dev.page_ops();
      g_entries += dev.entry_ops();
      g_completions += dev.server().completions();
    }
    const double shards = static_cast<double>(storage_->gem_shards());
    add("gem.shards", shards);
    add("gem.util", g_util / shards);
    add("gem.queue_mean", g_queue);
    add("gem.completions", static_cast<double>(g_completions));
    add("gem.page_ops", static_cast<double>(g_pages));
    add("gem.entry_ops", static_cast<double>(g_entries));
    for (int s = 0; s < storage_->gem_shards(); ++s) {
      const auto& dev = storage_->gem(s);
      const std::string pre = "gem.shard" + std::to_string(s);
      add_resource(pre, dev.server());
      add(pre + ".page_ops", static_cast<double>(dev.page_ops()));
      add(pre + ".entry_ops", static_cast<double>(dev.entry_ops()));
    }
  }
  add_resource("net", network_->link());
  add("net.short_msgs", static_cast<double>(network_->short_count()));
  add("net.long_msgs", static_cast<double>(network_->long_count()));
  add("net.messages_sent", static_cast<double>(comm_->messages_sent()));
  for (std::size_t p = 0; p < cfg_.partitions.size(); ++p) {
    if (const auto* g = storage_->group(static_cast<PartitionId>(p))) {
      const std::string pre = "disk." + cfg_.partitions[p].name;
      add_resource(pre + ".arms", g->arms());
      add_resource(pre + ".controllers", g->controllers());
      add(pre + ".reads", static_cast<double>(g->reads()));
      add(pre + ".writes", static_cast<double>(g->writes()));
    }
  }
  for (std::size_t n = 0; n < static_cast<std::size_t>(cfg_.nodes); ++n) {
    const std::string pre = "log.node" + std::to_string(n);
    if (const auto* g =
            storage_->log_group_if_built(static_cast<NodeId>(n))) {
      add_resource(pre + ".arms", g->arms());
      add(pre + ".writes", static_cast<double>(g->writes()));
    } else {
      // Never built (GEM-resident log / idle node): report the exact zeros
      // an eagerly constructed untouched DiskGroup would — same keys, same
      // bytes, none of the per-node allocations.
      add(pre + ".arms.util", 0.0);
      add(pre + ".arms.queue_mean", 0.0);
      add(pre + ".arms.wait_mean_s", 0.0);
      add(pre + ".arms.completions", 0.0);
      add(pre + ".writes", 0.0);
    }
  }
  add("sched.events", static_cast<double>(sched_.events_processed()));
  add("sched.max_queue_depth", static_cast<double>(sched_.max_queued()));
  add("sched.queued_events", static_cast<double>(sched_.queued_events()));

  if (trace_) {
    tel->trace_enabled = true;
    tel->events = trace_->snapshot();
    tel->events_dropped = trace_->dropped();
  }
  if (ts_) {
    ts_->fold(sched_.now());  // close the tail segment at the horizon
    tel->timeseries =
        std::make_shared<const obs::TsSeries>(ts_->snapshot(sched_.now()));
  }
  if (cfg_.obs.resources || audit_) {
    auto set = resource_snapshot();
    if (audit_) {
      // Operational-law auditors: on a complete horizon every station must
      // reconcile against Little's law, the utilization law and flow balance;
      // busy ≤ capacity·horizon is a hard invariant. Fail fast with the
      // offending resource and cursor.
      for (const auto& v : obs::check_resource_laws(set)) {
        audit_->check(false, "resource_laws", sched_.now(), 0, -1, "%s: %s",
                      v.resource.c_str(), v.what.c_str());
      }
    }
    if (cfg_.obs.resources) {
      tel->resources =
          std::make_shared<const obs::ResourceSet>(std::move(set));
    }
  }
  r.telemetry = std::move(tel);
  return r;
}

obs::ResourceSet System::resource_snapshot() const {
  obs::ResourceSet set;
  set.stats_start = stats_start_;
  set.end = sched_.now();
  set.commits = metrics_.commits.value();
  const double horizon = set.horizon();
  set.throughput =
      horizon > 0 ? static_cast<double>(set.commits) / horizon : 0.0;
  if (resrec_) set.layout = resrec_->layout();

  const auto buckets = [&](const sim::Resource& res) {
    return resrec_ ? resrec_->buckets_for(res) : nullptr;
  };
  auto station = [&](const sim::Resource& res, std::string name,
                     std::string kind, int node) {
    set.rows.push_back(obs::resource_row(res, std::move(name), std::move(kind),
                                         node, horizon, set.commits,
                                         buckets(res)));
  };

  for (std::size_t n = 0; n < cpus_.size(); ++n) {
    station(cpus_[n]->resource(), "cpu.node" + std::to_string(n), "cpu",
            static_cast<int>(n));
  }
  for (std::size_t n = 0; n < tms_.size(); ++n) {
    station(tms_[n]->mpl(), "mpl.node" + std::to_string(n), "mpl",
            static_cast<int>(n));
  }
  if (storage_->gem_shards() == 1) {
    station(storage_->gem().server(), "gem", "gem", -1);
  } else {
    for (int s = 0; s < storage_->gem_shards(); ++s) {
      station(storage_->gem(s).server(), "gem.shard" + std::to_string(s),
              "gem", -1);
    }
  }
  station(network_->link(), "net", "net", -1);
  for (std::size_t p = 0; p < cfg_.partitions.size(); ++p) {
    if (const auto* g = storage_->group(static_cast<PartitionId>(p))) {
      const std::string pre = "disk." + cfg_.partitions[p].name;
      station(g->arms(), pre + ".arms", "disk", -1);
      station(g->controllers(), pre + ".controllers", "disk", -1);
    }
  }
  for (std::size_t n = 0; n < static_cast<std::size_t>(cfg_.nodes); ++n) {
    const std::string pre = "log.node" + std::to_string(n);
    if (const auto* g =
            storage_->log_group_if_built(static_cast<NodeId>(n))) {
      station(g->arms(), pre + ".arms", "log", static_cast<int>(n));
    } else {
      // Never built (GEM-resident log / idle node): an all-zero row with the
      // capacity an eagerly built group would have had, so the station list
      // is identical either way.
      obs::ResourceRow row;
      row.name = pre + ".arms";
      row.kind = "log";
      row.node = static_cast<int>(n);
      row.capacity = std::max(cfg_.log_disks_per_node, 1);
      obs::derive_resource_row(row, horizon, set.commits);
      set.rows.push_back(std::move(row));
    }
  }
  {
    // The lock-table wait queue is a pure delay station (capacity 0): every
    // granted-after-wait lock request is an arrival and a completion, and the
    // queue integral equals the summed wait time by construction, so Little's
    // identity is exact here too. Derived server laws don't apply.
    obs::ResourceRow row;
    row.name = "lock";
    row.kind = "lock";
    row.capacity = 0;
    const auto& w = metrics_.lock_wait_time;
    row.arrivals = metrics_.lock_waits.value();
    row.completions = row.arrivals;
    row.waited_s = w.sum();
    row.queue_integral_s = w.sum();
    row.wait.count = w.count();
    row.wait.sum_s = w.sum();
    row.wait_max_s = w.count() ? w.max() : 0.0;
    obs::derive_resource_row(row, horizon, set.commits);
    set.rows.push_back(std::move(row));
  }
  return set;
}

System::Workload make_debit_credit_workload(const SystemConfig& cfg) {
  System::Workload wl;
  wl.gen = std::make_unique<workload::DebitCreditGenerator>(cfg.nodes);
  wl.router = workload::make_debit_credit_router(cfg.routing, cfg.nodes);
  wl.gla = std::make_unique<workload::DebitCreditGlaMap>(cfg.nodes);
  return wl;
}

RunResult run_debit_credit(const SystemConfig& cfg) {
  System sys(cfg, make_debit_credit_workload(cfg));
  return sys.run();
}

}  // namespace gemsd
