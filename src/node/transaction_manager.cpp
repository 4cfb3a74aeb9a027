#include "node/transaction_manager.hpp"

#include <cstdio>

#include "obs/audit.hpp"
#include "obs/timeseries.hpp"

namespace gemsd::node {

namespace {
/// Node-private append streams (one tail page per node) are spaced apart in
/// the page number space of the sequential partition.
constexpr std::int64_t kAppendStride = std::int64_t{1} << 40;
}  // namespace

TransactionManager::TransactionManager(sim::Scheduler& sched, sim::Rng& rng,
                                       const SystemConfig& cfg, NodeId node,
                                       CpuSet& cpu, BufferManager& buf,
                                       LogManager& log, cc::Protocol& cc,
                                       Metrics& metrics)
    : sched_(sched),
      rng_(rng),
      cfg_(cfg),
      node_(node),
      cpu_(cpu),
      buf_(buf),
      log_(log),
      cc_(cc),
      metrics_(metrics),
      mpl_(sched, cfg.mpl, "mpl" + std::to_string(node)) {}

void TransactionManager::submit(workload::TxnSpec spec, sim::SimTime arrival) {
  Txn txn;
  txn.id = (static_cast<TxnId>(static_cast<std::uint32_t>(node_)) << 40) |
           next_id_++;
  txn.node = node_;
  txn.arrival = arrival;
  txn.spec = std::move(spec);
  ++submitted_;
  sched_.spawn(run(std::move(txn)));
}

sim::Task<void> TransactionManager::consume_cpu(Txn& txn, double instr) {
  const sim::SimTime t0 = sched_.now();
  const double wait = co_await cpu_.consume(instr);
  txn.t_cpu_wait += wait;
  txn.t_cpu += cpu_.seconds(instr);
  if (metrics_.trace) {
    metrics_.trace->span(obs::TraceName::kCpu, node_, txn.id, t0, sched_.now(),
                         wait);
  }
}

PageId TransactionManager::resolve_append(PageId ref, bool& fresh_page) {
  const auto& pc = cfg_.partitions[static_cast<std::size_t>(ref.partition)];
  fresh_page = (appends_ % pc.blocking_factor) == 0;
  const std::int64_t pageno =
      static_cast<std::int64_t>(node_) * kAppendStride +
      appends_ / pc.blocking_factor;
  ++appends_;
  return PageId{ref.partition, pageno};
}

sim::Task<bool> TransactionManager::execute(Txn& txn) {
  co_await consume_cpu(txn, rng_.exponential(cfg_.path.bot_instr));

  for (const auto& ref : txn.spec.refs) {
    if (failed_) co_return false;  // node crashed under this transaction
    co_await consume_cpu(txn, rng_.exponential(cfg_.path.per_ref_instr));

    bool fresh_page = false;
    PageId page = ref.page;
    if (page.page == kAppendPage) page = resolve_append(ref.page, fresh_page);

    const auto& pc = cfg_.partitions[static_cast<std::size_t>(page.partition)];
    if (!pc.locked) {
      co_await buf_.access_unlocked(txn, page, ref.write, fresh_page);
      continue;
    }

    const LockMode mode = ref.write           ? LockMode::Write
                          : ref.update_intent ? LockMode::Update
                                              : LockMode::Read;
    if (cc_.table().holds(page, txn.id, mode)) {
      // Second record access to an already locked page (e.g. the clustered
      // BRANCH after TELLER): the local lock manager handles it; the page
      // should still be framed. Not counted as a separate page access.
      if (buf_.has_copy(page)) {
        buf_.touch(page);
      } else {
        cc::LockOutcome again;
        again.source = cc::PageSource::CacheValid;
        again.seqno = cc_.directory().seqno(page);
        co_await cc_.provision(txn, page, again);
      }
    } else {
      const cc::LockOutcome lk = co_await cc_.acquire(txn, page, mode);
      if (lk.aborted) co_return false;
      co_await cc_.provision(txn, page, lk);
      // Coherency invariant: under the lock, the provisioned copy must be
      // the current version.
      const auto have = buf_.cached_seqno(page);
      if (metrics_.audit) {
        metrics_.audit->check(
            !have || *have == cc_.directory().seqno(page),
            "lock-buffer-coherency", sched_.now(), txn.id, node_,
            "page %lld/%d provisioned under the lock at seqno %llu but the "
            "directory says %llu",
            static_cast<long long>(page.page), page.partition,
            static_cast<unsigned long long>(have ? *have : 0),
            static_cast<unsigned long long>(cc_.directory().seqno(page)));
      }
      if (have && *have != cc_.directory().seqno(page)) {
        metrics_.coherency_violations.inc();
#ifdef GEMSD_DEBUG_COHERENCY
        std::fprintf(stderr,
                     "VIOLATION txn=%llu node=%d page=%lld cached=%llu "
                     "dir=%llu src=%d owner=%d mode=%d restarts=%d\n",
                     (unsigned long long)txn.id, txn.node,
                     (long long)page.page, (unsigned long long)*have,
                     (unsigned long long)cc_.directory().seqno(page),
                     (int)lk.source, cc_.directory().owner(page),
                     (int)mode, txn.restarts);
#endif
      }
    }
    if (ref.write) {
      buf_.mark_dirty(page);
      txn.note_dirty(page);
    }
  }

  // --- commit phase 1: log (update transactions) and FORCE writes, in
  // parallel across devices ---
  if (failed_) co_return false;
  co_await consume_cpu(txn, rng_.exponential(cfg_.path.eot_instr));
  const bool update = !txn.dirty.empty() || !txn.dirty_unlocked.empty();
  const sim::SimTime io0 = sched_.now();
  sim::Join j(sched_);
  if (update) j.spawn(log_.commit_write());
  if (cfg_.update == UpdateStrategy::Force) {
    for (PageId p : txn.dirty) j.spawn(buf_.force_write(nullptr, p));
    for (PageId p : txn.dirty_unlocked) j.spawn(buf_.force_write(nullptr, p));
  }
  co_await j.wait_all();
  txn.t_io += sched_.now() - io0;
  if (metrics_.trace && sched_.now() > io0) {
    // Log + FORCE writes run in parallel on one transaction lane: collapsed
    // into a single commit-I/O span so the lane's slices stay nested.
    metrics_.trace->span(obs::TraceName::kCommitIo, node_, txn.id, io0,
                         sched_.now());
  }

  // --- commit phase 2: release locks / propagate ownership ---
  // --audit: commit_release clears txn.dirty, so the pre-commit lock check
  // and the post-commit directory check both work from a snapshot.
  std::vector<PageId> audit_dirty;
  if (metrics_.audit) {
    audit_dirty = txn.dirty;
    for (PageId p : audit_dirty) {
      metrics_.audit->check(
          cc_.table().holds(p, txn.id, LockMode::Write), "dirty-write-lock",
          sched_.now(), txn.id, node_,
          "page %lld/%d is dirty at commit but not write-locked",
          static_cast<long long>(p.page), p.partition);
    }
  }
  const sim::SimTime cc0 = sched_.now();
  co_await cc_.commit_release(txn);
  txn.t_cc += sched_.now() - cc0;
  txn.dirty_unlocked.clear();
  if (metrics_.audit) {
    cc_.audit_commit_state(txn, audit_dirty, *metrics_.audit, sched_.now());
  }
  co_return true;
}

sim::Task<void> TransactionManager::run(Txn txn) {
  const double qwait = co_await mpl_.acquire();
  txn.t_queue = qwait;
  metrics_.mpl_wait.add(qwait);
  if (metrics_.trace && qwait > 0.0) {
    metrics_.trace->span(obs::TraceName::kMplWait, node_, txn.id,
                         sched_.now() - qwait, sched_.now());
  }

  for (;;) {
    const bool committed = co_await execute(txn);
    if (committed) break;
    co_await cc_.abort_release(txn);
    txn.dirty_unlocked.clear();
    if (failed_) {
      // Crash: the transaction is lost, not restarted.
      metrics_.lost_txns.inc();
      mpl_.release();
      co_return;
    }
    metrics_.aborts.inc();
    metrics_.restarts.inc();
    if (metrics_.ts) metrics_.ts->on_abort(sched_.now(), node_);
    ++txn.restarts;
    txn.t_cpu = txn.t_cpu_wait = txn.t_io = txn.t_cc = 0;
    if (metrics_.trace) {
      metrics_.trace->instant(obs::TraceName::kRestart, node_, txn.id,
                              sched_.now());
    }
    co_await sched_.delay(cfg_.restart_delay);
  }

  mpl_.release();
  const double rt = sched_.now() - txn.arrival;
  metrics_.commits.inc();
  metrics_.response.add(rt);
  if (metrics_.ts) metrics_.ts->on_commit(sched_.now(), node_, rt);
  metrics_.response_batches.add(rt);
  metrics_.response_hist.add(rt);
  if (!txn.spec.refs.empty()) {
    metrics_.response_per_ref.add(rt /
                                  static_cast<double>(txn.spec.refs.size()));
  }
  auto& per_type = metrics_.per_type_response;
  if (static_cast<std::size_t>(txn.spec.type) < per_type.size()) {
    per_type[static_cast<std::size_t>(txn.spec.type)].add(rt);
  }
  metrics_.breakdown_cpu.add(txn.t_cpu);
  metrics_.breakdown_cpu_wait.add(txn.t_cpu_wait);
  metrics_.breakdown_io.add(txn.t_io);
  metrics_.breakdown_cc.add(txn.t_cc);
  metrics_.breakdown_queue.add(txn.t_queue);
  metrics_.breakdown_cpu_hist.add(txn.t_cpu);
  metrics_.breakdown_cpu_wait_hist.add(txn.t_cpu_wait);
  metrics_.breakdown_io_hist.add(txn.t_io);
  metrics_.breakdown_cc_hist.add(txn.t_cc);
  metrics_.breakdown_queue_hist.add(txn.t_queue);

  if (metrics_.audit) {
    auto* au = metrics_.audit;
    const sim::SimTime now = sched_.now();
    au->check(txn.t_cpu >= 0 && txn.t_cpu_wait >= 0 && txn.t_io >= 0 &&
                  txn.t_cc >= 0 && txn.t_queue >= 0,
              "phase-nonneg", now, txn.id, node_,
              "negative phase: cpu=%g cpu_wait=%g io=%g cc=%g queue=%g",
              txn.t_cpu, txn.t_cpu_wait, txn.t_io, txn.t_cc, txn.t_queue);
    // The phases partition the response time minus restart back-offs and
    // time lost to aborted attempts; their sum can never exceed it.
    const double phase_sum =
        txn.t_cpu + txn.t_cpu_wait + txn.t_io + txn.t_cc + txn.t_queue;
    au->check(phase_sum <= rt * (1.0 + 1e-9) + 1e-12, "phase-sum", now,
              txn.id, node_,
              "phase sum %.9f s exceeds response time %.9f s", phase_sum, rt);
    au->check(buf_.frames_in_use() <=
                  static_cast<std::size_t>(cfg_.buffer_pages),
              "buffer-frames", now, txn.id, node_,
              "%zu frames in use with buffer_pages=%d", buf_.frames_in_use(),
              cfg_.buffer_pages);
  }

  if (metrics_.trace) {
    auto* tr = metrics_.trace;
    const sim::SimTime now = sched_.now();
    tr->span(obs::TraceName::kTxn, node_, txn.id, txn.arrival, now,
             static_cast<double>(txn.spec.type));
    tr->instant(obs::TraceName::kCommit, node_, txn.id, now);
    // Phase totals carry the exact seconds added to Metrics::breakdown_* so
    // the exported span args reconcile with the report by construction.
    tr->phase_total(obs::TraceName::kPhaseCpu, node_, txn.id, now, txn.t_cpu);
    tr->phase_total(obs::TraceName::kPhaseCpuWait, node_, txn.id, now,
                    txn.t_cpu_wait);
    tr->phase_total(obs::TraceName::kPhaseIo, node_, txn.id, now, txn.t_io);
    tr->phase_total(obs::TraceName::kPhaseCc, node_, txn.id, now, txn.t_cc);
    tr->phase_total(obs::TraceName::kPhaseQueue, node_, txn.id, now,
                    txn.t_queue);
  }
  if (metrics_.slow) {
    obs::SlowTxn s;
    s.id = txn.id;
    s.node = static_cast<std::int16_t>(node_);
    s.type = txn.spec.type;
    s.restarts = txn.restarts;
    s.arrival = txn.arrival;
    s.response = rt;
    s.cpu = txn.t_cpu;
    s.cpu_wait = txn.t_cpu_wait;
    s.io = txn.t_io;
    s.cc = txn.t_cc;
    s.queue = txn.t_queue;
    metrics_.slow->add(s);
  }
}

}  // namespace gemsd::node
