#include "cc/primary_copy_protocol.hpp"

#include <algorithm>

namespace gemsd::cc {

void PrimaryCopyProtocol::freeze_gla(NodeId n) { frozen_.insert(n); }

void PrimaryCopyProtocol::thaw_gla(NodeId n) {
  frozen_.erase(n);
  auto it = freeze_waiters_.find(n);
  if (it == freeze_waiters_.end()) return;
  for (auto h : it->second) sched().schedule(sched().now(), h);
  freeze_waiters_.erase(it);
}

sim::Task<LockOutcome> PrimaryCopyProtocol::acquire(node::Txn& txn, PageId p,
                                                    LockMode mode) {
  metrics().lock_requests.inc();
  const sim::SimTime t0 = sched().now();
  const NodeId g = gla_->gla(p);
  while (frozen_.count(g) != 0) {
    co_await sched().suspend([this, g](std::coroutine_handle<> h) {
      freeze_waiters_[g].push_back(h);
    });
  }
  LockOutcome out;
  if (g == txn.node) {
    out = co_await acquire_local(txn, p, mode);
  } else if (read_opt_ && mode == LockMode::Read &&
             dir_.has_read_auth(p, txn.node)) {
    out = co_await acquire_auth_local(txn, p);
  } else {
    out = co_await acquire_remote(txn, p, mode, g);
  }
  txn.t_cc += sched().now() - t0;
  co_return out;
}

sim::Task<LockOutcome> PrimaryCopyProtocol::acquire_local(node::Txn& txn,
                                                          PageId p,
                                                          LockMode mode) {
  metrics().lock_local.inc();
  const NodeId n = txn.node;
  co_await cpu(n).consume(cfg().lock_instr);
  if (mode == LockMode::Write) revoke_auths(p, n, n);
  const Logical res = co_await lock_logical(txn, p, mode);
  if (res == Logical::Aborted) co_return LockOutcome{.aborted = true};

  LockOutcome out;
  out.seqno = dir_.seqno(p);
  const auto cached = buf(n).cached_seqno(p);
  if (cached && *cached == out.seqno) {
    out.source = PageSource::CacheValid;
  } else {
    out.invalidation = cached.has_value();
    // As GLA we are the designated owner: either our copy is current (then
    // the sequence numbers matched above / the copy is in write-back), or
    // the permanent database is.
    out.source = PageSource::Storage;
  }
  co_return out;
}

sim::Task<LockOutcome> PrimaryCopyProtocol::acquire_auth_local(node::Txn& txn,
                                                               PageId p) {
  metrics().lock_auth_local.inc();
  const NodeId n = txn.node;
  co_await cpu(n).consume(cfg().lock_instr);
  const Logical res = co_await lock_logical(txn, p, LockMode::Read);
  if (res == Logical::Aborted) co_return LockOutcome{.aborted = true};

  LockOutcome out;
  out.seqno = dir_.seqno(p);
  const auto cached = buf(n).cached_seqno(p);
  if (cached && *cached == out.seqno) {
    out.source = PageSource::CacheValid;
  } else {
    out.invalidation = cached.has_value();
    const NodeId ow = dir_.owner(p);
    if (ow != kNoNode && ow != n) {
      // Ask the GLA (the owner) for the page — an explicit request/transfer
      // round, since no lock message travels that could carry it.
      out.source = PageSource::OwnerTransfer;
      out.owner = ow;
    } else {
      out.source = PageSource::Storage;
    }
  }
  co_return out;
}

sim::Task<LockOutcome> PrimaryCopyProtocol::acquire_remote(node::Txn& txn,
                                                           PageId p,
                                                           LockMode mode,
                                                           NodeId g) {
  metrics().lock_remote.inc();
  const NodeId n = txn.node;
  RemoteRequest rq{txn.id, p, mode, buf(n).cached_seqno(p), g, n,
                   sim::OneShot<GrantMsg>(sched())};

  co_await env_.comm->send(n, g, /*long_msg=*/false, gla_lock_request(&rq));

  const GrantMsg m = co_await rq.resp.wait();
  if (m.aborted) co_return LockOutcome{.aborted = true};
  if (!txn.holds_page(p)) txn.held.push_back(p);
  LockOutcome out;
  out.source = m.source;
  out.seqno = m.seqno;
  out.invalidation = m.invalidation;
  out.owner = g;
  co_return out;
}

PrimaryCopyProtocol::GrantMsg PrimaryCopyProtocol::make_grant(
    const RemoteRequest& rq) {
  const PageId p = rq.page;
  const std::optional<SeqNo>& cached = rq.cached;
  const NodeId g = rq.gla;
  GrantMsg m;
  m.seqno = dir_.seqno(p);
  if (cached && *cached == m.seqno) {
    m.source = PageSource::CacheValid;
  } else {
    m.invalidation = cached.has_value();
    const NodeId ow = dir_.owner(p);
    if (ow == g && buf(g).has_copy(p)) {
      // Send the current page along with the grant (long message).
      m.source = PageSource::Delivered;
    } else {
      m.source = PageSource::Storage;
    }
  }
  if (read_opt_ && rq.mode == LockMode::Read) {
    dir_.grant_read_auth(p, rq.requester);
  }
  return m;
}

sim::Task<void> PrimaryCopyProtocol::gla_lock_request(RemoteRequest* rq) {
  const TxnId txn = rq->txn;
  const PageId p = rq->page;
  const NodeId g = rq->gla;
  const NodeId n = rq->requester;
  co_await cpu(g).consume(cfg().lock_instr);
  if (rq->mode == LockMode::Write) revoke_auths(p, n, g);
  // Same trace instrumentation as Protocol::lock_logical — the analyzer's
  // wait-for replay needs every waiting path to emit its edges, the deadlock
  // verdict, and a lock.wait span at grant time (which retires the edges).
  const sim::SimTime t0 = sched().now();
  rq->t0 = t0;
  const auto res = table_.acquire(p, txn, n, rq->mode, [this, rq] {
    // Granted later, during a release processed at the GLA.
    if (metrics().trace) {
      metrics().trace->span(obs::TraceName::kLockWait,
                            static_cast<std::int16_t>(rq->requester), rq->txn,
                            rq->t0, sched().now(),
                            static_cast<double>(rq->page.page),
                            static_cast<std::int32_t>(rq->page.partition));
    }
    sched().spawn(
        send_grant(rq->gla, rq->requester, make_grant(*rq), &rq->resp));
  });
  if (res == LockTable::Outcome::Granted) {
    co_await send_grant(g, n, make_grant(*rq), &rq->resp);
    co_return;
  }
  if (metrics().trace) {
    for (TxnId b : table_.blockers(p, txn)) {
      metrics().trace->instant(obs::TraceName::kWaitEdge,
                               static_cast<std::int16_t>(n), txn, t0,
                               static_cast<double>(b));
    }
  }
  if (table_.creates_deadlock(txn)) {
    table_.cancel_wait(p, txn);
    metrics().deadlocks.inc();
    if (metrics().trace) {
      metrics().trace->instant(obs::TraceName::kDeadlock,
                               static_cast<std::int16_t>(n), txn, t0,
                               static_cast<double>(p.page),
                               static_cast<std::int32_t>(p.partition));
    }
    co_await send_grant(g, n, GrantMsg{.aborted = true}, &rq->resp);
  } else {
    metrics().lock_waits.inc();
  }
}

sim::Task<void> PrimaryCopyProtocol::fulfill_grant(
    sim::OneShot<GrantMsg>* resp, GrantMsg m) {
  resp->set(m);
  co_return;
}

sim::Task<void> PrimaryCopyProtocol::send_grant(NodeId g, NodeId n, GrantMsg m,
                                                sim::OneShot<GrantMsg>* resp) {
  co_await env_.comm->send(g, n, /*long_msg=*/m.source == PageSource::Delivered,
                           fulfill_grant(resp, m));
}

void PrimaryCopyProtocol::revoke_auths(PageId p, NodeId writer_node,
                                       NodeId gla_node) {
  revoke_auths_from(gla_node, p, writer_node);
}

sim::Task<void> PrimaryCopyProtocol::release_group(
    node::Txn& txn, NodeId g, std::vector<PageId> pages,
    std::vector<PageId> dirty_pages, bool propagate) {
  const NodeId n = txn.node;
  const bool noforce = cfg().update == UpdateStrategy::NoForce;

  if (propagate) {
    for (PageId p : dirty_pages) {
      const NodeId new_owner = noforce ? g : kNoNode;
      const SeqNo s = dir_.committed(p, new_owner);
      // The modifying node's copy stays cached and current; it is dirty only
      // if this node keeps ownership (it is the GLA itself under NOFORCE).
      buf(n).commit_dirty(p, s, noforce && g == n);
    }
  }

  if (g == n) {
    co_await cpu(n).consume(cfg().lock_instr *
                            static_cast<double>(pages.size()));
    releasing_node_ = n;
    for (PageId p : pages) table_.release(p, txn.id);
    releasing_node_ = kNoNode;
    spare_lists_.give(std::move(pages));
    spare_lists_.give(std::move(dirty_pages));
    co_return;
  }

  // One release message per remote GLA; long when it carries modified pages
  // back to their owner (NOFORCE update propagation).
  const bool carries_pages = propagate && noforce && !dirty_pages.empty();
  co_await env_.comm->send(
      n, g, carries_pages,
      gla_release(g, txn.id, std::move(pages), std::move(dirty_pages),
                  carries_pages));
}

sim::Task<void> PrimaryCopyProtocol::gla_release(NodeId g, TxnId txn,
                                                 std::vector<PageId> pages,
                                                 std::vector<PageId> dirty_pages,
                                                 bool carries_pages) {
  co_await cpu(g).consume(cfg().lock_instr *
                          static_cast<double>(pages.size()));
  if (carries_pages) {
    for (PageId p : dirty_pages) {
      buf(g).install(p, dir_.seqno(p), /*dirty=*/true);
    }
  }
  releasing_node_ = g;
  for (PageId p : pages) table_.release(p, txn);
  releasing_node_ = kNoNode;
  spare_lists_.give(std::move(pages));
  spare_lists_.give(std::move(dirty_pages));
}

sim::Task<void> PrimaryCopyProtocol::release_held(node::Txn& txn,
                                                  bool propagate) {
  // Pages not yet grouped, compacted in place as each group is taken out.
  std::vector<PageId> rest = spare_lists_.take();
  rest.assign(txn.held.begin(), txn.held.end());
  while (!rest.empty()) {
    const NodeId g = gla_->gla(rest.front());
    std::vector<PageId> pages = spare_lists_.take();
    std::size_t kept = 0;
    for (PageId p : rest) {
      if (gla_->gla(p) == g) {
        pages.push_back(p);
      } else {
        rest[kept++] = p;
      }
    }
    rest.resize(kept);
    std::vector<PageId> dirty = spare_lists_.take();
    if (propagate) {
      for (PageId p : txn.dirty) {
        if (std::find(pages.begin(), pages.end(), p) != pages.end()) {
          dirty.push_back(p);
        }
      }
    }
    co_await release_group(txn, g, std::move(pages), std::move(dirty),
                           propagate);
  }
  spare_lists_.give(std::move(rest));
  txn.held.clear();
  txn.dirty.clear();
}

sim::Task<void> PrimaryCopyProtocol::commit_release(node::Txn& txn) {
  // One (possibly page-carrying) release message per remote authority.
  co_await release_held(txn, /*propagate=*/true);
}

sim::Task<void> PrimaryCopyProtocol::abort_release(node::Txn& txn) {
  co_await release_held(txn, /*propagate=*/false);
}

}  // namespace gemsd::cc
