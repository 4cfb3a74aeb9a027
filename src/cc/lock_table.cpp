#include "cc/lock_table.hpp"

#include <algorithm>
#include <cassert>

namespace gemsd::cc {

namespace {

std::size_t mode_index(LockMode m) { return static_cast<std::size_t>(m); }

}  // namespace

std::uint32_t LockTable::holder(PageId page, TxnId txn) const {
  return holders_.find(Holder{page, txn}, holder_key());
}

std::uint32_t LockTable::waiter(PageId page, TxnId txn) const {
  const std::uint32_t r = waiting_.find(txn, waiter_key());
  return r != kNil && reqs_[r].page == page ? r : kNil;
}

bool LockTable::compatible(const Head& h, LockMode mode,
                           std::uint32_t own) const {
  std::uint32_t n[3] = {h.granted[0], h.granted[1], h.granted[2]};
  if (own != kNil) --n[mode_index(reqs_[own].mode)];
  const std::uint32_t readers = n[mode_index(LockMode::Read)];
  const std::uint32_t updaters = n[mode_index(LockMode::Update)];
  const std::uint32_t writers = n[mode_index(LockMode::Write)];
  // lock_compatible: Write conflicts with everything, Update with Update.
  switch (mode) {
    case LockMode::Read: return writers == 0;
    case LockMode::Update: return writers == 0 && updaters == 0;
    case LockMode::Write: return writers == 0 && updaters == 0 && readers == 0;
  }
  return false;
}

std::uint32_t LockTable::enqueue(Head& h, std::uint32_t at, Request req) {
  req.next = at;
  req.prev = at == kNil ? h.last : reqs_[at].prev;
  const std::uint32_t r = reqs_.alloc(std::move(req));
  const std::uint32_t prev = reqs_[r].prev;
  (prev == kNil ? h.first : reqs_[prev].next) = r;
  (at == kNil ? h.last : reqs_[at].prev) = r;
  return r;
}

void LockTable::enqueue_waiter(Head& h, Request req) {
  const bool upgrade = req.upgrade;
  const std::uint32_t r =
      enqueue(h, upgrade ? h.first_waiter : kNil, std::move(req));
  if (upgrade || h.first_waiter == kNil) h.first_waiter = r;
  ++h.waiters;
  waiting_.insert(r, waiter_key());
}

void LockTable::grant_waiter(Head& h, std::uint32_t r) {
  waiting_.erase(reqs_[r].txn, waiter_key());
  h.first_waiter = reqs_[r].next;  // waiters are the queue's tail
  --h.waiters;
  Request& q = reqs_[r];
  q.on_grant = nullptr;
  if (q.upgrade) {
    // Convert the existing granted entry and drop the waiter.
    const std::uint32_t held = holder(q.page, q.txn);
    if (held != kNil) set_mode(h, held, q.mode);
    unlink_and_free(h, r);
  } else {
    q.granted = true;
    ++h.granted[mode_index(q.mode)];
    holders_.insert(r, holder_key());
  }
}

void LockTable::set_mode(Head& h, std::uint32_t r, LockMode mode) {
  --h.granted[mode_index(reqs_[r].mode)];
  ++h.granted[mode_index(mode)];
  reqs_[r].mode = mode;
}

void LockTable::unlink_and_free(Head& h, std::uint32_t r) {
  Request& q = reqs_[r];
  (q.prev == kNil ? h.first : reqs_[q.prev].next) = q.next;
  (q.next == kNil ? h.last : reqs_[q.next].prev) = q.prev;
  q.on_grant = nullptr;
  reqs_.free(r);
}

LockTable::Outcome LockTable::acquire(PageId page, TxnId txn, NodeId node,
                                      LockMode mode, GrantFn on_grant) {
  requests_.inc();
  assert(!waiting_on(txn) && "a waiting transaction requests nothing");
  Head* h = heads_.find(page);
  if (h == nullptr) h = &heads_.insert(page, Head{});

  // Upgrade: the txn already holds a weaker lock on the page (Read ->
  // Update, Read -> Write, or Update -> Write).
  const std::uint32_t held = holder(page, txn);
  if (held != kNil) {
    assert(lock_strength(mode) > lock_strength(reqs_[held].mode) &&
           "re-acquiring a held lock (callers must track held locks)");
    // Grant in place iff the target mode is compatible with every OTHER
    // granted holder (e.g. U->W needs the readers to drain; R->U only
    // another updater blocks).
    if (compatible(*h, mode, held)) {
      set_mode(*h, held, mode);
      // The granted entry got stronger: waiters compatible with the old mode
      // may now be blocked by it.
      if (hooks_.queue_changed) hooks_.queue_changed(page, txn);
      return Outcome::Granted;
    }
    conflicts_.inc();
    // Upgrades wait at the head of the queue (before ordinary waiters).
    enqueue_waiter(*h, Request{txn, page, node, mode, false, true, kNil, kNil,
                               std::move(on_grant)});
    // The upgrade jumped the queue: every waiter behind it just gained a
    // blocker. (The upgrader's own edges are the caller's to emit.)
    if (hooks_.queue_changed) hooks_.queue_changed(page, txn);
    return Outcome::Waiting;
  }

  // FIFO fairness: a new request queues behind existing waiters (upgrades
  // are exempt — they jump the queue, see above).
  if (h->waiters == 0 && compatible(*h, mode, kNil)) {
    const std::uint32_t r = enqueue(
        *h, kNil, Request{txn, page, node, mode, true, false, kNil, kNil, {}});
    ++h->granted[mode_index(mode)];
    holders_.insert(r, holder_key());
    return Outcome::Granted;
  }
  conflicts_.inc();
  enqueue_waiter(*h, Request{txn, page, node, mode, false, false, kNil, kNil,
                             std::move(on_grant)});
  return Outcome::Waiting;
}

LockTable::Head* LockTable::promote(PageId page) {
  // Repeatedly grant the first waiter while compatible. Upgrades sit at the
  // front and are granted when their holder is the sole remaining one. The
  // head is looked up again after every callback.
  for (;;) {
    Head* h = heads_.find(page);
    if (h == nullptr || h->first_waiter == kNil) return h;
    const std::uint32_t w = h->first_waiter;
    const TxnId t = reqs_[w].txn;
    const NodeId n = reqs_[w].node;
    if (!compatible(*h, reqs_[w].mode, holder(page, t))) return h;
    GrantFn fn = std::move(reqs_[w].on_grant);
    grant_waiter(*h, w);
    if (hooks_.granted) hooks_.granted(page, t, n);
    if (fn) fn();
  }
}

void LockTable::settle(PageId page, Head* h, TxnId txn) {
  if (h->first_waiter != kNil) h = promote(page);
  if (h == nullptr) return;
  if (h->first == kNil) {
    heads_.erase(page);
  } else if (hooks_.queue_changed) {
    hooks_.queue_changed(page, txn);
  }
}

void LockTable::release(PageId page, TxnId txn) {
  Head* h = heads_.find(page);
  if (h == nullptr) return;
  const std::uint32_t r = holders_.erase(Holder{page, txn}, holder_key());
  if (r != kNil) {
    --h->granted[mode_index(reqs_[r].mode)];
    unlink_and_free(*h, r);
  }
  settle(page, h, txn);
}

bool LockTable::cancel_wait(PageId page, TxnId txn) {
  Head* h = heads_.find(page);
  if (h == nullptr) return false;
  const std::uint32_t r = waiter(page, txn);
  if (r != kNil) {
    waiting_.erase(txn, waiter_key());
    if (h->first_waiter == r) h->first_waiter = reqs_[r].next;
    --h->waiters;
    unlink_and_free(*h, r);
  }
  settle(page, h, txn);
  return r != kNil;
}

bool LockTable::holds(PageId page, TxnId txn, LockMode at_least) const {
  const std::uint32_t r = holder(page, txn);
  return r != kNil && lock_covers(reqs_[r].mode, at_least);
}

std::optional<PageId> LockTable::waiting_on(TxnId txn) const {
  const std::uint32_t r = waiting_.find(txn, waiter_key());
  if (r == kNil) return std::nullopt;
  return reqs_[r].page;
}

void LockTable::append_blockers(PageId page, TxnId txn,
                                std::vector<TxnId>& out) const {
  const Head* h = heads_.find(page);
  const std::uint32_t self = waiter(page, txn);
  if (h == nullptr || self == kNil) return;
  // Collect everything ahead of our waiting request that blocks it.
  const LockMode mode = reqs_[self].mode;
  for (std::uint32_t r = h->first; r != self; r = reqs_[r].next) {
    const Request& q = reqs_[r];
    if (q.txn == txn) continue;
    if (q.granted) {
      if (!lock_compatible(q.mode, mode)) out.push_back(q.txn);
    } else {
      // Earlier waiter: conservatively assumed to be ahead of us.
      out.push_back(q.txn);
    }
  }
}

std::vector<TxnId> LockTable::blockers(PageId page, TxnId txn) const {
  std::vector<TxnId> out;
  append_blockers(page, txn, out);
  return out;
}

std::vector<std::pair<TxnId, NodeId>> LockTable::waiters(PageId page) const {
  std::vector<std::pair<TxnId, NodeId>> out;
  const Head* h = heads_.find(page);
  if (h == nullptr) return out;
  for (std::uint32_t r = h->first_waiter; r != kNil; r = reqs_[r].next) {
    out.emplace_back(reqs_[r].txn, reqs_[r].node);
  }
  return out;
}

bool LockTable::creates_deadlock(TxnId start) const {
  // DFS through the wait-for relation starting from `start`.
  std::vector<TxnId>& stack = dfs_stack_;
  std::vector<TxnId>& seen = dfs_seen_;
  stack.assign(1, start);
  seen.clear();
  bool first = true;
  while (!stack.empty()) {
    const TxnId t = stack.back();
    stack.pop_back();
    if (!first) {
      if (t == start) return true;
      const auto at = std::lower_bound(seen.begin(), seen.end(), t);
      if (at != seen.end() && *at == t) continue;
      seen.insert(at, t);
    }
    first = false;
    const auto page = waiting_on(t);
    if (page) append_blockers(*page, t, stack);
  }
  return false;
}

}  // namespace gemsd::cc
