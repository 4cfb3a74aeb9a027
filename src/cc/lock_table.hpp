#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/page_index.hpp"
#include "core/types.hpp"
#include "sim/stats.hpp"

namespace gemsd::cc {

/// Logical lock table implementing strict two-phase page locking with
/// read/write modes, FIFO waiting, and read->write upgrades. Both protocols
/// share this table for *correctness*; they differ in the timing/messaging
/// they model around each logical operation (GLT entry accesses in GEM vs
/// request/grant messages to the GLA node).
///
/// Waiting requests carry an on_grant callback, invoked (synchronously,
/// during the releasing operation) when the request becomes granted; the
/// callback must hand control back through the event queue.
///
/// Layout (the lock heads of Larson et al., arXiv 1201.0228): one lock head
/// per locked page in a PageMap, each holding an intrusive doubly linked
/// queue of request records — granted entries first, then FIFO waiters —
/// with its first waiter and per-mode counts of granted entries, so that a
/// grant decision never scans the queue. Records come from a Slab and link
/// by 32-bit slot; one SlotIndex maps (page, txn) to a granted record and
/// another maps each waiting transaction to its record. Every part grows on
/// demand and is reused, so a table that has reached its working size locks
/// and unlocks without allocating (a GrantFn small enough for
/// std::function's inline buffer included).
///
/// A transaction waits for at most one lock at a time and requests nothing
/// while it waits.
class LockTable {
 public:
  enum class Outcome { Granted, Waiting };
  using GrantFn = std::function<void()>;

  /// Observability hooks, fired synchronously at every wait-queue mutation.
  /// `granted(page, txn, node)` fires at the logical grant of a *waiting*
  /// request (before its on_grant callback); `queue_changed(page, exclude)`
  /// fires after any mutation that can change the blocker set of a waiting
  /// request — the trace layer re-emits a fresh blocker snapshot for every
  /// waiter still queued on the page (minus `exclude`, the request whose own
  /// enqueue the protocol instruments itself). Hooks must not mutate the
  /// table.
  struct TraceHooks {
    std::function<void(PageId, TxnId, NodeId)> granted;
    std::function<void(PageId, TxnId)> queue_changed;
  };
  void set_trace_hooks(TraceHooks hooks) { hooks_ = std::move(hooks); }

  /// Request a lock. Must not be called when the transaction already holds a
  /// lock of `mode` or stronger on the page (callers track held locks).
  /// Holding Read and requesting Write is an upgrade.
  Outcome acquire(PageId page, TxnId txn, NodeId node, LockMode mode,
                  GrantFn on_grant);

  /// Release this transaction's lock on `page`; grants newly compatible
  /// waiters (firing their callbacks).
  void release(PageId page, TxnId txn);

  /// Remove a *waiting* request (deadlock-victim cleanup). Grants whatever
  /// becomes compatible. Returns true if a waiter was removed.
  bool cancel_wait(PageId page, TxnId txn);

  bool holds(PageId page, TxnId txn, LockMode at_least) const;

  /// The page a transaction currently waits for, if any.
  std::optional<PageId> waiting_on(TxnId txn) const;

  /// Transactions that block a waiting request of `txn` on `page`:
  /// incompatible granted holders plus incompatible earlier waiters.
  std::vector<TxnId> blockers(PageId page, TxnId txn) const;

  /// Deadlock detection over the table: does txn (which just started
  /// waiting) close a cycle in the wait-for graph? Conservative FIFO
  /// semantics: a waiter waits for every incompatible request ahead of it.
  /// Allocates nothing once its scratch lists have reached working size.
  bool creates_deadlock(TxnId txn) const;

  /// All waiting (non-granted) requests on `page`, in queue order, as
  /// (txn, node) pairs.
  std::vector<std::pair<TxnId, NodeId>> waiters(PageId page) const;

  std::size_t locked_pages() const { return heads_.size(); }
  std::uint64_t requests() const { return requests_.value(); }
  std::uint64_t conflicts() const { return conflicts_.value(); }
  void reset_stats() {
    requests_.reset();
    conflicts_.reset();
  }

 private:
  static constexpr std::uint32_t kNil = PageIndex::kNil;

  struct Request {
    TxnId txn = 0;
    PageId page;
    NodeId node = kNoNode;
    LockMode mode = LockMode::Read;
    bool granted = false;
    bool upgrade = false;  ///< waiting to convert to a stronger mode
    std::uint32_t prev = kNil, next = kNil;
    GrantFn on_grant;
  };
  /// A page's request queue: granted entries first, then FIFO waiters.
  struct Head {
    std::uint32_t first = kNil, last = kNil;
    std::uint32_t first_waiter = kNil;
    std::uint32_t waiters = 0;
    std::uint32_t granted[3] = {};  ///< granted entries per LockMode
  };
  struct Holder {
    PageId page;
    TxnId txn;
    friend bool operator==(const Holder&, const Holder&) = default;
  };
  struct HolderHash {
    std::size_t operator()(const Holder& k) const noexcept {
      return std::hash<PageId>{}(k.page) ^
             (k.txn * 0x9e3779b97f4a7c15ULL);
    }
  };

  /// The granted record of `txn` on `page`, or kNil.
  std::uint32_t holder(PageId page, TxnId txn) const;
  /// The waiting record of `txn` if it waits on `page`, or kNil.
  std::uint32_t waiter(PageId page, TxnId txn) const;
  /// `mode` is compatible with every granted entry except `own` (a slot or
  /// kNil).
  bool compatible(const Head& h, LockMode mode, std::uint32_t own) const;
  /// Queues a new record before `at` (kNil: at the tail); returns its slot.
  std::uint32_t enqueue(Head& h, std::uint32_t at, Request r);
  /// Queues a waiting record: upgrades before the first waiter, others last.
  void enqueue_waiter(Head& h, Request r);
  /// Grants the waiting record `r` (the first waiter) in place.
  void grant_waiter(Head& h, std::uint32_t r);
  /// Converts the granted record `r` to `mode`.
  void set_mode(Head& h, std::uint32_t r, LockMode mode);
  void unlink_and_free(Head& h, std::uint32_t r);
  /// Grant whatever is now grantable at the head of the wait queue;
  /// returns the page's head afterwards (null once it is gone).
  Head* promote(PageId page);
  /// After a removal from `h`: grants what became grantable, then drops the
  /// head if its queue is empty, otherwise reports the queue change.
  void settle(PageId page, Head* h, TxnId txn);
  /// Appends blockers(page, txn) to `out`.
  void append_blockers(PageId page, TxnId txn, std::vector<TxnId>& out) const;

  auto holder_key() const {
    return [this](std::uint32_t s) {
      return Holder{reqs_[s].page, reqs_[s].txn};
    };
  }
  auto waiter_key() const {
    return [this](std::uint32_t s) { return reqs_[s].txn; };
  }

  PageMap<Head> heads_;
  Slab<Request> reqs_;
  SlotIndex<Holder, HolderHash> holders_;  ///< (page, txn) -> granted slot
  SlotIndex<TxnId> waiting_;               ///< waiting txn -> its slot
  sim::Counter requests_, conflicts_;
  TraceHooks hooks_;
  /// creates_deadlock's search stack and visited set (kept sorted).
  mutable std::vector<TxnId> dfs_stack_, dfs_seen_;
};

}  // namespace gemsd::cc
