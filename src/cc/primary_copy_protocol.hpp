#pragma once

#include <coroutine>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cc/protocol.hpp"
#include "workload/workload.hpp"

namespace gemsd::cc {

/// Loose coupling: Primary Copy Locking [Ra86] (Section 3.2).
///
///  * The database is logically partitioned; each node holds the global lock
///    authority (GLA) for one partition. Requests against the local
///    partition are processed without communication; other requests take a
///    short message round trip to the GLA node (>= 20,000 instructions).
///  * Coherency control uses page sequence numbers kept in the GLA's lock
///    table — no extra messages to detect buffer invalidations.
///  * NOFORCE update propagation: the GLA node is the *owner* of all pages
///    of its partition. Pages modified elsewhere travel back with the (then
///    long) lock release message; the lock *grant* message carries the
///    current page when the requester's copy is stale or missing — page
///    transfers piggyback on concurrency-control messages.
///  * Read optimization (optional): the GLA hands out read authorizations so
///    that later read locks can be processed locally without the GLA; write
///    locks revoke outstanding authorizations (one message per holder).
class PrimaryCopyProtocol : public Protocol {
 public:
  PrimaryCopyProtocol(Env env, const workload::GlaMap* gla, bool read_opt)
      : Protocol(std::move(env)), gla_(gla), read_opt_(read_opt) {}

  sim::Task<LockOutcome> acquire(node::Txn& txn, PageId p,
                                 LockMode mode) override;
  sim::Task<void> commit_release(node::Txn& txn) override;
  sim::Task<void> abort_release(node::Txn& txn) override;

  NodeId gla_of(PageId p) const { return gla_->gla(p); }

  /// Only locks whose authority is the committing node itself come off the
  /// table inside commit_release; remote releases ride a message.
  bool lock_release_is_synchronous(PageId p, NodeId n) const override {
    return gla_->gla(p) == n;
  }

  /// Node crash handling: while a GLA is frozen, every lock request against
  /// its partition stalls (the authority's volatile lock table is gone and
  /// must be reconstructed from the survivors before locking can resume —
  /// the availability price of loose coupling; GEM's non-volatile GLT has no
  /// equivalent outage).
  void freeze_gla(NodeId n);
  void thaw_gla(NodeId n);
  bool gla_frozen(NodeId n) const { return frozen_.count(n) != 0; }

 private:
  struct GrantMsg {
    bool aborted = false;
    PageSource source = PageSource::Storage;
    SeqNo seqno = 0;
    bool invalidation = false;
  };
  /// One remote lock request, kept in the requester's acquire_remote frame.
  /// That frame outlives the grant (the requester waits on `resp`), so the
  /// GLA's grant callback captures only `this` and a pointer to this record
  /// and fits std::function's inline buffer.
  struct RemoteRequest {
    TxnId txn;
    PageId page;
    LockMode mode;
    std::optional<SeqNo> cached;  ///< the requester's version, if any
    NodeId gla;
    NodeId requester;
    sim::OneShot<GrantMsg> resp;
    sim::SimTime t0 = 0;  ///< when the GLA enqueued the request
  };

  sim::Task<LockOutcome> acquire_local(node::Txn& txn, PageId p, LockMode mode);
  sim::Task<LockOutcome> acquire_auth_local(node::Txn& txn, PageId p);
  sim::Task<LockOutcome> acquire_remote(node::Txn& txn, PageId p,
                                        LockMode mode, NodeId g);

  /// GLA-side grant decision (lock already granted): where the requester
  /// gets the page, using the requester's cached version from the request.
  GrantMsg make_grant(const RemoteRequest& rq);
  sim::Task<void> send_grant(NodeId g, NodeId n, GrantMsg m,
                             sim::OneShot<GrantMsg>* resp);
  static sim::Task<void> fulfill_grant(sim::OneShot<GrantMsg>* resp,
                                       GrantMsg m);
  /// GLA-side processing of a remote lock request (message handler body).
  sim::Task<void> gla_lock_request(RemoteRequest* rq);
  /// GLA-side processing of a (possibly page-carrying) release message.
  sim::Task<void> gla_release(NodeId g, TxnId txn, std::vector<PageId> pages,
                              std::vector<PageId> dirty_pages,
                              bool carries_pages);
  /// Drop all read authorizations for p (writer at `writer_node`); one
  /// revocation message per remote holder, sent from the GLA node.
  void revoke_auths(PageId p, NodeId writer_node, NodeId gla_node);

  sim::Task<void> release_group(node::Txn& txn, NodeId g,
                                std::vector<PageId> pages,
                                std::vector<PageId> dirty_pages,
                                bool propagate);
  /// Releases every held lock, one group per GLA node in order of first
  /// appearance in txn.held; `propagate` commits the dirty pages.
  sim::Task<void> release_held(node::Txn& txn, bool propagate);

  const workload::GlaMap* gla_;
  bool read_opt_;
  std::unordered_set<NodeId> frozen_;
  std::unordered_map<NodeId, std::vector<std::coroutine_handle<>>>
      freeze_waiters_;
  /// Page lists of release groups, given back once a group is processed.
  node::PageListPool spare_lists_;
};

}  // namespace gemsd::cc
