//! The shared or-tree: published choice points and their alternative pools.
//!
//! Closure capture is **procrastinated** (the paper's schema 2): a
//! publication stores only choice-point metadata — the expensive state
//! snapshot stays un-captured ([`ClosureState::Deferred`]) until the
//! first *remote* claim attempt raises the demand flag, after which the
//! owner freezes the closure once at its next checkpoint
//! ([`OrNode::fulfill_closure`]). A node whose alternatives are all
//! consumed by the owner's own backtracking never pays the copy.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ace_logic::Sym;
use ace_machine::frames::SharedChoice;
use ace_machine::machine::StateClosure;
use parking_lot::Mutex;

static NODE_IDS: AtomicU64 = AtomicU64::new(1);

/// What a remote claim hands back: the claimed clause index, the payload
/// epoch it was claimed at, the predicate, and the closure to run against.
pub type ClaimedAlt = (usize, u64, (Sym, u32), Arc<StateClosure>);

/// The materialization state of a published node's closure.
pub enum ClosureState {
    /// Capture procrastinated: only the owner can produce the closure,
    /// and only a remote demand makes it do so.
    Deferred,
    /// Frozen and installable by any claimant.
    Ready(Arc<StateClosure>),
}

/// Outcome of a remote claim attempt ([`OrNode::claim_remote`]).
pub enum RemoteClaim {
    /// An alternative was taken; install and run it.
    Ready(ClaimedAlt),
    /// Alternatives exist but the closure is still deferred: the demand
    /// flag is now raised and the owner will materialize at its next
    /// checkpoint. No alternative was consumed — come back later.
    Pending,
    /// Nothing to claim (drained or never published at this epoch).
    Empty,
}

/// What the owner should do with a deferred node it is polling
/// ([`OrNode::defer_poll`]).
#[derive(Debug, PartialEq, Eq)]
pub enum DeferPoll {
    /// A remote wants the closure: freeze it now and
    /// [`OrNode::fulfill_closure`].
    Materialize,
    /// No demand yet; keep polling.
    Keep,
    /// The deferral is moot — drained, reused at a younger epoch, or
    /// already materialized. Stop tracking (counts as an elision when the
    /// closure was never frozen).
    Dead,
}

/// The claimable content of a node. Replaced wholesale by an LAO reuse,
/// with `epoch` incremented so stale owner choice points claim nothing.
pub struct Payload {
    pub epoch: u64,
    /// Predicate whose clauses the alternatives index.
    pub pred: (Sym, u32),
    /// Untried clause indices.
    pub alts: VecDeque<usize>,
    /// Machine state at the choice point (installed by remote claimants);
    /// deferred until first remote demand.
    pub closure: ClosureState,
    /// A remote tried to claim while the closure was deferred (owner
    /// checks this at its checkpoints). Guarded by the payload mutex.
    remote_wanted: bool,
}

/// One public choice point of the or-tree.
pub struct OrNode {
    pub id: u64,
    /// Distance from the root sentinel (the work-finding traversal cost
    /// LAO keeps low; asserted on by the Figure-6/7 shape tests).
    pub depth: u32,
    pub payload: Mutex<Option<Payload>>,
    pub children: Mutex<Vec<Arc<OrNode>>>,
    /// Global count of unclaimed alternatives (termination detection).
    total_alts: Arc<AtomicUsize>,
    /// Whether a handle to this node currently sits in the alternative
    /// pool (at most one live entry per node; see [`crate::pool::AltPool`]).
    in_pool: AtomicBool,
    /// Lock-free mirror of the payload's bookkeeping —
    /// `epoch << 3 | empty << 2 | ready << 1 | wanted` — kept in sync
    /// under the payload mutex by every mutating method. The owner's
    /// per-quantum deferral sweep ([`OrNode::defer_poll`]) and the steal
    /// path's liveness check ([`OrNode::has_work`]) read this word
    /// instead of taking the mutex, so epoch bookkeeping costs one load
    /// per node instead of a lock acquisition — the difference between
    /// O(deferred) atomic reads and O(deferred) mutex round-trips every
    /// quantum at 512 workers. Direct payload surgery (tests) must be
    /// followed by a mutating method before these fast paths are trusted.
    meta: AtomicU64,
}

/// Bit layout of [`OrNode::meta`].
const META_WANTED: u64 = 1;
const META_READY: u64 = 2;
const META_EMPTY: u64 = 4;
const META_EPOCH_SHIFT: u32 = 3;

fn meta_word(p: &Option<Payload>) -> u64 {
    match p {
        None => META_EMPTY,
        Some(p) => {
            (p.epoch << META_EPOCH_SHIFT)
                | if p.alts.is_empty() { META_EMPTY } else { 0 }
                | if matches!(p.closure, ClosureState::Ready(_)) {
                    META_READY
                } else {
                    0
                }
                | if p.remote_wanted { META_WANTED } else { 0 }
        }
    }
}

impl OrNode {
    /// The root sentinel: no alternatives, depth 0.
    pub fn root(total_alts: Arc<AtomicUsize>) -> Arc<OrNode> {
        Arc::new(OrNode {
            id: 0,
            depth: 0,
            payload: Mutex::new(None),
            children: Mutex::new(Vec::new()),
            total_alts,
            in_pool: AtomicBool::new(false),
            meta: AtomicU64::new(META_EMPTY),
        })
    }

    /// Re-mirror the payload's bookkeeping into [`OrNode::meta`]. Must be
    /// called (and only makes sense) while holding the payload mutex.
    fn sync_meta(&self, p: &Option<Payload>) {
        self.meta.store(meta_word(p), Ordering::Release);
    }

    /// Publish a fresh node under `parent`. The closure is *not* captured:
    /// publication stores metadata only (procrastinated capture).
    pub fn publish(
        parent: &Arc<OrNode>,
        pred: (Sym, u32),
        alts: VecDeque<usize>,
        total_alts: Arc<AtomicUsize>,
    ) -> Arc<OrNode> {
        total_alts.fetch_add(alts.len(), Ordering::AcqRel);
        let payload = Some(Payload {
            epoch: 0,
            pred,
            alts,
            closure: ClosureState::Deferred,
            remote_wanted: false,
        });
        let meta = AtomicU64::new(meta_word(&payload));
        let node = Arc::new(OrNode {
            id: NODE_IDS.fetch_add(1, Ordering::Relaxed),
            depth: parent.depth + 1,
            payload: Mutex::new(payload),
            children: Mutex::new(Vec::new()),
            total_alts,
            in_pool: AtomicBool::new(false),
            meta,
        });
        parent.children.lock().push(node.clone());
        node
    }

    /// Flip the pool-membership flag on; `false` means the node already has
    /// a live pool entry and must not be enqueued again.
    pub fn try_enter_pool(&self) -> bool {
        self.in_pool
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Flip the pool-membership flag off (the entry was dequeued).
    pub fn leave_pool(&self) {
        self.in_pool.store(false, Ordering::Release);
    }

    /// LAO: install a *new* choice point's alternatives into this node in
    /// place, bumping the epoch (Figure 7 — "B1 can be updated with the
    /// information that would be stored in B2"). Atomic: fails (returns
    /// `None`) if the node still holds unclaimed alternatives — the caller
    /// then publishes a fresh node instead. The new epoch starts deferred
    /// again: the reused slot's demand history does not carry over.
    pub fn try_reuse(&self, pred: (Sym, u32), alts: VecDeque<usize>) -> Option<u64> {
        let mut p = self.payload.lock();
        if p.as_ref().is_some_and(|p| !p.alts.is_empty()) {
            return None;
        }
        let epoch = p.as_ref().map_or(0, |p| p.epoch) + 1;
        self.total_alts.fetch_add(alts.len(), Ordering::AcqRel);
        *p = Some(Payload {
            epoch,
            pred,
            alts,
            closure: ClosureState::Deferred,
            remote_wanted: false,
        });
        self.sync_meta(&p);
        Some(epoch)
    }

    /// Remote claim attempt. Only a materialized node yields an
    /// alternative; a deferred node records the demand and returns
    /// [`RemoteClaim::Pending`] without consuming anything — the owner
    /// freezes the closure at its next checkpoint and re-advertises the
    /// node.
    pub fn claim_remote(&self) -> RemoteClaim {
        let mut p = self.payload.lock();
        let Some(payload) = p.as_mut() else {
            return RemoteClaim::Empty;
        };
        if payload.alts.is_empty() {
            return RemoteClaim::Empty;
        }
        let claim = match &payload.closure {
            ClosureState::Deferred => {
                payload.remote_wanted = true;
                RemoteClaim::Pending
            }
            ClosureState::Ready(closure) => {
                let closure = closure.clone();
                let idx = payload.alts.pop_front().expect("checked non-empty");
                self.total_alts.fetch_sub(1, Ordering::AcqRel);
                RemoteClaim::Ready((idx, payload.epoch, payload.pred, closure))
            }
        };
        self.sync_meta(&p);
        claim
    }

    /// Owner side of materialization: install the frozen closure for
    /// `epoch`. Returns `false` (and drops the closure) when the deferral
    /// is moot — epoch superseded by LAO reuse, payload gone, or already
    /// fulfilled.
    pub fn fulfill_closure(&self, epoch: u64, closure: Arc<StateClosure>) -> bool {
        let mut p = self.payload.lock();
        let fulfilled = match p.as_mut() {
            Some(payload)
                if payload.epoch == epoch && matches!(payload.closure, ClosureState::Deferred) =>
            {
                payload.closure = ClosureState::Ready(closure);
                true
            }
            _ => false,
        };
        if fulfilled {
            self.sync_meta(&p);
        }
        fulfilled
    }

    /// Owner checkpoint poll of a node it published with a deferred
    /// closure at `epoch`. Lock-free: reads the `OrNode::meta` mirror,
    /// so the owner's per-quantum sweep over its deferral list costs one
    /// atomic load per node — the payload mutex is only taken when this
    /// answers [`DeferPoll::Materialize`] and the owner goes on to
    /// freeze and [`OrNode::fulfill_closure`].
    pub fn defer_poll(&self, epoch: u64) -> DeferPoll {
        let m = self.meta.load(Ordering::Acquire);
        if (m >> META_EPOCH_SHIFT) != epoch || m & (META_EMPTY | META_READY) != 0 {
            return DeferPoll::Dead;
        }
        if m & META_WANTED != 0 {
            DeferPoll::Materialize
        } else {
            DeferPoll::Keep
        }
    }

    /// Any unclaimed alternatives right now? Lock-free (`OrNode::meta`):
    /// the steal path consults this after every claim to decide on
    /// re-advertisement without re-entering the payload mutex.
    pub fn has_work(&self) -> bool {
        self.meta.load(Ordering::Acquire) & META_EMPTY == 0
    }

    /// Any unclaimed alternatives *installable by a remote* right now
    /// (materialized and non-empty)?
    pub fn has_ready_work(&self) -> bool {
        self.payload
            .lock()
            .as_ref()
            .is_some_and(|p| !p.alts.is_empty() && matches!(p.closure, ClosureState::Ready(_)))
    }

    /// Is the alternative pool empty (reusable under LAO)?
    pub fn is_drained(&self) -> bool {
        self.payload
            .lock()
            .as_ref()
            .is_none_or(|p| p.alts.is_empty())
    }
}

impl std::fmt::Debug for OrNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrNode")
            .field("id", &self.id)
            .field("depth", &self.depth)
            .finish_non_exhaustive()
    }
}

/// The owner-side view of a published choice point, installed into the
/// machine's [`ace_machine::ChoicePoint`]. Epoch-guarded so that after an
/// LAO reuse the owner's *older* choice point referencing the same node
/// stops claiming (the node now belongs to a younger choice point).
pub struct NodeClaim {
    pub node: Arc<OrNode>,
    pub epoch: u64,
}

impl SharedChoice for NodeClaim {
    fn claim_next(&self) -> Option<usize> {
        let mut p = self.node.payload.lock();
        let payload = p.as_mut()?;
        if payload.epoch != self.epoch {
            return None; // node was reused by a younger choice point
        }
        let idx = payload.alts.pop_front()?;
        self.node.total_alts.fetch_sub(1, Ordering::AcqRel);
        self.node.sync_meta(&p);
        Some(idx)
    }

    fn owner_detached(&self) {
        // Cut or exhaustion on the owner side: discard untried alternatives
        // of *this epoch* (cut semantics; see crate-level restrictions).
        let mut p = self.node.payload.lock();
        if let Some(payload) = p.as_mut() {
            if payload.epoch == self.epoch {
                let n = payload.alts.len();
                payload.alts.clear();
                self.node.total_alts.fetch_sub(n, Ordering::AcqRel);
                self.node.sync_meta(&p);
            }
        }
    }

    fn node_id(&self) -> u64 {
        self.node.id
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_logic::{sym, Heap};

    fn closure() -> Arc<StateClosure> {
        let mut h = Heap::new();
        let tuple = h.new_struct(sym("$closure"), &[ace_logic::Cell::Nil]);
        Arc::new(StateClosure::freeze(&h, tuple, Vec::new()))
    }

    fn counter() -> Arc<AtomicUsize> {
        Arc::new(AtomicUsize::new(0))
    }

    #[test]
    fn publish_links_and_counts() {
        let total = counter();
        let root = OrNode::root(total.clone());
        let node = OrNode::publish(
            &root,
            (sym("p"), 1),
            VecDeque::from([1, 2, 3]),
            total.clone(),
        );
        assert_eq!(total.load(Ordering::Acquire), 3);
        assert_eq!(node.depth, 1);
        assert_eq!(root.children.lock().len(), 1);
        assert!(node.has_work());
        // capture was procrastinated: nothing is remotely installable yet
        assert!(!node.has_ready_work());
    }

    #[test]
    fn deferred_claim_raises_demand_then_fulfill_serves_remotes() {
        let total = counter();
        let root = OrNode::root(total.clone());
        let node = OrNode::publish(&root, (sym("p"), 1), VecDeque::from([5, 7]), total.clone());

        // no demand yet: the owner keeps the deferral parked
        assert_eq!(node.defer_poll(0), DeferPoll::Keep);

        // a remote attempt consumes nothing and raises the flag
        assert!(matches!(node.claim_remote(), RemoteClaim::Pending));
        assert_eq!(total.load(Ordering::Acquire), 2);
        assert_eq!(node.defer_poll(0), DeferPoll::Materialize);

        // owner materializes once; the node becomes claimable
        assert!(node.fulfill_closure(0, closure()));
        assert_eq!(node.defer_poll(0), DeferPoll::Dead); // already ready
        let RemoteClaim::Ready((i1, epoch, pred, _)) = node.claim_remote() else {
            panic!("expected a ready claim");
        };
        assert_eq!(i1, 5);
        assert_eq!(epoch, 0);
        assert_eq!(pred, (sym("p"), 1));
        let RemoteClaim::Ready((i2, ..)) = node.claim_remote() else {
            panic!("expected a ready claim");
        };
        assert_eq!(i2, 7);
        assert!(matches!(node.claim_remote(), RemoteClaim::Empty));
        assert!(node.is_drained());
        assert_eq!(total.load(Ordering::Acquire), 0);

        // double-fulfill is refused (closure already installed)
        assert!(!node.fulfill_closure(0, closure()));
    }

    #[test]
    fn owner_drain_elides_the_deferred_capture() {
        let total = counter();
        let root = OrNode::root(total.clone());
        let node = OrNode::publish(&root, (sym("p"), 1), VecDeque::from([1, 2]), total.clone());
        let owner = NodeClaim {
            node: node.clone(),
            epoch: 0,
        };
        // the owner's own backtracking drains the node without any freeze
        assert_eq!(owner.claim_next(), Some(1));
        assert_eq!(owner.claim_next(), Some(2));
        assert_eq!(owner.claim_next(), None);
        assert_eq!(node.defer_poll(0), DeferPoll::Dead);
        assert!(matches!(node.claim_remote(), RemoteClaim::Empty));
    }

    #[test]
    fn lao_reuse_bumps_epoch_and_blocks_stale_claims() {
        let total = counter();
        let root = OrNode::root(total.clone());
        let node = OrNode::publish(&root, (sym("p"), 1), VecDeque::from([1]), total.clone());
        let stale = NodeClaim {
            node: node.clone(),
            epoch: 0,
        };
        assert_eq!(stale.epoch(), 0);
        assert_eq!(stale.claim_next(), Some(1));
        assert!(node.is_drained());

        let epoch = node
            .try_reuse((sym("q"), 2), VecDeque::from([0, 1]))
            .unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(total.load(Ordering::Acquire), 2);
        // the stale owner claim sees nothing
        assert_eq!(stale.claim_next(), None);
        // a stale fulfill (for the superseded epoch) is refused
        assert!(!node.fulfill_closure(0, closure()));
        assert_eq!(node.defer_poll(0), DeferPoll::Dead);
        // a fresh claim at the right epoch works
        let fresh = NodeClaim {
            node: node.clone(),
            epoch,
        };
        assert_eq!(fresh.claim_next(), Some(0));
        // depth is unchanged — that is the whole point of LAO
        assert_eq!(node.depth, 1);
    }

    #[test]
    fn meta_mirror_tracks_payload_through_every_mutation() {
        let total = counter();
        let root = OrNode::root(total.clone());
        // Root: no payload, mirrored as empty.
        assert!(!root.has_work());

        let node = OrNode::publish(&root, (sym("p"), 1), VecDeque::from([1, 2]), total.clone());
        let locked_has_work = |n: &OrNode| {
            n.payload
                .lock()
                .as_ref()
                .is_some_and(|p| !p.alts.is_empty())
        };
        assert_eq!(node.has_work(), locked_has_work(&node));

        // Demand flag, materialization, and claims all re-mirror.
        assert!(matches!(node.claim_remote(), RemoteClaim::Pending));
        assert_eq!(node.defer_poll(0), DeferPoll::Materialize);
        assert!(node.fulfill_closure(0, closure()));
        assert!(matches!(node.claim_remote(), RemoteClaim::Ready(_)));
        assert_eq!(node.has_work(), locked_has_work(&node));
        assert!(matches!(node.claim_remote(), RemoteClaim::Ready(_)));
        assert!(!node.has_work());
        assert_eq!(node.has_work(), locked_has_work(&node));

        // LAO reuse re-arms the mirror at the bumped epoch.
        let epoch = node.try_reuse((sym("q"), 1), VecDeque::from([7])).unwrap();
        assert!(node.has_work());
        assert_eq!(node.defer_poll(epoch), DeferPoll::Keep);

        // Owner-side drain through the claim handle re-mirrors too.
        let owner = NodeClaim {
            node: node.clone(),
            epoch,
        };
        assert_eq!(owner.claim_next(), Some(7));
        assert!(!node.has_work());
        owner.owner_detached();
        assert_eq!(node.defer_poll(epoch), DeferPoll::Dead);
    }

    #[test]
    fn owner_detached_discards_only_its_epoch() {
        let total = counter();
        let root = OrNode::root(total.clone());
        let node = OrNode::publish(&root, (sym("p"), 1), VecDeque::from([1, 2]), total.clone());
        let old = NodeClaim {
            node: node.clone(),
            epoch: 0,
        };
        // reuse first (epoch 1), then detach the old claim
        node.payload.lock().as_mut().unwrap().alts.clear();
        total.store(0, Ordering::Release);
        let epoch = node.try_reuse((sym("q"), 1), VecDeque::from([0])).unwrap();
        old.owner_detached();
        assert_eq!(total.load(Ordering::Acquire), 1, "new epoch untouched");
        let new = NodeClaim { node, epoch };
        new.owner_detached();
        assert_eq!(total.load(Ordering::Acquire), 0);
    }
}
