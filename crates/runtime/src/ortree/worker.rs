//! The worker side of the or-tree: publication with LAO, procrastinated
//! capture and work finding, written once and run by every engine that
//! searches an or-tree.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use super::pool::{AltPool, StealScope};
use super::tree::{Closure, DeferPoll, OrNode, OwnerClaim, RemoteClaim};
use crate::chassis::{Control, WorkerCore};
use crate::config::OrScheduler;
use crate::trace::{EventKind, Label, LiveCounters};

/// One run's public or-tree, shared by its workers.
pub struct OrTree<C> {
    root: Arc<OrNode<C>>,
    /// O(1) work-finding: published nodes with unclaimed alternatives.
    pool: AltPool<C>,
    /// Unclaimed alternatives anywhere in the tree.
    total_alts: Arc<AtomicUsize>,
    /// Computations running, or being installed by a claimant.
    busy: AtomicUsize,
    max_depth: AtomicUsize,
}

impl<C: Closure> OrTree<C> {
    /// An empty tree for `ctl`'s run, with the root computation counted
    /// busy (retire its lineage if it never runs).
    pub fn new(ctl: &Control) -> Arc<Self> {
        let total_alts = Arc::new(AtomicUsize::new(0));
        Arc::new(OrTree {
            root: OrNode::root(total_alts.clone()),
            pool: AltPool::new(ctl.workers(), &ctl.cfg.run.topology, ctl.costs.queue_op),
            total_alts,
            busy: AtomicUsize::new(1),
            max_depth: AtomicUsize::new(0),
        })
    }

    /// The root computation's lineage: it publishes under the sentinel.
    pub fn root_lineage(&self) -> Lineage<C> {
        Lineage::new(self.root.clone())
    }

    /// Depth of the deepest node published so far (the Figure-6/7 shape
    /// metric).
    pub fn max_depth(&self) -> u32 {
        self.max_depth.load(Ordering::Acquire) as u32
    }
}

/// Where one computation sits in the tree.
pub struct Lineage<C> {
    /// Node whose claimed alternative spawned this computation (publish
    /// parent when nothing has been published yet).
    origin: Arc<OrNode<C>>,
    /// Youngest node this computation published (publish parent / LAO
    /// target).
    last_published: Option<Arc<OrNode<C>>>,
    /// Nodes this computation published with a *deferred* closure, with
    /// the epoch each was published at, polled at every checkpoint
    /// ([`TreeWorker::service_deferred`]).
    deferred: Vec<(Arc<OrNode<C>>, u64)>,
}

impl<C> Lineage<C> {
    /// The lineage of a computation that runs an alternative of `origin`.
    pub fn new(origin: Arc<OrNode<C>>) -> Self {
        Lineage {
            origin,
            last_published: None,
            deferred: Vec::new(),
        }
    }
}

/// An alternative [`TreeWorker::find_work`] claimed: install `closure`,
/// run alternative `alt` of `label`, under the lineage of `node`.
pub struct Claimed<C> {
    pub node: Arc<OrNode<C>>,
    pub alt: usize,
    pub label: Label,
    pub closure: Arc<C>,
}

/// The engine-independent half of an or-tree worker: the chassis core
/// and the run's tree.
pub struct TreeWorker<C> {
    pub core: WorkerCore,
    shared: Arc<OrTree<C>>,
}

impl<C: Closure> TreeWorker<C> {
    /// Attach `core` to `tree`, with the live series of the tree's events
    /// when the run carries a metrics registry.
    pub fn new(mut core: WorkerCore, tree: Arc<OrTree<C>>) -> Self {
        let metrics = core.ctl.cfg.observe.metrics.as_deref();
        core.live = metrics.map(|m| Box::new(LiveCounters::new(m)));
        TreeWorker { core, shared: tree }
    }

    /// Absorb observed lock contention into this worker's clock: the
    /// residual wait behind the previous holder plus the topology's
    /// per-event contention price, per contended acquisition. A topology
    /// with `contended_lock == 0` (the flat default) only counts the
    /// events — charging nothing keeps the default machine's virtual
    /// times bit-identical to the pre-topology engine.
    /// `what` names the contended structure ("pool", "answer") for the
    /// `LockWait` event — noted only when the topology actually prices
    /// the contention, so flat runs stay event-identical too.
    pub fn note_contention(&mut self, what: &'static str, events: u64, wait: u64) {
        if events == 0 {
            return;
        }
        self.core.stats.lock_contended += events;
        let price = self.core.ctl.cfg.run.topology.contended_lock;
        if price == 0 {
            return;
        }
        let units = wait + events * price;
        self.core.charge(units);
        self.core.note(EventKind::LockWait { what, cost: units });
    }

    /// Advertise `node` in the alternative pool (pool scheduler only) at
    /// the current virtual time, charging any contention the pool
    /// observed. A node that still has a live entry is not added twice —
    /// the existing entry serves its alternatives.
    fn advertise(&mut self, node: &Arc<OrNode<C>>) {
        if self.core.ctl.cfg.oracle.or_scheduler != OrScheduler::Pool {
            return;
        }
        let out = self.shared.pool.push(self.core.id, node, self.core.now());
        self.note_contention("pool", out.contended, out.lock_wait);
        if out.added {
            self.core.charge(self.core.costs.queue_op);
            self.core.note(EventKind::PoolPush { node: node.id });
        }
    }

    /// Steal-scope accounting for a successful pool claim: count it,
    /// charge the topology's distance premium, and note the
    /// `DomainSteal` record for non-own scopes — under the hierarchical
    /// scan only: the flat-scan ablation legitimately crosses domains
    /// with local work visible.
    fn note_steal_scope(&mut self, node_id: u64, scope: StealScope, local_work: usize) {
        let topo = &self.core.ctl.cfg.run.topology;
        let (intra, cross, hierarchical) = (topo.intra_steal, topo.cross_steal, topo.hierarchical);
        let local_work = local_work as u64;
        let (claim, premium, scope) = match scope {
            StealScope::Own => return self.core.note(EventKind::ClaimOwn),
            StealScope::Domain => (EventKind::ClaimDomain, intra, "domain"),
            StealScope::Cross => (EventKind::ClaimCross { local_work }, cross, "cross"),
        };
        self.core.note(claim);
        self.core.charge(premium);
        if hierarchical {
            self.core.note(EventKind::DomainSteal {
                node: node_id,
                scope,
                local_work,
            });
        }
    }

    /// Is this a publication window? Publication is demand-driven
    /// (MUSE-style): only while other workers are idle. An injected
    /// transient publication failure skips the window; the engine asks
    /// again at its next checkpoint, so publication is only deferred,
    /// never lost (each fault event fires at most once).
    pub fn may_publish(&mut self) -> bool {
        if !self.core.others_idle() {
            return false;
        }
        let faulted = self
            .core
            .ctl
            .injector
            .as_ref()
            .is_some_and(|inj| inj.publish_fails(self.core.id));
        if faulted {
            self.core.charge(self.core.costs.queue_op);
            self.core.note(EventKind::FaultInjected {
                kind: "publish-fail",
            });
            self.core.note(EventKind::FaultRetry { what: "publish" });
        }
        !faulted
    }

    /// Make a choice point of the computation `lineage` describes public:
    /// its untried `alts`, labelled `label`, move into the tree, and the
    /// owner gets back the claim its own backtracking draws from.
    ///
    /// LAO (paper §3.2, Figures 6/7): the computation descends from the
    /// node holding its youngest public choice point — `last_published`,
    /// or, for a computation spawned from a claimed alternative, its
    /// origin. If that node has been drained (the alternative we continue
    /// was its last), the new choice point is installed into it in place
    /// instead of growing the tree. The root sentinel (id 0) is never a
    /// reuse target.
    ///
    /// Procrastinated capture (paper schema 2): the closure is not built
    /// here. It is frozen at most once, at the owner's next checkpoint
    /// after a remote claim raises the demand flag
    /// ([`TreeWorker::service_deferred`]); all-owner-claimed nodes never
    /// pay for it.
    pub fn publish(
        &mut self,
        lineage: &mut Lineage<C>,
        label: Label,
        alts: VecDeque<usize>,
    ) -> OwnerClaim<C> {
        let lao = self.core.ctl.cfg.run.opts.lao;
        let nalts = alts.len();
        if lao {
            self.core.charge(self.core.costs.lao_check);
        }
        let candidate = lineage
            .last_published
            .as_ref()
            .or((lineage.origin.id != 0).then_some(&lineage.origin));
        let reuse = match candidate {
            Some(n) if lao => n.try_reuse(label, alts).map(|e| (n.clone(), e)),
            _ => Err(alts),
        };
        let (node, epoch, reused) = match reuse {
            Ok((n, e)) => (n, e, true),
            Err(alts) => {
                let parent = lineage.last_published.as_ref().unwrap_or(&lineage.origin);
                let n = OrNode::publish(parent, label, alts, self.shared.total_alts.clone());
                self.shared
                    .max_depth
                    .fetch_max(n.depth as usize, Ordering::AcqRel);
                (n, 0, false)
            }
        };
        lineage.last_published = Some(node.clone());
        lineage.deferred.push((node.clone(), epoch));
        let id = node.id;
        if reused {
            self.core.charge(self.core.costs.lao_reuse);
            self.core.note(EventKind::LaoReuse {
                node: id,
                epoch,
                alts: nalts,
                pred: label,
            });
        } else {
            self.core
                .charge(self.core.costs.publish_node + self.core.costs.queue_op * nalts as u64);
            self.core.note(EventKind::Publish {
                node: id,
                epoch,
                alts: nalts,
                pred: label,
            });
        }
        self.core.note(EventKind::ClosureDefer { node: id, epoch });
        // Make the fresh alternatives findable in O(1) (an LAO-refilled
        // node may still have a stale pool entry).
        self.advertise(&node);
        OwnerClaim { node, epoch }
    }

    /// Owner checkpoint for procrastinated captures: poll every node
    /// `lineage` published with a deferred closure. A raised demand flag
    /// triggers the one-time `freeze(node_id, epoch)` of the owner's
    /// choice point and re-advertises the node; a deferral that died
    /// un-frozen — the owner's own backtracking drained it, a cut
    /// discarded it, or an LAO reuse superseded its epoch — is an elided
    /// capture: the copy an eager scheme would have paid at publish time
    /// never happens.
    pub fn service_deferred(
        &mut self,
        lineage: &mut Lineage<C>,
        mut freeze: impl FnMut(u64, u64) -> Option<C>,
    ) {
        let mut i = 0;
        while i < lineage.deferred.len() {
            let (node, epoch) = &lineage.deferred[i];
            match node.defer_poll(*epoch) {
                DeferPoll::Keep => i += 1,
                DeferPoll::Dead => {
                    self.core.stats.closures_elided += 1;
                    lineage.deferred.swap_remove(i);
                }
                DeferPoll::Materialize => {
                    let (node, epoch) = lineage.deferred.swap_remove(i);
                    let Some(closure) = freeze(node.id, epoch) else {
                        // The choice point left the stack without its
                        // detach hook firing (should not happen); drain
                        // the node so waiting remotes terminate.
                        OwnerClaim { node, epoch }.detach();
                        self.core.stats.closures_elided += 1;
                        continue;
                    };
                    let closure = Arc::new(closure);
                    let cells = closure.cells();
                    if node.fulfill_closure(epoch, closure) {
                        let costs = &self.core.costs;
                        let freeze_cost = costs.closure_freeze + cells * costs.heap_cell;
                        self.core.charge(freeze_cost);
                        self.core.note(EventKind::ClosureMaterialize {
                            node: node.id,
                            epoch,
                            cells,
                        });
                        // Re-advertise: the node is now installable, and
                        // the pending claimant holds no pool entry for it
                        // (Pending pops are not re-pushed).
                        self.advertise(&node);
                    }
                }
            }
        }
    }

    /// Claim an unclaimed alternative for this idle worker, counting it
    /// busy; `None` when there is nothing to claim.
    ///
    /// Under [`OrScheduler::Pool`] this is amortized O(1): pop a node
    /// handle from the shared pool, claim from it, re-enqueue it if it
    /// still has work. Under [`OrScheduler::Traversal`] (the oracle) the
    /// whole public tree is walked from the root. Either way one
    /// `tree_visit` is charged per node actually inspected. The engine
    /// installs the claimed alternative and prices that itself.
    pub fn find_work(&mut self) -> Option<Claimed<C>> {
        // Injected transient steal failure: claim nothing this phase; the
        // alternatives stay in the tree/pool (checked before any pop, so
        // every item remains claimable) and this worker retries after its
        // idle backoff.
        if self
            .core
            .steal_faulted(|| self.shared.total_alts.load(Ordering::Acquire) > 0)
        {
            return None;
        }
        self.shared.busy.fetch_add(1, Ordering::AcqRel);
        self.core.note(EventKind::StealAttempt);

        // Pop/traversal order is Aurora's dispatch on bottommost:
        // deepest-first, stack order.
        let claimed = match self.core.ctl.cfg.oracle.or_scheduler {
            OrScheduler::Pool => loop {
                let Some(pop) = self.shared.pool.pop(self.core.id, self.core.now()) else {
                    break None;
                };
                self.note_contention("pool", pop.contended, pop.lock_wait);
                let node = pop.node;
                self.core.stats.tree_visits += 1;
                self.core
                    .charge(self.core.costs.queue_op + self.core.costs.tree_visit);
                self.core.note(EventKind::PoolPop { node: node.id });
                match node.claim_remote() {
                    RemoteClaim::Ready(alt) => {
                        // Keep the node visible to other idle workers while
                        // it still has unclaimed alternatives.
                        if node.has_work() {
                            self.advertise(&node);
                        }
                        // The claim succeeded: price the steal by how far
                        // the entry travelled across the topology.
                        self.note_steal_scope(node.id, pop.scope, pop.local_work);
                        break Some((node, alt));
                    }
                    // Deferred closure: the demand flag is up now, and the
                    // owner re-advertises the node once it materializes —
                    // no re-push here (a pooled deferred hint would just
                    // spin other idle workers on the same pending node).
                    // Its owner is about to materialize: probe again at
                    // the base cadence instead of backing off.
                    RemoteClaim::Pending => self.core.reset_backoff(),
                    // Drained behind the pool's back (owner claims, a cut,
                    // an LAO reuse that was itself re-enqueued): stale
                    // hint, drop.
                    RemoteClaim::Empty => {}
                }
            },
            OrScheduler::Traversal => {
                let mut work = vec![self.shared.root.clone()];
                loop {
                    let Some(node) = work.pop() else { break None };
                    self.core.stats.tree_visits += 1;
                    self.core.charge(self.core.costs.tree_visit);
                    match node.claim_remote() {
                        RemoteClaim::Ready(alt) => break Some((node, alt)),
                        // Pending: demand recorded; descend — the owner
                        // materializes at its next checkpoint and this
                        // worker's next sweep will find the node ready.
                        RemoteClaim::Pending => {
                            self.core.reset_backoff();
                            work.extend(node.children.lock().iter().cloned());
                        }
                        RemoteClaim::Empty => {
                            work.extend(node.children.lock().iter().cloned());
                        }
                    }
                }
            }
        };

        let Some((node, (alt, epoch, label, closure))) = claimed else {
            self.shared.busy.fetch_sub(1, Ordering::AcqRel);
            self.core.note(EventKind::StealFail);
            return None;
        };
        self.core.stats.alternatives_claimed += 1;
        // Claim bookkeeping only: installing the state is the engine's
        // thaw, which it prices itself.
        self.core.charge(self.core.costs.claim_alternative);
        self.core.note(EventKind::ClosureThaw {
            node: node.id,
            epoch,
            cells: closure.cells(),
        });
        self.core.note(EventKind::Claim {
            node: node.id,
            epoch,
            alt,
        });
        self.core.note(EventKind::StealSuccess);
        Some(Claimed {
            node,
            alt,
            label,
            closure,
        })
    }

    /// The computation `lineage` describes is over (exhausted, cancelled,
    /// or dead on install). Every deferral still on its watch list is
    /// un-materialized by construction (materialization removes its
    /// entry), and the computation backtracked through all of them, so
    /// their captures were elided outright.
    pub fn retire(&mut self, lineage: Lineage<C>) {
        self.core.stats.closures_elided += lineage.deferred.len() as u64;
        self.shared.busy.fetch_sub(1, Ordering::AcqRel);
    }

    /// Nothing to claim anywhere and nobody computing: the search is over.
    pub fn quiescent(&self) -> bool {
        let tree = &self.shared;
        tree.busy.load(Ordering::Acquire) == 0 && tree.total_alts.load(Ordering::Acquire) == 0
    }
}
