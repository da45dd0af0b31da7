//! The shared alternative pool: O(1), topology-aware work-finding.
//!
//! The original scheduler walked the whole public tree from the root on
//! every steal attempt, so idle-worker cost grew with tree size — exactly
//! the traversal overhead the paper's flattening schema exists to shrink.
//! The pool inverts the data flow: *publication* enqueues a handle to the
//! node carrying fresh alternatives, and an idle worker dequeues one handle
//! and claims from it directly. Steal cost is then amortized O(1) in the
//! size of the public tree.
//!
//! At 64–512 workers the flat one-shard-per-worker layout develops its own
//! cliffs: every idle probe lock-swept all shards, and every steal was
//! equally likely to land on the far side of the machine. The pool is
//! therefore a **hierarchy** shaped by the run's [`Topology`]:
//!
//! ```text
//!   tier 1: own shard            (free — the owner's backtracking order)
//!   tier 2: same-domain victims  (intra_steal premium)
//!   tier 3: global overflow      (priced by each entry's origin domain)
//!   tier 4: cross-domain victims (cross_steal premium)
//! ```
//!
//! Design points:
//!
//! * **Sharded, domain-grouped.** One deque per worker, grouped into the
//!   topology's domains. A thief exhausts its own domain (tiers 1–2)
//!   before it ever looks outside, so cross-domain traffic only happens
//!   when a whole domain is dry — the invariant the `TraceChecker`'s
//!   domain-steal rule asserts. Scan order is deterministic so the sim
//!   driver stays replayable.
//! * **Overflow tier.** In a multi-domain pool a shard keeps at most
//!   `SPILL_DEPTH` entries; a push beyond that spills the shard's
//!   *oldest* entry (closest to the root) to a global deque any domain
//!   may drain, so a producer burst in one domain becomes visible
//!   machine-wide without every thief sweeping foreign shards. A
//!   single-domain pool never spills: its domain scan already covers
//!   every shard, and the unperturbed shard order keeps the default
//!   topology's schedule identical to the pre-topology pool's.
//!   Newest-deepest entries stay on the owner's shard — its LIFO
//!   dispatch order is undisturbed — while the spilled topmost entries
//!   carry the widest subtrees, exactly what a starved foreign domain
//!   wants. Each overflow entry remembers its origin domain for steal
//!   pricing.
//! * **Lock-free occupancy counters.** Approximate per-shard, per-domain
//!   and pool-wide entry counts let the "pool empty?" probe and the tier
//!   scans skip empty structures without touching a single mutex — the
//!   old [`AltPool::len`] locked every shard on every idle probe, an
//!   O(workers) sweep per probe that dominated big idle fleets. The
//!   counters are hints: exact under the serialized sim driver, and
//!   self-correcting transients under real threads (a missed entry is
//!   found by the next probe).
//! * **Observed contention, not flat charges.** Every mutex the pool does
//!   take is paired with a [`LockClock`] that detects overlap with the
//!   previous holder's virtual critical section; [`PopOutcome`]/
//!   [`PushOutcome`] report the contended-acquisition count and residual
//!   wait so the engine can charge what the serialization actually cost.
//! * **Membership flag, not ownership.** The pool holds `Arc<OrNode>`
//!   *hints*, never alternatives themselves: all claims still go through
//!   the node payload's mutex ([`OrNode::claim_remote`]), so the pool can
//!   never double-issue an alternative and an injected steal failure (which
//!   returns before any pop) leaves every item claimable. Each node tracks
//!   whether it is currently pooled ([`OrNode::try_enter_pool`]) so it has
//!   at most one live pool entry: a popped node that still has work after a
//!   claim is re-enqueued, one that was drained behind the pool's back
//!   (owner claims, cut, LAO reuse) is simply discarded on pop.
//! * **Dispatch policy = pop order.** Nodes enter in publication order,
//!   which is also roughly depth order (a machine publishes its oldest
//!   private choice point first). Every queue pops LIFO (youngest,
//!   deepest — longest private runs): Aurora's dispatch-on-bottommost,
//!   the same order the traversal scheduler walks.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ace_runtime::{LockClock, Topology};
use parking_lot::Mutex;

use crate::tree::OrNode;

/// Maximum shard depth in a multi-domain pool: a push beyond this
/// spills the shard's oldest entry to the global overflow tier. A
/// single-domain pool never spills — the domain scan already covers
/// every shard, so the overflow tier would buy no visibility and only
/// reorder claims away from the flat baseline's schedule.
const SPILL_DEPTH: usize = 4;

/// Where a popped entry came from, relative to the thief.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealScope {
    /// The thief's own shard — not a steal at all.
    Own,
    /// Another shard (or an overflow entry) from the thief's own domain.
    Domain,
    /// A shard or overflow entry from another domain.
    Cross,
}

/// Result of a successful [`AltPool::pop`].
pub struct PopOutcome {
    pub node: Arc<OrNode>,
    pub scope: StealScope,
    /// The thief's own-domain occupancy observed when the entry was
    /// taken. Under the sim driver a hierarchical [`StealScope::Cross`]
    /// pop always observes `0` — the checker-enforced invariant.
    pub local_work: usize,
    /// Contended lock acquisitions observed during the scan.
    pub contended: u64,
    /// Residual virtual time spent queued behind prior lock holders.
    pub lock_wait: u64,
}

/// Result of an [`AltPool::push`].
pub struct PushOutcome {
    /// Whether an entry was actually added (false: already pooled).
    pub added: bool,
    pub contended: u64,
    pub lock_wait: u64,
}

/// Hierarchical sharded queue of nodes that (recently) held unclaimed
/// alternatives.
pub struct AltPool {
    shards: Vec<Mutex<VecDeque<Arc<OrNode>>>>,
    /// Overflow tier: entries carry the domain of the shard they spilled
    /// from, so a drain prices the steal by provenance.
    global: Mutex<VecDeque<(Arc<OrNode>, usize)>>,
    /// shard → domain (block mapping from the topology).
    domain: Vec<usize>,
    /// domain → its shard indices, in scan order.
    members: Vec<Vec<usize>>,
    /// shard → its position within `members[domain]` (scan rotation).
    member_index: Vec<usize>,
    shard_occupancy: Vec<AtomicUsize>,
    domain_occupancy: Vec<AtomicUsize>,
    global_occupancy: AtomicUsize,
    occupancy: AtomicUsize,
    /// Exhaust-local-domain-first scan (false = flat round-robin, the
    /// pre-topology baseline kept for ablation benchmarks).
    hierarchical: bool,
    shard_clocks: Vec<LockClock>,
    global_clock: LockClock,
    /// Modelled virtual critical-section length of one queue operation.
    lock_hold: u64,
    /// Shard depth beyond which pushes spill to the overflow tier:
    /// `SPILL_DEPTH` with multiple domains, unbounded (no spilling)
    /// with one — see the constant's doc.
    spill_depth: usize,
}

impl AltPool {
    /// One shard per worker (at least one), grouped into the topology's
    /// domains. `lock_hold` is the virtual length of one locked queue
    /// operation — the engine passes its `queue_op` cost.
    pub fn new(workers: usize, topology: &Topology, lock_hold: u64) -> Self {
        let n = workers.max(1);
        let domains = topology.domains.max(1);
        let domain: Vec<usize> = (0..n).map(|w| topology.domain_of(w, n)).collect();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); domains];
        let mut member_index = vec![0usize; n];
        for (shard, &d) in domain.iter().enumerate() {
            member_index[shard] = members[d].len();
            members[d].push(shard);
        }
        AltPool {
            shards: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            global: Mutex::new(VecDeque::new()),
            domain,
            members,
            member_index,
            shard_occupancy: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            domain_occupancy: (0..domains).map(|_| AtomicUsize::new(0)).collect(),
            global_occupancy: AtomicUsize::new(0),
            occupancy: AtomicUsize::new(0),
            hierarchical: topology.hierarchical,
            shard_clocks: (0..n).map(|_| LockClock::new()).collect(),
            global_clock: LockClock::new(),
            lock_hold,
            spill_depth: if domains > 1 { SPILL_DEPTH } else { usize::MAX },
        }
    }

    /// Enqueue `node` into `worker`'s shard unless it is already pooled,
    /// spilling the shard's oldest entry to the overflow tier when the
    /// shard exceeds `SPILL_DEPTH`. `now` is the worker's virtual
    /// clock (lock contention observation).
    pub fn push(&self, worker: usize, node: &Arc<OrNode>, now: u64) -> PushOutcome {
        if !node.try_enter_pool() {
            return PushOutcome {
                added: false,
                contended: 0,
                lock_wait: 0,
            };
        }
        let w = worker % self.shards.len();
        let (mut contended, mut wait) = (0u64, 0u64);
        Self::note(
            self.shard_clocks[w].acquire(worker, now, self.lock_hold),
            &mut contended,
            &mut wait,
        );
        // The new entry always lands on the owner's shard; when that
        // overfills, the *oldest* entry (closest to the root) spills to
        // the overflow tier. Newest-deepest work stays local for the
        // owner's LIFO dispatch, and topmost entries — the widest
        // subtrees — are exactly what a starved foreign domain wants.
        let spilled = {
            let mut q = self.shards[w].lock();
            q.push_back(node.clone());
            if q.len() > self.spill_depth {
                q.pop_front()
            } else {
                None
            }
        };
        if let Some(old) = spilled {
            Self::note(
                self.global_clock.acquire(worker, now, self.lock_hold),
                &mut contended,
                &mut wait,
            );
            self.global.lock().push_back((old, self.domain[w]));
            self.global_occupancy.fetch_add(1, Ordering::Release);
        } else {
            self.shard_occupancy[w].fetch_add(1, Ordering::Release);
            self.domain_occupancy[self.domain[w]].fetch_add(1, Ordering::Release);
        }
        self.occupancy.fetch_add(1, Ordering::Release);
        PushOutcome {
            added: true,
            contended,
            lock_wait: wait,
        }
    }

    /// Dequeue one node hint for `worker`, scanning the tiers in order
    /// (own shard → same-domain victims → overflow → cross-domain) when
    /// hierarchical, or all shards round-robin then overflow when flat.
    /// Each queue pops LIFO (deepest-first). An empty pool returns
    /// without touching any mutex — the occupancy counters answer the
    /// idle probe.
    pub fn pop(&self, worker: usize, now: u64) -> Option<PopOutcome> {
        if self.occupancy.load(Ordering::Acquire) == 0 {
            return None;
        }
        let n = self.shards.len();
        let w = worker % n;
        let dom = self.domain[w];
        let (mut contended, mut wait) = (0u64, 0u64);

        if self.hierarchical {
            // Tiers 1–2: own shard, then same-domain victims, rotating
            // from the thief's own position so siblings spread out.
            if self.domain_occupancy[dom].load(Ordering::Acquire) > 0 {
                let members = &self.members[dom];
                let start = self.member_index[w];
                for i in 0..members.len() {
                    let s = members[(start + i) % members.len()];
                    if let Some(node) = self.take_shard(s, worker, now, &mut contended, &mut wait) {
                        let scope = if s == w {
                            StealScope::Own
                        } else {
                            StealScope::Domain
                        };
                        return Some(self.outcome(node, scope, dom, contended, wait));
                    }
                }
            }
            // Tier 3: the overflow tier, priced by entry provenance.
            if let Some((node, origin)) = self.take_global(worker, now, &mut contended, &mut wait) {
                let scope = if origin == dom {
                    StealScope::Domain
                } else {
                    StealScope::Cross
                };
                return Some(self.outcome(node, scope, dom, contended, wait));
            }
            // Tier 4: cross-domain victims, domains in deterministic
            // rotation, skipping dry domains via their counters.
            let domains = self.members.len();
            for d in 1..domains {
                let dd = (dom + d) % domains;
                if self.domain_occupancy[dd].load(Ordering::Acquire) == 0 {
                    continue;
                }
                let members = &self.members[dd];
                if members.is_empty() {
                    continue;
                }
                let start = worker % members.len();
                for i in 0..members.len() {
                    let s = members[(start + i) % members.len()];
                    if let Some(node) = self.take_shard(s, worker, now, &mut contended, &mut wait) {
                        return Some(self.outcome(node, StealScope::Cross, dom, contended, wait));
                    }
                }
            }
            None
        } else {
            // Flat round-robin over all shards (the pre-topology scan),
            // still classified by domain so the ablation benchmarks can
            // measure the cross-domain fraction of the blind policy.
            for i in 0..n {
                let s = (w + i) % n;
                if let Some(node) = self.take_shard(s, worker, now, &mut contended, &mut wait) {
                    let scope = if s == w {
                        StealScope::Own
                    } else if self.domain[s] == dom {
                        StealScope::Domain
                    } else {
                        StealScope::Cross
                    };
                    return Some(self.outcome(node, scope, dom, contended, wait));
                }
            }
            let (node, origin) = self.take_global(worker, now, &mut contended, &mut wait)?;
            let scope = if origin == dom {
                StealScope::Domain
            } else {
                StealScope::Cross
            };
            Some(self.outcome(node, scope, dom, contended, wait))
        }
    }

    fn note(queued: u64, contended: &mut u64, wait: &mut u64) {
        if queued > 0 {
            *contended += 1;
            *wait += queued;
        }
    }

    fn outcome(
        &self,
        node: Arc<OrNode>,
        scope: StealScope,
        dom: usize,
        contended: u64,
        lock_wait: u64,
    ) -> PopOutcome {
        PopOutcome {
            node,
            scope,
            local_work: self.domain_occupancy[dom].load(Ordering::Relaxed),
            contended,
            lock_wait,
        }
    }

    fn take_shard(
        &self,
        shard: usize,
        worker: usize,
        now: u64,
        contended: &mut u64,
        wait: &mut u64,
    ) -> Option<Arc<OrNode>> {
        if self.shard_occupancy[shard].load(Ordering::Acquire) == 0 {
            return None;
        }
        Self::note(
            self.shard_clocks[shard].acquire(worker, now, self.lock_hold),
            contended,
            wait,
        );
        let node = self.shards[shard].lock().pop_back()?;
        node.leave_pool();
        self.shard_occupancy[shard].fetch_sub(1, Ordering::Release);
        self.domain_occupancy[self.domain[shard]].fetch_sub(1, Ordering::Release);
        self.occupancy.fetch_sub(1, Ordering::Release);
        Some(node)
    }

    fn take_global(
        &self,
        worker: usize,
        now: u64,
        contended: &mut u64,
        wait: &mut u64,
    ) -> Option<(Arc<OrNode>, usize)> {
        if self.global_occupancy.load(Ordering::Acquire) == 0 {
            return None;
        }
        Self::note(
            self.global_clock.acquire(worker, now, self.lock_hold),
            contended,
            wait,
        );
        let (node, origin) = self.global.lock().pop_back()?;
        node.leave_pool();
        self.global_occupancy.fetch_sub(1, Ordering::Release);
        self.occupancy.fetch_sub(1, Ordering::Release);
        Some((node, origin))
    }

    /// Approximate total queued entries — one atomic load, no locks.
    /// Exact under the sim driver; under threads a hint that the next
    /// probe corrects. This is what idle probes consult.
    pub fn len(&self) -> usize {
        self.occupancy.load(Ordering::Acquire)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact entry count via a full locked sweep — diagnostics only;
    /// never on the steal or idle-probe path.
    pub fn len_exact(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum::<usize>() + self.global.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::atomic::AtomicUsize;

    use ace_logic::sym;

    fn node(total: &Arc<AtomicUsize>, root: &Arc<OrNode>, alts: &[usize]) -> Arc<OrNode> {
        OrNode::publish(
            root,
            (sym("p"), 1),
            VecDeque::from(alts.to_vec()),
            total.clone(),
        )
    }

    fn flat(workers: usize) -> AltPool {
        AltPool::new(workers, &Topology::flat(), 6)
    }

    #[test]
    fn push_pop_roundtrip() {
        let total = Arc::new(AtomicUsize::new(0));
        let root = OrNode::root(total.clone());
        let pool = flat(2);
        let a = node(&total, &root, &[1]);
        let b = node(&total, &root, &[2]);
        assert!(pool.push(0, &a, 0).added);
        assert!(pool.push(0, &b, 0).added);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.len_exact(), 2);
        // deepest-first: LIFO
        assert_eq!(pool.pop(0, 0).unwrap().node.id, b.id);
        assert_eq!(pool.pop(0, 0).unwrap().node.id, a.id);
        assert!(pool.pop(0, 0).is_none());
        assert_eq!(pool.len(), 0);
    }

    #[test]
    fn duplicate_push_is_rejected_until_popped() {
        let total = Arc::new(AtomicUsize::new(0));
        let root = OrNode::root(total.clone());
        let pool = flat(1);
        let a = node(&total, &root, &[1, 2]);
        assert!(pool.push(0, &a, 0).added);
        assert!(
            !pool.push(0, &a, 0).added,
            "second push while pooled must no-op"
        );
        assert_eq!(pool.len(), 1);
        let popped = pool.pop(0, 0).unwrap().node;
        assert!(pool.push(0, &popped, 0).added, "re-push after pop allowed");
    }

    #[test]
    fn victim_stealing_crosses_shards() {
        let total = Arc::new(AtomicUsize::new(0));
        let root = OrNode::root(total.clone());
        let pool = flat(4);
        let a = node(&total, &root, &[1]);
        pool.push(2, &a, 0);
        // worker 0 finds work parked on worker 2's shard
        let got = pool.pop(0, 0).unwrap();
        assert_eq!(got.node.id, a.id);
        assert_eq!(got.scope, StealScope::Domain);
    }

    #[test]
    fn hierarchical_scan_exhausts_local_domain_before_crossing() {
        let total = Arc::new(AtomicUsize::new(0));
        let root = OrNode::root(total.clone());
        // 4 workers, 2 domains: shards {0,1} and {2,3}.
        let pool = AltPool::new(4, &Topology::numa(2), 6);
        let far = node(&total, &root, &[1]);
        let near = node(&total, &root, &[2]);
        pool.push(2, &far, 0); // other domain
        pool.push(1, &near, 0); // same domain as worker 0
                                // Worker 0 must drain its own domain first...
        let got = pool.pop(0, 0).unwrap();
        assert_eq!(got.node.id, near.id);
        assert_eq!(got.scope, StealScope::Domain);
        // ...and only then cross, observing an empty local domain.
        let got = pool.pop(0, 0).unwrap();
        assert_eq!(got.node.id, far.id);
        assert_eq!(got.scope, StealScope::Cross);
        assert_eq!(got.local_work, 0);
    }

    #[test]
    fn deep_shard_spills_to_overflow_tier() {
        let total = Arc::new(AtomicUsize::new(0));
        let root = OrNode::root(total.clone());
        // 4 workers, 2 domains; worker 0 floods its shard.
        let pool = AltPool::new(4, &Topology::numa(2), 6);
        let nodes: Vec<_> = (0..SPILL_DEPTH + 1)
            .map(|i| node(&total, &root, &[i]))
            .collect();
        for n in &nodes {
            assert!(pool.push(0, n, 0).added);
        }
        assert_eq!(pool.len(), SPILL_DEPTH + 1);
        assert_eq!(pool.len_exact(), SPILL_DEPTH + 1);
        // The *oldest* entry spilled (newest work stays on the owner's
        // shard); it is visible to the other domain without a shard
        // sweep, and is priced by its origin (cross for worker 2).
        let got = pool.pop(2, 0).unwrap();
        assert_eq!(got.node.id, nodes[0].id);
        assert_eq!(got.scope, StealScope::Cross);
        // The same entry drained by its own domain is a domain steal.
        let own = pool.pop(0, 0).unwrap();
        assert_eq!(own.scope, StealScope::Own);
    }

    #[test]
    fn own_shard_pop_is_own_scope() {
        let total = Arc::new(AtomicUsize::new(0));
        let root = OrNode::root(total.clone());
        let pool = flat(4);
        let a = node(&total, &root, &[1]);
        pool.push(0, &a, 0);
        assert_eq!(pool.pop(0, 0).unwrap().scope, StealScope::Own);
    }

    #[test]
    fn empty_probe_touches_no_locks_and_counters_stay_exact() {
        let total = Arc::new(AtomicUsize::new(0));
        let root = OrNode::root(total.clone());
        let pool = AltPool::new(8, &Topology::numa(4), 6);
        assert!(pool.pop(5, 0).is_none());
        let a = node(&total, &root, &[1]);
        let b = node(&total, &root, &[2]);
        pool.push(3, &a, 0);
        pool.push(6, &b, 0);
        assert_eq!(pool.len(), pool.len_exact());
        pool.pop(0, 0).unwrap();
        pool.pop(0, 0).unwrap();
        assert_eq!(pool.len(), 0);
        assert_eq!(pool.len_exact(), 0);
    }

    #[test]
    fn contended_shard_lock_is_observed_in_virtual_time() {
        let total = Arc::new(AtomicUsize::new(0));
        let root = OrNode::root(total.clone());
        let pool = flat(2);
        let a = node(&total, &root, &[1]);
        // Worker 0 holds shard 0's lock in virtual time [10, 16).
        pool.push(0, &a, 10);
        // Worker 1 raiding shard 0 inside the window pays the wait.
        let got = pool.pop(1, 12).unwrap();
        assert_eq!(got.contended, 1);
        assert_eq!(got.lock_wait, 4); // 16 - 12
    }

    #[test]
    fn flat_scan_still_classifies_cross_domain_steals() {
        let total = Arc::new(AtomicUsize::new(0));
        let root = OrNode::root(total.clone());
        let pool = AltPool::new(4, &Topology::numa(2).flat_scan(), 6);
        let near = node(&total, &root, &[1]);
        let far = node(&total, &root, &[2]);
        pool.push(1, &near, 0);
        pool.push(2, &far, 0);
        // Worker 1 scans 1, 2, 3, 0 blindly: own entry first, then the
        // foreign shard — classified Cross even though the policy never
        // looked at domains.
        let got = pool.pop(1, 0).unwrap();
        assert_eq!(got.node.id, near.id);
        assert_eq!(got.scope, StealScope::Own);
        let got = pool.pop(1, 0).unwrap();
        assert_eq!(got.node.id, far.id);
        assert_eq!(got.scope, StealScope::Cross);
    }
}
