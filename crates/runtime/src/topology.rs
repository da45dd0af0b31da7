//! Machine topology for the virtual-time cost model.
//!
//! The paper's 10-CPU Sequent Symmetry was flat: every steal cost the
//! same and locks were cheap. A modern big box is not — workers live in
//! NUMA domains / core clusters, a steal that crosses a domain boundary
//! pays several times an intra-domain one, and a contended lock costs
//! whatever the previous holder's critical section still owes. This
//! module describes such a machine for the simulator:
//!
//! * [`Topology`] groups the fleet into `domains` equal blocks and
//!   carries the per-edge-class costs the engines charge on top of the
//!   flat [`crate::cost::CostModel`]: `intra_steal` for a claim taken
//!   from another shard in the thief's own domain, `cross_steal` for a
//!   claim that crossed domains, `contended_lock` for a lock
//!   acquisition the sim driver *observed* to be contended.
//! * [`LockClock`] is that observation mechanism. Under [`crate::driver::SimDriver`]
//!   only one worker runs per phase, so real mutexes are never
//!   contended; instead each instrumented lock records the virtual
//!   interval its last acquisition held it, and an acquisition by a
//!   different worker that lands inside the interval is contended — the
//!   acquirer is charged the residual wait plus `contended_lock`, not a
//!   flat constant per lock touch.
//!
//! The default topology is [`Topology::flat`]: one domain, zero steal
//! premiums, zero contention pricing — charge-for-charge identical to
//! the pre-topology engine, so existing benchmarks keep their numbers.
//! Contention observation still *counts* events under the default; only
//! a topology with a nonzero `contended_lock` turns them into charges.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Worker placement and per-edge-class costs for the virtual machine.
///
/// Workers `0..n` are assigned to `domains` contiguous blocks of
/// `ceil(n / domains)` workers each ([`Topology::domain_of`]); the
/// hierarchical `AltPool` in `ace-or` uses the same mapping for its
/// shard tiers, so "domain" means the same thing to the scheduler and
/// to the cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Number of NUMA domains / core clusters the fleet is split into.
    pub domains: usize,
    /// Extra virtual cost of claiming an alternative from another
    /// shard *within* the thief's domain (on top of the flat
    /// `claim_alternative`/`install_state` costs).
    pub intra_steal: u64,
    /// Extra virtual cost of claiming an alternative across a domain
    /// boundary. Several times `intra_steal` on a NUMA box.
    pub cross_steal: u64,
    /// Cost charged per *observed* contended lock acquisition, on top
    /// of the residual wait for the previous holder (see [`LockClock`]).
    pub contended_lock: u64,
    /// Victim-scan policy for the hierarchical pool: when true (the
    /// default), a thief exhausts its own domain before crossing; when
    /// false the scan is the old flat round-robin over all shards —
    /// kept as the ablation baseline for `results/or_topology`.
    pub hierarchical: bool,
    /// When true (the default) each domain accumulates solutions in
    /// its own buffer and the engine-wide merge happens once at report
    /// time; when false every worker flushes into a single shared
    /// buffer — the pre-topology behaviour, kept as the ablation
    /// baseline that exposes the solution-collection cliff.
    pub domain_answer_buffers: bool,
}

impl Topology {
    /// The paper's machine: one flat domain, steals cost nothing beyond
    /// the `CostModel`'s flat charges, and locks are free —
    /// `contended_lock: 0` disables contention *charging* entirely
    /// (observed events are still counted in `Stats::lock_contended`),
    /// so runs under the default topology reproduce the pre-topology
    /// engine's virtual times exactly.
    pub fn flat() -> Self {
        Topology {
            domains: 1,
            intra_steal: 0,
            cross_steal: 0,
            contended_lock: 0,
            hierarchical: true,
            domain_answer_buffers: true,
        }
    }

    /// A NUMA box with `domains` clusters: intra-domain steals pay a
    /// small premium, cross-domain steals four times that, contended
    /// locks slightly more than the flat model assumed (cache-line
    /// migration). Magnitudes follow the same heap-cell unit scale as
    /// [`crate::cost::CostModel`].
    pub fn numa(domains: usize) -> Self {
        Topology {
            domains: domains.max(1),
            intra_steal: 12,
            cross_steal: 48,
            contended_lock: 8,
            hierarchical: true,
            domain_answer_buffers: true,
        }
    }

    /// Price contended lock acquisitions: each observed contention
    /// charges the residual wait behind the previous holder plus `cost`.
    /// A zero `cost` disables contention charging (events are still
    /// counted) — the [`Topology::flat`] default.
    pub fn with_contended_lock(mut self, cost: u64) -> Self {
        self.contended_lock = cost;
        self
    }

    /// Whether contended locks are priced in virtual time under this
    /// topology (see [`Topology::with_contended_lock`]).
    pub fn prices_contention(&self) -> bool {
        self.contended_lock > 0
    }

    /// Disable the hierarchical victim scan (flat round-robin over all
    /// shards, as before this topology existed). Steals are still
    /// *classified* by domain so the cross-domain fraction of the flat
    /// policy is measurable.
    pub fn flat_scan(mut self) -> Self {
        self.hierarchical = false;
        self
    }

    /// Disable per-domain solution accumulation (single engine-wide
    /// answer buffer) — the ablation arm for the solution-collection
    /// contention cliff.
    pub fn global_answer_lock(mut self) -> Self {
        self.domain_answer_buffers = false;
        self
    }

    /// Domain of `worker` in a fleet of `workers`: contiguous blocks of
    /// `ceil(workers / domains)`, with the tail clamped into the last
    /// domain. With more domains than workers each worker gets its own.
    pub fn domain_of(&self, worker: usize, workers: usize) -> usize {
        let domains = self.domains.max(1);
        let workers = workers.max(1);
        let per = workers.div_ceil(domains);
        (worker / per.max(1)).min(domains - 1)
    }

    /// Steal premium for a claim whose victim shard lives in another
    /// domain (`cross`) or the thief's own (`!cross`).
    pub fn steal_cost(&self, cross: bool) -> u64 {
        if cross {
            self.cross_steal
        } else {
            self.intra_steal
        }
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::flat()
    }
}

/// Virtual-time contention model for one shared lock.
///
/// Real mutexes never block under the sim driver (phases are
/// serialized), so contention must be *modelled*: each acquisition
/// records the virtual interval `[now, release)` it holds the lock,
/// where `release = max(now, previous release) + hold`. An acquisition
/// by a different worker with `now < previous release` is contended and
/// returns the residual wait `previous release - now`, which the caller
/// charges to its clock (plus [`Topology::contended_lock`]) — so a lock
/// that serializes a 512-worker fleet costs exactly the serialization
/// it causes, not a flat constant.
///
/// Under the threads driver clocks are advanced concurrently, so the
/// observation is approximate there (relaxed atomics, a model rather
/// than a measurement); it only feeds cost accounting and the
/// `lock_contended` statistic, never correctness.
#[derive(Debug)]
pub struct LockClock {
    /// Virtual time at which the last acquisition releases the lock.
    held_until: AtomicU64,
    /// Worker id of the last acquirer (`usize::MAX` = never held).
    owner: AtomicUsize,
}

impl LockClock {
    pub fn new() -> Self {
        LockClock {
            held_until: AtomicU64::new(0),
            owner: AtomicUsize::new(usize::MAX),
        }
    }

    /// Record an acquisition by `worker` at virtual time `now`, holding
    /// the lock for `hold` units. Returns the residual wait in virtual
    /// units: `0` for an uncontended acquisition, otherwise the time
    /// `worker` spent queued behind the previous holder.
    pub fn acquire(&self, worker: usize, now: u64, hold: u64) -> u64 {
        let until = self.held_until.load(Ordering::Relaxed);
        let prev = self.owner.swap(worker, Ordering::Relaxed);
        let contended = prev != worker && prev != usize::MAX && now < until;
        let wait = if contended { until - now } else { 0 };
        self.held_until
            .store(now.max(until) + hold, Ordering::Relaxed);
        wait
    }
}

impl Default for LockClock {
    fn default() -> Self {
        LockClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_the_paper_machine() {
        let t = Topology::default();
        assert_eq!(t.domains, 1);
        assert_eq!(t.intra_steal, 0);
        assert_eq!(t.cross_steal, 0);
        assert_eq!(t.contended_lock, 0);
        assert!(!t.prices_contention());
        assert!(Topology::numa(2).prices_contention());
        assert!(t.hierarchical);
        assert!(t.domain_answer_buffers);
        // Every worker lands in the single domain.
        for w in 0..512 {
            assert_eq!(t.domain_of(w, 512), 0);
        }
    }

    #[test]
    fn numa_cross_steals_cost_more() {
        let t = Topology::numa(4);
        assert!(t.cross_steal > t.intra_steal);
        assert_eq!(t.steal_cost(true), t.cross_steal);
        assert_eq!(t.steal_cost(false), t.intra_steal);
    }

    #[test]
    fn domain_blocks_are_contiguous_and_clamped() {
        let t = Topology::numa(4);
        // 64 workers / 4 domains = blocks of 16.
        assert_eq!(t.domain_of(0, 64), 0);
        assert_eq!(t.domain_of(15, 64), 0);
        assert_eq!(t.domain_of(16, 64), 1);
        assert_eq!(t.domain_of(63, 64), 3);
        // Uneven fleet: 10 workers / 4 domains = blocks of 3, tail clamps.
        assert_eq!(t.domain_of(9, 10), 3);
        // More domains than workers: one worker per domain.
        assert_eq!(t.domain_of(2, 3), 2);
    }

    #[test]
    fn lock_clock_reports_residual_wait() {
        let clock = LockClock::new();
        // First acquisition is free.
        assert_eq!(clock.acquire(0, 100, 10), 0);
        // A different worker inside the holder's interval waits it out.
        assert_eq!(clock.acquire(1, 105, 10), 5);
        // The queue compounds: worker 2 waits behind both.
        assert_eq!(clock.acquire(2, 106, 10), 14);
        // Past the release point the lock is free again.
        assert_eq!(clock.acquire(0, 10_000, 10), 0);
    }

    #[test]
    fn lock_clock_reacquisition_by_owner_is_free() {
        let clock = LockClock::new();
        assert_eq!(clock.acquire(3, 0, 50), 0);
        // Same worker re-entering its own window is not contention.
        assert_eq!(clock.acquire(3, 10, 50), 0);
    }
}
