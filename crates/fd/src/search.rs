//! Or-parallel labeling search with the Last Alternative Optimization.
//!
//! Workers run first-fail labeling with **private** choice points (plain
//! depth-first backtracking — the paper's *sequentialization* schema).
//! When idle workers exist, the oldest private choice point is
//! **published** into the public or-tree the Prolog or-engine uses
//! ([`ace_runtime::ortree`]): its untried values become the node's
//! alternatives, and its domain state is frozen into a `Snapshot` only
//! when a remote worker first asks for it. Idle workers find work through
//! the tree's alternative pool (or its traversal oracle), and **LAO**
//! reuses a drained node for the next choice point instead of deepening
//! the chain (paper §3.2 / Figure 7; its reference \[6\] = LAO for
//! parallel CLP(FD)).

use std::collections::VecDeque;
use std::sync::Arc;

use ace_runtime::ortree::{Closure, Lineage, OrTree, OwnerClaim, TreeWorker};
use ace_runtime::{
    Control, Engine, EngineConfig, EventKind, Label, RunOutcome, Stats, Step, Trace, WorkerCore,
    QUANTUM,
};
use parking_lot::Mutex;

use crate::domain::BitDomain;
use crate::problem::Problem;
use crate::propagate::{propagate, Outcome as Prop};

/// The closure a published labeling choice point hands a claimant: the
/// domain state before the split.
struct Snapshot(Vec<BitDomain>);

impl Closure for Snapshot {
    fn cells(&self) -> u64 {
        self.0.len() as u64
    }
}

/// A labeling choice point: the domain state before the split, the
/// variable split on, and where its untried values are.
struct LocalCp {
    state: Vec<BitDomain>,
    var: usize,
    values: Values,
}

enum Values {
    Private(VecDeque<usize>),
    /// Published: the untried values live in the shared node.
    Shared(OwnerClaim<Snapshot>),
}

/// The fd-engine's share of a run's state (the tree is the shared
/// [`OrTree`], the run protocol's share the [`Control`] block).
struct SharedState {
    problem: Problem,
    solutions: Mutex<Vec<Vec<u32>>>,
}

struct Run {
    domains: Vec<BitDomain>,
    stack: Vec<LocalCp>,
    lineage: Lineage<Snapshot>,
}

struct FdWorker {
    tree: TreeWorker<Snapshot>,
    sh: Arc<SharedState>,
    current: Option<Run>,
}

impl FdWorker {
    /// Publish the oldest private choice point that still has values
    /// (demand-driven).
    fn maybe_publish(&mut self) {
        if !self.tree.may_publish() {
            return;
        }
        let Some(run) = self.current.as_mut() else {
            return;
        };
        for cp in &mut run.stack {
            if let Values::Private(values) = &mut cp.values {
                if values.is_empty() {
                    continue;
                }
                // FD splits have no predicate; label nodes by the
                // branched variable instead.
                let label = Label::FdVar(cp.var as u32);
                let claim = self
                    .tree
                    .publish(&mut run.lineage, label, std::mem::take(values));
                cp.values = Values::Shared(claim);
                return;
            }
        }
    }

    /// Owner checkpoint for procrastinated captures: a remote demand
    /// freezes the published choice point's domain state.
    fn service_deferred(&mut self) {
        let Some(run) = self.current.as_mut() else {
            return;
        };
        let stack = &run.stack;
        self.tree.service_deferred(&mut run.lineage, |node, epoch| {
            stack.iter().find_map(|cp| match &cp.values {
                Values::Shared(c) if c.node.id == node && c.epoch == epoch => {
                    Some(Snapshot(cp.state.clone()))
                }
                _ => None,
            })
        });
    }

    /// One bounded amount of labeling work.
    fn run_current(&mut self) {
        self.service_deferred();
        self.maybe_publish();
        let costs = self.tree.core.costs.clone();
        let start = self.tree.core.phase_cost;
        while self.tree.core.phase_cost - start < QUANTUM {
            let Some(run) = self.current.as_mut() else {
                break;
            };
            let core = &mut self.tree.core;
            // fully labeled?
            if run.domains.iter().all(|d| d.size() == 1) {
                let sol: Vec<u32> = run.domains.iter().map(|d| d.value().unwrap()).collect();
                let over = core
                    .ctl
                    .deliver(&mut core.stats, std::iter::once_with(|| format!("{sol:?}")));
                self.sh.solutions.lock().push(sol);
                core.stats.solutions += 1;
                core.note(EventKind::Solution);
                if over || !self.backtrack() {
                    break;
                }
                continue;
            }
            // first-fail: smallest non-singleton domain
            let (var, _) = run
                .domains
                .iter()
                .enumerate()
                .filter(|(_, d)| d.size() > 1)
                .min_by_key(|(_, d)| d.size())
                .expect("non-singleton exists");
            let mut values: VecDeque<usize> = run.domains[var].iter().map(|v| v as usize).collect();
            let first = values.pop_front().expect("domain non-empty");
            let snapshot_cells = run.domains.len() as u64;
            run.stack.push(LocalCp {
                state: run.domains.clone(),
                var,
                values: Values::Private(values),
            });
            core.stats.choice_points += 1;
            core.charge(costs.choice_point_alloc + snapshot_cells * costs.heap_cell);
            self.assign_and_propagate(var, first);
        }
    }

    fn assign_and_propagate(&mut self, var: usize, value: usize) {
        let costs = self.tree.core.costs.clone();
        let outcome = {
            let run = self.current.as_mut().expect("assign without run");
            run.domains[var] = BitDomain::singleton(value as u32);
            propagate(&self.sh.problem, &mut run.domains, Some(var))
        };
        let core = &mut self.tree.core;
        core.stats.calls += 1;
        core.charge(costs.call_dispatch);
        match outcome {
            Prop::Consistent { prunes } => {
                core.stats.unify_steps += prunes as u64;
                core.charge(prunes as u64 * costs.unify_step + costs.builtin);
            }
            Prop::Failed => {
                core.charge(costs.builtin);
                self.backtrack();
            }
        }
    }

    /// Take the next alternative from the youngest choice point; `false`
    /// when the local computation is exhausted.
    fn backtrack(&mut self) -> bool {
        let costs = self.tree.core.costs.clone();
        self.tree.core.stats.backtracks += 1;
        loop {
            let Some(run) = self.current.as_mut() else {
                return false;
            };
            let Some(top) = run.stack.last_mut() else {
                // exhausted: drop the run
                self.finish_run();
                return false;
            };
            let core = &mut self.tree.core;
            core.charge(costs.choice_point_retry);
            let next = match &mut top.values {
                Values::Private(values) => values.pop_front(),
                // Published: compete with remote claimants for the
                // node's values, as the or-engine's machine does.
                Values::Shared(claim) => {
                    let next = claim.claim_next();
                    if next.is_some() {
                        core.stats.alternatives_claimed += 1;
                        core.charge(costs.claim_alternative);
                    } else {
                        claim.detach();
                    }
                    next
                }
            };
            let Some(value) = next else {
                run.stack.pop();
                continue;
            };
            let var = top.var;
            run.domains = top.state.clone();
            self.assign_and_propagate(var, value);
            return true;
        }
    }

    fn finish_run(&mut self) {
        if let Some(run) = self.current.take() {
            self.tree.retire(run.lineage);
        }
    }

    /// Claim a value from the public tree and thaw its domain state.
    fn thaw_claimed(&mut self) -> Step {
        let Some(claimed) = self.tree.find_work() else {
            return Step::NoWork;
        };
        let Label::FdVar(var) = claimed.label else {
            unreachable!("fd nodes are labelled by variable")
        };
        // The thaw is one flat-priced block copy, as the or-engine's is.
        let core = &mut self.tree.core;
        core.stats.cells_copied_claim += claimed.closure.cells();
        core.charge(core.costs.closure_thaw + core.costs.install_state);
        self.current = Some(Run {
            domains: claimed.closure.0.clone(),
            stack: Vec::new(),
            lineage: Lineage::new(claimed.node),
        });
        self.assign_and_propagate(var as usize, claimed.alt);
        Step::Worked
    }
}

impl Engine for FdWorker {
    fn core(&mut self) -> &mut WorkerCore {
        &mut self.tree.core
    }

    fn work(&mut self) -> Step {
        if self.current.is_some() {
            self.run_current();
            return Step::Worked;
        }
        self.thaw_claimed()
    }

    fn drain(&mut self) {
        self.finish_run();
    }

    fn quiescent(&self) -> bool {
        self.tree.quiescent()
    }
}

/// Result of an FD search.
#[derive(Debug)]
pub struct FdReport {
    /// Complete assignments, one `Vec<u32>` per solution (values by
    /// variable index). Discovery order is scheduling-dependent.
    pub solutions: Vec<Vec<u32>>,
    pub outcome: RunOutcome,
    pub stats: Stats,
    /// Maximum public-tree depth observed (the Figure-7 shape metric).
    pub max_tree_depth: u32,
    /// Merged event trace (present only when tracing was enabled).
    pub trace: Option<Trace>,
}

/// The FD solver front end.
pub struct Fd {
    problem: Problem,
}

impl Fd {
    pub fn new(problem: Problem) -> Fd {
        Fd { problem }
    }

    /// Find all solutions (or up to `cfg.max_solutions`). A run that is
    /// cancelled, or killed by an injected fault, reports that on
    /// `outcome.aborted`.
    pub fn solve_all(&self, cfg: &EngineConfig) -> FdReport {
        let ctl = Control::new(cfg);
        let tree = OrTree::new(&ctl);
        let sh = Arc::new(SharedState {
            problem: self.problem.clone(),
            solutions: Mutex::new(Vec::new()),
        });
        let mut workers: Vec<FdWorker> = (0..ctl.workers())
            .map(|id| FdWorker {
                tree: TreeWorker::new(WorkerCore::new(id, &ctl), tree.clone()),
                sh: sh.clone(),
                current: None,
            })
            .collect();

        // Root run: propagate the initial constraints, then label. The
        // fresh tree counts it busy; an inconsistent root retires at once.
        let mut domains = self.problem.domains.clone();
        let lineage = tree.root_lineage();
        if matches!(propagate(&self.problem, &mut domains, None), Prop::Failed) {
            workers[0].tree.retire(lineage);
        } else {
            workers[0].current = Some(Run {
                domains,
                stack: Vec::new(),
                lineage,
            });
        }

        let run = ctl.launch("fd", workers);
        let mut solutions = std::mem::take(&mut *sh.solutions.lock());
        if let Some(max) = cfg.max_solutions {
            solutions.truncate(max);
        }
        FdReport {
            solutions,
            outcome: run.outcome,
            stats: run.stats,
            max_tree_depth: tree.max_depth(),
            trace: run.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::queens;
    use ace_runtime::{DriverKind, OptFlags, OrScheduler};

    fn cfg(workers: usize, opts: OptFlags) -> EngineConfig {
        let mut c = EngineConfig::default()
            .with_workers(workers)
            .with_opts(opts);
        c.max_solutions = None;
        c
    }

    #[test]
    fn queens_counts() {
        for (n, expect) in [(4usize, 2usize), (5, 10), (6, 4), (7, 40)] {
            let r = Fd::new(queens(n)).solve_all(&cfg(1, OptFlags::none()));
            assert_eq!(r.solutions.len(), expect, "queens({n})");
        }
    }

    #[test]
    fn solutions_satisfy_constraints() {
        let r = Fd::new(queens(6)).solve_all(&cfg(2, OptFlags::none()));
        for sol in &r.solutions {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    assert_ne!(sol[i], sol[j]);
                    let d = (j - i) as i64;
                    assert_ne!(sol[i] as i64 - sol[j] as i64, d);
                    assert_ne!(sol[j] as i64 - sol[i] as i64, d);
                }
            }
        }
    }

    #[test]
    fn parallel_workers_find_the_same_multiset() {
        let baseline = {
            let mut s = Fd::new(queens(7))
                .solve_all(&cfg(1, OptFlags::none()))
                .solutions;
            s.sort();
            s
        };
        for workers in [2, 4, 8] {
            for opts in [OptFlags::none(), OptFlags::lao_only()] {
                let mut s = Fd::new(queens(7)).solve_all(&cfg(workers, opts)).solutions;
                s.sort();
                assert_eq!(s, baseline, "workers={workers} {}", opts.label());
            }
        }
    }

    /// Pinned to the traversal oracle, as `table3` is: the pool makes a
    /// claim's tree visits independent of depth, and LAO's win on the
    /// hunt is the depth it saves.
    #[test]
    fn lao_keeps_fd_tree_shallow() {
        let traversal = |opts| {
            let mut c = cfg(6, opts);
            c.oracle.or_scheduler = OrScheduler::Traversal;
            c
        };
        let unopt = Fd::new(queens(8)).solve_all(&traversal(OptFlags::none()));
        let opt = Fd::new(queens(8)).solve_all(&traversal(OptFlags::lao_only()));
        assert_eq!(unopt.solutions.len(), 92);
        assert_eq!(opt.solutions.len(), 92);
        assert!(opt.stats.cp_reused_lao > 0);
        assert!(
            opt.max_tree_depth < unopt.max_tree_depth,
            "lao {} !< unopt {}",
            opt.max_tree_depth,
            unopt.max_tree_depth
        );
        assert!(opt.stats.tree_visits < unopt.stats.tree_visits);
    }

    #[test]
    fn first_solution_mode() {
        let mut c = cfg(4, OptFlags::lao_only());
        c.max_solutions = Some(1);
        let r = Fd::new(queens(8)).solve_all(&c);
        assert_eq!(r.solutions.len(), 1);
    }

    #[test]
    fn unsatisfiable_problem_terminates_empty() {
        let mut p = Problem::new(2, 0, 0);
        p.ne(0, 1);
        let r = Fd::new(p).solve_all(&cfg(3, OptFlags::lao_only()));
        assert!(r.solutions.is_empty());
    }

    #[test]
    fn threads_driver_works() {
        let mut c = cfg(3, OptFlags::lao_only());
        c.run.driver = DriverKind::Threads;
        let r = Fd::new(queens(6)).solve_all(&c);
        assert_eq!(r.solutions.len(), 4);
    }

    #[test]
    fn pre_cancelled_parent_token_ends_the_run_as_a_fault() {
        use ace_runtime::{fault::FAULT_ERROR_PREFIX, CancelToken};
        for driver in [DriverKind::Sim, DriverKind::Threads] {
            let session = CancelToken::new();
            session.cancel();
            let mut c = cfg(3, OptFlags::lao_only()).with_driver(driver);
            c.session.cancel = Some(session);
            let r = Fd::new(queens(8)).solve_all(&c);
            let err = r.outcome.aborted.expect("a cancelled run must say so");
            assert!(err.starts_with(FAULT_ERROR_PREFIX), "{driver:?}: {err}");
            assert!(r.solutions.is_empty(), "{driver:?}: enumerated anyway");
        }
    }

    #[test]
    fn an_injected_stall_is_counted_and_loses_no_solution() {
        use ace_runtime::{FaultKind, FaultPlan};
        let plan = FaultPlan::new(0).with(1, 2, FaultKind::Stall { cost: 300 });
        let plain = Fd::new(queens(7)).solve_all(&cfg(3, OptFlags::lao_only()));
        let mut c = cfg(3, OptFlags::lao_only());
        c.session.fault_plan = Some(plan);
        let r = Fd::new(queens(7)).solve_all(&c);
        assert!(r.outcome.aborted.is_none(), "{:?}", r.outcome.aborted);
        assert_eq!((r.stats.faults_injected, r.stats.fault_stalls), (1, 1));
        let sorted = |mut v: Vec<Vec<u32>>| {
            v.sort();
            v
        };
        assert_eq!(sorted(r.solutions), sorted(plain.solutions));
    }

    #[test]
    fn runs_fold_into_the_metrics_registry() {
        let registry = ace_runtime::MetricsRegistry::shared();
        let c = cfg(2, OptFlags::lao_only()).with_metrics(registry.clone());
        let r = Fd::new(queens(6)).solve_all(&c);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("ace_engine_virtual_time_total", &[("engine", "fd")]),
            Some(r.outcome.virtual_time)
        );
    }

    #[test]
    fn sim_deterministic() {
        let c = cfg(4, OptFlags::lao_only());
        let a = Fd::new(queens(6)).solve_all(&c);
        let b = Fd::new(queens(6)).solve_all(&c);
        assert_eq!(a.outcome.virtual_time, b.outcome.virtual_time);
        assert_eq!(a.solutions, b.solutions);
    }
}
