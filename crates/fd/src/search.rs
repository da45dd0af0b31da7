//! Or-parallel labeling search with the Last Alternative Optimization.
//!
//! Workers run first-fail labeling with **private** choice points (plain
//! depth-first backtracking — the paper's *sequentialization* schema).
//! When idle workers exist, the oldest private choice point is
//! **published** into a shared tree by copying the domain state (MUSE-style
//! state copying; domains are flat bit vectors, so a snapshot is one
//! memcpy). Idle workers traverse the public tree to claim untried values,
//! paying per node visited — and **LAO** keeps that tree shallow by
//! reusing a drained node for the next choice point instead of deepening
//! the chain, exactly as in the Prolog or-engine (paper §3.2 / Figure 7;
//! its reference \[6\] = LAO for parallel CLP(FD)).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ace_runtime::{
    Control, Engine, EngineConfig, EventKind, Label, RunOutcome, Stats, Step, Trace, WorkerCore,
    QUANTUM,
};
use parking_lot::Mutex;

use crate::domain::BitDomain;
use crate::problem::Problem;
use crate::propagate::{propagate, Outcome as Prop};

static NODE_IDS: AtomicU64 = AtomicU64::new(1);

/// Claimable content of a public node (replaced wholesale by LAO reuse).
struct Payload {
    epoch: u64,
    var: usize,
    values: VecDeque<u32>,
    /// Domain state at the choice point.
    state: Arc<Vec<BitDomain>>,
}

/// One public choice point of the labeling tree.
pub struct FdNode {
    pub id: u64,
    pub depth: u32,
    payload: Mutex<Option<Payload>>,
    children: Mutex<Vec<Arc<FdNode>>>,
    total_alts: Arc<AtomicUsize>,
}

impl FdNode {
    fn root(total: Arc<AtomicUsize>) -> Arc<FdNode> {
        Arc::new(FdNode {
            id: 0,
            depth: 0,
            payload: Mutex::new(None),
            children: Mutex::new(Vec::new()),
            total_alts: total,
        })
    }

    fn publish(
        parent: &Arc<FdNode>,
        var: usize,
        values: VecDeque<u32>,
        state: Arc<Vec<BitDomain>>,
        total: Arc<AtomicUsize>,
    ) -> Arc<FdNode> {
        total.fetch_add(values.len(), Ordering::AcqRel);
        let node = Arc::new(FdNode {
            id: NODE_IDS.fetch_add(1, Ordering::Relaxed),
            depth: parent.depth + 1,
            payload: Mutex::new(Some(Payload {
                epoch: 0,
                var,
                values,
                state,
            })),
            children: Mutex::new(Vec::new()),
            total_alts: total,
        });
        parent.children.lock().push(node.clone());
        node
    }

    /// LAO: atomically install a new choice point into this (drained)
    /// node; `None` if it still has unclaimed values.
    fn try_reuse(
        &self,
        var: usize,
        values: VecDeque<u32>,
        state: Arc<Vec<BitDomain>>,
    ) -> Option<u64> {
        let mut p = self.payload.lock();
        if p.as_ref().is_some_and(|p| !p.values.is_empty()) {
            return None;
        }
        let epoch = p.as_ref().map_or(0, |p| p.epoch) + 1;
        self.total_alts.fetch_add(values.len(), Ordering::AcqRel);
        *p = Some(Payload {
            epoch,
            var,
            values,
            state,
        });
        Some(epoch)
    }

    fn claim(&self) -> Option<(usize, u32, u64, Arc<Vec<BitDomain>>)> {
        let mut p = self.payload.lock();
        let payload = p.as_mut()?;
        let v = payload.values.pop_front()?;
        self.total_alts.fetch_sub(1, Ordering::AcqRel);
        Some((payload.var, v, payload.epoch, payload.state.clone()))
    }

    fn claim_epoch(&self, epoch: u64) -> Option<u32> {
        let mut p = self.payload.lock();
        let payload = p.as_mut()?;
        if payload.epoch != epoch {
            return None;
        }
        let v = payload.values.pop_front()?;
        self.total_alts.fetch_sub(1, Ordering::AcqRel);
        Some(v)
    }
}

/// A private (unpublished or owner-held) choice point.
enum LocalCp {
    Private {
        state: Vec<BitDomain>,
        var: usize,
        values: VecDeque<u32>,
    },
    /// Published: remaining values live in the shared node.
    Shared {
        state: Vec<BitDomain>,
        var: usize,
        node: Arc<FdNode>,
        epoch: u64,
    },
}

/// The fd-engine's share of a run's state (the run protocol's share is
/// the [`Control`] block).
struct SharedState {
    problem: Problem,
    root: Arc<FdNode>,
    total_alts: Arc<AtomicUsize>,
    busy: AtomicUsize,
    solutions: Mutex<Vec<Vec<u32>>>,
    max_depth: AtomicUsize,
}

struct Run {
    domains: Vec<BitDomain>,
    stack: Vec<LocalCp>,
    origin: Arc<FdNode>,
    last_published: Option<Arc<FdNode>>,
}

struct FdWorker {
    core: WorkerCore,
    sh: Arc<SharedState>,
    current: Option<Run>,
}

impl FdWorker {
    /// Publish the oldest private choice point (demand-driven), applying
    /// LAO when the publish target is drained.
    fn maybe_publish(&mut self) {
        if !self.core.others_idle() {
            return;
        }
        let costs = self.core.costs.clone();
        let lao = self.core.ctl.cfg.opts.lao;
        let total_alts = self.sh.total_alts.clone();
        let (copy_cost, reused, depth, node_id, epoch, nalts, var) = {
            let Some(run) = self.current.as_mut() else {
                return;
            };
            let Some(pos) = run
                .stack
                .iter()
                .position(|cp| matches!(cp, LocalCp::Private { .. }))
            else {
                return;
            };
            let LocalCp::Private { state, var, values } = std::mem::replace(
                &mut run.stack[pos],
                LocalCp::Private {
                    state: Vec::new(),
                    var: 0,
                    values: VecDeque::new(),
                },
            ) else {
                unreachable!()
            };
            let snapshot = Arc::new(state.clone());
            let copy_cost = state.len() as u64 * costs.heap_cell;
            let nalts = values.len();
            let candidate = run
                .last_published
                .clone()
                .or_else(|| (run.origin.id != 0).then(|| run.origin.clone()));
            let mut reuse_hit = None;
            if lao {
                if let Some(n) = &candidate {
                    if let Some(e) = n.try_reuse(var, values.clone(), snapshot.clone()) {
                        reuse_hit = Some((n.clone(), e));
                    }
                }
            }
            let (node, epoch, reused, depth) = match reuse_hit {
                Some((n, e)) => (n, e, true, 0),
                None => {
                    let parent = run
                        .last_published
                        .clone()
                        .unwrap_or_else(|| run.origin.clone());
                    let n = FdNode::publish(&parent, var, values.clone(), snapshot, total_alts);
                    let d = n.depth;
                    (n, 0, false, d)
                }
            };
            run.stack[pos] = LocalCp::Shared {
                state,
                var,
                node: node.clone(),
                epoch,
            };
            let node_id = node.id;
            run.last_published = Some(node);
            (copy_cost, reused, depth, node_id, epoch, nalts, var)
        };
        if lao {
            self.core.charge(costs.lao_check);
        }
        // FD splits have no predicate; label frames by the branched
        // variable instead.
        let pred = Label::FdVar(var as u32);
        if reused {
            self.core.charge(costs.lao_reuse + copy_cost);
            self.core.note(EventKind::LaoReuse {
                node: node_id,
                epoch,
                alts: nalts,
                pred,
            });
        } else {
            self.sh
                .max_depth
                .fetch_max(depth as usize, Ordering::AcqRel);
            self.core.charge(costs.publish_node + copy_cost);
            self.core.note(EventKind::Publish {
                node: node_id,
                epoch,
                alts: nalts,
                pred,
            });
        }
    }

    /// One bounded amount of labeling work.
    fn run_current(&mut self) {
        self.maybe_publish();
        let costs = self.core.costs.clone();
        let start = self.core.phase_cost;
        while self.core.phase_cost - start < QUANTUM {
            let Some(run) = self.current.as_mut() else {
                break;
            };
            // fully labeled?
            if run.domains.iter().all(|d| d.size() == 1) {
                let sol: Vec<u32> = run.domains.iter().map(|d| d.value().unwrap()).collect();
                let over = self.core.ctl.deliver(
                    &mut self.core.stats,
                    std::iter::once_with(|| format!("{sol:?}")),
                );
                self.sh.solutions.lock().push(sol);
                self.core.stats.solutions += 1;
                self.core.note(EventKind::Solution);
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
            let mut values: VecDeque<u32> = run.domains[var].iter().collect();
            let first = values.pop_front().expect("domain non-empty");
            let snapshot_cells = run.domains.len() as u64;
            run.stack.push(LocalCp::Private {
                state: run.domains.clone(),
                var,
                values,
            });
            self.core.stats.choice_points += 1;
            self.core
                .charge(costs.choice_point_alloc + snapshot_cells * costs.heap_cell);
            self.assign_and_propagate(var, first);
        }
    }

    fn assign_and_propagate(&mut self, var: usize, value: u32) {
        let costs = self.core.costs.clone();
        let outcome = {
            let run = self.current.as_mut().expect("assign without run");
            run.domains[var] = BitDomain::singleton(value);
            propagate(&self.sh.problem, &mut run.domains, Some(var))
        };
        self.core.stats.calls += 1;
        self.core.charge(costs.call_dispatch);
        match outcome {
            Prop::Consistent { prunes } => {
                self.core.stats.unify_steps += prunes as u64;
                self.core
                    .charge(prunes as u64 * costs.unify_step + costs.builtin);
            }
            Prop::Failed => {
                self.core.charge(costs.builtin);
                self.backtrack();
            }
        }
    }

    /// Take the next alternative from the youngest choice point; `false`
    /// when the local computation is exhausted.
    fn backtrack(&mut self) -> bool {
        let costs = self.core.costs.clone();
        self.core.stats.backtracks += 1;
        loop {
            let Some(run) = self.current.as_mut() else {
                return false;
            };
            let Some(top) = run.stack.last_mut() else {
                // exhausted: drop the run
                self.finish_run();
                return false;
            };
            self.core.charge(costs.choice_point_retry);
            match top {
                LocalCp::Private { state, var, values } => {
                    if let Some(v) = values.pop_front() {
                        let (var, state) = (*var, state.clone());
                        run.domains = state;
                        self.assign_and_propagate(var, v);
                        return true;
                    }
                    run.stack.pop();
                }
                LocalCp::Shared {
                    state,
                    var,
                    node,
                    epoch,
                } => {
                    self.core.stats.alternatives_claimed += 1;
                    self.core.charge(costs.claim_alternative);
                    match node.claim_epoch(*epoch) {
                        Some(v) => {
                            let (var, state) = (*var, state.clone());
                            let (node_id, ep) = (node.id, *epoch);
                            run.domains = state;
                            self.core.note(EventKind::Claim {
                                node: node_id,
                                epoch: ep,
                                alt: v as usize,
                            });
                            self.assign_and_propagate(var, v);
                            return true;
                        }
                        None => {
                            run.stack.pop();
                        }
                    }
                }
            }
        }
    }

    fn finish_run(&mut self) {
        if self.current.take().is_some() {
            self.sh.busy.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Hunt the public tree for an untried value.
    fn find_work(&mut self) -> Step {
        let costs = self.core.costs.clone();
        self.sh.busy.fetch_add(1, Ordering::AcqRel);
        self.core.note(EventKind::StealAttempt);
        let mut stack = vec![self.sh.root.clone()];
        while let Some(node) = stack.pop() {
            self.core.stats.tree_visits += 1;
            self.core.charge(costs.tree_visit);
            if let Some((var, value, epoch, state)) = node.claim() {
                self.core.stats.alternatives_claimed += 1;
                self.core.charge(
                    costs.claim_alternative
                        + costs.install_state
                        + state.len() as u64 * costs.heap_cell,
                );
                self.core.note(EventKind::Claim {
                    node: node.id,
                    epoch,
                    alt: value as usize,
                });
                self.core.note(EventKind::StealSuccess);
                self.current = Some(Run {
                    domains: (*state).clone(),
                    stack: Vec::new(),
                    origin: node,
                    last_published: None,
                });
                self.assign_and_propagate(var, value);
                return Step::Worked;
            }
            stack.extend(node.children.lock().iter().cloned());
        }
        self.sh.busy.fetch_sub(1, Ordering::AcqRel);
        self.core.note(EventKind::StealFail);
        Step::NoWork
    }
}

impl Engine for FdWorker {
    fn core(&mut self) -> &mut WorkerCore {
        &mut self.core
    }

    fn work(&mut self) -> Step {
        if self.current.is_some() {
            self.run_current();
            return Step::Worked;
        }
        self.find_work()
    }

    /// Nothing to claim anywhere and nobody labeling: the search is over.
    fn quiescent(&self) -> bool {
        self.sh.busy.load(Ordering::Acquire) == 0 && self.sh.total_alts.load(Ordering::Acquire) == 0
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
        let total = Arc::new(AtomicUsize::new(0));
        let sh = Arc::new(SharedState {
            problem: self.problem.clone(),
            root: FdNode::root(total.clone()),
            total_alts: total,
            busy: AtomicUsize::new(1),
            solutions: Mutex::new(Vec::new()),
            max_depth: AtomicUsize::new(0),
        });
        let mut workers: Vec<FdWorker> = (0..ctl.workers())
            .map(|id| FdWorker {
                core: WorkerCore::new(id, &ctl),
                sh: sh.clone(),
                current: None,
            })
            .collect();

        // Root run: propagate the initial constraints, then label.
        let mut domains = self.problem.domains.clone();
        let root_ok = !matches!(propagate(&self.problem, &mut domains, None), Prop::Failed);
        if root_ok {
            workers[0].current = Some(Run {
                domains,
                stack: Vec::new(),
                origin: sh.root.clone(),
                last_published: None,
            });
        } else {
            sh.busy.store(0, Ordering::Release);
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
            max_tree_depth: sh.max_depth.load(Ordering::Acquire) as u32,
            trace: run.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::queens;
    use ace_runtime::{DriverKind, OptFlags};

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

    #[test]
    fn lao_keeps_fd_tree_shallow() {
        let unopt = Fd::new(queens(8)).solve_all(&cfg(6, OptFlags::none()));
        let opt = Fd::new(queens(8)).solve_all(&cfg(6, OptFlags::lao_only()));
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
        c.driver = DriverKind::Threads;
        let r = Fd::new(queens(6)).solve_all(&c);
        assert_eq!(r.solutions.len(), 4);
    }

    #[test]
    fn pre_cancelled_parent_token_ends_the_run_as_a_fault() {
        use ace_runtime::{fault::FAULT_ERROR_PREFIX, CancelToken};
        for driver in [DriverKind::Sim, DriverKind::Threads] {
            let session = CancelToken::new();
            session.cancel();
            let c = cfg(3, OptFlags::lao_only())
                .with_driver(driver)
                .with_cancel(session);
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
        let r = Fd::new(queens(7)).solve_all(&cfg(3, OptFlags::lao_only()).with_fault_plan(plan));
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
