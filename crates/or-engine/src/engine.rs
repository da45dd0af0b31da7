//! Or-parallel engine entry point and worker agents.

use std::collections::VecDeque;
use std::sync::Arc;

use ace_logic::sym::{sym, wk};
use ace_logic::{Cell, Database};
use ace_machine::frames::{Alts, SharedChoice};
use ace_machine::machine::StateClosure;
use ace_machine::{Machine, MachinePool, Status};
use ace_runtime::ortree::{Lineage, OrTree, OwnerClaim, TreeWorker};
use ace_runtime::{
    Control, Engine, EngineConfig, EventKind, Label, LockClock, RunOutcome, Stats, Step, Trace,
    WorkerCore,
};
use parking_lot::Mutex;

/// Fine-grained run quantum: publication windows in chain-like searches
/// (the Figure-6 `member/2` pattern) are one resolution step wide, so
/// or-parallel distribution needs sub-[`ace_runtime::QUANTUM`] interleaving.
const RUN_QUANTUM: u64 = 32;

/// Result of an or-parallel query run. Solutions are rendered binding
/// lines (`"X=1, Y=2"`); their order across workers is nondeterministic
/// under the threads driver, deterministic (but schedule-dependent) under
/// the sim driver — compare as multisets.
#[derive(Debug)]
pub struct OrReport {
    pub solutions: Vec<String>,
    pub outcome: RunOutcome,
    pub stats: Stats,
    pub per_worker: Vec<Stats>,
    /// Maximum public-tree depth observed (Figure 6/7 shape metric).
    pub max_tree_depth: u32,
    /// Merged event trace (`Some` iff `cfg.observe.trace.enabled`).
    pub trace: Option<Trace>,
}

/// The or-engine's answer buffers (the tree is the shared
/// [`OrTree`], the run protocol's share the [`Control`] block).
struct OrShared {
    /// Solution accumulation, one buffer per topology domain (a single
    /// buffer when `topology.domain_answer_buffers` is off — the
    /// pre-topology engine-wide lock, kept as the ablation baseline).
    /// Workers append to their own domain's buffer; the buffers are
    /// concatenated in domain order once, at report time.
    answers: Vec<Mutex<Vec<String>>>,
    /// Virtual-time contention observation for each answer buffer.
    answer_clocks: Vec<LockClock>,
}

/// The machine's hook on a published choice point: its backtracking
/// claims through the tree's epoch-guarded owner claim.
struct NodeClaim(OwnerClaim<StateClosure>);

impl SharedChoice for NodeClaim {
    fn claim_next(&self) -> Option<usize> {
        self.0.claim_next()
    }

    fn owner_detached(&self) {
        self.0.detach();
    }

    fn node_id(&self) -> u64 {
        self.0.node.id
    }

    fn epoch(&self) -> u64 {
        self.0.epoch
    }
}

struct Running {
    machine: Box<Machine>,
    lineage: Lineage<StateClosure>,
}

struct OrWorker {
    tree: TreeWorker<StateClosure>,
    sh: Arc<OrShared>,
    current: Option<Running>,
    /// Reset machines kept for reuse across claims.
    machines: MachinePool,
    /// Rendered solutions awaiting one batched append to the shared list.
    pending_answers: Vec<String>,
    /// Index into `OrShared::answers` (0 when domain buffers are off).
    answer_slot: usize,
}

impl OrWorker {
    fn new(
        core: WorkerCore,
        tree: Arc<OrTree<StateClosure>>,
        sh: Arc<OrShared>,
        db: Arc<Database>,
    ) -> Self {
        let topo = &core.ctl.cfg.run.topology;
        let answer_slot = if topo.domain_answer_buffers {
            topo.domain_of(core.id, core.ctl.workers())
        } else {
            0
        };
        OrWorker {
            tree: TreeWorker::new(core, tree),
            sh,
            current: None,
            machines: MachinePool::new(db),
            pending_answers: Vec::new(),
            answer_slot,
        }
    }

    /// If idle workers exist, publish this machine's oldest private choice
    /// point into the or-tree (demand-driven, MUSE-style).
    fn maybe_publish(&mut self) {
        if !self.tree.may_publish() {
            return;
        }
        let Some(run) = self.current.as_mut() else {
            return;
        };
        let Some(&idx) = run.machine.private_choice_indices().first() else {
            return;
        };
        // Frames at or above an active tabled generator are machine-local
        // SLG state (consumer cursors, `TableAnswer` frames in their
        // continuations): never published. The subgoal's completed answer
        // set reaches other workers through the shared table space instead.
        if idx >= run.machine.table_publish_floor() {
            return;
        }
        // Only clause-selection choice points are publishable.
        let Some(cp) = run.machine.choice_at(idx) else {
            return;
        };
        let Alts::Clauses {
            pred,
            arg,
            key,
            next,
        } = cp.alts
        else {
            // Memo-replay (and other non-clause) alternatives never enter
            // the or-tree: a tabled answer set is already complete, so
            // there is nothing for a remote worker to claim.
            return;
        };
        // Short-circuit claims on calls whose answer set is known complete:
        // keep the choice point private — remote workers could only
        // re-derive answers a memo hit replays for free, and the owner
        // still enumerates the alternatives locally (no solution is lost).
        if run.machine.memo_enabled() {
            let key = run.machine.memo_key(cp.goal);
            let core = &mut self.tree.core;
            core.charge(core.costs.memo_lookup);
            if core.ctl.store.as_ref().is_some_and(|s| s.is_complete(&key)) {
                return;
            }
        }
        let pred = run.machine.db().pred(pred);
        let label = Label::Pred(pred.name, pred.arity);
        let mut alts = VecDeque::new();
        let mut i = next;
        while let Some(j) = pred.next_matching(arg, key, i) {
            alts.push_back(j);
            i = j + 1;
        }
        if alts.is_empty() {
            return;
        }
        let claim = self.tree.publish(&mut run.lineage, label, alts);
        run.machine.share_choice(idx, Arc::new(NodeClaim(claim)));
    }

    /// Claim an alternative from the public tree and install it on a
    /// machine.
    fn find_work(&mut self) -> Step {
        let Some(claimed) = self.tree.find_work() else {
            return Step::NoWork;
        };
        let Label::Pred(name, arity) = claimed.label else {
            unreachable!("or-engine nodes are labelled by predicate")
        };
        let core = &mut self.tree.core;
        let mut machine = self.machines.acquire(core);
        // Installing the state is one flat-priced arena thaw, charged by
        // `install_closure` itself.
        let ok = machine.install_closure(&claimed.closure, name, arity, claimed.alt);
        machine.surface(core);
        if !ok {
            // Head unification failed: the branch dies before any state is
            // set up, so charge the (cheap) abort price, not a full
            // `install_state` — dead branches must not inflate the
            // overhead tables.
            core.charge(core.costs.install_abort);
            core.note(EventKind::InstallAbort {
                node: claimed.node.id,
            });
            self.machines.retire(core, machine);
            self.tree.retire(Lineage::new(claimed.node));
            return Step::Worked; // did work (explored and killed a branch)
        }
        core.charge(core.costs.install_state);
        self.current = Some(Running {
            machine,
            lineage: Lineage::new(claimed.node),
        });
        Step::Worked
    }

    /// Owner checkpoint for procrastinated captures: a remote demand
    /// freezes the published choice point (`choice_closure` on the live
    /// stack).
    fn service_deferred(&mut self) {
        let Some(run) = self.current.as_mut() else {
            return;
        };
        let machine = &mut run.machine;
        self.tree.service_deferred(&mut run.lineage, |node, epoch| {
            let idx = machine.shared_choice_index(node, epoch)?;
            Some(machine.choice_closure(idx))
        });
    }

    fn drop_current(&mut self) {
        if let Some(run) = self.current.take() {
            self.machines.retire(&mut self.tree.core, run.machine);
            self.tree.retire(run.lineage);
        }
    }

    /// Move the current machine's rendered solutions into this worker's
    /// batch buffer (no locking; [`OrWorker::flush_answers`] publishes the
    /// whole batch under one `solutions` lock acquisition per phase).
    fn drain_answers(&mut self) {
        let Some(run) = self.current.as_mut() else {
            return;
        };
        if run.machine.answers.is_empty() {
            return;
        }
        let n = run.machine.answers.len();
        self.pending_answers.append(&mut run.machine.answers);
        for _ in 0..n {
            self.tree.core.note(EventKind::Solution);
        }
    }

    /// Publish every batched solution with a single lock acquisition.
    fn flush_answers(&mut self) {
        if self.pending_answers.is_empty() {
            return;
        }
        // Streamed delivery: each answer of the batch is handed to the
        // consumer's sink before publication.
        let core = &mut self.tree.core;
        core.ctl
            .deliver(&mut core.stats, self.pending_answers.iter());
        let n = self.pending_answers.len();
        // Domain-local accumulation: each domain appends into its own
        // buffer behind its own clock, so 512 workers serialize on at
        // most `domains` locks instead of one engine-wide bottleneck.
        // The virtual-time clock observes any residual contention that
        // does remain within the domain.
        let hold = core.costs.queue_op + n as u64;
        let wait = self.sh.answer_clocks[self.answer_slot].acquire(core.id, core.now(), hold);
        self.tree
            .note_contention("answer", u64::from(wait > 0), wait);
        self.sh.answers[self.answer_slot]
            .lock()
            .append(&mut self.pending_answers);
    }

    fn run_current(&mut self) {
        self.tree.core.note(EventKind::QuantumStart);
        let before = self.tree.core.phase_cost;
        let run = self.current.as_mut().expect("run_current without machine");
        // The program and the root token are borrowed: a quantum takes no
        // reference count.
        let cancel = &self.tree.core.ctl.cancel;
        let status = run
            .machine
            .run_on(self.machines.db(), RUN_QUANTUM, Some(cancel));
        let core = &mut self.tree.core;
        run.machine.surface(core);
        core.note(EventKind::QuantumEnd {
            cost: core.phase_cost - before,
        });
        // Publish *after* running: choice points created inside the
        // quantum (still alive at a Solution boundary) become public
        // before the owner backtracks into them. Only a machine that
        // survives the quantum publishes — a Failed/Cancelled machine is
        // dropped below, and publishing its choice points would enqueue
        // work that is immediately garbage. Service deferred captures
        // first: demand raised during the quantum is answered before new
        // (also deferred) publications join the watch list.
        if matches!(status, Status::Running | Status::Solution) {
            self.service_deferred();
            self.maybe_publish();
        }

        match status {
            Status::Running => {}
            Status::Solution => {
                self.drain_answers();
                self.flush_answers();
                let core = &mut self.tree.core;
                if !core.ctl.is_done() {
                    let run = self.current.as_mut().unwrap();
                    run.machine.backtrack();
                    run.machine.surface(core);
                }
            }
            Status::Failed => {
                self.drain_answers();
                self.drop_current();
            }
            Status::Cancelled => {
                self.drop_current();
            }
            Status::Halted => {
                self.tree.core.ctl.finish();
            }
            Status::Error(e) => {
                self.tree.core.ctl.fail_with(e);
            }
            Status::Parcall
            | Status::ParcallRedo
            | Status::InlineBarrier(_)
            | Status::FenceHit(..) => {
                self.tree.core.ctl.fail_with(
                    "the or-parallel engine does not execute `&` parallel \
                     conjunctions; use the and-parallel engine"
                        .into(),
                );
            }
        }
        self.flush_answers();
    }
}

impl Engine for OrWorker {
    fn core(&mut self) -> &mut WorkerCore {
        &mut self.tree.core
    }

    fn work(&mut self) -> Step {
        if self.current.is_some() {
            self.run_current();
            return Step::Worked;
        }
        // Idle path: look for work in the public tree.
        self.find_work()
    }

    fn drain(&mut self) {
        self.drop_current();
        self.flush_answers();
    }

    fn quiescent(&self) -> bool {
        self.tree.quiescent()
    }
}

/// The or-parallel engine: configure once, run queries.
pub struct OrEngine {
    db: Arc<Database>,
}

impl OrEngine {
    pub fn new(db: Arc<Database>) -> Self {
        OrEngine { db }
    }

    /// Run `query` under `cfg`, exploring alternatives or-parallel.
    pub fn run(&self, query: &str, cfg: &EngineConfig) -> Result<OrReport, String> {
        let ctl = Control::new(cfg);
        let tree = OrTree::new(&ctl);
        // Answer buffers: one per topology domain (or a single shared one
        // when domain buffering is disabled for ablation runs).
        let answer_slots = if cfg.run.topology.domain_answer_buffers {
            cfg.run.topology.domains.max(1)
        } else {
            1
        };
        let shared = Arc::new(OrShared {
            answers: (0..answer_slots).map(|_| Mutex::new(Vec::new())).collect(),
            answer_clocks: (0..answer_slots).map(|_| LockClock::new()).collect(),
        });
        let mut workers: Vec<OrWorker> = (0..ctl.workers())
            .map(|id| {
                let core = WorkerCore::new(id, &ctl);
                OrWorker::new(core, tree.clone(), shared.clone(), self.db.clone())
            })
            .collect();

        // Build the root machine with the `$answer`-wrapped query.
        let w0 = &mut workers[0];
        let mut root = w0.machines.acquire(&mut w0.tree.core);
        let (goal, mut vars) = ace_logic::parse_term(&mut root.heap, query)
            .map_err(|e| format!("query parse error: {e}"))?;
        // `$answer/1` writes the list as it stands: it is in line order.
        vars.sort_by(|a, b| ace_machine::binding_order(&a.0, &b.0));
        let pairs: Vec<Cell> = vars
            .iter()
            .map(|(n, c)| root.heap.new_struct(wk().unify, &[Cell::Atom(sym(n)), *c]))
            .collect();
        let var_list = root.heap.list(&pairs);
        let answer = root.heap.new_struct(sym("$answer"), &[var_list]);
        let wrapped = root.heap.new_struct(wk().comma, &[goal, answer]);
        root.set_query(wrapped);
        // The root computation, counted busy by the fresh tree.
        w0.current = Some(Running {
            machine: root,
            lineage: tree.root_lineage(),
        });

        let run = ctl.launch("or", workers);
        if let Some(e) = run.outcome.aborted {
            return Err(e);
        }
        // Concatenate the per-domain answer buffers in domain order. The
        // engine's answer order was never deterministic across workers
        // (callers sort), so domain-major order is as good as arrival
        // order was.
        let mut solutions = Vec::new();
        for buf in &shared.answers {
            solutions.append(&mut buf.lock());
        }
        if let Some(max) = cfg.max_solutions {
            solutions.truncate(max);
        }
        Ok(OrReport {
            solutions,
            outcome: run.outcome,
            stats: run.stats,
            per_worker: run.per_worker,
            max_tree_depth: tree.max_depth(),
            trace: run.trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_runtime::{DriverKind, MetricsRegistry, OptFlags};

    fn db(src: &str) -> Arc<Database> {
        Arc::new(Database::load(src).unwrap())
    }

    fn cfg(workers: usize, opts: OptFlags) -> EngineConfig {
        EngineConfig::default()
            .with_workers(workers)
            .with_opts(opts)
            .all_solutions()
    }

    fn sorted(mut v: Vec<String>) -> Vec<String> {
        v.sort();
        v
    }

    const MEMBER: &str = r#"
        member(X, [X|_]).
        member(X, [_|T]) :- member(X, T).
        compute(V, R) :- R is V * V.
    "#;

    #[test]
    fn sequential_equivalence_one_worker() {
        let e = OrEngine::new(db(MEMBER));
        let r = e
            .run(
                "member(V, [1,2,3,4]), compute(V, R)",
                &cfg(1, OptFlags::none()),
            )
            .unwrap();
        assert_eq!(
            r.solutions,
            vec!["R=1, V=1", "R=4, V=2", "R=9, V=3", "R=16, V=4"]
        );
    }

    #[test]
    fn parallel_workers_find_all_solutions() {
        for workers in [2, 4, 8] {
            let e = OrEngine::new(db(MEMBER));
            let r = e
                .run(
                    "member(V, [1,2,3,4,5,6,7,8]), compute(V, R)",
                    &cfg(workers, OptFlags::none()),
                )
                .unwrap();
            assert_eq!(r.solutions.len(), 8, "workers={workers}");
            assert!(r.stats.nodes_published > 0);
            assert!(r.stats.alternatives_claimed > 0);
        }
    }

    #[test]
    fn lao_keeps_tree_shallow() {
        let list = (1..=30)
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let q = format!("member(V, [{list}]), compute(V, R)");
        let e = OrEngine::new(db(MEMBER));

        let r0 = e.run(&q, &cfg(4, OptFlags::none())).unwrap();
        let r1 = e.run(&q, &cfg(4, OptFlags::lao_only())).unwrap();
        assert_eq!(sorted(r0.solutions.clone()), sorted(r1.solutions.clone()));
        assert_eq!(r0.solutions.len(), 30);
        assert!(r1.stats.cp_reused_lao > 0, "{:?}", r1.stats);
        // Figure 6 vs Figure 7: without LAO the public tree is a deep
        // member-chain; with LAO alternatives club into few shallow nodes.
        assert!(
            r1.max_tree_depth < r0.max_tree_depth,
            "lao depth {} !< unopt depth {}",
            r1.max_tree_depth,
            r0.max_tree_depth
        );
    }

    #[test]
    fn all_local_claims_never_pay_the_capture() {
        use ace_runtime::{FaultKind, FaultPlan};
        // Starve every worker's steal path: nodes get published (and
        // deferred), but no remote ever raises demand, so the owner must
        // drain everything by direct backtracking and every deferred
        // capture must be elided — zero publish-side cells copied.
        let mut plan = FaultPlan::new(0);
        for w in 0..4 {
            for _ in 0..512 {
                plan = plan.with(w, 0, FaultKind::StealFail);
            }
        }
        let e = OrEngine::new(db(MEMBER));
        let mut c = cfg(4, OptFlags::all());
        c.session.fault_plan = Some(plan);
        let r = e
            .run("member(V, [1,2,3,4,5,6,7,8]), compute(V, R)", &c)
            .unwrap();
        assert_eq!(r.solutions.len(), 8);
        assert!(r.stats.nodes_published > 0, "{:?}", r.stats);
        assert_eq!(r.stats.closures_materialized, 0, "{:?}", r.stats);
        assert_eq!(r.stats.cells_copied_publish, 0, "{:?}", r.stats);
        assert_eq!(r.stats.cells_copied_claim, 0, "{:?}", r.stats);
        assert_eq!(
            r.stats.closures_elided,
            r.stats.nodes_published + r.stats.cp_reused_lao,
            "every deferral (publish or LAO re-arm) must be elided: {:?}",
            r.stats
        );
    }

    #[test]
    fn multiple_solutions_per_branch() {
        let e = OrEngine::new(db(
            "p(1). p(2). p(3). q(a). q(b). pair(X, Y) :- p(X), q(Y).",
        ));
        let r = e.run("pair(X, Y)", &cfg(3, OptFlags::lao_only())).unwrap();
        assert_eq!(r.solutions.len(), 6);
    }

    #[test]
    fn first_solution_mode_stops_early() {
        let e = OrEngine::new(db(MEMBER));
        let mut c = cfg(4, OptFlags::none());
        c.max_solutions = Some(1);
        let r = e.run("member(V, [1,2,3,4]), compute(V, R)", &c).unwrap();
        assert_eq!(r.solutions.len(), 1);
    }

    #[test]
    fn failing_query_terminates() {
        let e = OrEngine::new(db(MEMBER));
        let r = e
            .run("member(V, [1,2,3]), V > 100", &cfg(4, OptFlags::lao_only()))
            .unwrap();
        assert!(r.solutions.is_empty());
    }

    #[test]
    fn deterministic_query_no_publication() {
        let e = OrEngine::new(db("f(1). g(X, Y) :- Y is X + 1."));
        let r = e.run("f(X), g(X, Y)", &cfg(4, OptFlags::none())).unwrap();
        assert_eq!(r.solutions, vec!["X=1, Y=2"]);
        assert_eq!(r.stats.nodes_published, 0);
    }

    #[test]
    fn threads_driver_multiset_equivalence() {
        let e = OrEngine::new(db(MEMBER));
        let mut c = cfg(3, OptFlags::lao_only());
        c.run.driver = DriverKind::Threads;
        let r = e.run("member(V, [1,2,3,4,5]), compute(V, R)", &c).unwrap();
        assert_eq!(
            sorted(r.solutions),
            vec!["R=1, V=1", "R=16, V=4", "R=25, V=5", "R=4, V=2", "R=9, V=3"]
        );
    }

    #[test]
    fn sim_deterministic() {
        let e = OrEngine::new(db(MEMBER));
        let c = cfg(4, OptFlags::lao_only());
        let q = "member(V, [1,2,3,4,5,6]), compute(V, R)";
        let a = e.run(q, &c).unwrap();
        let b = e.run(q, &c).unwrap();
        assert_eq!(a.outcome.virtual_time, b.outcome.virtual_time);
        assert_eq!(a.solutions, b.solutions);
    }

    #[test]
    fn pool_and_traversal_schedulers_agree() {
        let list = (1..=20)
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let q = format!("member(V, [{list}]), compute(V, R)");
        let e = OrEngine::new(db(MEMBER));
        for opts in [OptFlags::none(), OptFlags::lao_only()] {
            let mut c = cfg(4, opts);
            c.oracle.or_scheduler = ace_runtime::OrScheduler::Pool;
            let pool = e.run(&q, &c).unwrap();
            c.oracle.or_scheduler = ace_runtime::OrScheduler::Traversal;
            let trav = e.run(&q, &c).unwrap();
            assert_eq!(
                sorted(pool.solutions.clone()),
                sorted(trav.solutions.clone())
            );
            assert_eq!(pool.solutions.len(), 20);
            assert!(pool.stats.pool_pushes > 0, "{:?}", pool.stats);
            assert!(pool.stats.pool_pops > 0);
            assert_eq!(trav.stats.pool_pushes, 0, "oracle must not touch pool");
        }
    }

    #[test]
    fn pool_steal_cost_flat_as_chain_deepens() {
        // The regression the pool exists to prevent: with LAO off, the
        // public tree is a deep member-chain; under the traversal oracle
        // tree_visits per claim grows with depth, under the pool it stays
        // O(1).
        let e = OrEngine::new(db(MEMBER));
        let mut per_claim = Vec::new();
        for n in [10usize, 40] {
            let list = (1..=n).map(|i| i.to_string()).collect::<Vec<_>>().join(",");
            let q = format!("member(V, [{list}]), compute(V, R)");
            let r = e.run(&q, &cfg(4, OptFlags::none())).unwrap();
            assert_eq!(r.solutions.len(), n);
            assert!(r.stats.alternatives_claimed > 0);
            per_claim.push(r.stats.tree_visits as f64 / r.stats.alternatives_claimed as f64);
        }
        for &v in &per_claim {
            assert!(v <= 4.0, "steal cost not O(1): {per_claim:?}");
        }
    }

    #[test]
    fn machines_are_recycled_across_claims() {
        // Per-branch work must dwarf the owner's backtrack step, or the
        // owner drains every published alternative itself through local
        // shared claims and the idle workers (whose machines the pool
        // serves) never install anything.
        let prog = r#"
            member(X, [X|_]).
            member(X, [_|T]) :- member(X, T).
            work(0).
            work(N) :- N > 0, M is N - 1, work(M).
            burn(V, R) :- work(40), R is V * V.
        "#;
        let e = OrEngine::new(db(prog));
        let r = e
            .run(
                "member(V, [1,2,3,4,5,6,7,8,9,10]), burn(V, R)",
                &cfg(4, OptFlags::none()),
            )
            .unwrap();
        assert_eq!(r.solutions.len(), 10);
        assert!(
            r.stats.machines_recycled > 0,
            "expected recycled machines: {:?}",
            r.stats
        );
    }

    const MEMO_PROG: &str = r#"
        member(X, [X|_]).
        member(X, [_|T]) :- member(X, T).
        len([], z).
        len([_|T], s(N)) :- len(T, N).
        heavy(R) :- len([a,b,c,d,e,f,g,h], R).
    "#;

    #[test]
    fn memoization_reuses_answers_across_branches_and_runs() {
        use ace_runtime::{AnswerStore, StoreConfig};
        let e = OrEngine::new(db(MEMO_PROG));
        // Every or-branch repeats the same deterministic subcall.
        let q = "member(V, [1,2,3,4]), heavy(R)";
        let base = e.run(q, &cfg(4, OptFlags::none())).unwrap();
        assert_eq!(base.solutions.len(), 4);

        let table = Arc::new(AnswerStore::new(&StoreConfig::default()));
        let mut c = cfg(4, OptFlags::none());
        c.store.shared = Some(table.clone());
        c.store.memoize = true;
        let cold = e.run(q, &c).unwrap();
        assert_eq!(
            sorted(cold.solutions.clone()),
            sorted(base.solutions.clone())
        );
        assert!(cold.stats.memo_stores > 0, "{}", cold.stats.summary());
        // First branch stores; later branches (and their claims on other
        // workers) replay instead of re-deriving.
        assert!(cold.stats.memo_hits > 0, "{}", cold.stats.summary());

        let warm = e.run(q, &c).unwrap();
        assert_eq!(
            sorted(warm.solutions.clone()),
            sorted(base.solutions.clone())
        );
        assert_eq!(warm.stats.memo_stores, 0, "{}", warm.stats.summary());
        assert!(warm.stats.memo_hits > 0);
        assert!(warm.stats.calls < cold.stats.calls);
    }

    #[test]
    fn store_off_is_bit_identical() {
        // Sizing and a store handle switch nothing on.
        use ace_runtime::{AnswerStore, StoreConfig};
        let e = OrEngine::new(db(MEMBER));
        let q = "member(V, [1,2,3,4]), compute(V, R)";
        let plain = e.run(q, &cfg(4, OptFlags::lao_only())).unwrap();
        let mut c = cfg(4, OptFlags::lao_only());
        c.store.store_config = StoreConfig::default();
        c.store.shared = Some(Arc::new(AnswerStore::new(&StoreConfig::default())));
        let off = e.run(q, &c).unwrap();
        assert_eq!(off.outcome.virtual_time, plain.outcome.virtual_time);
        assert_eq!(off.stats, plain.stats);
        assert_eq!(off.stats.memo_hits + off.stats.memo_misses, 0);
        assert_eq!(off.stats.table_hits + off.stats.table_subgoals, 0);
    }

    const TABLED_PATH: &str = r#"
        :- table(path/2).
        path(X, Y) :- path(X, Z), edge(Z, Y).
        path(X, Y) :- edge(X, Y).
        edge(a, b).
        edge(b, c).
        edge(b, d).
        edge(c, a).
        start(a). start(b).
    "#;

    #[test]
    fn tabling_terminates_left_recursion_across_worker_counts() {
        use ace_runtime::{AnswerStore, StoreConfig};
        let e = OrEngine::new(db(TABLED_PATH));
        // Two or-parallel start nodes, each driving a tabled closure over
        // the cyclic graph (untabled this loops forever).
        let q = "start(S), path(S, X)";
        let expect: Vec<String> = ["a", "b"]
            .iter()
            .flat_map(|s| {
                ["a", "b", "c", "d"]
                    .iter()
                    .map(move |x| format!("S={s}, X={x}"))
            })
            .collect();
        for workers in [1, 2, 4] {
            let space = Arc::new(AnswerStore::new(&StoreConfig::default()));
            let mut c = cfg(workers, OptFlags::none());
            c.store.shared = Some(space.clone());
            c.store.tabling = true;
            let r = e.run(q, &c).unwrap();
            assert_eq!(sorted(r.solutions.clone()), expect, "workers={workers}");
            assert!(r.stats.table_subgoals >= 2, "{}", r.stats.summary());
            assert!(r.stats.table_completes >= 2, "{}", r.stats.summary());
            assert_eq!(space.complete_len(), 2, "workers={workers}");

            // Warm second run against the same space: pure lookups.
            let w = e.run(q, &c).unwrap();
            assert_eq!(sorted(w.solutions.clone()), expect);
            assert!(w.stats.table_hits >= 2, "{}", w.stats.summary());
            assert_eq!(w.stats.table_subgoals, 0, "{}", w.stats.summary());
        }
    }

    #[test]
    fn cut_confined_to_private_region() {
        let e = OrEngine::new(db(r#"
            d(X) :- X > 1, !.
            d(0).
            t(X, Y) :- member(X, [0, 2, 5]), d(X), Y is X * 10.
            member(X, [X|_]).
            member(X, [_|T]) :- member(X, T).
            "#));
        let r = e.run("t(X, Y)", &cfg(1, OptFlags::none())).unwrap();
        assert_eq!(r.solutions, vec!["X=0, Y=0", "X=2, Y=20", "X=5, Y=50"]);
    }

    /// The metrics contract: attaching a registry changes no virtual time
    /// and no stats — live counters observe the run without perturbing it.
    #[test]
    fn metrics_attach_is_bit_identical_and_counts_events() {
        let e = OrEngine::new(db(MEMBER));
        let q = "member(V, [1,2,3,4,5,6,7,8]), compute(V, R)";
        let plain = e.run(q, &cfg(4, OptFlags::all())).unwrap();
        let registry = MetricsRegistry::shared();
        let c = cfg(4, OptFlags::all()).with_metrics(registry.clone());
        let live = e.run(q, &c).unwrap();
        assert_eq!(live.outcome.virtual_time, plain.outcome.virtual_time);
        assert_eq!(live.stats, plain.stats);

        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("ace_engine_runs_total", &[("engine", "or")]),
            Some(1)
        );
        assert_eq!(
            snap.counter_value("ace_engine_virtual_time_total", &[("engine", "or")]),
            Some(live.outcome.virtual_time)
        );
        let published = snap.counter_total("ace_or_publishes_total");
        assert_eq!(
            published,
            live.stats.nodes_published + live.stats.cp_reused_lao
        );
        assert_eq!(
            snap.counter_total("ace_or_claims_total"),
            live.stats.steals_local_domain + live.stats.steals_cross_domain
        );
        // The pool gauge nets out when the run drains all advertised work.
        assert_eq!(snap.gauge_value("ace_or_pool_occupancy", &[]), Some(0));
    }
}
