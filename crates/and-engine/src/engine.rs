//! And-parallel engine entry point.

use std::sync::Arc;

use ace_logic::Database;
use ace_machine::Solution;
use ace_runtime::{Control, EngineConfig, RunOutcome, Stats, Trace, WorkerCore};

use crate::worker::{AndWorker, Shared};

/// Result of one and-parallel query run.
#[derive(Debug)]
pub struct AndReport {
    pub solutions: Vec<Solution>,
    /// Driver outcome: virtual time (the number every reproduced table
    /// reports), per-worker clocks, wall time.
    pub outcome: RunOutcome,
    /// Aggregated worker statistics.
    pub stats: Stats,
    pub per_worker: Vec<Stats>,
    /// Merged event trace (present only when tracing was enabled).
    pub trace: Option<Trace>,
}

/// The and-parallel engine: configure once, run queries.
pub struct AndEngine {
    db: Arc<Database>,
}

impl AndEngine {
    pub fn new(db: Arc<Database>) -> Self {
        AndEngine { db }
    }

    /// Run `query` under `cfg` and collect solutions plus metrics.
    pub fn run(&self, query: &str, cfg: &EngineConfig) -> Result<AndReport, String> {
        let ctl = Control::new(cfg);
        let shared = Arc::new(Shared::default());
        let mut workers: Vec<AndWorker> = (0..ctl.workers())
            .map(|id| AndWorker::new(WorkerCore::new(id, &ctl), shared.clone(), self.db.clone()))
            .collect();
        workers[0]
            .install_root(query)
            .map_err(|e| format!("query parse error: {e}"))?;

        let run = ctl.launch("and", workers);
        if let Some(e) = run.outcome.aborted {
            return Err(e);
        }
        let solutions = std::mem::take(&mut *shared.solutions.lock());
        Ok(AndReport {
            solutions,
            outcome: run.outcome,
            stats: run.stats,
            per_worker: run.per_worker,
            trace: run.trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_runtime::{DriverKind, OptFlags};

    fn db(src: &str) -> Arc<Database> {
        Arc::new(Database::load(src).unwrap())
    }

    fn cfg(workers: usize, opts: OptFlags) -> EngineConfig {
        EngineConfig::default()
            .with_workers(workers)
            .with_opts(opts)
            .all_solutions()
    }

    fn renders(r: &AndReport) -> Vec<String> {
        r.solutions.iter().map(|s| s.render()).collect()
    }

    const BASE: &str = r#"
        p(1). p(2).
        q(10). q(20).
        double(X, Y) :- Y is X * 2.
        add(X, Y, Z) :- Z is X + Y.
    "#;

    #[test]
    fn deterministic_parcall_single_worker() {
        let e = AndEngine::new(db(BASE));
        let r = e
            .run("double(3, A) & double(4, B)", &cfg(1, OptFlags::none()))
            .unwrap();
        assert_eq!(renders(&r), vec!["A=6, B=8"]);
        assert_eq!(r.stats.parcall_frames, 1);
        assert_eq!(r.stats.parcall_slots, 2);
    }

    #[test]
    fn deterministic_parcall_many_workers() {
        for workers in [2, 4, 10] {
            let e = AndEngine::new(db(BASE));
            let r = e
                .run(
                    "double(3, A) & double(4, B) & double(5, C)",
                    &cfg(workers, OptFlags::none()),
                )
                .unwrap();
            assert_eq!(renders(&r), vec!["A=6, B=8, C=10"], "workers={workers}");
        }
    }

    #[test]
    fn cross_product_enumeration_matches_sequential_order() {
        let e = AndEngine::new(db(BASE));
        let r = e.run("p(X) & q(Y)", &cfg(2, OptFlags::none())).unwrap();
        assert_eq!(
            renders(&r),
            vec!["X=1, Y=10", "X=1, Y=20", "X=2, Y=10", "X=2, Y=20"]
        );
    }

    #[test]
    fn inside_failure_fails_parcall() {
        let e = AndEngine::new(db(BASE));
        let r = e.run("p(X) & fail", &cfg(2, OptFlags::none())).unwrap();
        assert!(r.solutions.is_empty());
    }

    #[test]
    fn failure_after_parcall_backtracks_into_it() {
        let e = AndEngine::new(db(BASE));
        let r = e
            .run(
                "(p(X) & q(Y)), X =:= 2, Y =:= 20",
                &cfg(2, OptFlags::none()),
            )
            .unwrap();
        assert_eq!(renders(&r), vec!["X=2, Y=20"]);
    }

    #[test]
    fn markers_allocated_without_spo_elided_with() {
        let e = AndEngine::new(db(BASE));
        let r0 = e
            .run("double(1, A) & double(2, B)", &cfg(2, OptFlags::none()))
            .unwrap();
        assert!(r0.stats.markers_allocated > 0, "{:?}", r0.stats);
        let r1 = e
            .run("double(1, A) & double(2, B)", &cfg(2, OptFlags::spo_only()))
            .unwrap();
        assert_eq!(r1.stats.markers_allocated, 0);
        // only the shipped slot carries markers (the inline branch never
        // does — paper Figure 2), so one slot => two elisions
        assert!(r1.stats.markers_elided_spo >= 2);
    }

    #[test]
    fn spo_still_allocates_markers_for_nondet_slots() {
        let e = AndEngine::new(db(BASE));
        let r = e.run("p(X) & q(Y)", &cfg(2, OptFlags::spo_only())).unwrap();
        // both slots are nondeterministic: markers materialize
        assert!(r.stats.markers_allocated > 0);
        assert_eq!(
            renders(&r),
            vec!["X=1, Y=10", "X=1, Y=20", "X=2, Y=10", "X=2, Y=20"]
        );
    }

    #[test]
    fn pdo_merges_adjacent_slots_on_one_worker() {
        let e = AndEngine::new(db(BASE));
        let r = e
            .run(
                "double(1, A) & double(2, B) & double(3, C) & double(4, D)",
                &cfg(1, OptFlags::pdo_only()),
            )
            .unwrap();
        assert_eq!(renders(&r), vec!["A=2, B=4, C=6, D=8"]);
        assert!(r.stats.pdo_merges > 0, "{:?}", r.stats);
    }

    const PROCESS_LIST: &str = r#"
        process(X, Y) :- Y is X * 10.
        process_list([], []).
        process_list([H|T], [HO|TO]) :- process(H, HO) & process_list(T, TO).
    "#;

    #[test]
    fn lpco_flattens_recursive_parcalls() {
        let e = AndEngine::new(db(PROCESS_LIST));
        let q = "process_list([1,2,3,4], Out)";
        let r0 = e.run(q, &cfg(2, OptFlags::none())).unwrap();
        assert_eq!(renders(&r0), vec!["Out=[10,20,30,40]"]);
        // unoptimized: one frame per recursion level
        assert_eq!(r0.stats.parcall_frames, 4);
        assert_eq!(r0.stats.frames_elided_lpco, 0);

        let r1 = e.run(q, &cfg(2, OptFlags::lpco_only())).unwrap();
        assert_eq!(renders(&r1), vec!["Out=[10,20,30,40]"]);
        // optimized: the nested frames merge into the first
        assert_eq!(r1.stats.parcall_frames, 1, "{:?}", r1.stats);
        assert_eq!(r1.stats.frames_elided_lpco, 3);
        assert_eq!(r1.stats.slots_merged_lpco, 6);
    }

    #[test]
    fn nested_parcall_without_lpco_runs_correctly() {
        let e = AndEngine::new(db(PROCESS_LIST));
        let r = e
            .run(
                "process_list([5,6], O) & process(7, P)",
                &cfg(3, OptFlags::none()),
            )
            .unwrap();
        assert_eq!(renders(&r), vec!["O=[50,60], P=70"]);
    }

    #[test]
    fn all_optimizations_together() {
        let e = AndEngine::new(db(PROCESS_LIST));
        for workers in [1, 2, 5] {
            let r = e
                .run(
                    "process_list([1,2,3,4,5,6], Out)",
                    &cfg(workers, OptFlags::all()),
                )
                .unwrap();
            assert_eq!(renders(&r), vec!["Out=[10,20,30,40,50,60]"]);
        }
    }

    #[test]
    fn redo_with_nondet_slots_and_pdo() {
        let e = AndEngine::new(db(BASE));
        let r = e.run("p(X) & q(Y)", &cfg(1, OptFlags::pdo_only())).unwrap();
        assert_eq!(
            renders(&r),
            vec!["X=1, Y=10", "X=1, Y=20", "X=2, Y=10", "X=2, Y=20"]
        );
    }

    #[test]
    fn threads_driver_equivalence() {
        let e = AndEngine::new(db(BASE));
        let mut c = cfg(3, OptFlags::all());
        c.driver = DriverKind::Threads;
        let r = e.run("p(X) & q(Y)", &c).unwrap();
        let mut got = renders(&r);
        got.sort();
        assert_eq!(
            got,
            vec!["X=1, Y=10", "X=1, Y=20", "X=2, Y=10", "X=2, Y=20"]
        );
    }

    #[test]
    fn sim_is_deterministic_across_runs() {
        let e = AndEngine::new(db(PROCESS_LIST));
        let c = cfg(4, OptFlags::all());
        let t1 = e.run("process_list([1,2,3,4,5], O)", &c).unwrap();
        let t2 = e.run("process_list([1,2,3,4,5], O)", &c).unwrap();
        assert_eq!(t1.outcome.virtual_time, t2.outcome.virtual_time);
        assert_eq!(t1.outcome.clocks, t2.outcome.clocks);
    }

    #[test]
    fn memoization_reuses_answers_across_runs() {
        use ace_runtime::{AnswerStore, StoreConfig};
        let e = AndEngine::new(db(r#"
            app([], L, L).
            app([H|T], L, [H|R]) :- app(T, L, R).
            nrev([], []).
            nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
            cell(R) :- nrev([1,2,3,4,5,6,7,8,9,10], R).
            pair(A, B) :- cell(A) & cell(B).
        "#));
        let q = "pair(A, B)";
        let base = e.run(q, &cfg(2, OptFlags::none())).unwrap();
        assert_eq!(base.solutions.len(), 1);

        let table = Arc::new(AnswerStore::new(&StoreConfig::default()));
        let c = cfg(2, OptFlags::none())
            .with_store(table.clone())
            .with_memoization();
        let cold = e.run(q, &c).unwrap();
        assert_eq!(renders(&cold), renders(&base));
        assert!(cold.stats.memo_stores > 0, "{}", cold.stats.summary());

        // Second run against the now-warm table: the `cell/1` subgoals hit
        // immediately and the whole nrev recursion is skipped.
        let warm = e.run(q, &c).unwrap();
        assert_eq!(renders(&warm), renders(&base));
        assert!(warm.stats.memo_hits > 0, "{}", warm.stats.summary());
        assert!(warm.stats.calls < cold.stats.calls);
        assert!(warm.outcome.virtual_time < cold.outcome.virtual_time);
        assert_eq!(table.counters().stores, cold.stats.memo_stores);
    }

    #[test]
    fn store_off_runs_are_bit_identical_to_the_seed_config() {
        // Sizing and a store handle switch nothing on.
        use ace_runtime::{AnswerStore, StoreConfig};
        let e = AndEngine::new(db(PROCESS_LIST));
        let q = "process_list([1,2,3], Out)";
        let plain = e.run(q, &cfg(2, OptFlags::all())).unwrap();
        let c = cfg(2, OptFlags::all())
            .with_store_config(StoreConfig::default())
            .with_store(Arc::new(AnswerStore::new(&StoreConfig::default())));
        let off = e.run(q, &c).unwrap();
        assert_eq!(off.outcome.virtual_time, plain.outcome.virtual_time);
        assert_eq!(off.stats, plain.stats);
        assert_eq!(off.stats.memo_hits + off.stats.memo_misses, 0);
        assert_eq!(off.stats.table_hits + off.stats.table_subgoals, 0);
    }

    #[test]
    fn tabled_slots_run_under_parallel_conjunction() {
        use ace_runtime::{AnswerStore, StoreConfig};
        let e = AndEngine::new(db(r#"
            :- table(path/2).
            path(X, Y) :- path(X, Z), edge(Z, Y).
            path(X, Y) :- edge(X, Y).
            edge(a, b).
            edge(b, c).
            edge(b, d).
            edge(c, a).
            pair(X, Y) :- path(a, X) & path(b, Y).
        "#));
        let q = "pair(X, Y)";
        for workers in [1, 2, 4] {
            let space = Arc::new(AnswerStore::new(&StoreConfig::default()));
            let c = cfg(workers, OptFlags::none())
                .with_store(space.clone())
                .with_tabling();
            let r = e.run(q, &c).unwrap();
            // Full cross product of the two closures (both are {a,b,c,d}).
            let mut got = renders(&r);
            got.sort();
            assert_eq!(got.len(), 16, "workers={workers}: {got:?}");
            got.dedup();
            assert_eq!(got.len(), 16, "duplicate answers, workers={workers}");
            assert!(r.stats.table_completes >= 2, "{}", r.stats.summary());
            assert_eq!(space.complete_len(), 2);
        }
    }

    #[test]
    fn parcall_inside_a_tabled_clause_degrades_soundly() {
        use ace_runtime::{AnswerStore, StoreConfig};
        // `&` in the body of a tabled clause must degrade to `,` (the
        // derivation's continuation is machine-local) and still produce
        // the right answers.
        let e = AndEngine::new(db(r#"
            :- table(both/2).
            both(X, Y) :- p(X) & q(Y).
            p(1). p(2).
            q(10).
        "#));
        let space = Arc::new(AnswerStore::new(&StoreConfig::default()));
        let c = cfg(2, OptFlags::none())
            .with_store(space.clone())
            .with_tabling();
        let r = e.run("both(X, Y)", &c).unwrap();
        let mut got = renders(&r);
        got.sort();
        assert_eq!(got, vec!["X=1, Y=10", "X=2, Y=10"]);
        assert_eq!(r.stats.table_completes, 1, "{}", r.stats.summary());
    }

    #[test]
    fn error_in_slot_surfaces() {
        let e = AndEngine::new(db(BASE));
        let err = e.run("double(1, A) & nosuch(B)", &cfg(2, OptFlags::none()));
        assert!(err.is_err());
    }

    #[test]
    fn sequential_goals_around_parcall() {
        let e = AndEngine::new(db(BASE));
        let r = e
            .run(
                "p(X), (double(X, A) & add(X, 100, B)), A < 100",
                &cfg(2, OptFlags::none()),
            )
            .unwrap();
        assert_eq!(renders(&r), vec!["A=2, B=101, X=1", "A=4, B=102, X=2"]);
    }

    /// Attaching a metrics registry must not perturb virtual time or
    /// stats, and the run must fold into the `and` engine family.
    #[test]
    fn metrics_attach_is_bit_identical() {
        let e = AndEngine::new(db(BASE));
        let q = "p(X), (double(X, A) & add(X, 100, B))";
        let plain = e.run(q, &cfg(2, OptFlags::all())).unwrap();
        let registry = ace_runtime::MetricsRegistry::shared();
        let c = cfg(2, OptFlags::all()).with_metrics(registry.clone());
        let live = e.run(q, &c).unwrap();
        assert_eq!(live.outcome.virtual_time, plain.outcome.virtual_time);
        assert_eq!(live.stats, plain.stats);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("ace_engine_runs_total", &[("engine", "and")]),
            Some(1)
        );
        assert_eq!(
            snap.counter_value("ace_engine_virtual_time_total", &[("engine", "and")]),
            Some(live.outcome.virtual_time)
        );
    }
}
