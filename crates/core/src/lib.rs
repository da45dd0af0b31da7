//! # ace-core — the ACE system facade
//!
//! One entry point over the whole reproduction: load a program, pick an
//! execution mode ([`Mode`]), a worker count and an optimization set
//! ([`ace_runtime::OptFlags`]), run a query, get a [`RunReport`] with the
//! solutions, the virtual execution time and the full statistics sheet.
//!
//! ```
//! use ace_core::{Ace, Mode};
//! use ace_runtime::{EngineConfig, OptFlags};
//!
//! let ace = Ace::load(r#"
//!     double(X, Y) :- Y is X * 2.
//!     pair(A, B) :- double(1, A) & double(2, B).
//! "#).unwrap();
//!
//! let cfg = EngineConfig::default()
//!     .with_workers(4)
//!     .with_opts(OptFlags::all())
//!     .all_solutions();
//! let report = ace.run(Mode::AndParallel, "pair(A, B)", &cfg).unwrap();
//! assert_eq!(report.solutions, vec!["A=2, B=4"]);
//! ```

pub mod error;
pub mod report;
pub mod schema;

use std::sync::Arc;

use ace_and::AndEngine;
use ace_logic::Database;
use ace_machine::{Solution, Solver};
use ace_or::OrEngine;
use ace_runtime::{Control, CostModel, EngineConfig, EventKind, Stats, Trace, TraceEvent};

pub use error::AceError;
pub use report::RunReport;
pub use schema::{Optimization, Schema};

/// Which engine executes the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Pure sequential baseline (the "SICStus" stand-in): `&` behaves as
    /// `,`, no parallel machinery at all.
    Sequential,
    /// Independent and-parallel execution (&ACE model): honours `&`,
    /// LPCO/SPO/PDO apply.
    AndParallel,
    /// Or-parallel execution (MUSE model): alternatives explored in
    /// parallel, LAO applies. Programs must not contain `&`.
    OrParallel,
}

/// The loaded system: a program database plus both engines.
///
/// Cloning is cheap (the database is shared behind an `Arc`), so a server
/// can hand one handle to every session worker.
#[derive(Clone)]
pub struct Ace {
    db: Arc<Database>,
}

impl Ace {
    /// Parse and load `program`.
    pub fn load(program: &str) -> Result<Ace, String> {
        let db = Database::load(program).map_err(|e| e.to_string())?;
        Ok(Ace { db: Arc::new(db) })
    }

    /// Load from an already-built database.
    pub fn from_db(db: Arc<Database>) -> Ace {
        Ace { db }
    }

    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// Run `query` under `mode` and `cfg` (legacy string-error API).
    ///
    /// Thin wrapper over [`Ace::run_query`]: the same [`AceError`]
    /// classification and graceful degradation, with the typed error
    /// flattened back to its message string. Kept for callers that predate
    /// the structured API; new code should use [`Ace::run_query`]
    /// (degrading) or [`Ace::run_strict`] (every failure surfaces).
    pub fn run(&self, mode: Mode, query: &str, cfg: &EngineConfig) -> Result<RunReport, String> {
        self.run_query(mode, query, cfg).map_err(|e| e.to_string())
    }

    /// Run `query` strictly: every failure surfaces as a classified
    /// [`AceError`], including recoverable infrastructure failures that
    /// [`Ace::run_query`] would absorb via sequential fallback. The
    /// serving layer builds on this entry point so it stays in control of
    /// its own degraded replays (and of what has already been streamed).
    pub fn run_strict(
        &self,
        mode: Mode,
        query: &str,
        cfg: &EngineConfig,
    ) -> Result<RunReport, AceError> {
        self.run_once(mode, query, cfg)
    }

    /// Run `query` under `mode` and `cfg` with structured errors and
    /// graceful degradation: if a *parallel* run is killed by something
    /// that is not the program's fault — a worker panic, an injected
    /// fault, a driver abort — the query is replayed on the sequential
    /// engine and the recovery is recorded on the report. Program and
    /// parse errors always surface.
    pub fn run_query(
        &self,
        mode: Mode,
        query: &str,
        cfg: &EngineConfig,
    ) -> Result<RunReport, AceError> {
        match self.run_once(mode, query, cfg) {
            Ok(r) => Ok(r),
            Err(e) if e.is_recoverable() && mode != Mode::Sequential => {
                let mut r = self.run_once(Mode::Sequential, query, cfg)?;
                let reason =
                    format!("parallel run failed ({e}); recovered via sequential fallback");
                if cfg.trace.enabled {
                    // The parallel run's buffers died with it; record the
                    // degradation itself so traced runs are never silent
                    // about the fallback.
                    r.trace = Some(Trace::merge(
                        Vec::new(),
                        vec![TraceEvent {
                            t: r.virtual_time,
                            worker: 0,
                            kind: EventKind::Degraded {
                                reason: reason.clone(),
                            },
                        }],
                    ));
                }
                r.recovery.push(reason);
                Ok(r)
            }
            Err(e) => Err(e),
        }
    }

    fn run_once(&self, mode: Mode, query: &str, cfg: &EngineConfig) -> Result<RunReport, AceError> {
        let mut report = match mode {
            Mode::Sequential => self.run_sequential(query, cfg)?,
            Mode::AndParallel => {
                let engine = AndEngine::new(self.db.clone());
                let r = engine.run(query, cfg).map_err(AceError::classify)?;
                RunReport {
                    solutions: r.solutions.into_iter().map(Solution::into_line).collect(),
                    virtual_time: r.outcome.virtual_time,
                    wall: r.outcome.wall,
                    clocks: r.outcome.clocks,
                    stats: r.stats,
                    per_worker: r.per_worker,
                    tree_depth: None,
                    recovery: Vec::new(),
                    trace: r.trace,
                }
            }
            Mode::OrParallel => {
                let engine = OrEngine::new(self.db.clone());
                let r = engine.run(query, cfg).map_err(AceError::classify)?;
                RunReport {
                    solutions: r.solutions,
                    virtual_time: r.outcome.virtual_time,
                    wall: r.outcome.wall,
                    clocks: r.outcome.clocks,
                    stats: r.stats,
                    per_worker: r.per_worker,
                    tree_depth: Some(r.max_tree_depth),
                    recovery: Vec::new(),
                    trace: r.trace,
                }
            }
        };
        if report.stats.faults_injected > 0 {
            report.recovery.push(format!(
                "absorbed {} injected fault(s) ({} steal retries, {} publish \
                 retries, {} stalls) without losing answers",
                report.stats.faults_injected,
                report.stats.steal_retries,
                report.stats.publish_retries,
                report.stats.fault_stalls,
            ));
        }
        Ok(report)
    }

    fn run_sequential(&self, query: &str, cfg: &EngineConfig) -> Result<RunReport, AceError> {
        let start = std::time::Instant::now();
        let ctl = Control::new(cfg);
        let mut solver = Solver::new(self.db.clone(), ctl.costs.clone(), query)
            .map_err(|e| AceError::classify(e.to_string()))?;
        // The sequential path shares the same answer store as the parallel
        // engines (a warm store from a parallel run keeps paying off here).
        // No tracer exists in this mode, so event buffering stays off.
        solver
            .machine_mut()
            .set_store(ctl.store.clone(), cfg, false);
        solver.machine_mut().set_clause_exec(cfg.clause_exec);
        if cfg.cancel.is_some() {
            solver.set_cancel(ctl.cancel.clone());
        }
        // Stream each answer through the sink as it is found — the same
        // delivery step as the parallel engines' publication points —
        // honouring an early `Stop` exactly like a `max_solutions` bound.
        let mut solutions: Vec<String> = Vec::new();
        let mut delivery = Stats::new();
        while cfg.max_solutions.is_none_or(|max| solutions.len() < max) {
            let line = match solver
                .next_line()
                .map_err(|e| AceError::classify(e.to_string()))?
            {
                Some(line) => line,
                None => break,
            };
            let over = ctl.deliver(&mut delivery, std::iter::once(&line));
            solutions.push(line);
            if over {
                break;
            }
        }
        let mut stats = solver.machine().stats;
        stats += delivery;
        if let Some(metrics) = &cfg.metrics {
            metrics.record_run("sequential", cfg.tenant, &stats, stats.total_cost());
        }
        Ok(RunReport {
            solutions,
            virtual_time: stats.total_cost(),
            wall: start.elapsed(),
            clocks: vec![stats.total_cost()],
            stats,
            per_worker: vec![stats],
            tree_depth: None,
            recovery: Vec::new(),
            trace: None,
        })
    }

    /// Convenience: the sequential solution list (oracle for tests).
    pub fn sequential_solutions(&self, query: &str) -> Result<Vec<String>, String> {
        let cfg = EngineConfig {
            max_solutions: None,
            costs: CostModel::default(),
            ..EngineConfig::default()
        };
        Ok(self.run(Mode::Sequential, query, &cfg)?.solutions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_runtime::OptFlags;

    const PROG: &str = r#"
        double(X, Y) :- Y is X * 2.
        p(1). p(2). p(3).
        pl([], []).
        pl([H|T], [H2|T2]) :- double(H, H2) & pl(T, T2).
        member(X, [X|_]).
        member(X, [_|T]) :- member(X, T).
    "#;

    fn cfg(workers: usize, opts: OptFlags) -> EngineConfig {
        EngineConfig::default()
            .with_workers(workers)
            .with_opts(opts)
            .all_solutions()
    }

    #[test]
    fn three_modes_agree_on_solutions() {
        let ace = Ace::load(PROG).unwrap();
        let seq = ace.sequential_solutions("p(X), double(X, Y)").unwrap();
        let and = ace
            .run(
                Mode::AndParallel,
                "p(X), double(X, Y)",
                &cfg(2, OptFlags::all()),
            )
            .unwrap();
        let or = ace
            .run(
                Mode::OrParallel,
                "p(X), double(X, Y)",
                &cfg(2, OptFlags::all()),
            )
            .unwrap();
        let mut or_sols = or.solutions.clone();
        or_sols.sort();
        let mut seq_sorted = seq.clone();
        seq_sorted.sort();
        assert_eq!(and.solutions, seq);
        assert_eq!(or_sols, seq_sorted);
    }

    #[test]
    fn and_parallel_honours_amp() {
        let ace = Ace::load(PROG).unwrap();
        let r = ace
            .run(
                Mode::AndParallel,
                "pl([1,2,3], Out)",
                &cfg(3, OptFlags::all()),
            )
            .unwrap();
        assert_eq!(r.solutions, vec!["Out=[2,4,6]"]);
        assert!(r.virtual_time > 0);
    }

    #[test]
    fn sequential_treats_amp_as_comma() {
        let ace = Ace::load(PROG).unwrap();
        let sols = ace.sequential_solutions("pl([1,2], Out)").unwrap();
        assert_eq!(sols, vec!["Out=[2,4]"]);
    }

    #[test]
    fn or_parallel_reports_tree_depth() {
        let ace = Ace::load(PROG).unwrap();
        let r = ace
            .run(
                Mode::OrParallel,
                "member(X, [1,2,3,4,5])",
                &cfg(3, OptFlags::none()),
            )
            .unwrap();
        assert_eq!(r.solutions.len(), 5);
        assert!(r.tree_depth.is_some());
    }

    #[test]
    fn report_summary_renders() {
        let ace = Ace::load(PROG).unwrap();
        let r = ace
            .run(Mode::AndParallel, "pl([1,2], O)", &cfg(2, OptFlags::all()))
            .unwrap();
        let s = r.summary();
        assert!(s.contains("virtual time"));
    }

    #[test]
    fn memo_table_is_shared_across_modes() {
        use ace_runtime::{AnswerStore, StoreConfig};
        let ace = Ace::load(
            r#"
            append([], L, L).
            append([H|T], L, [H|R]) :- append(T, L, R).
            nrev([], []).
            nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
            "#,
        )
        .unwrap();
        let table = Arc::new(AnswerStore::new(&StoreConfig::default()));
        let q = "nrev([1,2,3,4,5,6], R)";

        // Warm the table on the and-engine...
        let c = cfg(2, OptFlags::all())
            .with_store(table.clone())
            .with_memoization();
        let warm = ace.run(Mode::AndParallel, q, &c).unwrap();
        assert_eq!(warm.solutions, vec!["R=[6,5,4,3,2,1]"]);
        assert!(warm.stats.memo_stores > 0, "{}", warm.summary());

        // ...then the sequential path replays from it.
        let seq = ace.run(Mode::Sequential, q, &c).unwrap();
        assert_eq!(seq.solutions, warm.solutions);
        assert!(seq.stats.memo_hits > 0, "{}", seq.summary());
        assert_eq!(seq.stats.memo_stores, 0);
        assert!(seq.summary().contains("memo hit-rate"), "{}", seq.summary());
    }

    #[test]
    fn run_degrades_while_run_strict_surfaces() {
        use ace_runtime::fault::{FaultKind, FaultPlan};
        let ace = Ace::load(PROG).unwrap();
        let c =
            cfg(2, OptFlags::all()).with_fault_plan(FaultPlan::new(0).with(0, 2, FaultKind::Die));
        let err = ace
            .run_strict(Mode::AndParallel, "pl([1,2,3], Out)", &c)
            .expect_err("strict path must surface the worker death");
        assert!(err.is_recoverable(), "{err:?}");
        // The legacy string API now rides run_query: same query, same
        // config, but the infrastructure failure degrades to sequential.
        let r = ace.run(Mode::AndParallel, "pl([1,2,3], Out)", &c).unwrap();
        assert_eq!(r.solutions, vec!["Out=[2,4,6]"]);
        assert!(
            r.recovery.iter().any(|l| l.contains("sequential fallback")),
            "{:?}",
            r.recovery
        );
    }

    #[test]
    fn sequential_streams_through_sink_with_early_stop() {
        use ace_runtime::{AnswerSink, SinkVerdict};
        use std::sync::Mutex;
        let ace = Ace::load(PROG).unwrap();
        let got = Arc::new(Mutex::new(Vec::new()));
        let tap = got.clone();
        let sink = AnswerSink::new(move |a: &str| {
            let mut v = tap.lock().unwrap();
            v.push(a.to_string());
            if v.len() >= 2 {
                SinkVerdict::Stop
            } else {
                SinkVerdict::Continue
            }
        });
        let c = EngineConfig::default()
            .all_solutions()
            .with_answer_sink(sink);
        let r = ace
            .run(Mode::Sequential, "member(X, [1,2,3,4,5])", &c)
            .unwrap();
        assert_eq!(r.solutions.len(), 2, "{:?}", r.solutions);
        assert_eq!(*got.lock().unwrap(), r.solutions);
        assert_eq!(r.stats.answers_streamed, 2);
        assert_eq!(r.stats.sink_stops, 1);
    }

    #[test]
    fn sequential_honours_external_cancel() {
        use ace_runtime::CancelToken;
        let ace = Ace::load(PROG).unwrap();
        let tok = CancelToken::new();
        tok.cancel();
        let c = EngineConfig::default().all_solutions().with_cancel(tok);
        let err = ace
            .run_strict(Mode::Sequential, "member(X, [1,2,3])", &c)
            .expect_err("a pre-cancelled token must stop the run");
        assert!(matches!(err, AceError::FaultInjected(_)), "{err:?}");
    }

    #[test]
    fn doc_example_works() {
        let ace = Ace::load(
            r#"
            double(X, Y) :- Y is X * 2.
            pair(A, B) :- double(1, A) & double(2, B).
            "#,
        )
        .unwrap();
        let cfg = EngineConfig::default()
            .with_workers(4)
            .with_opts(OptFlags::all())
            .all_solutions();
        let report = ace.run(Mode::AndParallel, "pair(A, B)", &cfg).unwrap();
        assert_eq!(report.solutions, vec!["A=2, B=4"]);
    }
}
