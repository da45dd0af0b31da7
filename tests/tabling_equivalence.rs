//! Tabling equivalence: SLG evaluation must be invisible in the answers.
//!
//! * **Corpus invariance** — every tabled corpus program terminates on
//!   both drivers at 1/2/4/8 workers with exactly the sequential tabled
//!   oracle's answer set (which itself matches the closed-form count),
//!   cold table and warm table alike, with every trace satisfying the
//!   checker's tabling protocol (answers before resumes, completion
//!   exactly once per subgoal).
//! * **Warm tables are pure lookup** — a completed table turns
//!   re-evaluation into replay: no new subgoal frames on any engine, and
//!   sequentially at least 5x cheaper in virtual time than the fixpoint.
//! * **One store, both behaviours** — the same corpus with memoization
//!   and tabling switched on over a single shared store, on every engine
//!   and both drivers, cold then warm.
//! * **No pinned slots** — a run that stops before a subgoal's fixpoint
//!   gives the registration back to a shared store.
//! * **Zero-cost opt-out** — a config carrying store sizing and a store
//!   handle but neither switch is bit-identical (virtual time and full
//!   stats sheet) to one that never mentioned tabling.

use std::sync::Arc;

use ace_core::{Ace, Mode, RunReport};
use ace_runtime::{
    AnswerStore, DriverKind, EngineConfig, OptFlags, StoreConfig, TraceChecker, TraceConfig,
};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

fn space() -> Arc<AnswerStore> {
    Arc::new(AnswerStore::new(&StoreConfig::default().with_shards(8)))
}

fn cfg(workers: usize, driver: DriverKind, table: &Arc<AnswerStore>) -> EngineConfig {
    EngineConfig::default()
        .with_workers(workers)
        .with_driver(driver)
        .with_opts(OptFlags::all())
        .with_trace(TraceConfig::enabled())
        .with_store(table.clone())
        .with_tabling()
        .all_solutions()
}

fn check_trace(r: &RunReport, label: &str) {
    let trace = r.trace.as_ref().expect("tracing enabled but trace missing");
    if let Err(violations) = TraceChecker::check(trace) {
        panic!("{label}: trace invariant violations: {violations:#?}");
    }
}

fn assert_oracle(r: &RunReport, oracle: &[String], label: &str) {
    assert_eq!(sorted(r.solutions.clone()), oracle, "{label}");
    let mut uniq = r.solutions.clone();
    uniq.sort();
    uniq.dedup();
    assert_eq!(uniq.len(), r.solutions.len(), "{label}: duplicate answers");
}

#[test]
fn tabled_corpus_invariant_across_drivers_and_workers() {
    for p in ace_programs::tabled() {
        let ace = Ace::load(&(p.program)(p.test_size)).unwrap();
        let query = (p.query)(p.test_size);

        let seq_space = space();
        let seq = ace
            .run(
                Mode::Sequential,
                &query,
                &cfg(1, DriverKind::Sim, &seq_space),
            )
            .unwrap_or_else(|e| panic!("{} sequential: {e}", p.name));
        let oracle = sorted(seq.solutions.clone());
        assert_eq!(
            oracle.len(),
            (p.oracle)(p.test_size),
            "{} oracle size",
            p.name
        );
        // A completed table is a lookup, not a second fixpoint: replaying
        // it costs at most a fifth of the evaluation that built it.
        let seq_warm = ace
            .run(
                Mode::Sequential,
                &query,
                &cfg(1, DriverKind::Sim, &seq_space),
            )
            .unwrap_or_else(|e| panic!("{} sequential warm: {e}", p.name));
        assert_oracle(&seq_warm, &oracle, &format!("{} sequential warm", p.name));
        assert!(
            seq.virtual_time >= 5 * seq_warm.virtual_time,
            "{}: completed-table lookup ({}) is not 5x cheaper than the cold fixpoint ({})",
            p.name,
            seq_warm.virtual_time,
            seq.virtual_time
        );

        for driver in [DriverKind::Sim, DriverKind::Threads] {
            for w in WORKER_COUNTS {
                let label = format!("{} {driver:?} workers={w}", p.name);
                let table = space();
                let cold = ace
                    .run(Mode::OrParallel, &query, &cfg(w, driver, &table))
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_oracle(&cold, &oracle, &format!("{label} cold"));
                check_trace(&cold, &format!("{label} cold"));

                let warm = ace
                    .run(Mode::OrParallel, &query, &cfg(w, driver, &table))
                    .unwrap_or_else(|e| panic!("{label} warm: {e}"));
                assert_oracle(&warm, &oracle, &format!("{label} warm"));
                check_trace(&warm, &format!("{label} warm"));
                assert_eq!(
                    warm.stats.table_subgoals, 0,
                    "{label}: warm run re-framed subgoals"
                );
                assert!(warm.stats.table_hits >= 1, "{label}: warm run missed");
            }
        }
    }
}

#[test]
fn completed_tables_are_shared_across_modes() {
    // One space, three engines: whoever completes the fixpoint first,
    // everyone else replays it.
    let p = ace_programs::tabled_program("tabled_path").unwrap();
    let ace = Ace::load(&(p.program)(p.test_size)).unwrap();
    let query = (p.query)(p.test_size);
    let table = space();

    let seq = ace
        .run(Mode::Sequential, &query, &cfg(1, DriverKind::Sim, &table))
        .unwrap();
    let oracle = sorted(seq.solutions.clone());
    assert!(seq.stats.table_completes >= 1, "{}", seq.summary());

    for mode in [Mode::OrParallel, Mode::AndParallel] {
        let r = ace
            .run(mode, &query, &cfg(4, DriverKind::Sim, &table))
            .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        assert_oracle(&r, &oracle, &format!("{mode:?} vs sequential"));
        assert_eq!(r.stats.table_subgoals, 0, "{mode:?} re-evaluated");
        assert!(r.stats.table_hits >= 1, "{mode:?} missed the shared table");
    }
}

#[test]
fn memoization_and_tabling_share_one_store() {
    for p in ace_programs::tabled() {
        let ace = Ace::load(&(p.program)(p.test_size)).unwrap();
        let query = (p.query)(p.test_size);
        let oracle = sorted(
            ace.run(Mode::Sequential, &query, &cfg(1, DriverKind::Sim, &space()))
                .unwrap_or_else(|e| panic!("{} oracle: {e}", p.name))
                .solutions,
        );
        for driver in [DriverKind::Sim, DriverKind::Threads] {
            for (mode, w) in [
                (Mode::Sequential, 1),
                (Mode::AndParallel, 4),
                (Mode::OrParallel, 4),
            ] {
                let label = format!("{} {mode:?} {driver:?}", p.name);
                let store = space();
                let both = cfg(w, driver, &store).with_memoization();
                for pass in ["cold", "warm"] {
                    let r = ace
                        .run(mode, &query, &both)
                        .unwrap_or_else(|e| panic!("{label} {pass}: {e}"));
                    assert_oracle(&r, &oracle, &format!("{label} {pass}"));
                    if mode != Mode::Sequential {
                        check_trace(&r, &format!("{label} {pass}"));
                    }
                    if pass == "warm" {
                        assert_eq!(r.stats.table_subgoals, 0, "{label}: warm re-framed");
                        assert!(r.stats.table_hits >= 1, "{label}: warm run missed");
                    }
                    assert_eq!(store.len(), store.complete_len(), "{label} {pass}");
                }
            }
        }
    }
}

/// A query that stops before a tabled subgoal's fixpoint — here at its
/// first-solution bound and by an injected cancel, both while worker 0 is
/// mid-generator — must give the registration back: a slot left pending is
/// never evicted, so on a long-lived store it would stay pinned forever.
#[test]
fn abandoned_generators_leave_no_pinned_slots() {
    use ace_runtime::{FaultKind, FaultPlan};
    let p = ace_programs::tabled_program("tabled_path").unwrap();
    let src = format!(
        "{}\nq(X) :- path(n0, X).\nq(none).\n",
        (p.program)(p.test_size)
    );
    let ace = Ace::load(&src).unwrap();
    let store = space();
    let oracle = sorted(
        ace.run(Mode::Sequential, "q(X)", &cfg(1, DriverKind::Sim, &space()))
            .unwrap()
            .solutions,
    );

    // Worker 0 starts the path/2 generator; worker 1 steals `q(none)` and
    // ends the run at its solution bound.
    let first = ace
        .run_strict(
            Mode::OrParallel,
            "q(X)",
            &cfg(2, DriverKind::Sim, &store).first_solution(),
        )
        .unwrap();
    assert_eq!(first.solutions, ["X=none"]);
    assert!(
        first.stats.table_subgoals > first.stats.table_completes,
        "the run must stop mid-generator: {}",
        first.summary()
    );
    assert_eq!(store.len(), store.complete_len(), "first-solution run");

    let plan = FaultPlan::new(0).with(0, 2, FaultKind::Cancel);
    let cancelled = ace_or::OrEngine::new(ace.db().clone()).run(
        "q(X)",
        &cfg(2, DriverKind::Sim, &store).with_fault_plan(plan),
    );
    assert!(cancelled.is_err(), "sim fires the injected cancel");
    let c = store.counters();
    assert_eq!(
        (c.registered, c.stores),
        (2, 0),
        "the cancel must land mid-generator"
    );
    assert_eq!(store.len(), store.complete_len(), "cancelled run");

    let full = ace
        .run(Mode::OrParallel, "q(X)", &cfg(2, DriverKind::Sim, &store))
        .unwrap();
    assert_oracle(&full, &oracle, "full run after abandoned ones");
    assert!(full.stats.table_completes >= 1, "{}", full.summary());
    assert_eq!(store.len(), store.complete_len(), "full run");
}

#[test]
fn disabled_table_config_is_bit_identical() {
    // Tabled-declared but terminating: with neither store switch on the
    // declaration is inert and the machine must not spend one cost unit
    // on the table path.
    let ace = Ace::load(
        r#"
        :- table(reach/2).
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- edge(X, Z), reach(Z, Y).
        edge(a, b).
        edge(b, c).
        pair(A, B) :- reach(a, A) & reach(b, B).
        "#,
    )
    .unwrap();
    for (mode, query) in [
        (Mode::Sequential, "reach(a, X)"),
        (Mode::OrParallel, "reach(a, X)"),
        (Mode::AndParallel, "pair(A, B)"),
    ] {
        let base = EngineConfig::default()
            .with_workers(2)
            .with_opts(OptFlags::all())
            .all_solutions();
        let plain = ace.run(mode, query, &base).unwrap();
        let off = ace
            .run(
                mode,
                query,
                &base
                    .clone()
                    .with_store_config(StoreConfig::default())
                    .with_store(space()),
            )
            .unwrap();
        assert_eq!(off.solutions, plain.solutions, "{mode:?}");
        assert_eq!(off.virtual_time, plain.virtual_time, "{mode:?}");
        assert_eq!(off.stats, plain.stats, "{mode:?}");
        assert_eq!(off.stats.table_subgoals, 0, "{mode:?}");
    }
}
