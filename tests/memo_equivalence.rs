//! Memoization equivalence: the answer table must be invisible in the
//! answers.
//!
//! * **Corpus invariance** — across the benchmark corpus, memo-on runs
//!   (cold table and warm table alike) produce exactly the memo-off
//!   answers, on both engines, with every trace satisfying the checker's
//!   memo invariant (no hit before a store of the same key epoch).
//! * **Combination matrix** — memo × or-scheduler × optimization flags:
//!   every cell is multiset-equal to the memo-off oracle.
//! * **Zero-cost opt-out** — a config carrying store sizing and a store
//!   handle but no switch is bit-identical (virtual time and full stats
//!   sheet) to one that never mentioned memoization.

use std::sync::Arc;

use ace_core::{Ace, Mode, RunReport};
use ace_runtime::{
    AnswerStore, EngineConfig, OptFlags, OrScheduler, StoreConfig, TraceChecker, TraceConfig,
};

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

fn cfg(workers: usize, opts: OptFlags) -> EngineConfig {
    EngineConfig::default()
        .with_workers(workers)
        .with_opts(opts)
        .with_trace(TraceConfig::enabled())
        .all_solutions()
}

fn check_trace(r: &RunReport, label: &str) {
    let trace = r.trace.as_ref().expect("tracing enabled but trace missing");
    if let Err(violations) = TraceChecker::check(trace) {
        panic!("{label}: trace invariant violations: {violations:#?}");
    }
}

/// Compare a memo run against the oracle: answer *order* is part of the
/// and-engine's contract; or-parallel discovery order is scheduling
/// noise, so those compare as multisets.
fn assert_same_answers(mode: Mode, got: &RunReport, expected: &[String], label: &str) {
    match mode {
        Mode::OrParallel => assert_eq!(
            sorted(got.solutions.clone()),
            sorted(expected.to_vec()),
            "{label}"
        ),
        _ => assert_eq!(got.solutions, expected, "{label}"),
    }
}

#[test]
fn corpus_answers_invariant_under_memo() {
    for name in [
        "map1",
        "hanoi",
        "quick_sort",
        "matrix",
        "queen1",
        "members",
        "ancestors",
    ] {
        let b = ace_programs::benchmark(name).unwrap();
        let ace = Ace::load(&(b.program)(b.test_size)).unwrap();
        let query = (b.query)(b.test_size);

        let mut base = cfg(4, OptFlags::all());
        base.max_solutions = if b.all_solutions { None } else { Some(1) };
        let oracle = ace.run(b.mode, &query, &base).unwrap();
        check_trace(&oracle, &format!("{name} memo-off"));

        let table = Arc::new(AnswerStore::new(&StoreConfig::default()));
        let memo_cfg = base.clone().with_store(table.clone()).with_memoization();
        for round in ["cold", "warm"] {
            let r = ace.run(b.mode, &query, &memo_cfg).unwrap();
            check_trace(&r, &format!("{name} memo {round}"));
            assert_same_answers(b.mode, &r, &oracle.solutions, &format!("{name} {round}"));
        }
    }
}

#[test]
fn memo_by_scheduler_by_optflags_matrix() {
    // Structurally indexed throughout, so the memo table really fills:
    // the or-branches repeat the same deterministic Peano-length subcall.
    let ace = Ace::load(
        r#"
        member(X, [X|_]).
        member(X, [_|T]) :- member(X, T).
        len([], z).
        len([_|T], s(N)) :- len(T, N).
        heavy(R) :- len([a,b,c,d,e,f], R).
        cell(R) :- heavy(R).
        both(A, B) :- cell(A) & cell(B).
        "#,
    )
    .unwrap();
    let or_query = "member(V, [1,2,3,4]), heavy(R)";
    let and_query = "member(V, [1,2]), both(A, B)";

    for opts in OptFlags::all_combinations() {
        // And-engine cell: exact order must survive memoization.
        let and_oracle = ace
            .run(Mode::AndParallel, and_query, &cfg(3, opts))
            .unwrap();
        let table = Arc::new(AnswerStore::new(&StoreConfig::default()));
        let on = ace
            .run(
                Mode::AndParallel,
                and_query,
                &cfg(3, opts).with_store(table).with_memoization(),
            )
            .unwrap();
        check_trace(&on, &format!("and memo opts={}", opts.label()));
        assert_eq!(
            on.solutions,
            and_oracle.solutions,
            "and opts={}",
            opts.label()
        );

        // Or-engine cells: both schedulers, shared warm table per flag set.
        let or_oracle = ace.run(Mode::OrParallel, or_query, &cfg(4, opts)).unwrap();
        let table = Arc::new(AnswerStore::new(&StoreConfig::default()));
        for sched in [OrScheduler::Pool, OrScheduler::Traversal] {
            let c = cfg(4, opts)
                .with_or_scheduler(sched)
                .with_store(table.clone())
                .with_memoization();
            let on = ace.run(Mode::OrParallel, or_query, &c).unwrap();
            let label = format!("or memo {sched:?} opts={}", opts.label());
            check_trace(&on, &label);
            assert_eq!(
                sorted(on.solutions),
                sorted(or_oracle.solutions.clone()),
                "{label}"
            );
        }
        assert!(table.counters().stores > 0, "opts={}", opts.label());
    }
}

#[test]
fn disabled_memo_config_is_bit_identical() {
    let ace = Ace::load(
        r#"
        member(X, [X|_]).
        member(X, [_|T]) :- member(X, T).
        double(X, Y) :- Y is X * 2.
        pair(A, B) :- double(1, A) & double(2, B).
        "#,
    )
    .unwrap();
    for (mode, query) in [
        (Mode::Sequential, "member(X, [1,2,3]), double(X, Y)"),
        (Mode::AndParallel, "pair(A, B)"),
        (Mode::OrParallel, "member(X, [1,2,3]), double(X, Y)"),
    ] {
        let plain = ace.run(mode, query, &cfg(2, OptFlags::all())).unwrap();
        // Sizing and a store handle switch nothing on: carrying them must
        // change nothing — not one cost unit, not one counter.
        let c = cfg(2, OptFlags::all())
            .with_store_config(StoreConfig::default())
            .with_store(Arc::new(AnswerStore::new(&StoreConfig::default())));
        let off = ace.run(mode, query, &c).unwrap();
        assert_eq!(off.solutions, plain.solutions, "{mode:?}");
        assert_eq!(off.virtual_time, plain.virtual_time, "{mode:?}");
        assert_eq!(off.stats, plain.stats, "{mode:?}");
        assert_eq!(off.stats.memo_hits + off.stats.memo_misses, 0, "{mode:?}");
    }
}

#[test]
fn warm_table_hits_on_the_repeated_workload() {
    let ace = Ace::load(
        r#"
        append([], L, L).
        append([H|T], L, [H|R]) :- append(T, L, R).
        nrev([], []).
        nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
        cell(R) :- nrev([1,2,3,4,5,6,7], R).
        run(A, B, C, D) :- cell(A) & cell(B) & cell(C) & cell(D).
        "#,
    )
    .unwrap();
    let q = "run(A, B, C, D)";
    let off = ace
        .run(Mode::AndParallel, q, &cfg(4, OptFlags::all()))
        .unwrap();

    let table = Arc::new(AnswerStore::new(&StoreConfig::default()));
    let c = cfg(4, OptFlags::all())
        .with_store(table.clone())
        .with_memoization();
    let cold = ace.run(Mode::AndParallel, q, &c).unwrap();
    let warm = ace.run(Mode::AndParallel, q, &c).unwrap();
    for (label, r) in [("cold", &cold), ("warm", &warm)] {
        check_trace(r, label);
        assert_eq!(r.solutions, off.solutions, "{label}");
    }
    assert!(cold.stats.memo_stores > 0, "{}", cold.summary());
    assert!(
        cold.stats.calls * 2 <= off.stats.calls,
        "cold memo must at least halve executed calls: {} vs {}",
        cold.stats.calls,
        off.stats.calls
    );
    assert_eq!(warm.stats.memo_stores, 0, "{}", warm.summary());
    assert!(warm.stats.memo_hits > 0);
    assert!(warm.virtual_time < cold.virtual_time);
}
