//! The event table's contract, end to end: the views of a run that are
//! derived from its events cannot disagree with the run.
//!
//! * **Fold equality** — for every configuration of `equivalence.rs` plus
//!   a memoized, a tabled and an `ace-fd` run, on both drivers,
//!   `Stats::fold(trace)` equals the run's own sheet on every
//!   `Stats::EVENT_BACKED` counter, and so does the attached registry's
//!   `ace_engine_stat_total`. A site that bumps such a counter without
//!   noting its event (or notes it without the bump) fails here.
//! * **Machine events are stamped where they happened** — inside the
//!   quantum that ran them, not at its end.
//! * **One vocabulary** — DESIGN.md names every event of the table.

use std::sync::Arc;

use ace_core::{Ace, Mode};
use ace_fd::{queens, Fd};
use ace_runtime::{
    AnswerStore, ClauseExec, DriverKind, EngineConfig, EventKind, MetricsRegistry, OptFlags, Stats,
    StoreConfig, Trace, TraceConfig,
};

/// Every layer on, and rings large enough that nothing is evicted.
fn full_trace() -> TraceConfig {
    TraceConfig::enabled()
        .with_lifecycle()
        .with_dispatch()
        .with_capacity(1 << 22)
}

fn cfg(workers: usize, opts: OptFlags, all: bool, driver: DriverKind) -> EngineConfig {
    let mut c = EngineConfig::default()
        .with_workers(workers)
        .with_opts(opts)
        .with_driver(driver)
        .with_trace(full_trace());
    c.max_solutions = if all { None } else { Some(1) };
    c
}

/// The trace and the registry tell the sheet's story, counter by counter.
fn assert_fold(engine: &str, stats: &Stats, trace: &Trace, reg: &MetricsRegistry, label: &str) {
    assert_eq!(trace.dropped, 0, "{label}: ring too small");
    let folded = Stats::fold(trace).fields();
    let snap = reg.snapshot();
    for (name, value) in stats.fields() {
        if !Stats::EVENT_BACKED.contains(&name) {
            continue;
        }
        let (_, from_trace) = folded.iter().find(|(n, _)| *n == name).unwrap();
        assert_eq!(*from_trace, value, "{label}: fold(trace).{name} vs stats");
        let metered = snap
            .counter_value(
                "ace_engine_stat_total",
                &[("engine", engine), ("stat", name)],
            )
            .unwrap_or(0);
        assert_eq!(metered, value, "{label}: ace_engine_stat_total{{{name}}}");
    }
}

/// Run `query` through the facade with a fresh registry and check the fold.
fn check_run(ace: &Ace, mode: Mode, query: &str, c: &EngineConfig, label: &str) {
    let reg = MetricsRegistry::shared();
    let r = ace
        .run(mode, query, &c.clone().with_metrics(reg.clone()))
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let engine = match mode {
        Mode::AndParallel => "and",
        Mode::OrParallel => "or",
        Mode::Sequential => unreachable!("the sequential machine records no trace"),
    };
    assert_fold(engine, &r.stats, r.trace.as_ref().unwrap(), &reg, label);
}

const DRIVERS: [DriverKind; 2] = [DriverKind::Sim, DriverKind::Threads];

/// One corpus benchmark under every optimization combination, the
/// equivalence suite's worker counts, and both drivers.
fn check_benchmark(name: &str) {
    let b = ace_programs::benchmark(name).unwrap();
    let ace = Ace::load(&(b.program)(b.test_size)).unwrap();
    let query = (b.query)(b.test_size);
    for driver in DRIVERS {
        for w in [1, 2, 4] {
            for opts in OptFlags::all_combinations() {
                let label = format!("{name} {driver:?} w={w} opts={}", opts.label());
                let c = cfg(w, opts, b.all_solutions, driver);
                check_run(&ace, b.mode, &query, &c, &label);
            }
        }
    }
}

macro_rules! fold_test {
    ($test:ident, $name:literal) => {
        #[test]
        fn $test() {
            check_benchmark($name);
        }
    };
}

fold_test!(map2_folds, "map2");
fold_test!(map1_folds, "map1");
fold_test!(occur_folds, "occur");
fold_test!(matrix_folds, "matrix");
fold_test!(matrix_bt_folds, "matrix_bt");
fold_test!(pderiv_folds, "pderiv");
fold_test!(pderiv_bt_folds, "pderiv_bt");
fold_test!(annotator_folds, "annotator");
fold_test!(annotator_bt_folds, "annotator_bt");
fold_test!(takeuchi_folds, "takeuchi");
fold_test!(hanoi_folds, "hanoi");
fold_test!(bt_cluster_folds, "bt_cluster");
fold_test!(quick_sort_folds, "quick_sort");
fold_test!(queen1_folds, "queen1");
fold_test!(queen2_folds, "queen2");
fold_test!(puzzle_folds, "puzzle");
fold_test!(ancestors_folds, "ancestors");
fold_test!(members_folds, "members");
fold_test!(maps_folds, "maps");

/// The other configurations of `equivalence.rs` (a nondeterministic
/// parallel conjunction, the interpreter oracle), and the runs whose
/// events come from the machine's store and from `ace-fd`.
#[test]
fn runs_beyond_the_corpus_fold() {
    let ace =
        Ace::load("p(1). p(2). p(3).\nq(a). q(b).\nr(X, Y, Z) :- (p(X) & q(Y) & p(Z)).").unwrap();
    for driver in DRIVERS {
        for w in [1, 3] {
            for opts in [OptFlags::none(), OptFlags::all()] {
                let label = format!("cross product {driver:?} w={w} opts={}", opts.label());
                let c = cfg(w, opts, true, driver);
                check_run(&ace, Mode::AndParallel, "r(X, Y, Z)", &c, &label);
            }
        }
    }

    for name in ["maps", "queen1", "pderiv_bt", "quick_sort", "members"] {
        let b = ace_programs::benchmark(name).unwrap();
        let ace = Ace::load(&(b.program)(b.test_size)).unwrap();
        for driver in DRIVERS {
            for w in [2, 8] {
                let c = cfg(w, OptFlags::all(), b.all_solutions, driver)
                    .with_clause_exec(ClauseExec::Interpreted);
                let label = format!("{name} interpreted {driver:?} w={w}");
                check_run(&ace, b.mode, &(b.query)(b.test_size), &c, &label);
            }
        }
    }

    for driver in DRIVERS {
        // Memoized: a cold run stores, the warm one hits.
        let b = ace_programs::benchmark("hanoi").unwrap();
        let ace = Ace::load(&(b.program)(b.test_size)).unwrap();
        let store = Arc::new(AnswerStore::new(&StoreConfig::default()));
        let c = cfg(4, OptFlags::all(), true, driver)
            .with_store(store)
            .with_memoization();
        for pass in ["cold", "warm"] {
            let label = format!("memoized hanoi {pass} {driver:?}");
            check_run(&ace, b.mode, &(b.query)(b.test_size), &c, &label);
        }

        // Tabled: SLG evaluation under the or-engine.
        let p = ace_programs::tabled_program("tabled_path").unwrap();
        let ace = Ace::load(&(p.program)(p.test_size)).unwrap();
        let store = Arc::new(AnswerStore::new(&StoreConfig::default()));
        let c = cfg(4, OptFlags::all(), true, driver)
            .with_store(store)
            .with_tabling();
        let label = format!("tabled_path {driver:?}");
        check_run(&ace, Mode::OrParallel, &(p.query)(p.test_size), &c, &label);

        // Finite domains: its own engine on the same chassis.
        let reg = MetricsRegistry::shared();
        let c = cfg(4, OptFlags::all(), true, driver).with_metrics(reg.clone());
        let r = Fd::new(queens(6)).solve_all(&c);
        assert!(r.outcome.aborted.is_none(), "{:?}", r.outcome.aborted);
        assert_eq!(r.solutions.len(), 4);
        let label = format!("fd queens(6) {driver:?}");
        assert_fold("fd", &r.stats, r.trace.as_ref().unwrap(), &reg, &label);
    }
}

/// Events the machine buffers during a quantum carry the time they
/// happened at: inside the quantum, and not all at its end.
#[test]
fn machine_events_are_stamped_inside_their_quantum() {
    let p = ace_programs::tabled_program("tabled_path").unwrap();
    let ace = Ace::load(&(p.program)(p.test_size)).unwrap();
    let store = Arc::new(AnswerStore::new(&StoreConfig::default()));
    let c = cfg(2, OptFlags::all(), true, DriverKind::Sim)
        .with_store(store)
        .with_tabling();
    let r = ace
        .run(Mode::OrParallel, &(p.query)(p.test_size), &c)
        .unwrap();
    let trace = r.trace.as_ref().unwrap();

    // Worker 0 runs the root machine, hence the generator.
    let mut quantum: Option<u64> = None;
    let mut pending = Vec::new();
    let mut stamps = Vec::new();
    for ev in trace.events.iter().filter(|e| e.worker == 0) {
        match ev.kind {
            EventKind::QuantumStart => quantum = Some(ev.t),
            EventKind::TableAnswer { .. } => {
                let start = quantum.expect("table-answer outside any quantum");
                assert!(ev.t >= start, "answer at {} before quantum {start}", ev.t);
                pending.push(ev.t);
            }
            EventKind::QuantumEnd { .. } => {
                for t in pending.drain(..) {
                    assert!(t <= ev.t, "answer at {t} after its quantum's end {}", ev.t);
                    stamps.push((t, ev.t));
                }
                quantum = None;
            }
            _ => {}
        }
    }
    assert!(pending.is_empty(), "an answer's quantum never ended");
    assert!(
        stamps.len() >= 2,
        "{} table answers on worker 0",
        stamps.len()
    );
    assert!(
        stamps.iter().any(|(t, _)| *t != stamps[0].0),
        "every table-answer carries the same stamp: {stamps:?}"
    );
    assert!(
        stamps.iter().any(|(t, end)| t < end),
        "every table-answer sits at its quantum's end: {stamps:?}"
    );
}

/// DESIGN.md §5 is built around the table; it has to name every row.
#[test]
fn design_names_every_event() {
    let design = include_str!("../DESIGN.md");
    for name in EventKind::NAMES {
        assert!(
            design.contains(&format!("`{name}`")),
            "DESIGN.md does not mention the event `{name}`"
        );
    }
}
