//! Frozen continuations cost and compute what they did when the machine's
//! frames were heap terms.
//!
//! A continuation leaves its machine in two places: an or-parallel state
//! closure (a published choice point claimed by another worker) and a
//! suspended tabled consumer. Both write the continuation to the heap —
//! a body frame as a structure of the four cells its marker had, its
//! environment beside it — freeze it, and read it back by position. The
//! runs below take closures in the middle of clause bodies at four
//! simulated workers, and suspend tabled consumers, and pin the answer
//! multisets, the cells frozen and thawed, and the virtual time to the
//! values the heap-marker machine produced.

use ace_core::{Ace, Mode, RunReport};
use ace_runtime::{EngineConfig, OptFlags};

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

fn run(program: &str, query: &str, mode: Mode, cfg: &EngineConfig) -> RunReport {
    let ace = Ace::load(program).unwrap();
    let report = ace.run_strict(mode, query, cfg).unwrap();
    let oracle = ace
        .run_strict(Mode::Sequential, query, &cfg.clone().with_workers(1))
        .unwrap();
    assert_eq!(sorted(report.solutions.clone()), sorted(oracle.solutions));
    report
}

/// `(benchmark, size, answers, cells_copied_publish, cells_copied_claim,
/// virtual_time)` at four simulated workers, every optimization on.
/// `maps`' virtual time is that of its `\==` tests run inline (one
/// instruction each, no goal built or dispatched); the cells it freezes
/// are the heap-marker machine's.
const OR_PINS: [(&str, usize, usize, u64, u64, u64); 3] = [
    ("queen1", 6, 4, 2332, 2070, 22010),
    ("maps", 1, 2592, 199, 201, 72230),
    ("puzzle", 1, 8, 5488, 4150, 53247),
];

#[test]
fn or_closures_taken_mid_body_are_priced_as_before() {
    let cfg = EngineConfig::default()
        .with_workers(4)
        .with_opts(OptFlags::all())
        .all_solutions();
    let got: Vec<_> = OR_PINS
        .iter()
        .map(|&(name, size, ..)| {
            let b = ace_programs::benchmark(name).unwrap();
            let r = run(&(b.program)(size), &(b.query)(size), Mode::OrParallel, &cfg);
            assert!(
                r.stats.closures_materialized > 0,
                "{name}: nothing was stolen"
            );
            (
                name,
                size,
                r.solutions.len(),
                r.stats.cells_copied_publish,
                r.stats.cells_copied_claim,
                r.virtual_time,
            )
        })
        .collect();
    assert_eq!(got, OR_PINS);
}

/// A ring of `n` nodes with chords: its right-recursive closure is one
/// SCC, and every consumer it suspends has a body frame (`W = Y`) and its
/// environment in the continuation it freezes.
fn ring(n: usize) -> String {
    let mut src = String::from(
        ":- table(path/2).\n\
         path(X, Y) :- edge(X, Z), path(Z, W), W = Y.\n\
         path(X, Y) :- edge(X, Y).\n",
    );
    for i in 0..n {
        src.push_str(&format!("edge(n{i}, n{}).\n", (i + 1) % n));
        src.push_str(&format!("edge(n{i}, n{}).\n", (i + 3) % n));
    }
    src
}

/// `(program, size, mode, workers, answers, table_suspends,
/// virtual_time)`. `tabled_samegen(8)` completes each subgoal before its
/// variant is called again, so it suspends nothing: it pins the replays.
/// Its `par(Y, YP)` calls (first argument unbound, 510 facts) are
/// dispatched on the second argument's index, so each tries one clause.
const TABLE_PINS: [(&str, usize, Mode, usize, usize, u64, u64); 8] = [
    ("ring", 24, Mode::Sequential, 1, 24, 94, 56491),
    ("ring", 24, Mode::OrParallel, 4, 24, 94, 56756),
    ("tabled_samegen", 8, Mode::Sequential, 1, 256, 0, 27546),
    ("tabled_samegen", 8, Mode::OrParallel, 4, 256, 0, 29156),
    ("tabled_path", 16, Mode::Sequential, 1, 16, 2, 2338),
    ("tabled_path", 16, Mode::OrParallel, 4, 16, 2, 2756),
    ("tabled_grammar", 12, Mode::Sequential, 1, 12, 2, 1709),
    ("tabled_grammar", 12, Mode::OrParallel, 4, 12, 2, 1956),
];

#[test]
fn suspended_tabled_consumers_are_priced_as_before() {
    let got: Vec<_> = TABLE_PINS
        .iter()
        .map(|&(name, size, mode, workers, ..)| {
            let (program, query) = match ace_programs::tabled_program(name) {
                Some(p) => ((p.program)(size), (p.query)(size)),
                None => (ring(size), "path(n0, Y)".to_owned()),
            };
            let mut cfg = EngineConfig::default()
                .with_workers(workers)
                .all_solutions();
            cfg.store.tabling = true;
            let r = run(&program, &query, mode, &cfg);
            (
                name,
                size,
                mode,
                workers,
                r.solutions.len(),
                r.stats.table_suspends,
                r.virtual_time,
            )
        })
        .collect();
    assert_eq!(got, TABLE_PINS);
}
