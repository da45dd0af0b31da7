//! Goal shipping allocates for the goal, not for the heap it is copied from.
//!
//! A closure shipment, group finalization or integration that clones the
//! heap it copies from costs (shipments × heap size) on the host while the
//! virtual clock charges the goal's cells, and nothing but the wall clock
//! shows it. This pins the bytes `run_strict` requests from the allocator —
//! a count, the same on every run of the deterministic `Sim` driver; no
//! timing.
//!
//! takeuchi(10), `OptFlags::all()`, bytes requested during `run_strict`:
//!
//! | workers | whole-heap clones | joint copy | continuation stack |
//! |---|---|---|---|
//! | 4 | 3 686.6 MB | 20.9 MB | 20.3 MB |
//! | 1 |    59.9 MB | 13.9 MB | 13.5 MB |
//!
//! The budgets are twice the last column. The sequential run of the same
//! query requests 10.4 MB, nearly all of it the machine heap doubling as it
//! grows; at one worker nothing ships, and the extra 45 MB of the first
//! column were the 18 KB placeholder heaps of 2 586 frames.
//!
//! The resolution path itself does not call the allocator: continuation
//! nodes live on a per-machine stack, clauses and code are borrowed from the
//! program. Allocator *calls* during a sequential `run_strict`:
//!
//! | query | machine calls | one `Arc` node per pushed goal | continuation stack |
//! |---|---|---|---|
//! | `count(100000)` | 100 001 | 100 043 | 45 |
//! | `nrev` of 400 elements | 80 601 | 81 032 | 439 |
//!
//! What is left is vector doublings, the reader's allocation per list
//! element of the query text, and first-use interning (which makes the count
//! vary by a few dozen with test order); budgets are twice the last column.
//!
//! Nor does the answer path, beyond the line that leaves the engine: a
//! symbol's name is borrowed, the term writer appends to the line in place,
//! unification's work stack lives with the heap, and a tabled answer is
//! keyed in the machine's scratch. Allocator calls during a sequential
//! all-solutions `run_strict`, per-query costs (parse, machine, report)
//! included:
//!
//! | query | answers | a `String` per name, value, binding and line | one writer |
//! |---|---|---|---|
//! | warm `tabled_path(48)` | 48 | 456 | 75 |
//! | `member(X, L), member(Y, L)`, 10 digits | 100 | 1 035 | 126 |
//! | cold `tabled_samegen(8)` | 256 (519 derived) | 7 662 | 3 003 |
//! | `t(X) :- q(_, X)`, 400 facts, 4 values: 396 duplicates | 4 | 1 287 | 63 |
//!
//! Budgets are twice the last column for the first two rows, half as much
//! again for the third; the fourth is set against the same query over 4
//! facts (63 calls): a duplicate answer allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ace_core::{Ace, Mode, RunReport};
use ace_runtime::{AnswerStore, DriverKind, EngineConfig, OptFlags, StoreConfig};

thread_local! {
    /// Bytes requested by this thread (the `Sim` driver runs every worker on
    /// the calling thread, so other tests and the harness do not count).
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // A thread being torn down has no counter left; nothing to measure there.
    let _ = REQUESTED.try_with(|c| c.set(c.get() + bytes as u64));
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every request is forwarded unchanged to `System`; the counters are
// const-initialized thread-local `Cell`s without destructor, so touching them
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes requested while takeuchi(10) runs and-parallel on `workers`
/// simulated workers with every optimization on.
fn takeuchi_bytes(workers: usize) -> u64 {
    let b = ace_programs::benchmark("takeuchi").unwrap();
    let ace = Ace::load(&(b.program)(10)).unwrap();
    let query = (b.query)(10);
    let mut cfg = EngineConfig::default()
        .with_workers(workers)
        .with_driver(DriverKind::Sim)
        .with_opts(OptFlags::all());
    cfg.max_solutions = Some(1);
    let before = REQUESTED.with(Cell::get);
    let report = ace.run_strict(Mode::AndParallel, &query, &cfg).unwrap();
    let bytes = REQUESTED.with(Cell::get) - before;
    assert_eq!(report.solutions, ["A=5"]);
    if workers > 1 {
        assert!(report.stats.cells_copied > 0, "goals must have shipped");
    }
    bytes
}

#[test]
fn shipping_at_four_workers_allocates_for_the_goals() {
    let bytes = takeuchi_bytes(4);
    assert!(bytes < 41_000_000, "{bytes} bytes requested");
}

#[test]
fn unshipped_frames_at_one_worker_allocate_no_closure() {
    let bytes = takeuchi_bytes(1);
    assert!(bytes < 27_000_000, "{bytes} bytes requested");
}

/// Allocator calls while `query` runs to its first solution on the
/// sequential machine, and the machine calls (resolution steps on user
/// predicates) it took.
fn sequential_calls(program: &str, query: &str) -> (u64, u64) {
    let ace = Ace::load(program).unwrap();
    let cfg = EngineConfig {
        max_solutions: Some(1),
        ..EngineConfig::default()
    };
    let before = CALLS.with(Cell::get);
    let report = ace.run_strict(Mode::Sequential, query, &cfg).unwrap();
    let calls = CALLS.with(Cell::get) - before;
    assert_eq!(report.solutions.len(), 1);
    (calls, report.stats.calls)
}

#[test]
fn a_determinate_loop_resolves_without_the_allocator() {
    let (allocs, calls) = sequential_calls(
        "count(0). count(N) :- N > 0, N1 is N - 1, count(N1).",
        "count(100000)",
    );
    assert_eq!(calls, 100_001);
    assert!(allocs < 90, "{allocs} allocator calls for {calls} calls");
}

#[test]
fn nrev_allocates_for_its_input_not_for_its_calls() {
    let list = (1..=400).map(|i| i.to_string()).collect::<Vec<_>>();
    let (allocs, calls) = sequential_calls(
        "append([], L, L). append([H|T], L, [H|R]) :- append(T, L, R).
         nrev([], []). nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).",
        &format!("nrev([{}], _)", list.join(",")),
    );
    assert_eq!(calls, 80_601);
    assert!(allocs < 880, "{allocs} allocator calls for {calls} calls");
}

/// Allocator calls while `query` runs to exhaustion on the sequential
/// machine under `cfg`, and the report.
fn all_solutions_calls(ace: &Ace, query: &str, cfg: &EngineConfig) -> (u64, RunReport) {
    let before = CALLS.with(Cell::get);
    let report = ace.run_strict(Mode::Sequential, query, cfg).unwrap();
    (CALLS.with(Cell::get) - before, report)
}

fn tabled(name: &str, size: usize) -> (Ace, String, EngineConfig) {
    let p = ace_programs::tabled_program(name).unwrap();
    let store = Arc::new(AnswerStore::new(&StoreConfig::default()));
    let cfg = EngineConfig::default()
        .with_store(store)
        .with_tabling()
        .all_solutions();
    (Ace::load(&(p.program)(size)).unwrap(), (p.query)(size), cfg)
}

/// An answer read back from a completed table is thawed, unified, written
/// into its line and pushed: the line is the allocation. The rest of the
/// count is per query (parse, machine, report), spread over 48 answers.
#[test]
fn a_replayed_answer_allocates_its_line() {
    let (ace, query, cfg) = tabled("tabled_path", 48);
    let (_, cold) = all_solutions_calls(&ace, &query, &cfg);
    assert_eq!(cold.stats.table_hits, 0);
    let (allocs, warm) = all_solutions_calls(&ace, &query, &cfg);
    assert_eq!(warm.solutions.len(), 48);
    assert_eq!((warm.stats.table_hits, warm.stats.table_subgoals), (1, 0));
    assert!(
        allocs <= 150,
        "{allocs} allocator calls for 48 replayed answers"
    );
}

/// The same for answers found by search, two variables to a line.
#[test]
fn an_enumerated_answer_allocates_its_line() {
    let ace = Ace::load("member(X, [X|_]). member(X, [_|T]) :- member(X, T).").unwrap();
    let digits = "[0,1,2,3,4,5,6,7,8,9]";
    let query = format!("member(X, {digits}), member(Y, {digits})");
    let cfg = EngineConfig::default().all_solutions();
    let (allocs, report) = all_solutions_calls(&ace, &query, &cfg);
    assert_eq!(report.solutions.len(), 100);
    assert_eq!(report.solutions[37], "X=3, Y=7");
    assert!(allocs <= 252, "{allocs} allocator calls for 100 answers");
}

/// Cold `tabled_samegen(8)`: 519 derived answers, each keyed to be told
/// from those its subgoal holds, 511 of them new (a key and an arena
/// each). With the key written in the machine's scratch the run makes
/// 3 003 allocator calls; building each key's maps and vectors afresh it
/// made 7 661.
#[test]
fn a_cold_tabled_run_allocates_for_what_it_stores() {
    let (ace, query, cfg) = tabled("tabled_samegen", 8);
    let (allocs, cold) = all_solutions_calls(&ace, &query, &cfg);
    assert_eq!(cold.solutions.len(), 256);
    assert_eq!((cold.stats.table_answers, cold.stats.table_dups), (511, 8));
    assert!(allocs < 4500, "{allocs} allocator calls");
}

/// A derivation that arrives at an answer its subgoal already holds is
/// keyed in the scratch, found there, and dropped: no allocator call. Two
/// runs that store the same four answers, one deriving each once and one
/// a hundred times, make the same calls (but for a doubling or two).
#[test]
fn a_duplicate_tabled_answer_allocates_nothing() {
    let run = |facts: usize| {
        let edges: String = (0..facts)
            .map(|i| format!("q({i}, v{}).\n", i % 4))
            .collect();
        let ace = Ace::load(&format!(":- table(t/1).\nt(X) :- q(_, X).\n{edges}")).unwrap();
        let cfg = EngineConfig::default().with_tabling().all_solutions();
        let (allocs, report) = all_solutions_calls(&ace, "t(X)", &cfg);
        assert_eq!(report.solutions, ["X=v0", "X=v1", "X=v2", "X=v3"]);
        assert_eq!(report.stats.table_dups as usize, facts - 4);
        allocs
    };
    run(4); // first-use interning and lazy statics are not the run's
    let (once, often) = (run(4), run(400));
    assert!(
        often <= once + 8,
        "{once} calls without duplicates, {often} with 396"
    );
}
