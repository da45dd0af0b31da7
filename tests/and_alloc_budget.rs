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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ace_core::{Ace, Mode};
use ace_runtime::{DriverKind, EngineConfig, OptFlags};

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
