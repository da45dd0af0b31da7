//! Continuation space: the continuation stack is trimmed as goals are
//! popped and restored on backtracking, so it holds what the computation
//! can still reach and not what it has been through (the liveness rule of
//! `ace_machine::cont`). Read through `Machine::cont_stack_len`, and for
//! the environments of body activations, which the same stack holds,
//! through `Machine::env_stack_len`.

use std::sync::Arc;

use ace_logic::Database;
use ace_machine::{Machine, Status};
use ace_runtime::CostModel;

const PROG: &str = r#"
    count(0).
    count(N) :- N > 0, N1 is N - 1, count(N1).

    len([], 0).
    len([_|T], N) :- len(T, M), N is M + 1.

    member(X, [X|_]).
    member(X, [_|T]) :- member(X, T).

    % Non-tail recursion that leaves a choice point at its deepest call:
    % the frame protects everything pushed on the way down.
    deep(0) :- member(_, [a, b]).
    deep(N) :- N > 0, M is N - 1, deep(M), true.
    committed(N) :- deep(N), !, rest.
    rest.

    p(1). p(2).

    % Four variables and three goals after the neck: every activation
    % pushes an environment and runs two body frames over it.
    walk(0).
    walk(N) :- N > 0, N1 is N - 1, id(N1, M), id(M, K), walk(K).
    id(X, X).
"#;

fn machine(query: &str) -> Machine {
    let db = Arc::new(Database::load(PROG).unwrap());
    let mut m = Machine::new(db, Arc::new(CostModel::default()));
    m.load_query_text(query).unwrap();
    m
}

/// Step to the next non-`Running` status; returns it with the highest
/// continuation-stack height seen after any step.
fn run_watching(m: &mut Machine) -> (Status, usize) {
    run_watching_by(m, Machine::cont_stack_len)
}

/// [`run_watching`], by the height `height` reads.
fn run_watching_by(m: &mut Machine, height: fn(&Machine) -> usize) -> (Status, usize) {
    let mut high = height(m);
    loop {
        let s = m.step();
        high = high.max(height(m));
        if s != Status::Running {
            return (s, high);
        }
    }
}

#[test]
fn determinate_recursion_runs_in_constant_continuation_space() {
    let mut m = machine("count(100000)");
    let (status, high) = run_watching(&mut m);
    assert_eq!(status, Status::Solution);
    assert_eq!(m.stats.calls, 100_001);
    assert!(high < 16, "high-water mark {high}");
}

#[test]
fn a_failure_driven_loop_stays_bounded_across_its_backtracks() {
    let mut m = machine("between(1, 100000, X), X > 99999");
    let (status, high) = run_watching(&mut m);
    assert_eq!(status, Status::Solution);
    assert!(m.stats.backtracks >= 99_999, "{}", m.stats.backtracks);
    assert!(high < 16, "high-water mark {high}");
}

#[test]
fn non_tail_recursion_grows_linearly_and_returns_to_its_floor() {
    let list = vec!["x"; 1000].join(",");
    let mut m = machine(&format!("len([{list}], N)"));
    let (status, high) = run_watching(&mut m);
    assert_eq!(status, Status::Solution);
    // one pending `N is M + 1` per level, and not a multiple of that
    assert!((1000..1100).contains(&high), "high-water mark {high}");
    assert!(m.cont_stack_len() < 16, "{} left", m.cont_stack_len());
}

#[test]
fn what_a_cut_strands_is_gone_one_step_later() {
    let mut m = machine("committed(100)");
    // Down the recursion to the choice points left at its bottom ...
    while m.ctrl_len() == 0 {
        assert_eq!(m.step(), Status::Running);
    }
    // ... and back up through the pending `true`s, which pop nothing the
    // frames protect, to the cut that discards them.
    let mut protected = usize::MAX;
    loop {
        assert_eq!(m.step(), Status::Running);
        if m.ctrl_len() == 0 {
            break;
        }
        protected = protected.min(m.cont_stack_len());
    }
    assert!(protected >= 100, "the choice points protect {protected}");
    assert!(m.cont_stack_len() >= protected);
    // The frames are gone, their nodes stranded until the next goal pops.
    assert_eq!(m.step(), Status::Running);
    assert!(m.cont_stack_len() < 16, "{} left", m.cont_stack_len());
    assert_eq!(m.run_to_completion(), Status::Solution);
}

#[test]
fn a_buried_choice_point_resumes_with_its_original_continuation() {
    // p/1's choice point is created, count(1000) pushes and pops a
    // thousand goals above it, the test fails, and the retry must find
    // the continuation it captured intact.
    let mut m = machine("p(X), count(1000), X > 1, write(X)");
    let (status, high) = run_watching(&mut m);
    assert_eq!(status, Status::Solution);
    assert_eq!(m.output, "2");
    assert!(high < 16, "high-water mark {high}");
    assert_eq!(m.backtrack(), Status::Failed);
}

#[test]
fn determinate_recursion_runs_in_constant_environment_space() {
    let mut m = machine("walk(100000)");
    let (status, high) = run_watching_by(&mut m, Machine::env_stack_len);
    assert_eq!(status, Status::Solution);
    assert_eq!(m.stats.calls, 300_001);
    // One environment of five cells (a header and four slots) at a time.
    assert!(high <= 5, "high-water mark {high}");
    assert!(run_watching(&mut machine("walk(100000)")).1 < 16);
}

#[test]
fn environments_are_charged_as_heap_cells_but_take_none() {
    // Heap growth and charged cells per activation, from the difference
    // of an `n` and a `2n` run (which cancels the query's own cells).
    let per_activation = |n: usize| {
        let run = |k: usize| {
            let mut m = machine(&format!("walk({k})"));
            assert_eq!(m.run_to_completion(), Status::Solution);
            (m.heap.len(), m.stats.heap_cells as usize)
        };
        let ((h1, c1), (h2, c2)) = (run(n), run(2 * n));
        ((h2 - h1) / n, (c2 - c1) / n)
    };
    let (grown, charged) = per_activation(1000);
    assert_eq!(per_activation(2000), (grown, charged));
    // Charged, and not on the heap: the environment's `nslots + 1` cells
    // and the four of each of the two body frames.
    assert_eq!(charged - grown, 5 + 2 * 4);
}
