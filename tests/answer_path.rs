//! The answer path: bound query variables → one rendered line.
//!
//! * **One writer, same bytes** — the facade's lines, `Solution::render`
//!   over `Solver::next_solution` and the or-engine's `$answer/1` lines
//!   are the same multiset for every corpus program, tabled ones included,
//!   and name their variables in the same order (by `name=`, which is not
//!   the order of the names).
//! * **As deep as the heap** — an answer 200 000 levels deep renders on a
//!   2 MiB thread stack, through the facade and through a server session.

use std::sync::Arc;

use ace_core::{Ace, Mode};
use ace_machine::{Solution, Solver};
use ace_runtime::{CostModel, EngineConfig, OptFlags};
use ace_server::{QueryRequest, Serve, ServerConfig, SessionEnd};

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

/// The lines of `query` by each of the three routes an answer takes to
/// text, sorted: facade, `Solver` by hand, or-engine.
fn three_routes(ace: &Ace, query: &str, cfg: &EngineConfig) -> [Vec<String>; 3] {
    let facade = ace.run_strict(Mode::Sequential, query, cfg).unwrap();

    let mut solver = Solver::new(ace.db().clone(), Arc::new(CostModel::default()), query).unwrap();
    solver
        .machine_mut()
        .set_store(cfg.resolve_store(), cfg, false);
    let by_hand: Vec<String> = solver
        .collect_solutions(cfg.max_solutions)
        .unwrap()
        .iter()
        .map(Solution::render)
        .collect();

    let or = ace
        .run_strict(Mode::OrParallel, query, &cfg.clone().with_workers(2))
        .unwrap();
    [facade.solutions, by_hand, or.solutions].map(sorted)
}

#[test]
fn every_route_writes_the_same_lines_for_the_corpus() {
    for b in ace_programs::all() {
        let ace = Ace::load(&(b.program)(b.test_size)).unwrap();
        let mut cfg = EngineConfig::default().with_opts(OptFlags::all());
        cfg.max_solutions = if b.all_solutions { None } else { Some(1) };
        let [facade, by_hand, or] = three_routes(&ace, &(b.query)(b.test_size), &cfg);
        assert!(!facade.is_empty(), "{}", b.name);
        assert_eq!(facade, by_hand, "{}", b.name);
        assert_eq!(facade, or, "{}", b.name);
    }
}

#[test]
fn every_route_writes_the_same_lines_for_the_tabled_corpus() {
    for p in ace_programs::tabled() {
        let ace = Ace::load(&(p.program)(p.test_size)).unwrap();
        // one store for the three routes: the first fills it, two replay
        let cfg = EngineConfig::default().with_tabling().all_solutions();
        let cfg = cfg.clone().with_store(cfg.resolve_store().unwrap());
        let [facade, by_hand, or] = three_routes(&ace, &(p.query)(p.test_size), &cfg);
        assert_eq!(facade.len(), (p.oracle)(p.test_size), "{}", p.name);
        assert_eq!(facade, by_hand, "{}", p.name);
        assert_eq!(facade, or, "{}", p.name);
    }
}

/// `X1=…` sorts before `X=…` (`1` is below `=`), `Xa=…` after it, `_A=…`
/// last: the order of the finished `name=value` strings, which the writer
/// fixes once per query from the names alone.
#[test]
fn variables_are_named_in_name_equals_order() {
    let ace = Ace::load("p(1). p(2). q(f(a)). q([b|_]).").unwrap();
    let cfg = EngineConfig::default().all_solutions();
    let [facade, by_hand, or] = three_routes(&ace, "p(Xa), q(_A), p(X), X1 = Xa - X", &cfg);
    assert_eq!(facade.len(), 8);
    assert_eq!(facade[1], "X1=1-1, X=1, Xa=1, _A=f(a)", "{facade:?}");
    assert!(facade.iter().all(|l| l.starts_with("X1=")), "{facade:?}");
    assert_eq!(facade, by_hand);
    // the or-engine's variables live at other addresses
    let unnamed = |lines: Vec<String>| -> Vec<String> {
        lines
            .into_iter()
            .map(|l| l.split("_G").next().unwrap().to_owned())
            .collect()
    };
    assert_eq!(unnamed(facade), unnamed(or));
}

const DEEP: &str = "deep(0, z). deep(N, f(T)) :- N > 0, M is N - 1, deep(M, T).";

/// Run `f` on a thread with the 2 MiB stack a fleet or test thread gets.
fn on_a_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .expect("the thread's stack held")
}

#[test]
fn a_deep_answer_renders_on_a_small_stack() {
    let line = on_a_small_stack(|| {
        let ace = Ace::load(DEEP).unwrap();
        let cfg = EngineConfig::default();
        let mut r = ace
            .run_strict(Mode::Sequential, "deep(200000, T)", &cfg)
            .unwrap();
        // the term is as usable as it is printable
        let twice = ace
            .run_strict(
                Mode::Sequential,
                "deep(200000, T), copy_term(T, U), T == U, T = U",
                &cfg,
            )
            .unwrap();
        assert_eq!(twice.solutions[0].len(), 2 * 600_003 + 2);
        r.solutions.remove(0)
    });
    assert_eq!(line.len(), 600_003);
    assert!(
        line.starts_with("T=f(f(f(") && line.ends_with(&format!("f(z){}", ")".repeat(199_999)))
    );
}

#[test]
fn a_deep_answer_streams_from_a_server_session() {
    let ace = Ace::load(DEEP).unwrap();
    // fleet threads are spawned with the platform's default stack
    let server = ace.serve(ServerConfig::default().with_fleet(1));
    for mode in [Mode::Sequential, Mode::OrParallel] {
        let req = QueryRequest::new(mode, "deep(200000, T)", EngineConfig::default());
        let (answers, outcome) = server.submit(req).unwrap().drain();
        assert_eq!(outcome.end, SessionEnd::Completed, "{mode:?}");
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].len(), 600_003, "{mode:?}");
    }
    server.shutdown();
}
