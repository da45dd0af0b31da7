//! Argument indexes on demand: a call whose first argument is unbound, on
//! a predicate of at least `ARG_INDEX_MIN_CLAUSES` clauses, is dispatched
//! on its leftmost bound argument — clauses that cannot match are never
//! tried, and a call left with one candidate creates no choice point.
//! Below the threshold a call runs exactly as it always did.

use std::sync::{Arc, Barrier};

use ace_logic::db::ARG_INDEX_MIN_CLAUSES;
use ace_logic::{sym, Database, IndexKey};
use ace_machine::solve::Solver;
use ace_runtime::{ClauseExec, CostModel, Stats};

/// Ten `shade/2` facts: `red` names two of them, `white` one.
const SHADES: &str = "
    shade(sky, blue).
    shade(grass, green).
    shade(rose, red).
    shade(sea, blue).
    shade(ruby, red).
    shade(leaf, green).
    shade(coal, black).
    shade(snow, white).
    shade(ink, blue).
    shade(moss, green).
";

/// All answers of `query` and the machine's counters after them.
fn run(db: &Arc<Database>, query: &str, exec: ClauseExec) -> (Vec<String>, Stats) {
    let mut s = Solver::new(db.clone(), Arc::new(CostModel::default()), query).unwrap();
    s.machine_mut().set_clause_exec(exec);
    let answers = s.collect_solutions(None).unwrap();
    let answers = answers.into_iter().map(|a| a.into_line()).collect();
    (answers, s.machine().stats)
}

#[test]
fn a_second_argument_that_picks_one_clause_makes_no_choice_point() {
    let db = Arc::new(Database::load(SHADES).unwrap());
    assert!(db.predicate(sym("shade"), 2).unwrap().clauses.len() >= ARG_INDEX_MIN_CLAUSES);
    let (answers, stats) = run(&db, "shade(X, white)", ClauseExec::Compiled);
    assert_eq!(answers, ["X=snow"]);
    assert_eq!(stats.choice_points, 0);
    assert_eq!(stats.index_determinate_calls, 1);
    assert_eq!(stats.code_cache_hits, 1, "one clause tried");
    assert_eq!(stats.clauses_skipped_by_index, 9);
}

#[test]
fn a_retry_through_a_two_candidate_chain_yields_both_answers_in_source_order() {
    let db = Arc::new(Database::load(SHADES).unwrap());
    let (answers, stats) = run(&db, "shade(X, red)", ClauseExec::Compiled);
    assert_eq!(answers, ["X=rose", "X=ruby"]);
    assert_eq!(stats.choice_points, 1);
    assert_eq!(stats.code_cache_hits, 2, "no head fails");
    assert_eq!(stats.index_determinate_calls, 0);
    // The interpreter oracle keeps its first-argument scan: the same
    // answers after trying every clause.
    let (scanned, oracle) = run(&db, "shade(X, red)", ClauseExec::Interpreted);
    assert_eq!(scanned, answers);
    assert_eq!(oracle.clauses_skipped_by_index, 0);
    assert!(oracle.choice_points >= stats.choice_points);
}

/// The corpus guarantee: a predicate under the threshold is dispatched on
/// its first argument alone. These counts are what a 2-clause `member/2`
/// called with an unbound first argument cost before argument indexes.
#[test]
fn member_with_an_unbound_first_argument_is_scanned_as_before() {
    let db =
        Arc::new(Database::load("member(X, [X|_]).\nmember(X, [_|T]) :- member(X, T).").unwrap());
    let (answers, stats) = run(&db, "member(X, [])", ClauseExec::Compiled);
    assert!(answers.is_empty());
    assert_eq!(
        (
            stats.calls,
            stats.choice_points,
            stats.code_cache_hits,
            stats.clauses_skipped_by_index,
            stats.index_determinate_calls,
            stats.backtracks,
        ),
        (1, 1, 2, 0, 0, 1)
    );
}

#[test]
fn racing_threads_build_one_argument_index_and_read_the_same_chain() {
    let db = Arc::new(Database::load(SHADES).unwrap());
    let barrier = Barrier::new(4);
    let red = IndexKey::Atom(sym("red"));
    let seen: Vec<(Vec<u32>, usize, Vec<String>)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let pred = db.predicate(sym("shade"), 2).unwrap();
                    let chain = pred.matching_chain(1, red);
                    let (answers, _) = run(&db, "shade(X, green)", ClauseExec::Compiled);
                    (chain.to_vec(), chain.as_ptr() as usize, answers)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for (chain, at, answers) in &seen {
        assert_eq!(chain, &[2, 4]);
        assert_eq!(*at, seen[0].1, "one index was kept");
        assert_eq!(answers, &["X=grass", "X=leaf", "X=moss"]);
    }
}
