//! Machine-level SLG tabling tests: generator/consumer evaluation of
//! non-determinate tabled predicates, suspension + resumption, duplicate
//! elimination, leader-based SCC completion, and shared-space replay.

use std::sync::Arc;

use ace_logic::Database;
use ace_machine::Solver;
use ace_runtime::{CostModel, EngineConfig, EventKind};
use ace_table::{AnswerStore, StoreConfig};

/// Left recursion over a cyclic graph: the canonical program ordinary
/// resolution cannot terminate on.
const CYCLIC_PATH: &str = r#"
    :- table(path/2).
    path(X, Y) :- path(X, Z), edge(Z, Y).
    path(X, Y) :- edge(X, Y).
    edge(a, b).
    edge(b, c).
    edge(b, d).
    edge(c, a).
"#;

fn db(src: &str) -> Arc<Database> {
    Arc::new(Database::load(src).unwrap())
}

fn space() -> Arc<AnswerStore> {
    Arc::new(AnswerStore::new(&StoreConfig::default()))
}

fn tabling() -> EngineConfig {
    EngineConfig::default().with_tabling()
}

fn solver(d: &Arc<Database>, query: &str, table: Option<Arc<AnswerStore>>) -> Solver {
    let mut s = Solver::new(d.clone(), Arc::new(CostModel::default()), query).unwrap();
    s.machine_mut().set_store(table, &tabling(), false);
    s
}

fn all(s: &mut Solver) -> Vec<String> {
    s.collect_solutions(None)
        .unwrap()
        .into_iter()
        .map(|sol| sol.render())
        .collect()
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn left_recursive_path_terminates_with_the_full_closure() {
    let d = db(CYCLIC_PATH);
    let t = space();
    let mut s = solver(&d, "path(a, X)", Some(t.clone()));
    let sols = sorted(all(&mut s));
    // a -> b -> {c,d}, c -> a closes the cycle: everything is reachable.
    assert_eq!(sols, vec!["X=a", "X=b", "X=c", "X=d"]);

    let st = &s.machine().stats;
    assert_eq!(st.table_subgoals, 1, "{}", st.summary());
    assert_eq!(st.table_answers, 4, "{}", st.summary());
    assert!(st.table_dups >= 1, "the cycle re-derives answers");
    assert!(st.table_suspends >= 1, "{}", st.summary());
    assert!(st.table_resumes >= 1, "{}", st.summary());
    assert_eq!(st.table_completes, 1, "{}", st.summary());
    assert_eq!(t.complete_len(), 1);
}

#[test]
fn completed_tables_replay_as_pure_lookups() {
    let d = db(CYCLIC_PATH);
    let t = space();

    let mut cold = solver(&d, "path(a, X)", Some(t.clone()));
    let cold_sols = sorted(all(&mut cold));
    let cold_stats = cold.machine().stats;

    let mut warm = solver(&d, "path(a, X)", Some(t.clone()));
    let warm_sols = sorted(all(&mut warm));
    assert_eq!(warm_sols, cold_sols);
    let warm_stats = &warm.machine().stats;
    assert_eq!(warm_stats.table_hits, 1, "{}", warm_stats.summary());
    assert_eq!(warm_stats.table_subgoals, 0);
    assert_eq!(warm_stats.table_answers, 0);
    assert!(
        warm_stats.cost < cold_stats.cost,
        "warm {} vs cold {}",
        warm_stats.cost,
        cold_stats.cost
    );
    assert_eq!(t.counters().hits, 1);
}

#[test]
fn mutual_recursion_completes_as_one_scc() {
    // tc and uc feed each other: their generators form a single SCC whose
    // completion must be deferred to the outer (leader) generator.
    let d = db(r#"
        :- table(tc/2, uc/2).
        tc(X, Y) :- uc(X, Z), e1(Z, Y).
        tc(X, Y) :- e1(X, Y).
        uc(X, Y) :- tc(X, Z), e2(Z, Y).
        uc(X, Y) :- e2(X, Y).
        e1(a, b).
        e1(c, d).
        e2(b, c).
    "#);
    let t = space();
    let mut s = solver(&d, "tc(a, X)", Some(t.clone()));
    assert_eq!(sorted(all(&mut s)), vec!["X=b", "X=d"]);
    let st = &s.machine().stats;
    // Both subgoals framed, both completed by the shared leader.
    assert_eq!(st.table_subgoals, 2, "{}", st.summary());
    assert_eq!(st.table_completes, 2, "{}", st.summary());
    assert_eq!(t.complete_len(), 2);

    // The SCC partner uc(a,_) was published complete too: a later call is
    // a pure lookup.
    let mut u = solver(&d, "uc(a, X)", Some(t.clone()));
    assert_eq!(all(&mut u), vec!["X=c"]);
    assert_eq!(u.machine().stats.table_hits, 1);
}

#[test]
fn tabled_predicate_with_no_answers_completes_empty() {
    let d = db(r#"
        :- table(q/1).
        q(X) :- r(X).
        r(_) :- fail.
    "#);
    let t = space();
    let mut s = solver(&d, "q(X)", Some(t.clone()));
    assert!(all(&mut s).is_empty());
    assert_eq!(s.machine().stats.table_completes, 1);
    assert_eq!(t.complete_len(), 1);

    // The failure is now a tabled fact: the warm call fails via lookup.
    let mut w = solver(&d, "q(X)", Some(t.clone()));
    assert!(all(&mut w).is_empty());
    assert_eq!(w.machine().stats.table_hits, 1);
    assert_eq!(w.machine().stats.table_subgoals, 0);
}

#[test]
fn tabled_answers_match_the_untabled_oracle_on_a_dag() {
    // On an acyclic graph the right-recursive untabled formulation
    // terminates too; both must agree (tabling also dedups, so compare
    // sorted sets).
    let d = db(r#"
        :- table(path/2).
        path(X, Y) :- path(X, Z), edge(Z, Y).
        path(X, Y) :- edge(X, Y).
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- edge(X, Z), reach(Z, Y).
        edge(a, b).
        edge(b, c).
        edge(b, d).
        edge(c, e).
    "#);
    let mut oracle = solver(&d, "reach(a, X)", None);
    let mut expect = sorted(all(&mut oracle));
    expect.dedup();

    let t = space();
    let mut tabled = solver(&d, "path(a, X)", Some(t));
    let got = sorted(all(&mut tabled));
    assert_eq!(got, expect);
    // Duplicate elimination is structural: every answer is unique.
    let mut uniq = got.clone();
    uniq.dedup();
    assert_eq!(uniq, got);
}

#[test]
fn distinct_subgoals_of_one_predicate_get_distinct_tables() {
    let d = db(CYCLIC_PATH);
    let t = space();
    let mut s = solver(&d, "path(b, X)", Some(t.clone()));
    assert_eq!(sorted(all(&mut s)), vec!["X=a", "X=b", "X=c", "X=d"]);
    // path(b,_) is a different canonical subgoal than path(a,_): a call
    // on the latter still generates.
    let mut s2 = solver(&d, "path(a, X)", Some(t.clone()));
    assert_eq!(sorted(all(&mut s2)), vec!["X=a", "X=b", "X=c", "X=d"]);
    assert_eq!(s2.machine().stats.table_hits, 0);
    assert_eq!(s2.machine().stats.table_subgoals, 1);
    assert_eq!(t.complete_len(), 2);
}

#[test]
fn table_off_machine_is_table_free() {
    // With no space attached the `:- table` declaration is inert; the
    // machine must not touch any table path (zero-cost off).
    let d = db(r#"
        :- table(e/2).
        e(X, Y) :- edge(X, Y).
        edge(a, b).
        edge(a, c).
    "#);
    let mut s = solver(&d, "e(a, X)", None);
    assert!(!s.machine().table_enabled());
    assert_eq!(all(&mut s), vec!["X=b", "X=c"]);
    let st = &s.machine().stats;
    assert_eq!(st.table_hits, 0);
    assert_eq!(st.table_subgoals, 0);
    assert_eq!(st.table_answers, 0);
    assert_eq!(st.table_suspends, 0);
}

#[test]
fn bound_tabled_calls_key_on_the_instantiated_variant() {
    let d = db(CYCLIC_PATH);
    let t = space();
    // Fully bound call: its canonical key differs from path(a, Var).
    let mut s = solver(&d, "path(a, d)", Some(t.clone()));
    assert_eq!(all(&mut s).len(), 1);
    let mut miss = solver(&d, "path(a, e)", Some(t.clone()));
    assert!(all(&mut miss).is_empty());

    // The open variant is untouched: it still generates, and delivers
    // the full closure.
    let mut open = solver(&d, "path(a, X)", Some(t));
    assert_eq!(open.machine().stats.table_hits, 0);
    assert_eq!(sorted(all(&mut open)), vec!["X=a", "X=b", "X=c", "X=d"]);
}

#[test]
fn trace_events_follow_the_tabling_protocol() {
    let d = db(CYCLIC_PATH);
    let t = space();
    let mut s = Solver::new(d, Arc::new(CostModel::default()), "path(a, X)").unwrap();
    s.machine_mut().set_store(Some(t), &tabling(), true);
    assert_eq!(all(&mut s).len(), 4);

    let events = s.machine_mut().take_events();
    let count =
        |pred: fn(&EventKind) -> bool| -> usize { events.iter().filter(|e| pred(e)).count() };
    let news = count(|e| matches!(e, EventKind::TableNew { .. }));
    let answers = count(|e| matches!(e, EventKind::TableAnswer { .. }));
    let suspends = count(|e| matches!(e, EventKind::TableSuspend { .. }));
    let resumes = count(|e| matches!(e, EventKind::TableResume { .. }));
    let completes = count(|e| matches!(e, EventKind::TableComplete { .. }));
    let st = &s.machine().stats;
    assert_eq!(news as u64, st.table_subgoals);
    assert_eq!(answers as u64, st.table_answers);
    assert_eq!(suspends as u64, st.table_suspends);
    assert_eq!(resumes as u64, st.table_resumes);
    assert_eq!(completes as u64, st.table_completes);
    assert!(news >= 1 && answers >= 4 && suspends >= 1 && resumes >= 1 && completes >= 1);

    // Every resume replays answers that were inserted before it.
    let mut inserted = 0usize;
    for e in &events {
        match e {
            EventKind::TableAnswer { answers, .. } => inserted = (*answers).max(inserted),
            EventKind::TableResume { seen, .. } => {
                assert!(*seen < inserted, "resume at {seen} with {inserted} answers")
            }
            _ => {}
        }
    }
    // Drain is destructive.
    assert!(s.machine_mut().take_events().is_empty());
}

#[test]
fn deep_left_recursive_chain_stays_iterative() {
    // A 200-node chain exercises many suspend/resume rounds; the
    // non-recursive fixpoint loop must not overflow the host stack.
    let mut src = String::from(
        ":- table(path/2).\npath(X, Y) :- path(X, Z), edge(Z, Y).\npath(X, Y) :- edge(X, Y).\n",
    );
    for i in 0..200 {
        src.push_str(&format!("edge(n{i}, n{}).\n", i + 1));
    }
    let d = db(&src);
    let t = space();
    let mut s = solver(&d, "path(n0, X)", Some(t.clone()));
    assert_eq!(all(&mut s).len(), 200);
    assert_eq!(s.machine().stats.table_answers, 200);
    assert_eq!(t.complete_len(), 1);
}
