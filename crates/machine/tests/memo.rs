//! Machine-level memoization tests: the memo watch protocol (a `MemoStore`
//! frame after the watched call), tabled-answer replay, and the zero-cost
//! opt-out.

use std::sync::Arc;

use ace_logic::{sym, CanonKey, Database, Heap, TermArena};
use ace_machine::Solver;
use ace_runtime::{CostModel, EngineConfig};
use ace_table::{AnswerStore, PublishOutcome, StoreConfig};

const LISTS: &str = r#"
    append([], L, L).
    append([H|T], L, [H|R]) :- append(T, L, R).
    member(X, [X|_]).
    member(X, [_|T]) :- member(X, T).
    nrev([], []).
    nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
"#;

fn db(src: &str) -> Arc<Database> {
    Arc::new(Database::load(src).unwrap())
}

fn table() -> Arc<AnswerStore> {
    Arc::new(AnswerStore::new(&StoreConfig::default()))
}

fn memoizing() -> EngineConfig {
    let mut cfg = EngineConfig::default();
    cfg.store.memoize = true;
    cfg
}

fn solver(d: &Arc<Database>, query: &str, memo: Option<Arc<AnswerStore>>) -> Solver {
    let mut s = Solver::new(d.clone(), Arc::new(CostModel::default()), query).unwrap();
    s.machine_mut().set_store(memo, &memoizing(), false);
    s
}

fn all(s: &mut Solver) -> Vec<String> {
    s.collect_solutions(None)
        .unwrap()
        .into_iter()
        .map(|sol| sol.render())
        .collect()
}

#[test]
fn deterministic_calls_are_stored_then_hit() {
    let d = db(LISTS);
    let t = table();

    // Cold run: nrev is fully deterministic under first-argument indexing,
    // so every subgoal's single answer is published.
    let mut cold = solver(&d, "nrev([1,2,3,4,5], R)", Some(t.clone()));
    let cold_sols = all(&mut cold);
    assert_eq!(cold_sols, vec!["R=[5,4,3,2,1]"]);
    let cold_stats = cold.machine().stats;
    assert!(cold_stats.memo_stores > 0, "{}", cold_stats.summary());
    assert!(cold_stats.memo_misses > 0, "{}", cold_stats.summary());

    // Warm run against the shared table: the top-level call hits
    // immediately and the whole recursion is skipped.
    let mut warm = solver(&d, "nrev([1,2,3,4,5], R)", Some(t.clone()));
    let warm_sols = all(&mut warm);
    assert_eq!(warm_sols, cold_sols);
    let warm_stats = &warm.machine().stats;
    assert!(warm_stats.memo_hits >= 1, "{}", warm_stats.summary());
    assert!(
        warm_stats.calls < cold_stats.calls,
        "warm {} vs cold {}",
        warm_stats.calls,
        cold_stats.calls
    );
    assert!(warm_stats.cost < cold_stats.cost);

    let c = t.counters();
    assert_eq!(c.stores, cold_stats.memo_stores);
    assert!(c.hits >= 1);
}

#[test]
fn nondeterministic_calls_are_never_stored() {
    let d = db(LISTS);
    let t = table();

    let mut s = solver(&d, "member(X, [a,b,c])", Some(t.clone()));
    assert_eq!(all(&mut s), vec!["X=a", "X=b", "X=c"]);
    // A surviving choice point at marker arrival means the answer set is
    // not proven complete; nothing may be tabled.
    assert_eq!(s.machine().stats.memo_stores, 0);
    assert_eq!(t.len(), 0);

    // And a re-run is bit-identical to the first (no warm-table effect).
    let mut s2 = solver(&d, "member(X, [a,b,c])", Some(t));
    assert_eq!(all(&mut s2), vec!["X=a", "X=b", "X=c"]);
    assert_eq!(s2.machine().stats.memo_hits, 0);
}

#[test]
fn memo_on_preserves_solutions_and_their_order() {
    let progs: &[(&str, &str)] = &[
        (LISTS, "nrev([1,2,3,4], R)"),
        (LISTS, "append(A, B, [1,2,3])"),
        (LISTS, "member(X, [p,q,r]), member(X, [r,s,p])"),
        ("p(1). p(2). q(2). q(3).", "p(X), q(X)"),
        (
            "f(0, 1). f(N, F) :- N > 0, M is N - 1, f(M, G), F is N * G.",
            "f(8, F)",
        ),
    ];
    for (src, query) in progs {
        let d = db(src);
        let mut off = solver(&d, query, None);
        let expect = all(&mut off);

        let t = table();
        // Twice against the same table: cold then warm.
        for round in 0..2 {
            let mut on = solver(&d, query, Some(t.clone()));
            assert_eq!(all(&mut on), expect, "{query} round {round}");
        }
    }
}

#[test]
fn memo_off_machine_never_touches_the_table() {
    let d = db(LISTS);
    let mut s = solver(&d, "nrev([1,2,3], R)", None);
    assert!(!s.machine().memo_enabled());
    assert_eq!(all(&mut s).len(), 1);
    let st = &s.machine().stats;
    assert_eq!(st.memo_hits, 0);
    assert_eq!(st.memo_misses, 0);
    assert_eq!(st.memo_stores, 0);
    assert_eq!(st.memo_evictions, 0);
    assert!(s.machine_mut().take_events().is_empty());
}

#[test]
fn manually_published_answer_sets_replay_in_order() {
    // Build a two-answer entry for q(_) by hand: keys are
    // variant-invariant, so a key computed on a scratch heap matches the
    // one the machine computes at call time. An answer is the bindings of
    // the call's variables, frozen jointly.
    let mut h = Heap::new();
    let v = h.new_var();
    let goal = h.new_struct(sym("q"), &[v]);
    let key = CanonKey::of(&h, goal);

    let mut answers = Vec::new();
    for i in [1i64, 2] {
        let c = ace_logic::Cell::Int(i);
        answers.push(TermArena::freeze_tuple(&h, sym("$subst"), &[c]));
    }
    let t = table();
    assert!(matches!(
        t.publish(&key, answers),
        PublishOutcome::Stored { .. }
    ));

    // `q/1` has no clauses in the database at all: the only way the call
    // can succeed is by replaying the tabled answers.
    let d = db("p(0).");
    let mut s = solver(&d, "q(X)", Some(t.clone()));
    assert_eq!(all(&mut s), vec!["X=1", "X=2"]);
    assert_eq!(s.machine().stats.memo_hits, 1);
    assert_eq!(t.counters().hits, 1);
}

#[test]
fn manually_published_empty_answer_set_fails_the_call() {
    let mut h = Heap::new();
    let v = h.new_var();
    let goal = h.new_struct(sym("q"), &[v]);
    let key = CanonKey::of(&h, goal);
    let t = table();
    t.publish(&key, Vec::new());

    let d = db("p(0).");
    let mut s = solver(&d, "q(X)", Some(t));
    assert_eq!(all(&mut s).len(), 0);
    assert_eq!(s.machine().stats.memo_hits, 1);
}

#[test]
fn warm_table_is_shared_across_machines() {
    let d = db(LISTS);
    let t = table();

    let mut first = solver(&d, "nrev([9,8,7,6], R)", Some(t.clone()));
    all(&mut first);
    let stores = first.machine().stats.memo_stores;
    assert!(stores > 0);

    // A different query over the same table still hits the shared
    // sub-results (nrev of the shorter suffixes).
    let mut second = solver(&d, "nrev([8,7,6], R)", Some(t.clone()));
    assert_eq!(all(&mut second), vec!["R=[6,7,8]"]);
    assert!(second.machine().stats.memo_hits >= 1);
    assert_eq!(second.machine().stats.memo_stores, 0);
}

#[test]
fn memo_trace_events_are_buffered_and_drained() {
    use ace_runtime::EventKind;

    let d = db(LISTS);
    let t = table();
    let mut s = Solver::new(
        d.clone(),
        Arc::new(CostModel::default()),
        "nrev([1,2,3], R)",
    )
    .unwrap();
    s.machine_mut()
        .set_store(Some(t.clone()), &memoizing(), true);
    assert_eq!(all(&mut s).len(), 1);

    let events = s.machine_mut().take_events();
    let stores = events
        .iter()
        .filter(|e| matches!(e, EventKind::MemoStore { .. }))
        .count();
    assert_eq!(stores as u64, s.machine().stats.memo_stores);
    assert!(stores > 0);
    // Drain is destructive.
    assert!(s.machine_mut().take_events().is_empty());

    // Warm re-run emits a hit event for the tabled top-level call.
    let mut w = Solver::new(d, Arc::new(CostModel::default()), "nrev([1,2,3], R)").unwrap();
    w.machine_mut().set_store(Some(t), &memoizing(), true);
    assert_eq!(all(&mut w).len(), 1);
    let events = w.machine_mut().take_events();
    assert!(events
        .iter()
        .any(|e| matches!(e, EventKind::MemoHit { .. })));
}

#[test]
fn cut_and_ite_derivations_are_not_tabled_but_stay_correct() {
    // These allocate (then cut) choice points, so the strict determinism
    // validation refuses to table them — and solutions must be unchanged.
    let d = db(r#"
        max(X, Y, X) :- X >= Y, !.
        max(_, Y, Y).
        classify(X, neg) :- (X < 0 -> true ; fail).
        classify(X, nonneg) :- (X < 0 -> fail ; true).
    "#);
    let t = table();
    let mut s = solver(&d, "max(3, 2, M)", Some(t.clone()));
    assert_eq!(all(&mut s), vec!["M=3"]);
    let mut s = solver(&d, "classify(-5, C)", Some(t.clone()));
    assert_eq!(all(&mut s), vec!["C=neg"]);
    assert_eq!(t.len(), 0, "cut/ite answers must not be tabled");
}
