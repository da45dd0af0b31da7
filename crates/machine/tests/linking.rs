//! Load-time linking of body calls: which call steps the database's link
//! pass resolves to a predicate id, and that a linked call runs exactly as
//! the same call found by name would.

use std::sync::Arc;

use ace_logic::{sym, Database, PredId};
use ace_machine::solve::{all_solutions, SolveError};

/// The callee of step `step` of the first clause of `name/arity`.
fn callee(db: &Database, name: &str, arity: u32, step: usize) -> Option<PredId> {
    let pred = db.predicate(sym(name), arity).unwrap();
    pred.clauses[0].code().steps(0)[step].callee.get()
}

#[test]
fn a_callee_a_later_consult_defines_is_linked_then() {
    let mut db = Database::new();
    db.consult("p(X) :- q(X), r(X).\nr(_).").unwrap();
    assert_eq!(callee(&db, "p", 1, 0), None, "q/1 is not defined yet");
    assert_eq!(callee(&db, "p", 1, 1), db.pred_id(sym("r"), 1));
    db.consult("q(1). q(2).").unwrap();
    assert_eq!(callee(&db, "p", 1, 0), db.pred_id(sym("q"), 1));
    assert_eq!(callee(&db, "p", 1, 1), db.pred_id(sym("r"), 1));
    let db = Arc::new(db);
    assert_eq!(all_solutions(&db, "p(X)").unwrap(), ["X=1", "X=2"]);
}

#[test]
fn every_call_of_a_defined_predicate_is_linked() {
    let db = Database::load(include_str!("../../programs/pl/maps.pl")).unwrap();
    let col = db.pred_id(sym("col"), 1);
    let steps = db.predicate(sym("maps"), 1).unwrap().clauses[0]
        .code()
        .steps(0);
    // col/1 is linked; `\==`/2 is a builtin and is not.
    for st in steps {
        let want = (st.functor() == Some((sym("col"), 1))).then_some(col.unwrap());
        assert_eq!(st.callee.get(), want, "{:?}", st.functor());
    }
    assert_eq!(
        steps.iter().filter(|s| s.callee.get().is_some()).count(),
        10
    );
}

/// A builtin keeps its precedence over a same-named user predicate: the
/// link pass leaves the call unresolved and `dispatch` runs the builtin.
#[test]
fn a_user_length_still_loses_to_the_builtin() {
    let db = Database::load("length(_, 99).\nn(N) :- length([a, b, c], N).").unwrap();
    assert_eq!(callee(&db, "n", 1, 0), None);
    let db = Arc::new(db);
    assert_eq!(all_solutions(&db, "n(N)").unwrap(), ["N=3"]);
    assert_eq!(all_solutions(&db, "length([a], N)").unwrap(), ["N=1"]);
}

#[test]
fn an_undefined_callee_errs_as_a_call_by_name_does() {
    let db = Arc::new(Database::load("p :- nope(1).\nq :- call(nope(1)).").unwrap());
    let undefined = SolveError::Execution("undefined predicate nope/1".into());
    assert_eq!(all_solutions(&db, "p"), Err(undefined.clone()));
    assert_eq!(all_solutions(&db, "q"), Err(undefined.clone()));
    assert_eq!(all_solutions(&db, "nope(1)"), Err(undefined));
}

/// Goals built at run time — through `call/N`, or a variable goal — have
/// no step to link and still dispatch by functor.
#[test]
fn goals_built_at_run_time_dispatch_by_functor() {
    let db = Database::load(
        "q(1). q(2).\n\
         c(X) :- call(q, X).\n\
         v(X) :- G = q(X), G.\n\
         w(X) :- findall(Y, q(Y), L), L = [_, X].",
    )
    .unwrap();
    assert_eq!(callee(&db, "c", 1, 0), None);
    assert_eq!(callee(&db, "v", 1, 1), None);
    let db = Arc::new(db);
    assert_eq!(all_solutions(&db, "c(X)").unwrap(), ["X=1", "X=2"]);
    assert_eq!(all_solutions(&db, "v(X)").unwrap(), ["X=1", "X=2"]);
    assert_eq!(all_solutions(&db, "w(X)").unwrap(), ["X=2"]);
}
