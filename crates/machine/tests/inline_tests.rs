//! Tests compiled inline (`StepKind::Test`): an arithmetic comparison,
//! `==`, `\==`, the term order or a type test in a compiled clause body is
//! decided off the step template and the clause's registers. It costs one
//! `instr` (plus the arithmetic operations it applies), writes no heap
//! cell and pushes no continuation node; an if-then-else on one picks its
//! branch with no choice point. An operand the registers cannot show — an
//! unset register, a single-occurrence variable, a compound written in the
//! clause — sends the goal to the builtin, materialized exactly as it was
//! before tests ran inline: the pins below were taken there.

use std::sync::Arc;

use ace_logic::{sym, Database, StepKind, TermTest, TestOp};
use ace_machine::{Machine, Status};
use ace_runtime::{ClauseExec, CostModel};

/// One all-solutions run: its answers and what it paid.
#[derive(Debug, PartialEq, Eq)]
struct Run {
    answers: Vec<String>,
    cost: u64,
    heap_cells: u64,
    /// Continuation nodes the machine ran (one per `step`).
    steps: u64,
    choice_points: u64,
}

fn run_with(src: &str, query: &str, exec: ClauseExec) -> Run {
    let db = Arc::new(Database::load(src).unwrap());
    let mut m = Machine::new(db, Arc::new(CostModel::default()));
    m.set_clause_exec(exec);
    let vars = m.load_query_text(query).unwrap();
    let mut answers = Vec::new();
    let mut steps = 0;
    let mut status = Status::Running;
    loop {
        match status {
            Status::Running => {
                steps += 1;
                status = m.step();
            }
            Status::Solution => {
                answers.push(m.answer_line(&vars));
                status = m.backtrack();
            }
            Status::Failed => break,
            other => panic!("{query}: {other:?}"),
        }
    }
    Run {
        answers,
        cost: m.stats.cost,
        heap_cells: m.stats.heap_cells,
        steps,
        choice_points: m.stats.choice_points,
    }
}

fn run(src: &str, query: &str) -> Run {
    run_with(src, query, ClauseExec::Compiled)
}

/// Every test, with two arguments it holds for.
fn every_test() -> Vec<(TestOp, &'static str, &'static str)> {
    let arith = [
        ("=:=", "1", "1"),
        ("=\\=", "1", "2"),
        ("<", "1", "2"),
        (">", "2", "1"),
        ("=<", "1", "1"),
        (">=", "2", "1"),
    ];
    let term = |t: TermTest| match t {
        TermTest::Eq => ("f(a)", "f(a)"),
        TermTest::Ne => ("f(a)", "f(b)"),
        TermTest::Lt | TermTest::Le => ("a", "b"),
        TermTest::Gt | TermTest::Ge => ("g(1)", "f(a)"),
        TermTest::Var => ("_", "y"),
        TermTest::Integer => ("-3", "y"),
        TermTest::Atomic => ("[]", "y"),
        TermTest::Nonvar | TermTest::Compound | TermTest::Ground => ("[1, 2]", "y"),
        TermTest::Atom => ("a", "y"),
    };
    arith
        .into_iter()
        .map(|(op, a, b)| (TestOp::Arith(sym(op)), a, b))
        .chain(TermTest::ALL.into_iter().map(|t| {
            let (a, b) = term(t);
            (TestOp::Term(t), a, b)
        }))
        .collect()
}

/// `test(A, B)` or `test(A)`.
fn goal(op: TestOp, a: &str, b: &str) -> String {
    match op {
        TestOp::Arith(s) => format!("{a} {} {b}", s.name()),
        TestOp::Term(t) if t.arity() == 2 => format!("{a} {} {b}", t.name()),
        TestOp::Term(t) => format!("{}({a})", t.name()),
    }
}

const FRAME: &str = "id(T, T).\nlast(_, _).\n\
                     base(X, Y) :- id(X, A), id(Y, B), last(A, B).\n";

#[test]
fn each_test_costs_one_instruction_and_no_cell_or_continuation_node() {
    let costs = CostModel::default();
    for (op, a, b) in every_test() {
        // After a call, over an environment; and at the neck, over the
        // head's registers.
        let src = format!(
            "{FRAME}after(X, Y) :- id(X, A), id(Y, B), {}, last(A, B).\n\
             neck(X, Y) :- {}, id(X, A), id(Y, B), last(A, B).\n",
            goal(op, "A", "B"),
            goal(op, "X", "Y"),
        );
        let db = Database::load(&src).unwrap();
        for (name, step) in [("after", 2), ("neck", 0)] {
            let st = &db.predicate(sym(name), 2).unwrap().clauses[0]
                .code()
                .steps(0)[step];
            assert_eq!(st.kind, StepKind::Test(op), "{name}: {op:?}");
        }
        let base = run(&src, &format!("base({a}, {b})"));
        let ops = match op {
            TestOp::Arith(_) => costs.arith_op,
            TestOp::Term(_) => 0,
        };
        for name in ["after", "neck"] {
            let with = run(&src, &format!("{name}({a}, {b})"));
            assert_eq!(with.answers.len(), 1, "{name}: {op:?} holds");
            assert_eq!(with.cost, base.cost + costs.instr + ops, "{name}: {op:?}");
            assert_eq!(with.heap_cells, base.heap_cells, "{name}: {op:?}");
            assert_eq!(with.steps, base.steps, "{name}: {op:?}");
            assert_eq!(with.choice_points, 0, "{name}: {op:?}");
        }
    }
}

/// A variable bound to a compound is read through its register: the test
/// is inline, whichever side it is on.
#[test]
fn a_register_holding_a_compound_is_read_in_place() {
    let src = format!(
        "{FRAME}bound(X, Y) :- id(X, A), id(Y, B), A \\== B, A @< B, ground(A), last(A, B).\n"
    );
    let base = run(&src, "base(f(a, [1]), f(b, []))");
    let with = run(&src, "bound(f(a, [1]), f(b, []))");
    assert_eq!(with.answers.len(), 1);
    assert_eq!(with.cost, base.cost + 3 * CostModel::default().instr);
    assert_eq!(with.heap_cells, base.heap_cells);
    assert_eq!(with.steps, base.steps);
}

/// Operands a test cannot read off the registers, each in a step of its
/// own: a variable first met in the body at the neck (its register is
/// unset), a single-occurrence variable, compounds written in the clause,
/// and an if-then-else whose condition bails.
const BAIL: &str = "id(T, T).\n\
    d(a). d(f(a)). d(g(1, b)). d(_). d(3).\n\
    fresh(X, R) :- var(Z), Z = X, R = Z.\n\
    fresh_eq(X, R) :- Z \\== X, Z = R.\n\
    single(X) :- X \\== _, id(X, _).\n\
    single_var(X) :- var(_), id(X, _).\n\
    written(X) :- X == f(a), id(X, _).\n\
    written_order(X) :- X @< g(1, b), id(X, _).\n\
    written_ground(X) :- ground(f(X)), id(X, _).\n\
    later(X) :- id(X, Y), Y \\== f(Y), compound(f(Y)).\n\
    ite(X, R) :- ( X == f(a) -> R = yes ; R = no ).\n\
    ite_fresh(X, R) :- ( var(Z) -> Z = X, R = yes ; R = no ).\n";

/// `(query, answers, cost, heap_cells, steps, choice_points)` of each bail
/// case over every term of `d/1`, taken where every term test was the
/// materialized builtin.
const BAIL_PINS: [(&str, usize, u64, u64, u64, u64); 10] = [
    ("d(X), fresh(X, R)", 5, 258, 90, 22, 1),
    ("d(X), fresh_eq(X, R)", 5, 234, 80, 22, 1),
    ("d(X), single(X)", 5, 254, 75, 22, 1),
    ("d(X), single_var(X)", 5, 249, 70, 22, 1),
    ("d(X), written(X)", 1, 196, 64, 14, 1),
    ("d(X), written_order(X)", 4, 248, 81, 20, 1),
    ("d(X), written_ground(X)", 4, 238, 71, 20, 1),
    ("d(X), later(X)", 5, 349, 125, 27, 1),
    ("d(X), ite(X, R)", 5, 386, 90, 28, 6),
    ("d(X), ite_fresh(X, R)", 5, 448, 110, 42, 6),
];

#[test]
fn a_bailed_test_answers_and_costs_as_the_builtin() {
    let got: Vec<_> = BAIL_PINS
        .iter()
        .map(|&(query, ..)| {
            let r = run(BAIL, query);
            let oracle = run_with(BAIL, query, ClauseExec::Interpreted);
            assert_eq!(r.answers, oracle.answers, "{query}");
            (
                query,
                r.answers.len(),
                r.cost,
                r.heap_cells,
                r.steps,
                r.choice_points,
            )
        })
        .collect();
    assert_eq!(got, BAIL_PINS);
}

#[test]
fn an_if_then_else_on_a_term_test_makes_no_choice_point() {
    let src = "kind(X, R) :- ( X == a -> R = is_a ; R = other ).\n\
               free(X, R) :- ( var(X) -> R = free ; R = bound ).\n\
               order(X, Y, R) :- ( X @>= Y -> R = high ; R = low ).\n\
               written(X, R) :- ( X @>= f(a) -> R = high ; R = low ).\n";
    let db = Database::load(src).unwrap();
    let listing = db.predicate(sym("kind"), 2).unwrap().clauses[0]
        .code()
        .disassemble();
    assert_eq!(
        listing[listing.len() - 4],
        "switch_test   ==/2 % if-then-else, no choice point"
    );
    for (query, answer) in [
        ("kind(a, R)", "R=is_a"),
        ("kind(f(a), R)", "R=other"),
        ("free(_, R)", "R=free"),
        ("free(1, R)", "R=bound"),
        ("order(g(b), f(a), R)", "R=high"),
        ("order(b, f(a), R)", "R=low"),
    ] {
        let r = run(src, query);
        assert!(
            r.answers.len() == 1 && r.answers[0].contains(answer),
            "{query}: {:?}",
            r.answers
        );
        assert_eq!(r.choice_points, 0, "{query}");
        let oracle = run_with(src, query, ClauseExec::Interpreted);
        assert_eq!(r.answers, oracle.answers, "{query}");
        assert!(
            oracle.choice_points > 0,
            "{query}: the oracle's if-then-else"
        );
    }
    // A compound in the condition bails: the generic if-then-else runs it.
    let r = run(src, "written(g(b), R)");
    assert_eq!(r.answers, ["R=high"]);
    assert!(r.choice_points > 0);
}

/// A builtin keeps its precedence over a same-named user predicate, as
/// `length/2` does in `linking.rs`: a clause of `==`/2 is never called,
/// inline or by name.
#[test]
fn a_user_struct_eq_still_loses_to_the_builtin() {
    let src = "'=='(_, _).\np(X, Y) :- X == Y.\nq(X, Y) :- id(X, A), A == Y.\nid(T, T).";
    let db = Database::load(src).unwrap();
    let st = &db.predicate(sym("p"), 2).unwrap().clauses[0]
        .code()
        .steps(0)[0];
    assert_eq!(st.kind, StepKind::Test(TestOp::Term(TermTest::Eq)));
    assert_eq!(st.callee.get(), None);
    for query in ["p(a, b)", "q(a, b)", "a == b", "p(X, Y)"] {
        assert_eq!(run(src, query).answers, Vec::<String>::new(), "{query}");
    }
    assert_eq!(run(src, "p(a, a)").answers.len(), 1);
}

#[test]
fn the_listing_names_each_test() {
    let db = Database::load(include_str!("../../programs/pl/maps.pl")).unwrap();
    let listing = db.predicate(sym("maps"), 1).unwrap().clauses[0]
        .code()
        .disassemble();
    assert_eq!(
        listing
            .iter()
            .filter(|l| *l == "test          \\==/2 % inline")
            .count(),
        17
    );
}

#[test]
fn number_runs_the_integer_test_under_its_own_name() {
    assert_eq!(
        TestOp::of(sym("number"), 1),
        Some(TestOp::Term(TermTest::Integer))
    );
    let src = "p(X) :- number(X), integer(X).\nq(X, Y) :- ( number(X) -> Y = n ; Y = o ).";
    let db = Database::load(src).unwrap();
    let listing = |p, n| {
        db.predicate(sym(p), n).unwrap().clauses[0]
            .code()
            .disassemble()
    };
    assert_eq!(
        listing("p", 1)[..3],
        [
            "get_var       X0, A0",
            "test          number/1 % inline",
            "test          integer/1 % inline",
        ]
    );
    assert_eq!(
        listing("q", 2)[2],
        "switch_test   number/1 % if-then-else, no choice point"
    );
    assert_eq!(run(src, "p(-3)").answers.len(), 1);
    assert_eq!(run(src, "p(a)").answers.len(), 0);
    assert_eq!(run(src, "q(2, Y)").answers, ["Y=n"]);
    assert_eq!(run(src, "q(f(2), Y)").answers, ["Y=o"]);
}
