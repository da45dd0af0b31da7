//! Reader robustness: arbitrary input must never panic the parser — it
//! either produces a term or a positioned syntax error — and no input may
//! overflow the stack, which would abort the process past any
//! `catch_unwind`. The tests run on the harness's default 2 MiB threads.

use proptest::prelude::*;

use ace_logic::read::MAX_DEPTH;
use ace_logic::{parse_program, parse_term, Database, Heap, ReadError};

fn term_error(src: &str) -> ReadError {
    parse_term(&mut Heap::new(), src).expect_err("must be rejected")
}

/// Bracket, argument and prefix-operator nesting is refused past
/// `MAX_DEPTH`, at the token that would open the next level. The 10 000
/// cases are the ones that aborted the old reader; 100 000 is the issue's
/// acceptance bound.
#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    for depth in [10_000usize, 100_000] {
        for (open, close) in [
            ("f(", ")"),
            ("[", "]"),
            ("(", ")"),
            ("- ", ""),
            ("\\+ ", ""),
        ] {
            let src = format!("{}a{}", open.repeat(depth), close.repeat(depth));
            let e = term_error(&src);
            assert_eq!(e.msg, "term nesting too deep", "{open} x {depth}");
            assert_eq!(e.at, open.len() * MAX_DEPTH as usize, "{open} x {depth}");
            let e = parse_program(&format!("ok. p :- {src}.")).expect_err("must be rejected");
            assert_eq!(
                e.at,
                "ok. p :- ".len() + open.len() * (MAX_DEPTH as usize - 1)
            );
        }
    }
    // Mixed nesting counts every kind of level once.
    let src = "f([(- ".repeat(MAX_DEPTH as usize / 4 + 1);
    assert_eq!(term_error(&src).msg, "term nesting too deep");
}

/// The deepest accepted term is accepted, closed or not, and still reports
/// ordinary errors.
#[test]
fn nesting_up_to_the_limit_is_read() {
    let depth = MAX_DEPTH as usize;
    let src = format!("{}a{}", "f(".repeat(depth - 1), ")".repeat(depth - 1));
    assert!(parse_term(&mut Heap::new(), &src).is_ok());
    let e = term_error(&"[".repeat(depth - 1));
    assert_eq!(e.msg, "unexpected end of input");
}

/// `xfy` chains and list items are read in a loop: a conjunction or a list
/// of 100 000 is not nesting, for the reader or for the loader behind it.
#[test]
fn long_conjunctions_and_lists_are_not_nesting() {
    let n = 100_000;
    let goals = vec!["a"; n].join(", ");
    assert!(parse_term(&mut Heap::new(), &goals).is_ok());
    let db = Database::load(&format!("p :- {goals}.")).expect("a long body loads");
    assert_eq!(db.clause_count(), 1);
    let items = vec!["1"; n].join(",");
    let read = parse_program(&format!("q([{items}]).\nr :- x ; {goals}.")).expect("long chains");
    assert_eq!(read.len(), 2);
    // Left-nested chains loop too (`yfx`), and mixed `xfy` levels fold.
    let sum = vec!["1"; n].join("+");
    assert!(parse_term(&mut Heap::new(), &format!("X is {sum}")).is_ok());
    let mixed = vec!["a , b ; c -> d & e"; n / 5].join(" ; ");
    assert!(parse_term(&mut Heap::new(), &mixed).is_ok());
}

/// `ReadError::at` is an offset into the whole program text, whichever
/// clause the error is in and whatever comments lie between.
#[test]
fn program_errors_carry_absolute_offsets() {
    let good = "% header\nfirst(1). /* block */ second(X) :- first(X).\n% tail\nthird([a|T], T).\n";
    assert_eq!(parse_program(good).map(|c| c.len()), Ok(3));
    // One broken clause at a time: the error names the `]` that replaces
    // a `)` in the first, second and last clause.
    for closer in ["1)", "X) :-", "T)"] {
        let at = good.find(closer).expect("in the text") + closer.find(')').expect("has one");
        let mut bad = good.to_owned();
        bad.replace_range(at..at + 1, "]");
        let e = parse_program(&bad).expect_err("must be rejected");
        assert_eq!(e.at, at, "{bad}");
        assert!(e.msg.starts_with("expected `,` or `)`"), "{}", e.msg);
    }
    // A clause that never ends is reported where the text ends; a lexical
    // error where the token starts.
    let e = parse_program("a. % c\nb :- c").expect_err("no final dot");
    assert_eq!((e.at, e.msg.as_str()), (13, "clause not terminated by `.`"));
    let e = parse_program("a.\n/* c */ b('x).\n").expect_err("open quote");
    assert_eq!((e.at, e.msg.as_str()), (13, "unterminated quoted atom"));
    let e = parse_program("a. b. /* never closed").expect_err("open comment");
    assert_eq!((e.at, e.msg.as_str()), (6, "unterminated block comment"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes (valid UTF-8 strings) never panic the term parser.
    #[test]
    fn parse_term_never_panics(input in ".*") {
        let mut heap = Heap::new();
        let _ = parse_term(&mut heap, &input);
    }

    /// Arbitrary program text never panics the program parser.
    #[test]
    fn parse_program_never_panics(input in ".*") {
        let _ = parse_program(&input);
    }

    /// Prolog-ish token soup exercises deeper parser paths.
    #[test]
    fn token_soup_never_panics(
        tokens in prop::collection::vec(
            prop_oneof![
                Just("foo".to_owned()),
                Just("X".to_owned()),
                Just("42".to_owned()),
                Just("(".to_owned()),
                Just(")".to_owned()),
                Just("[".to_owned()),
                Just("]".to_owned()),
                Just(",".to_owned()),
                Just("|".to_owned()),
                Just(".".to_owned()),
                Just(":-".to_owned()),
                Just("&".to_owned()),
                Just(";".to_owned()),
                Just("->".to_owned()),
                Just("=".to_owned()),
                Just("is".to_owned()),
                Just("+".to_owned()),
                Just("-".to_owned()),
                Just("'q w'".to_owned()),
                Just("\\+".to_owned()),
                Just("!".to_owned()),
            ],
            0..24
        )
    ) {
        let input = tokens.join(" ");
        let _ = parse_program(&input);
        let mut heap = Heap::new();
        let _ = parse_term(&mut heap, &input);
    }

    /// Whatever parses also prints, and the printed form re-parses to the
    /// same text (writer/reader fixpoint on arbitrary accepted inputs).
    #[test]
    fn accepted_inputs_roundtrip(input in ".*") {
        let mut heap = Heap::new();
        if let Ok((term, _)) = parse_term(&mut heap, &input) {
            let s1 = ace_logic::write::term_to_string(&heap, term);
            let mut h2 = Heap::new();
            let (t2, _) = parse_term(&mut h2, &s1).map_err(|e| {
                TestCaseError::fail(format!("printed form unparsable: {s1:?}: {e}"))
            })?;
            let s2 = ace_logic::write::term_to_string(&h2, t2);
            prop_assert_eq!(s1, s2);
        }
    }
}
