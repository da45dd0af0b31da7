//! The reader's output, pinned: every clause of every corpus source is
//! rendered (`term_to_string`, which prints variable *addresses*, so the
//! arena layout is pinned too) together with its first-argument index key
//! and the disassembly of its compiled code, and the digest of those lines
//! must equal the one checked in under `tests/golden/reader.txt`. The
//! digests were taken from the `String`-token reader this one replaced.

use ace_logic::write::term_to_string;
use ace_logic::{parse_program, parse_term, Database, Heap};
use ace_programs::gen::Lcg;

const GOLDEN: &str = include_str!("golden/reader.txt");

/// Syntax the corpus uses little or not at all.
const SYNTAX: &str = r#"
% operators, every associativity, with and without layout
a :- b, c ; d -> e ; \+ f.
p(X, Y) :- X = Y, X \= Y, X == Y, X \== Y, X @< Y, X @>= Y, X =.. Y.
q(X) :- X is 1 + 2 * 3 - 4 / 5 // 6 mod 7 rem 8 >> 1 << 2.
r(X) :- X is 2 ** 3, X =:= 2 ^ 3 ^ 4, X =\= - 1, X >= -1, X =< - (1).
s(X) :- X is 1 - -1, X is 1-1, X is a- 1, X is - - 1, X is \ 5, X is + 3.
t :- a, b & c, d.
u :- (a, b), (c ; d), ((e)).
v --> w.
/* block comment */ neck(:-). dash(-). ops(+, *, [-], (;)).
'hello world'('it''s', 'a\nb', '\\', '\'', '[]', []).
'+'(1, 2). '\\='(a, b). f('X', _Y, _, _).
l([]). l([a]). l([a, b | T]). l([[1, 2], [3 | [4]]]). l([a | b]).
m(-9223372036854775807, 9223372036854775807, 0, 007).
n(f(g(h(i(j(k(X))))), X), [X | X]).
dot('.', .., =..). end(x) . % the dot after layout still ends the clause
?- go(1). :- table(r/1, (s/2, t/0)).
cut :- !, fail.
ite(X) :- ( X < 0 -> Y is 0 - X, w(Y) ; X >= 0, w(X) ).
"#;

/// A program of the shape `load_big` loads: indexed facts, then rules of
/// three shapes, from a seed.
fn big_shaped(seed: u64) -> String {
    let mut rng = Lcg::new(seed);
    let mut text = String::new();
    for from in 0..200 {
        for _ in 0..5 {
            let (to, w) = (rng.below(200), rng.below(100));
            text.push_str(&format!("edge(n{from}, n{to}, {w}).\n"));
        }
    }
    for k in 0..60 {
        let offset = rng.below(1000);
        text.push_str(&match k % 3 {
            0 => format!("hop2_{k}(X, Z) :- edge(X, Y, _), edge(Y, Z, _).\n"),
            1 => format!("join3_{k}(X, C) :- edge(X, A, _), edge(A, B, _), edge(B, C, _).\n"),
            _ => format!("cost_{k}(X, Y, C) :- edge(X, Y, W), C is W + {offset}.\n"),
        });
    }
    text
}

fn sources() -> Vec<(String, String, String)> {
    let mut out: Vec<(String, String, String)> = ace_programs::all()
        .iter()
        .map(|b| {
            (
                b.name.to_owned(),
                (b.program)(b.test_size),
                (b.query)(b.test_size),
            )
        })
        .chain(ace_programs::tabled().iter().map(|p| {
            (
                p.name.to_owned(),
                (p.program)(p.test_size),
                (p.query)(p.test_size),
            )
        }))
        .collect();
    out.push((
        "syntax".into(),
        SYNTAX.into(),
        "s(X), \\+ t ; 'q r'(-1)".into(),
    ));
    out.push((
        "big_shaped_7".into(),
        big_shaped(7),
        "edge(n3, Y, W)".into(),
    ));
    out
}

/// One line per clause, then the query with its variable names.
fn render(program: &str, query: &str) -> (usize, String) {
    let clauses = parse_program(program).expect("corpus source parses");
    let count = clauses.len();
    let mut lines = String::new();
    for rc in clauses {
        lines.push_str(&term_to_string(&rc.arena, rc.root));
        let mut db = Database::new();
        db.add_clause(rc).expect("corpus clause loads");
        let (name, arity) = db.predicates().next().expect("one predicate");
        let clause = &db.predicate(name, arity).expect("just added").clauses[0];
        lines.push_str(&format!(
            "\n  {} | {} cells | {}\n",
            clause.key,
            clause.arena_len(),
            clause.code().disassemble().join("; ")
        ));
    }
    let mut heap = Heap::new();
    let (term, names) = parse_term(&mut heap, query).expect("corpus query parses");
    lines.push_str(&format!("?- {} {:?}\n", term_to_string(&heap, term), names));
    (count, lines)
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn reader_reproduces_the_golden_digests() {
    let actual: String = sources()
        .iter()
        .map(|(name, program, query)| {
            let (count, lines) = render(program, query);
            format!("{name} clauses={count} digest={:016x}\n", fnv1a(&lines))
        })
        .collect();
    assert!(
        actual == GOLDEN,
        "reader output drifted from tests/golden/reader.txt; this run gives:\n{actual}"
    );
}
