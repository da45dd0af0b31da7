//! Term writer: renders heap terms back to (re-readable) Prolog text.
//!
//! Operator terms are written infix with minimal parenthesisation based on
//! the same operator table the reader uses, so `parse ∘ write` is the
//! identity on term structure (verified by property tests).

use std::fmt::Write as _;

use crate::fxhash::FxHashSet;
use crate::heap::{Addr, Cell, Heap};
use crate::term::{view, TermView};

/// Render `t` to a string.
pub fn term_to_string(heap: &Heap, t: Cell) -> String {
    let mut out = String::new();
    write_term_to(&mut out, heap, t);
    out
}

/// What is left to write, innermost first.
enum Job {
    /// A term, under a priority bound (higher-priority terms get parens).
    Term(Cell, u16),
    /// A closing bracket.
    Close(char),
    /// The rest of a list of which at least one element has been written.
    Tail(Cell),
    /// The arguments of the structure at this header from this index on,
    /// and its closing parenthesis.
    Args(Addr, u32),
    /// The operator and right argument (under its priority bound) of the
    /// infix term at this header, whose left argument has been written.
    Infix(&'static str, Addr, u16),
    /// The compound at this address is written: it is no longer one of
    /// the compounds being written (second pass only).
    Exit(Addr),
}

/// Append the text of `t` to `out`.
///
/// Walks an explicit work stack, so a term as deep as the heap is large
/// renders on any thread's stack. The stack holds what is suspended around
/// a compound subterm being written; atomic subterms are written where
/// they are met, so a flat list or structure never touches it (nor
/// allocates it).
///
/// A cyclic term (unification has no occurs check: `X = f(X)`) has no
/// finite text. A compound met again inside itself is written `...`, so
/// `X = f(X)` writes `f(...)` and `X = [a|X]` writes `[a|...]`. Watching
/// for that takes a set of the compounds being written, which made
/// `seq_search`'s rounds, whose answers are all short, a fifth slower
/// when every answer paid it (EXPERIMENTS.md, "Cyclic answers: one pass
/// or two"). So a first pass writes without the set and gives up once
/// the bytes it wrote plus the compounds it entered reach 4 096
/// (`FIRST_PASS`); the term is then written again with the set. An
/// acyclic term's text is the same either way.
pub fn write_term_to(out: &mut String, heap: &Heap, t: Cell) {
    let start = out.len();
    let mut w = Writer {
        out,
        heap,
        todo: Vec::new(),
        limit: start + FIRST_PASS,
        gave_up: false,
        open: None,
    };
    if w.write(t) {
        return;
    }
    w.out.truncate(start);
    w.todo.clear();
    w.open = Some(FxHashSet::default());
    w.gave_up = false;
    w.write(t);
}

/// What a first pass may spend: bytes of text written plus compounds
/// entered. A term that takes more, cyclic or only long, is written again
/// with the set, so the text a cyclic term leaves behind does not grow
/// with the heap it lies in.
const FIRST_PASS: usize = 4096;

/// One term being written to `out`.
struct Writer<'a> {
    out: &'a mut String,
    heap: &'a Heap,
    todo: Vec<Job>,
    /// The first pass gives up when `out` reaches this length, which each
    /// compound it enters brings one byte nearer.
    limit: usize,
    /// The first pass spent [`FIRST_PASS`].
    gave_up: bool,
    /// Second pass: the addresses of the compounds being written (the
    /// ancestors of whatever is written next).
    open: Option<FxHashSet<u32>>,
}

impl Writer<'_> {
    /// Write `t`; `false` when the first pass gave up.
    fn write(&mut self, t: Cell) -> bool {
        let mut job = Job::Term(t, 1200);
        loop {
            match job {
                Job::Close(bracket) => self.out.push(bracket),
                Job::Term(t, max_prec) => self.write_one(t, max_prec),
                Job::Tail(rest) => self.write_elements(rest, false),
                Job::Args(hdr, from) => self.write_args(hdr, from),
                Job::Infix(name, hdr, rmax) => {
                    let right = self.heap.str_arg(hdr, 1);
                    let out = &mut *self.out;
                    if name == "," {
                        out.push(',');
                    } else if name.bytes().all(|b| b.is_ascii_alphanumeric()) {
                        // alphabetic operators (is, mod, rem) need spacing
                        out.push(' ');
                        out.push_str(name);
                        out.push(' ');
                    } else {
                        // symbolic: insert spaces only where tokens would
                        // otherwise merge (e.g. `1- -2`, `a= =b`)
                        if out.ends_with(is_symbolic) {
                            out.push(' ');
                        }
                        out.push_str(name);
                        if self.starts_symbolic(right, rmax) {
                            self.out.push(' ');
                        }
                    }
                    self.write_one(right, rmax);
                }
                Job::Exit(a) => {
                    if let Some(open) = &mut self.open {
                        open.remove(&a.0);
                    }
                }
            }
            if self.gave_up {
                return false;
            }
            match self.todo.pop() {
                Some(next) => job = next,
                None => return true,
            }
        }
    }

    /// Enter the compound at `a`. `false` when it is one of the compounds
    /// being written, and is to be written `...`, or when the first pass
    /// has spent [`FIRST_PASS`] (and gives up).
    fn enter(&mut self, a: Addr) -> bool {
        match &mut self.open {
            None if self.out.len() >= self.limit => {
                self.gave_up = true;
                false
            }
            None => {
                self.limit -= 1;
                true
            }
            Some(open) => {
                let new = open.insert(a.0);
                if new {
                    self.todo.push(Job::Exit(a));
                }
                new
            }
        }
    }

    /// Write `t`, or what of it comes before its first compound subterm;
    /// queue the rest.
    fn write_one(&mut self, t: Cell, max_prec: u16) {
        let heap = self.heap;
        let viewed = view(heap, t);
        if write_atomic(self.out, viewed) {
            return;
        }
        let TermView::Struct(f, n, hdr) = viewed else {
            if self.is_open(t) {
                self.out.push_str("...");
                return;
            }
            self.out.push('[');
            return self.write_elements(t, true);
        };
        if !self.enter(hdr) {
            self.out.push_str("...");
            return;
        }
        let name = f.name();
        if let (2, Some((prec, lmax, rmax))) = (n, infix_prec(name)) {
            if prec > max_prec {
                self.out.push('(');
                self.todo.push(Job::Close(')'));
            }
            self.todo.push(Job::Infix(name, hdr, rmax));
            let left = heap.str_arg(hdr, 0);
            if !write_atomic(self.out, view(heap, left)) {
                self.todo.push(Job::Term(left, lmax));
            }
        } else if let (1, Some((prec, amax))) = (n, prefix_prec(name)) {
            if prec > max_prec {
                self.out.push('(');
                self.todo.push(Job::Close(')'));
            }
            self.out.push_str(name);
            self.out.push(' ');
            self.todo.push(Job::Term(heap.str_arg(hdr, 0), amax));
        } else {
            write_atom(self.out, name);
            self.out.push('(');
            self.write_args(hdr, 0);
        }
    }

    /// The arguments of the structure at `hdr` from index `from` on, then
    /// `)`; suspended on `todo` around the first compound one.
    fn write_args(&mut self, hdr: Addr, from: u32) {
        let heap = self.heap;
        let (_, n) = heap.functor_at(hdr);
        for i in from..n {
            if i > 0 {
                self.out.push(',');
            }
            let arg = heap.str_arg(hdr, i);
            if !write_atomic(self.out, view(heap, arg)) {
                self.todo.push(Job::Args(hdr, i + 1));
                self.todo.push(Job::Term(arg, 999));
                return;
            }
        }
        self.out.push(')');
    }

    /// The elements of the list `rest` (`first`: none written yet), its
    /// tail if it is partial, then `]`; suspended on `todo` around the
    /// first compound element. A pair met again is a cyclic tail, written
    /// `|...`.
    fn write_elements(&mut self, mut rest: Cell, mut first: bool) {
        let heap = self.heap;
        loop {
            match view(heap, rest) {
                TermView::List(p) => {
                    if !self.enter(p) {
                        if self.gave_up {
                            return;
                        }
                        self.out.push_str("|...");
                        break;
                    }
                    if !first {
                        self.out.push(',');
                    }
                    first = false;
                    let (head, tail) = (heap.lst_head(p), heap.lst_tail(p));
                    if !write_atomic(self.out, view(heap, head)) {
                        self.todo.push(Job::Tail(tail));
                        self.todo.push(Job::Term(head, 999));
                        return;
                    }
                    rest = tail;
                }
                TermView::Nil => break,
                tail => {
                    // a partial list (or one a builtin consed onto a compound)
                    self.out.push('|');
                    if !write_atomic(self.out, tail) {
                        self.todo.push(Job::Close(']'));
                        self.todo.push(Job::Term(rest, 999));
                        return;
                    }
                    break;
                }
            }
        }
        self.out.push(']');
    }

    /// Would the text of `t` under `max_prec` start with a symbolic
    /// character? Follows what [`Writer::write_one`] writes first: down the
    /// left arguments of unparenthesised infix terms to the leftmost token,
    /// which is `...` where that path meets a compound being written — or
    /// meets one of its own terms again, which takes more steps than the
    /// heap has cells.
    fn starts_symbolic(&self, mut t: Cell, mut max_prec: u16) -> bool {
        let heap = self.heap;
        for _ in 0..=heap.len() {
            let name = match view(heap, t) {
                TermView::Int(i) => return i < 0,
                TermView::Var(_) | TermView::Nil => return false,
                TermView::List(_) => return self.is_open(t),
                TermView::Atom(s) => s.name(),
                TermView::Struct(f, n, hdr) => {
                    if self.is_open(t) {
                        return true;
                    }
                    let name = f.name();
                    if let (2, Some((prec, lmax, _))) = (n, infix_prec(name)) {
                        if prec > max_prec {
                            return false;
                        }
                        (t, max_prec) = (heap.str_arg(hdr, 0), lmax);
                        continue;
                    }
                    if let (1, Some((prec, _))) = (n, prefix_prec(name)) {
                        // a prefix operator is written raw, never quoted
                        return prec <= max_prec && name.starts_with(is_symbolic);
                    }
                    name
                }
            };
            return !needs_quotes(name) && name.starts_with(is_symbolic);
        }
        true
    }

    /// Is `t` one of the compounds being written (second pass only)?
    fn is_open(&self, t: Cell) -> bool {
        let Some(open) = &self.open else {
            return false;
        };
        match view(self.heap, t) {
            TermView::Struct(_, _, a) | TermView::List(a) => open.contains(&a.0),
            _ => false,
        }
    }
}

/// Write the term `t` views if it is atomic — a variable, integer, atom or
/// `[]`, whose text no priority bound changes; say whether it was.
fn write_atomic(out: &mut String, t: TermView) -> bool {
    match t {
        TermView::Var(a) => {
            let _ = write!(out, "_G{}", a.0);
        }
        TermView::Int(i) => {
            let _ = write!(out, "{i}");
        }
        TermView::Nil => out.push_str("[]"),
        TermView::Atom(s) => write_atom(out, s.name()),
        TermView::List(_) | TermView::Struct(..) => return false,
    }
    true
}

/// (priority, left-arg max, right-arg max) for infix operators the reader
/// knows; mirrors `read::infix_op`.
fn infix_prec(name: &str) -> Option<(u16, u16, u16)> {
    Some(match name {
        ":-" | "-->" => (1200, 1199, 1199),
        ";" => (1100, 1099, 1100),
        "->" => (1050, 1049, 1050),
        "&" => (1025, 1024, 1025),
        "," => (1000, 999, 1000),
        "=" | "\\=" | "==" | "\\==" | "is" | "=:=" | "=\\=" | "<" | ">" | "=<" | ">=" | "@<"
        | "@>" | "@=<" | "@>=" | "=.." => (700, 699, 699),
        "+" | "-" => (500, 500, 499),
        "*" | "/" | "//" | "mod" | "rem" | ">>" | "<<" => (400, 400, 399),
        "**" => (200, 199, 199),
        "^" => (200, 199, 200),
        _ => return None,
    })
}

fn prefix_prec(name: &str) -> Option<(u16, u16)> {
    Some(match name {
        ":-" | "?-" => (1200, 1199),
        "\\+" => (900, 900),
        "\\" => (200, 200),
        _ => return None,
    })
}

fn is_symbolic(c: char) -> bool {
    "+-*/\\^<>=~:.?@#&$".contains(c)
}

fn write_atom(out: &mut String, name: &str) {
    if needs_quotes(name) {
        out.push('\'');
        for ch in name.chars() {
            if ch == '\'' {
                out.push_str("''");
            } else {
                out.push(ch);
            }
        }
        out.push('\'');
    } else {
        out.push_str(name);
    }
}

fn needs_quotes(name: &str) -> bool {
    if name.is_empty() {
        return true;
    }
    let bytes = name.as_bytes();
    // plain atom: lowercase alnum run
    if bytes[0].is_ascii_lowercase()
        && bytes
            .iter()
            .all(|b| b.is_ascii_alphanumeric() || *b == b'_')
    {
        return false;
    }
    // symbolic atom
    const SYMBOLIC: &[u8] = b"+-*/\\^<>=~:.?@#&$";
    if bytes.iter().all(|b| SYMBOLIC.contains(b)) {
        return false;
    }
    // solo atoms
    if matches!(name, "!" | ";" | "[]" | "{}") {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use std::fmt::Write as _;

    use super::*;
    use crate::read::parse_term;
    use crate::sym::sym;

    fn rt(src: &str) -> String {
        let mut h = Heap::new();
        let (t, _) = parse_term(&mut h, src).unwrap();
        term_to_string(&h, t)
    }

    #[test]
    fn atoms() {
        assert_eq!(rt("foo"), "foo");
        assert_eq!(rt("'hello world'"), "'hello world'");
        assert_eq!(rt("[]"), "[]");
        assert_eq!(rt("'it''s'"), "'it''s'");
    }

    #[test]
    fn operators_minimal_parens() {
        assert_eq!(rt("1+2*3"), "1+2*3");
        assert_eq!(rt("(1+2)*3"), "(1+2)*3");
        assert_eq!(rt("1-2-3"), "1-2-3");
        assert_eq!(rt("1-(2-3)"), "1-(2-3)");
    }

    #[test]
    fn clause_shape() {
        assert_eq!(rt("p(X) :- q(X), r(X)"), "p(_G0):-q(_G0),r(_G0)");
    }

    #[test]
    fn parallel_conj() {
        assert_eq!(rt("a & b & c"), "a&b&c");
        assert_eq!(rt("(a, b) & c"), "a,b&c");
    }

    #[test]
    fn lists_with_tails() {
        assert_eq!(rt("[1,2|T]"), "[1,2|_G0]");
        assert_eq!(rt("[1,2,3]"), "[1,2,3]");
    }

    #[test]
    fn reparse_identity() {
        for src in [
            "f(a,g(B,1),[])",
            "p(X):-q(X),r(X)",
            "a&b&c",
            "1+2*3",
            "(1+2)*3",
            "[1,[2,x],'q w'|T]",
            "\\+ p(X)",
            "X is Y mod 3",
        ] {
            let s1 = rt(src);
            let mut h = Heap::new();
            let (t2, _) = parse_term(&mut h, &s1).unwrap();
            let s2 = term_to_string(&h, t2);
            assert_eq!(s1, s2, "unstable roundtrip for {src}");
        }
    }

    /// The writer as it was before it walked a work stack: one Rust frame
    /// per level, the right argument rendered apart to see its first
    /// character. Kept as the oracle for the bytes.
    fn write_recursive(out: &mut String, heap: &Heap, t: Cell, max_prec: u16) {
        match view(heap, t) {
            TermView::Var(a) => {
                let _ = write!(out, "_G{}", a.0);
            }
            TermView::Int(i) => {
                let _ = write!(out, "{i}");
            }
            TermView::Nil => out.push_str("[]"),
            TermView::Atom(s) => write_atom(out, s.name()),
            TermView::List(_) => {
                out.push('[');
                let mut cur = t;
                let mut first = true;
                loop {
                    match view(heap, cur) {
                        TermView::List(p) => {
                            if !first {
                                out.push(',');
                            }
                            first = false;
                            write_recursive(out, heap, heap.lst_head(p), 999);
                            cur = heap.lst_tail(p);
                        }
                        TermView::Nil => break,
                        _ => {
                            out.push('|');
                            write_recursive(out, heap, cur, 999);
                            break;
                        }
                    }
                }
                out.push(']');
            }
            TermView::Struct(f, n, hdr) => {
                let name = f.name();
                if let (2, Some((prec, lmax, rmax))) = (n, infix_prec(name)) {
                    let parens = prec > max_prec;
                    if parens {
                        out.push('(');
                    }
                    write_recursive(out, heap, heap.str_arg(hdr, 0), lmax);
                    let mut right = String::new();
                    write_recursive(&mut right, heap, heap.str_arg(hdr, 1), rmax);
                    if name == "," {
                        out.push(',');
                    } else if name.bytes().all(|b| b.is_ascii_alphanumeric()) {
                        let _ = write!(out, " {name} ");
                    } else {
                        if out.ends_with(is_symbolic) {
                            out.push(' ');
                        }
                        out.push_str(name);
                        if right.starts_with(is_symbolic) {
                            out.push(' ');
                        }
                    }
                    out.push_str(&right);
                    if parens {
                        out.push(')');
                    }
                } else if let (1, Some((prec, amax))) = (n, prefix_prec(name)) {
                    let parens = prec > max_prec;
                    if parens {
                        out.push('(');
                    }
                    let _ = write!(out, "{name} ");
                    write_recursive(out, heap, heap.str_arg(hdr, 0), amax);
                    if parens {
                        out.push(')');
                    }
                } else {
                    write_atom(out, name);
                    out.push('(');
                    for i in 0..n {
                        if i > 0 {
                            out.push(',');
                        }
                        write_recursive(out, heap, heap.str_arg(hdr, i), 999);
                    }
                    out.push(')');
                }
            }
        }
    }

    /// A term of at most `depth` levels drawn from `rng`: operators of every
    /// class, symbolic, quoted and empty atoms, negative integers, unbound
    /// variables, proper and partial lists.
    fn arbitrary(h: &mut Heap, rng: &mut u64, depth: u32) -> Cell {
        fn draw(rng: &mut u64, n: u64) -> u64 {
            *rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*rng >> 33) % n
        }
        const ATOMS: [&str; 10] = [
            "a",
            "-",
            "+",
            "==",
            "hello world",
            "",
            ",",
            "[]",
            "is",
            ":-",
        ];
        const BINARY: [&str; 12] = [
            "-", "+", "*", "=", ",", ";", "->", "is", "mod", "^", ":-", "f",
        ];
        const UNARY: [&str; 5] = ["\\+", "\\", "-", ":-", "g"];
        if depth == 0 || draw(rng, 4) == 0 {
            return match draw(rng, 4) {
                0 => Cell::Int(draw(rng, 7) as i64 - 3),
                1 => h.new_var(),
                2 => Cell::Nil,
                _ => Cell::Atom(sym(ATOMS[draw(rng, 10) as usize])),
            };
        }
        match draw(rng, 5) {
            0 => {
                let f = sym(UNARY[draw(rng, 5) as usize]);
                let a = arbitrary(h, rng, depth - 1);
                h.new_struct(f, &[a])
            }
            1 => {
                let items: Vec<Cell> = (0..draw(rng, 4))
                    .map(|_| arbitrary(h, rng, depth - 1))
                    .collect();
                let mut list = if draw(rng, 2) == 0 {
                    Cell::Nil
                } else {
                    arbitrary(h, rng, depth - 1)
                };
                for &item in items.iter().rev() {
                    list = h.cons(item, list);
                }
                list
            }
            2 => {
                let args: Vec<Cell> = (0..draw(rng, 4))
                    .map(|_| arbitrary(h, rng, depth - 1))
                    .collect();
                h.new_struct(sym("p q"), &args)
            }
            _ => {
                let f = sym(BINARY[draw(rng, 12) as usize]);
                let a = arbitrary(h, rng, depth - 1);
                let b = arbitrary(h, rng, depth - 1);
                h.new_struct(f, &[a, b])
            }
        }
    }

    #[test]
    fn the_work_stack_writes_the_recursive_writers_bytes() {
        let mut rng = 0x5eed;
        let mut spaced = 0;
        for _ in 0..4000 {
            let mut h = Heap::new();
            let t = arbitrary(&mut h, &mut rng, 5);
            let mut want = String::new();
            write_recursive(&mut want, &h, t, 1200);
            assert_eq!(term_to_string(&h, t), want);
            spaced += usize::from(want.contains("- -") || want.contains("= -"));
        }
        assert!(
            spaced > 50,
            "only {spaced} terms needed a token-separating space"
        );
        assert_eq!(rt("1 - (-2)"), "1- -2");
    }

    /// `X`, bound to what `build` makes of it: a cyclic term.
    fn cyclic(build: impl FnOnce(&mut Heap, Cell) -> Cell) -> String {
        let mut h = Heap::new();
        let x = h.new_var();
        let t = build(&mut h, x);
        let Cell::Ref(a) = x else { unreachable!() };
        h.bind(a, t);
        term_to_string(&h, x)
    }

    #[test]
    fn a_cyclic_term_writes_its_revisited_compound_as_dots() {
        let f = |h: &mut Heap, x| h.new_struct(sym("f"), &[x]);
        assert_eq!(cyclic(f), "f(...)");
        assert_eq!(cyclic(|h, x| h.cons(Cell::Atom(sym("a")), x)), "[a|...]");
        assert_eq!(cyclic(|h, x| h.list(&[x])), "[...]");
        let deep = |h: &mut Heap, x| {
            let g = h.new_struct(sym("g"), &[x]);
            let l = h.list(&[x, Cell::Int(2)]);
            h.new_struct(sym("f"), &[Cell::Atom(sym("a")), g, l])
        };
        assert_eq!(cyclic(deep), "f(a,g(...),[...,2])");
        // the cycle through a list's tail, entered past its first pair
        let tail = |h: &mut Heap, _| {
            let inner = h.new_var();
            let Cell::Ref(a) = inner else { unreachable!() };
            let cycle = h.cons(Cell::Int(2), inner);
            h.bind(a, cycle);
            h.cons(Cell::Int(1), cycle)
        };
        assert_eq!(cyclic(tail), "[1,2|...]");
        // down the left of an operator, and as an operator's right side
        let plus = |h: &mut Heap, x| h.new_struct(sym("+"), &[x, Cell::Int(1)]);
        assert_eq!(cyclic(plus), "... +1");
        let eq = |h: &mut Heap, _| {
            let inner = h.new_var();
            let Cell::Ref(a) = inner else { unreachable!() };
            let left = h.new_struct(sym("+"), &[inner, Cell::Int(1)]);
            h.bind(a, left);
            h.new_struct(sym("="), &[Cell::Atom(sym("a")), left])
        };
        assert_eq!(cyclic(eq), "a= ... +1");
        let neg = |h: &mut Heap, x| h.new_struct(sym("\\+"), &[x]);
        assert_eq!(cyclic(neg), "\\+ ...");
    }

    /// A term whose subterms are shared writes more compounds than the heap
    /// has cells and more text than a first pass may: the second pass,
    /// which watches for cycles, writes it, to the same bytes.
    #[test]
    fn a_shared_acyclic_term_past_the_first_pass_writes_as_before() {
        let mut h = Heap::new();
        let mut t = Cell::Atom(sym("z"));
        for i in 0..12 {
            t = if i % 2 == 0 {
                h.new_struct(sym("-"), &[t, t])
            } else {
                h.list(&[t, t])
            };
        }
        let mut want = String::new();
        write_recursive(&mut want, &h, t, 1200);
        let text = term_to_string(&h, t);
        assert!(text.len() > FIRST_PASS && text.len() > 4 * h.len());
        assert_eq!(text, want);
    }

    #[test]
    fn a_term_deeper_than_the_thread_stack_renders() {
        let mut h = Heap::new();
        let (mut nested, mut chain, mut list) = (Cell::Atom(sym("z")), Cell::Int(0), Cell::Nil);
        for _ in 0..300_000 {
            nested = h.new_struct(sym("f"), &[nested]);
            chain = h.new_struct(sym("-"), &[Cell::Int(1), chain]);
            list = h.cons(list, Cell::Nil);
        }
        let text = term_to_string(&h, nested);
        assert_eq!(text.len(), 900_001);
        assert!(text.starts_with("f(f(f(") && text.ends_with(")))"));
        // right-nested under a left-associative operator: every level parenthesised
        let text = term_to_string(&h, chain);
        assert!(text.starts_with("1-(1-(1-(") && text.ends_with("))))"));
        assert_eq!(text.len(), 299_999 * 4 + 3);
        let text = term_to_string(&h, list);
        assert!(text.starts_with("[[[[") && text.ends_with("]]]]"));
        assert_eq!(text.len(), 600_002);
    }
}
