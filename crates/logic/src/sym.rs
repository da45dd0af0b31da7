//! Global symbol (atom / functor name) interner.
//!
//! Symbols are process-global so that terms can be shipped between engine
//! machines (goal shipping, or-parallel state copying) without any name
//! translation: a [`Sym`] is a plain `u32` index valid in every heap.
//!
//! Interning goes through a name → index map guarded by an `RwLock`;
//! lookups of already interned names take the read path only. A name is
//! stored once, as a leaked `str` that lives as long as the process does,
//! and published in an append-only table of names that
//! [`Sym::name`] reads without a lock, handing out a `&'static str`: no
//! reader copies a name or waits on a writer. A fixed set of *well-known*
//! symbols (control constructs, operators, common atoms) is interned at
//! table construction with stable indices, so the hot paths of the engines
//! compare against pre-computed constants via [`wk()`].

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned symbol: the name of an atom or functor.
///
/// `Sym` is `Copy` and valid across all heaps and threads in the process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// The interner index of this symbol.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }

    /// The textual name of this symbol. Panics if it did not come from
    /// [`sym`]. The name is never freed or moved: the reference outlives
    /// any later interning. Takes no lock.
    #[inline]
    pub fn name(self) -> &'static str {
        match NAMES.get(self.0) {
            Some(name) => name,
            // Nothing interned yet: the well-known names go in first.
            None => {
                interner();
                NAMES
                    .get(self.0)
                    .expect("a symbol that did not come from `sym`")
            }
        }
    }
}

/// Segments of the name table: segment `k` holds `2^(k + 8)` names, so
/// 25 segments cover every `u32` index.
const SEGMENTS: usize = 25;

/// The append-only name table, by symbol index. Segments are allocated on
/// demand and never moved, and each entry is written once: both are
/// published with release stores that a reader's acquire load pairs with,
/// and written only under the interner's write lock.
struct Names([OnceLock<Box<[OnceLock<&'static str>]>>; SEGMENTS]);

static NAMES: Names = Names([const { OnceLock::new() }; SEGMENTS]);

impl Names {
    /// Segment and offset of index `i`.
    #[inline]
    fn locate(i: u32) -> (usize, usize) {
        let j = i as u64 + 256;
        let k = 63 - j.leading_zeros() as usize - 8;
        (k, (j - (256 << k)) as usize)
    }

    #[inline]
    fn get(&self, i: u32) -> Option<&'static str> {
        let (k, off) = Self::locate(i);
        self.0[k].get()?[off].get().copied()
    }

    /// Publish `name` at index `i` (the interner's write lock is held).
    fn set(&self, i: u32, name: &'static str) {
        let (k, off) = Self::locate(i);
        let seg = self.0[k].get_or_init(|| (0..256usize << k).map(|_| OnceLock::new()).collect());
        seg[off]
            .set(name)
            .expect("a symbol index is published once");
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({}:{})", self.0, self.name())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Each name is one leaked allocation that [`NAMES`] and `by_name` share.
struct Interner {
    by_name: HashMap<&'static str, u32>,
}

impl Interner {
    fn new() -> Self {
        let mut it = Interner {
            by_name: HashMap::with_capacity(256),
        };
        // Well-known symbols, in the exact order of the `WellKnown`
        // constructor below. Interning them first gives them stable indices.
        for s in WELL_KNOWN_NAMES {
            it.intern(s);
        }
        it
    }

    fn intern(&mut self, name: &str) -> Sym {
        if let Some(&i) = self.by_name.get(name) {
            return Sym(i);
        }
        let i = u32::try_from(self.by_name.len()).expect("symbol table overflow");
        let name: &'static str = Box::leak(Box::from(name));
        NAMES.set(i, name);
        self.by_name.insert(name, i);
        Sym(i)
    }
}

static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();

fn interner() -> &'static RwLock<Interner> {
    INTERNER.get_or_init(|| RwLock::new(Interner::new()))
}

/// Intern `name`, returning its global symbol.
///
/// The interner lock tolerates poisoning: interning only appends, so a
/// panic while holding the lock cannot leave the table inconsistent, and
/// one dead worker must not poison symbol access for every later run.
pub fn sym(name: &str) -> Sym {
    {
        let rd = interner().read().unwrap_or_else(|e| e.into_inner());
        if let Some(&i) = rd.by_name.get(name) {
            return Sym(i);
        }
    }
    interner()
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .intern(name)
}

pub(crate) const WELL_KNOWN_NAMES: &[&str] = &[
    ",",
    "&",
    ";",
    "->",
    ":-",
    "?-",
    "!",
    "true",
    "fail",
    "false",
    "[]",
    ".",
    "=",
    "\\=",
    "==",
    "\\==",
    "is",
    "=:=",
    "=\\=",
    "<",
    ">",
    "=<",
    ">=",
    "+",
    "-",
    "*",
    "/",
    "//",
    "mod",
    "rem",
    "abs",
    "min",
    "max",
    "\\+",
    "var",
    "nonvar",
    "atom",
    "number",
    "integer",
    "atomic",
    "compound",
    "functor",
    "arg",
    "=..",
    "copy_term",
    "call",
    "halt",
    "write",
    "nl",
    "between",
    "length",
    "ground",
    "compare",
    "@<",
    "@>",
    "@=<",
    "@>=",
    "succ_or_zero",
    "tab",
    "not",
    "\\",
    ">>",
    "<<",
    "^",
    "writeln",
    // The remaining builtin names, interned here so that the builtin
    // table (`crate::builtin`), indexed by symbol number, stays this short.
    "findall",
    "msort",
    "sort",
    "reverse",
    "nth1",
    "$answer",
];

/// Pre-interned well-known symbols used on engine hot paths.
#[derive(Debug)]
pub struct WellKnown {
    pub comma: Sym,
    pub amp: Sym,
    pub semicolon: Sym,
    pub arrow: Sym,
    pub clause_neck: Sym,
    pub query_neck: Sym,
    pub cut: Sym,
    pub true_: Sym,
    pub fail: Sym,
    pub false_: Sym,
    pub nil: Sym,
    pub dot: Sym,
    pub unify: Sym,
    pub not_unify: Sym,
    pub struct_eq: Sym,
    pub struct_ne: Sym,
    pub is: Sym,
    pub arith_eq: Sym,
    pub arith_ne: Sym,
    pub lt: Sym,
    pub gt: Sym,
    pub le: Sym,
    pub ge: Sym,
    pub plus: Sym,
    pub minus: Sym,
    pub star: Sym,
    pub slash: Sym,
    pub int_div: Sym,
    pub mod_: Sym,
    pub rem: Sym,
    pub abs: Sym,
    pub min: Sym,
    pub max: Sym,
    pub naf: Sym,
    pub var_: Sym,
    pub nonvar: Sym,
    pub atom_: Sym,
    pub number: Sym,
    pub integer: Sym,
    pub atomic: Sym,
    pub compound: Sym,
    pub functor: Sym,
    pub arg: Sym,
    pub univ: Sym,
    pub copy_term: Sym,
    pub call: Sym,
    pub halt: Sym,
    pub write: Sym,
    pub nl: Sym,
    pub between: Sym,
    pub length: Sym,
    pub ground: Sym,
    pub compare: Sym,
    pub term_lt: Sym,
    pub term_gt: Sym,
    pub term_le: Sym,
    pub term_ge: Sym,
    pub not: Sym,
    pub writeln: Sym,
}

static WK: OnceLock<WellKnown> = OnceLock::new();

/// Access the well-known symbol table (cheap after first call).
pub fn wk() -> &'static WellKnown {
    WK.get_or_init(|| WellKnown {
        comma: sym(","),
        amp: sym("&"),
        semicolon: sym(";"),
        arrow: sym("->"),
        clause_neck: sym(":-"),
        query_neck: sym("?-"),
        cut: sym("!"),
        true_: sym("true"),
        fail: sym("fail"),
        false_: sym("false"),
        nil: sym("[]"),
        dot: sym("."),
        unify: sym("="),
        not_unify: sym("\\="),
        struct_eq: sym("=="),
        struct_ne: sym("\\=="),
        is: sym("is"),
        arith_eq: sym("=:="),
        arith_ne: sym("=\\="),
        lt: sym("<"),
        gt: sym(">"),
        le: sym("=<"),
        ge: sym(">="),
        plus: sym("+"),
        minus: sym("-"),
        star: sym("*"),
        slash: sym("/"),
        int_div: sym("//"),
        mod_: sym("mod"),
        rem: sym("rem"),
        abs: sym("abs"),
        min: sym("min"),
        max: sym("max"),
        naf: sym("\\+"),
        var_: sym("var"),
        nonvar: sym("nonvar"),
        atom_: sym("atom"),
        number: sym("number"),
        integer: sym("integer"),
        atomic: sym("atomic"),
        compound: sym("compound"),
        functor: sym("functor"),
        arg: sym("arg"),
        univ: sym("=.."),
        copy_term: sym("copy_term"),
        call: sym("call"),
        halt: sym("halt"),
        write: sym("write"),
        nl: sym("nl"),
        between: sym("between"),
        length: sym("length"),
        ground: sym("ground"),
        compare: sym("compare"),
        term_lt: sym("@<"),
        term_gt: sym("@>"),
        term_le: sym("@=<"),
        term_ge: sym("@>="),
        not: sym("not"),
        writeln: sym("writeln"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = sym("hello");
        let b = sym("hello");
        assert_eq!(a, b);
        assert_eq!(a.name(), "hello");
    }

    #[test]
    fn distinct_names_distinct_syms() {
        assert_ne!(sym("foo"), sym("bar"));
    }

    #[test]
    fn well_known_match_plain_interning() {
        assert_eq!(wk().comma, sym(","));
        assert_eq!(wk().amp, sym("&"));
        assert_eq!(wk().nil, sym("[]"));
        assert_eq!(wk().univ, sym("=.."));
    }

    #[test]
    fn empty_and_unicode_names() {
        let e = sym("");
        assert_eq!(e.name(), "");
        let u = sym("λx");
        assert_eq!(u.name(), "λx");
    }

    #[test]
    fn a_name_stays_valid_while_another_thread_interns() {
        let early = sym("early_bird");
        let name = early.name();
        let at = name.as_ptr();
        let (started, go) = std::sync::mpsc::channel();
        let writer = std::thread::spawn(move || {
            started.send(()).unwrap();
            for i in 0..10_000 {
                sym(&format!("late_{i}"));
            }
        });
        go.recv().unwrap();
        // read while the table grows (lock-free: new segments appear, no
        // name moves)
        while !writer.is_finished() {
            assert_eq!(early.name(), "early_bird");
        }
        writer.join().unwrap();
        assert_eq!(name, "early_bird");
        assert_eq!(early.name().as_ptr(), at, "the name was stored once");
        assert_eq!(sym("late_9999").name(), "late_9999");
    }

    #[test]
    fn name_table_segments_double_and_cover_u32() {
        assert_eq!(Names::locate(0), (0, 0));
        assert_eq!(Names::locate(255), (0, 255));
        assert_eq!(Names::locate(256), (1, 0));
        assert_eq!(Names::locate(767), (1, 511));
        assert_eq!(Names::locate(768), (2, 0));
        // The last segment starts at 2^32 - 256.
        assert_eq!(Names::locate(u32::MAX), (SEGMENTS - 1, 255));
    }

    #[test]
    #[should_panic(expected = "did not come from `sym`")]
    fn a_made_up_symbol_has_no_name() {
        Sym(u32::MAX - 1).name();
    }

    #[test]
    fn concurrent_interning_agrees() {
        let names: Vec<String> = (0..64).map(|i| format!("c{i}")).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let names = names.clone();
                std::thread::spawn(move || names.iter().map(|n| sym(n)).collect::<Vec<_>>())
            })
            .collect();
        let results: Vec<Vec<Sym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }
}
