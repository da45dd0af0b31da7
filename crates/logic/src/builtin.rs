//! The builtin table: every `name/arity` a goal can name before any user
//! predicate — the control constructs and the builtin predicates.
//!
//! It is read in two places, and only here is it written down. The
//! machine's `dispatch` maps a goal's principal functor to its
//! [`Builtin`] (or, finding none, resolves a user predicate by name); the
//! clause database's link pass leaves every body call this table names
//! unresolved, so a builtin keeps its precedence over a same-named user
//! predicate on both paths.
//!
//! A lookup is one array read: the table is indexed by symbol number and
//! arity, built once on first use.

use std::sync::OnceLock;

use crate::sym::{sym, Sym};

/// A control construct or builtin predicate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Builtin {
    // Control constructs (run by the machine itself).
    True,
    /// `fail/0` and `false/0`.
    Fail,
    Cut,
    Nl,
    Halt,
    /// `,/2`.
    Conj,
    /// `&/2`.
    Par,
    /// `;/2`.
    Disj,
    /// `->/2` outside a disjunction.
    IfThen,
    /// `\+/1` and `not/1`.
    Not,
    /// `call/N`, any `N >= 1`.
    Call,
    // Builtin predicates.
    Unify,
    NotUnify,
    StructEq,
    StructNe,
    Is,
    /// `=:=`, `=\=`, `<`, `>`, `=<`, `>=`.
    ArithCompare,
    Var,
    Nonvar,
    Atom,
    /// `number/1` and `integer/1`.
    Integer,
    Atomic,
    Compound,
    Ground,
    Functor,
    Arg,
    Univ,
    CopyTerm,
    Length,
    Between,
    Compare,
    /// `@<`, `@>`, `@=<`, `@>=`.
    TermOrder,
    Write,
    Writeln,
    Tab,
    Findall,
    Msort,
    Sort,
    Reverse,
    Nth1,
    /// `$answer/1`: record the bindings as one solution line.
    Answer,
}

/// Arity column of a table row: arities `0..=3`, and `4` for every arity
/// from 4 up (only `call/N` has one).
const COLUMNS: usize = 5;

/// Every entry of the table. `call` is listed once and fills every
/// column from arity 1.
const ENTRIES: &[(&str, u32, Builtin)] = {
    use Builtin as B;
    &[
        ("true", 0, B::True),
        ("fail", 0, B::Fail),
        ("false", 0, B::Fail),
        ("!", 0, B::Cut),
        ("nl", 0, B::Nl),
        ("halt", 0, B::Halt),
        (",", 2, B::Conj),
        ("&", 2, B::Par),
        (";", 2, B::Disj),
        ("->", 2, B::IfThen),
        ("\\+", 1, B::Not),
        ("not", 1, B::Not),
        ("call", 1, B::Call),
        ("=", 2, B::Unify),
        ("\\=", 2, B::NotUnify),
        ("==", 2, B::StructEq),
        ("\\==", 2, B::StructNe),
        ("is", 2, B::Is),
        ("=:=", 2, B::ArithCompare),
        ("=\\=", 2, B::ArithCompare),
        ("<", 2, B::ArithCompare),
        (">", 2, B::ArithCompare),
        ("=<", 2, B::ArithCompare),
        (">=", 2, B::ArithCompare),
        ("var", 1, B::Var),
        ("nonvar", 1, B::Nonvar),
        ("atom", 1, B::Atom),
        ("number", 1, B::Integer),
        ("integer", 1, B::Integer),
        ("atomic", 1, B::Atomic),
        ("compound", 1, B::Compound),
        ("ground", 1, B::Ground),
        ("functor", 3, B::Functor),
        ("arg", 3, B::Arg),
        ("=..", 2, B::Univ),
        ("copy_term", 2, B::CopyTerm),
        ("length", 2, B::Length),
        ("between", 3, B::Between),
        ("compare", 3, B::Compare),
        ("@<", 2, B::TermOrder),
        ("@>", 2, B::TermOrder),
        ("@=<", 2, B::TermOrder),
        ("@>=", 2, B::TermOrder),
        ("write", 1, B::Write),
        ("writeln", 1, B::Writeln),
        ("tab", 1, B::Tab),
        ("findall", 3, B::Findall),
        ("msort", 2, B::Msort),
        ("sort", 2, B::Sort),
        ("reverse", 2, B::Reverse),
        ("nth1", 3, B::Nth1),
        ("$answer", 1, B::Answer),
    ]
};

/// Rows by symbol number, as many as the highest builtin name's: every
/// builtin name is interned with the well-known symbols, first thing in a
/// process, so the table stays short. A symbol past its end names no
/// builtin.
fn table() -> &'static [[Option<Builtin>; COLUMNS]] {
    static TABLE: OnceLock<Vec<[Option<Builtin>; COLUMNS]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let entries: Vec<(usize, u32, Builtin)> = ENTRIES
            .iter()
            .map(|&(name, arity, b)| (sym(name).index() as usize, arity, b))
            .collect();
        let rows = entries.iter().map(|e| e.0).max().map_or(0, |m| m + 1);
        let mut table = vec![[None; COLUMNS]; rows];
        for (row, arity, b) in entries {
            if b == Builtin::Call {
                table[row][1..].fill(Some(b));
            } else {
                table[row][arity as usize] = Some(b);
            }
        }
        table
    })
}

/// The control construct or builtin `name/arity` names, if any.
#[inline]
pub fn builtin(name: Sym, arity: u32) -> Option<Builtin> {
    let row = table().get(name.index() as usize)?;
    row[(arity as usize).min(COLUMNS - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_reads_back() {
        for &(name, arity, b) in ENTRIES {
            assert_eq!(builtin(sym(name), arity), Some(b), "{name}/{arity}");
        }
        // every name is well known: the table is as short as it can be
        assert!(table().len() <= crate::sym::WELL_KNOWN_NAMES.len());
    }

    #[test]
    fn arity_and_name_both_select() {
        assert_eq!(builtin(sym("length"), 2), Some(Builtin::Length));
        assert_eq!(builtin(sym("length"), 3), None);
        assert_eq!(builtin(sym("true"), 1), None);
        assert_eq!(builtin(sym("no_such_builtin"), 2), None);
        // Machine-internal frames are not goals: their old marker names
        // are plain user functors.
        assert_eq!(builtin(sym("$body"), 3), None);
        assert_eq!(builtin(sym("$closure"), 2), None);
    }

    #[test]
    fn call_takes_every_arity_from_one() {
        assert_eq!(builtin(sym("call"), 0), None);
        for n in 1..12 {
            assert_eq!(builtin(sym("call"), n), Some(Builtin::Call));
        }
        assert_eq!(builtin(sym("findall"), 7), None);
    }
}
