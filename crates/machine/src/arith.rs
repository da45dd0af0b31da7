//! Integer arithmetic evaluation for `is/2` and the comparison builtins.

use ace_logic::sym::wk;
use ace_logic::term::{view, TermView};
use ace_logic::{Cell, Heap, Sym};

/// Arithmetic evaluation errors (surfaced as machine errors — an
/// instantiation fault in a benchmark is a bug, not a failure branch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArithError {
    Unbound,
    NotEvaluable(String),
    DivideByZero,
    Overflow,
}

impl std::fmt::Display for ArithError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArithError::Unbound => write!(f, "arguments insufficiently instantiated"),
            ArithError::NotEvaluable(t) => write!(f, "not evaluable: {t}"),
            ArithError::DivideByZero => write!(f, "division by zero"),
            ArithError::Overflow => write!(f, "integer overflow"),
        }
    }
}

/// Evaluate an arithmetic expression term to an integer. Returns the value
/// and the number of operator applications (cost metric).
pub fn eval(heap: &Heap, t: Cell) -> Result<(i64, usize), ArithError> {
    let mut ops = 0usize;
    let v = eval_inner(heap, t, &mut ops, 0)?;
    Ok((v, ops))
}

fn eval_inner(heap: &Heap, t: Cell, ops: &mut usize, depth: usize) -> Result<i64, ArithError> {
    if depth > 10_000 {
        return Err(ArithError::NotEvaluable("expression too deep".into()));
    }
    match view(heap, t) {
        TermView::Int(i) => Ok(i),
        TermView::Var(_) => Err(ArithError::Unbound),
        TermView::Atom(s) => Err(ArithError::NotEvaluable(s.name().to_owned())),
        TermView::Struct(f, n, hdr) => {
            *ops += 1;
            let w = wk();
            match (f, n) {
                (s, 1) if s == w.minus => {
                    let a = eval_inner(heap, heap.str_arg(hdr, 0), ops, depth + 1)?;
                    a.checked_neg().ok_or(ArithError::Overflow)
                }
                (s, 1) if s == w.plus => eval_inner(heap, heap.str_arg(hdr, 0), ops, depth + 1),
                (s, 1) if s == w.abs => {
                    let a = eval_inner(heap, heap.str_arg(hdr, 0), ops, depth + 1)?;
                    a.checked_abs().ok_or(ArithError::Overflow)
                }
                (_, 2) => {
                    let a = eval_inner(heap, heap.str_arg(hdr, 0), ops, depth + 1)?;
                    let b = eval_inner(heap, heap.str_arg(hdr, 1), ops, depth + 1)?;
                    binop(f, a, b)
                }
                _ => Err(ArithError::NotEvaluable(format!("{}/{}", f.name(), n))),
            }
        }
        other => Err(ArithError::NotEvaluable(format!("{other:?}"))),
    }
}

fn binop(f: Sym, a: i64, b: i64) -> Result<i64, ArithError> {
    let w = wk();
    if f == w.plus {
        a.checked_add(b).ok_or(ArithError::Overflow)
    } else if f == w.minus {
        a.checked_sub(b).ok_or(ArithError::Overflow)
    } else if f == w.star {
        a.checked_mul(b).ok_or(ArithError::Overflow)
    } else if f == w.slash || f == w.int_div {
        if b == 0 {
            Err(ArithError::DivideByZero)
        } else {
            a.checked_div(b).ok_or(ArithError::Overflow)
        }
    } else if f == w.mod_ {
        if b == 0 {
            Err(ArithError::DivideByZero)
        } else {
            Ok(a.rem_euclid(b))
        }
    } else if f == w.rem {
        if b == 0 {
            Err(ArithError::DivideByZero)
        } else {
            Ok(a % b)
        }
    } else if f == w.min {
        Ok(a.min(b))
    } else if f == w.max {
        Ok(a.max(b))
    } else {
        match f.name() {
            ">>" => Ok(a >> (b & 63)),
            "<<" => a.checked_shl((b & 63) as u32).ok_or(ArithError::Overflow),
            "**" | "^" => {
                let e = u32::try_from(b).map_err(|_| ArithError::Overflow)?;
                a.checked_pow(e).ok_or(ArithError::Overflow)
            }
            other => Err(ArithError::NotEvaluable(format!("{other}/2"))),
        }
    }
}

/// Apply a comparison operator to two evaluated integers.
pub(crate) fn cmp_apply(op: Sym, a: i64, b: i64) -> Option<bool> {
    let w = wk();
    Some(if op == w.arith_eq {
        a == b
    } else if op == w.arith_ne {
        a != b
    } else if op == w.lt {
        a < b
    } else if op == w.gt {
        a > b
    } else if op == w.le {
        a <= b
    } else if op == w.ge {
        a >= b
    } else {
        return None;
    })
}

/// Evaluate both sides of an arithmetic comparison and apply it.
pub fn compare(heap: &Heap, op: Sym, lhs: Cell, rhs: Cell) -> Result<(bool, usize), ArithError> {
    let (a, o1) = eval(heap, lhs)?;
    let (b, o2) = eval(heap, rhs)?;
    match cmp_apply(op, a, b) {
        Some(r) => Ok((r, o1 + o2 + 1)),
        None => Err(ArithError::NotEvaluable(op.name().to_owned())),
    }
}

/// Evaluate an expression held in a compiled body template without
/// materializing it: template-internal structure is walked directly,
/// slot-reference leaves read the registers captured by the head code
/// (dereferencing any heap term they hold). Returns `None` — "bail to the
/// generic path" — on anything unusual: an unset/unbound/non-numeric
/// leaf, an unknown operator, or an arithmetic fault. The generic path
/// then reproduces the interpreter's exact error or failure.
pub(crate) fn eval_template(
    cells: &[ace_logic::Cell],
    c: ace_logic::Cell,
    slots: &[ace_logic::Cell],
    heap: &Heap,
) -> Option<(i64, u64)> {
    let mut ops = 0u64;
    let v = eval_template_inner(cells, c, slots, heap, &mut ops).ok()?;
    Some((v, ops))
}

fn eval_template_inner(
    cells: &[Cell],
    c: Cell,
    slots: &[Cell],
    heap: &Heap,
    ops: &mut u64,
) -> Result<i64, ()> {
    use ace_logic::code::{SLOT_BASE, UNSET_SLOT};
    match c {
        Cell::Int(i) => Ok(i),
        Cell::Ref(a) if a.0 >= SLOT_BASE && c != UNSET_SLOT => {
            let s = *slots.get((a.0 - SLOT_BASE) as usize).ok_or(())?;
            if s == UNSET_SLOT {
                return Err(());
            }
            match heap.deref(s) {
                Cell::Int(i) => Ok(i),
                Cell::Str(_) => {
                    // A variable bound to a compound expression: fall back
                    // to the heap-walking evaluator for this subtree.
                    let (v, o) = eval(heap, s).map_err(|_| ())?;
                    *ops += o as u64;
                    Ok(v)
                }
                _ => Err(()),
            }
        }
        Cell::Str(h) => {
            let Cell::Functor(f, n) = cells[h.0 as usize] else {
                return Err(());
            };
            *ops += 1;
            let w = wk();
            let arg = |i: u32| cells[(h.0 + 1 + i) as usize];
            match n {
                1 if f == w.minus => eval_template_inner(cells, arg(0), slots, heap, ops)?
                    .checked_neg()
                    .ok_or(()),
                1 if f == w.plus => eval_template_inner(cells, arg(0), slots, heap, ops),
                1 if f == w.abs => eval_template_inner(cells, arg(0), slots, heap, ops)?
                    .checked_abs()
                    .ok_or(()),
                2 => {
                    let a = eval_template_inner(cells, arg(0), slots, heap, ops)?;
                    let b = eval_template_inner(cells, arg(1), slots, heap, ops)?;
                    binop(f, a, b).map_err(|_| ())
                }
                _ => Err(()),
            }
        }
        // Template self-references (single-occurrence variables), atoms,
        // lists: not arithmetic.
        _ => Err(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_logic::read::parse_term;

    fn ev(src: &str) -> Result<i64, ArithError> {
        let mut h = Heap::new();
        let (t, _) = parse_term(&mut h, src).unwrap();
        eval(&h, t).map(|(v, _)| v)
    }

    #[test]
    fn basic_ops() {
        assert_eq!(ev("1+2*3").unwrap(), 7);
        assert_eq!(ev("10-4").unwrap(), 6);
        assert_eq!(ev("7//2").unwrap(), 3);
        assert_eq!(ev("7 mod 3").unwrap(), 1);
        assert_eq!(ev("-5").unwrap(), -5);
        assert_eq!(ev("abs(-5)").unwrap(), 5);
        assert_eq!(ev("min(2,9)").unwrap(), 2);
        assert_eq!(ev("max(2,9)").unwrap(), 9);
        assert_eq!(ev("2^10").unwrap(), 1024);
    }

    #[test]
    fn mod_is_euclidean() {
        assert_eq!(ev("-7 mod 3").unwrap(), 2);
        assert_eq!(ev("-7 rem 3").unwrap(), -1);
    }

    #[test]
    fn errors() {
        assert_eq!(ev("X"), Err(ArithError::Unbound));
        assert_eq!(ev("1//0"), Err(ArithError::DivideByZero));
        assert!(matches!(ev("foo"), Err(ArithError::NotEvaluable(_))));
        assert!(matches!(ev("f(1)"), Err(ArithError::NotEvaluable(_))));
    }

    #[test]
    fn overflow_detected() {
        let mut h = Heap::new();
        let big = h.new_struct(ace_logic::sym("*"), &[Cell::Int(i64::MAX), Cell::Int(2)]);
        assert_eq!(eval(&h, big), Err(ArithError::Overflow));
    }

    #[test]
    fn comparisons() {
        let mut h = Heap::new();
        let (t, _) = parse_term(&mut h, "1+1 < 3").unwrap();
        let TermView::Struct(op, 2, hdr) = view(&h, t) else {
            unreachable!()
        };
        let (r, _) = compare(&h, op, h.str_arg(hdr, 0), h.str_arg(hdr, 1)).unwrap();
        assert!(r);
    }

    #[test]
    fn op_count_reported() {
        let mut h = Heap::new();
        let (t, _) = parse_term(&mut h, "1+2*3-4").unwrap();
        let (_, ops) = eval(&h, t).unwrap();
        assert_eq!(ops, 3);
    }
}
