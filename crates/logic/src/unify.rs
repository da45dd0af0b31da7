//! Iterative unification over a single heap.
//!
//! Bindings are trailed in the heap, so a failed (or later abandoned)
//! unification is undone by `heap.undo_to(mark)` — the caller owns the
//! mark. [`unify`] reports the number of elementary unification steps
//! performed so engines can charge it to the virtual cost model.

use crate::heap::{Cell, Heap};
use crate::term::view;

/// Result of a unification attempt: `Some(steps)` on success (number of
/// elementary steps performed, for cost accounting), `None` on failure.
/// On failure the caller must undo the trail to its pre-call mark — partial
/// bindings are left in place so the caller's choice point logic stays the
/// single restoration point (exactly as in a WAM).
///
/// The pairs still to visit are kept on a stack that lives with the heap:
/// taken here, given back empty, so only its first use allocates.
pub fn unify(heap: &mut Heap, a: Cell, b: Cell) -> Option<usize> {
    let mut stack = std::mem::take(&mut heap.unify_work);
    stack.push((a, b));
    let steps = unify_pairs(heap, &mut stack);
    stack.clear();
    heap.unify_work = stack;
    steps
}

/// Unify every pair on `stack`; on a clash the unvisited pairs stay on it.
fn unify_pairs(heap: &mut Heap, stack: &mut Vec<(Cell, Cell)>) -> Option<usize> {
    let mut steps = 0usize;
    while let Some((a, b)) = stack.pop() {
        steps += 1;
        let da = heap.deref(a);
        let db = heap.deref(b);
        if da == db {
            continue;
        }
        match (da, db) {
            (Cell::Ref(x), Cell::Ref(y)) => heap.bind_vars(x, y),
            (Cell::Ref(x), t) | (t, Cell::Ref(x)) => heap.bind(x, t),
            (Cell::Atom(f), Cell::Atom(g)) => {
                if f != g {
                    return None;
                }
            }
            (Cell::Int(i), Cell::Int(j)) => {
                if i != j {
                    return None;
                }
            }
            (Cell::Nil, Cell::Nil) => {}
            (Cell::Lst(p), Cell::Lst(q)) => {
                stack.push((heap.lst_tail(p), heap.lst_tail(q)));
                stack.push((heap.lst_head(p), heap.lst_head(q)));
            }
            (Cell::Str(p), Cell::Str(q)) => {
                let (f, n) = heap.functor_at(p);
                let (g, m) = heap.functor_at(q);
                if f != g || n != m {
                    return None;
                }
                for i in (0..n).rev() {
                    stack.push((heap.str_arg(p, i), heap.str_arg(q, i)));
                }
            }
            _ => return None,
        }
    }
    Some(steps)
}

/// Unification with the occurs check (used by property tests and available
/// as a library feature; the engines use plain [`unify`], as real Prolog
/// systems do).
pub fn unify_oc(heap: &mut Heap, a: Cell, b: Cell) -> Option<usize> {
    let mut steps = 0usize;
    let mut stack: Vec<(Cell, Cell)> = vec![(a, b)];

    while let Some((a, b)) = stack.pop() {
        steps += 1;
        let da = heap.deref(a);
        let db = heap.deref(b);
        if da == db {
            continue;
        }
        match (da, db) {
            (Cell::Ref(x), Cell::Ref(y)) => heap.bind_vars(x, y),
            (Cell::Ref(x), t) | (t, Cell::Ref(x)) => {
                if occurs(heap, x, t) {
                    return None;
                }
                heap.bind(x, t);
            }
            (Cell::Atom(f), Cell::Atom(g)) if f == g => {}
            (Cell::Int(i), Cell::Int(j)) if i == j => {}
            (Cell::Nil, Cell::Nil) => {}
            (Cell::Lst(p), Cell::Lst(q)) => {
                stack.push((heap.lst_tail(p), heap.lst_tail(q)));
                stack.push((heap.lst_head(p), heap.lst_head(q)));
            }
            (Cell::Str(p), Cell::Str(q)) => {
                let (f, n) = heap.functor_at(p);
                let (g, m) = heap.functor_at(q);
                if f != g || n != m {
                    return None;
                }
                for i in (0..n).rev() {
                    stack.push((heap.str_arg(p, i), heap.str_arg(q, i)));
                }
            }
            _ => return None,
        }
    }
    Some(steps)
}

fn occurs(heap: &Heap, var: crate::heap::Addr, t: Cell) -> bool {
    let mut stack = vec![t];
    while let Some(c) = stack.pop() {
        match view(heap, c) {
            crate::term::TermView::Var(a) if a == var => return true,
            crate::term::TermView::Var(_) => {}
            crate::term::TermView::Struct(_, n, hdr) => {
                for i in 0..n {
                    stack.push(heap.str_arg(hdr, i));
                }
            }
            crate::term::TermView::List(p) => {
                stack.push(heap.lst_head(p));
                stack.push(heap.lst_tail(p));
            }
            _ => {}
        }
    }
    false
}

/// Structural equality without binding (`==`/2). The heap is shared, so
/// the pairs still to visit are the call's own: allocated once it meets a
/// pair of compound terms, never for atomic arguments.
pub fn struct_eq(heap: &Heap, a: Cell, b: Cell) -> bool {
    let mut stack: Vec<(Cell, Cell)> = Vec::new();
    let mut pair = Some((a, b));
    while let Some((a, b)) = pair.take().or_else(|| stack.pop()) {
        let da = heap.deref(a);
        let db = heap.deref(b);
        if da == db {
            continue;
        }
        match (da, db) {
            (Cell::Lst(p), Cell::Lst(q)) => {
                stack.push((heap.lst_tail(p), heap.lst_tail(q)));
                stack.push((heap.lst_head(p), heap.lst_head(q)));
            }
            (Cell::Str(p), Cell::Str(q)) => {
                let (f, n) = heap.functor_at(p);
                let (g, m) = heap.functor_at(q);
                if f != g || n != m {
                    return false;
                }
                for i in (0..n).rev() {
                    stack.push((heap.str_arg(p, i), heap.str_arg(q, i)));
                }
            }
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::sym;

    fn mk(h: &mut Heap) -> (Cell, Cell) {
        let x = h.new_var();
        let y = h.new_var();
        (x, y)
    }

    #[test]
    fn unify_var_with_const() {
        let mut h = Heap::new();
        let (x, _) = mk(&mut h);
        assert!(unify(&mut h, x, Cell::Int(3)).is_some());
        assert_eq!(h.deref(x), Cell::Int(3));
    }

    #[test]
    fn unify_structures() {
        let mut h = Heap::new();
        let x = h.new_var();
        let s1 = h.new_struct(sym("f"), &[x, Cell::Int(2)]);
        let s2 = h.new_struct(sym("f"), &[Cell::Int(1), Cell::Int(2)]);
        assert!(unify(&mut h, s1, s2).is_some());
        assert_eq!(h.deref(x), Cell::Int(1));
    }

    #[test]
    fn unify_fails_on_clash() {
        let mut h = Heap::new();
        let mark = h.trail_mark();
        let x = h.new_var();
        let s1 = h.new_struct(sym("f"), &[x, Cell::Int(2)]);
        let s2 = h.new_struct(sym("f"), &[Cell::Int(1), Cell::Int(3)]);
        assert!(unify(&mut h, s1, s2).is_none());
        h.undo_to(mark);
        assert!(h.is_unbound(h.deref(x)));
    }

    #[test]
    fn the_work_stack_is_empty_between_calls_and_stays_with_its_heap() {
        let mut h = Heap::new();
        let x = h.new_var();
        let deep = h.new_struct(sym("g"), &[Cell::Int(1), Cell::Int(2), Cell::Int(3)]);
        let s1 = h.new_struct(sym("f"), &[x, deep, Cell::Int(2)]);
        let s2 = h.new_struct(sym("f"), &[Cell::Int(1), deep, Cell::Int(2)]);
        assert!(unify(&mut h, s1, s2).is_some());
        assert!(h.unify_work.is_empty());
        let room = h.unify_work.capacity();
        assert!(room >= 3, "the room of the first call is kept");
        // a clash on the first argument leaves two pairs unvisited
        let s3 = h.new_struct(sym("f"), &[Cell::Int(9), deep, Cell::Int(2)]);
        let mark = h.trail_mark();
        assert!(unify(&mut h, s1, s3).is_none());
        h.undo_to(mark);
        assert!(h.unify_work.is_empty());
        assert_eq!(h.unify_work.capacity(), room);
        // a clone has the cells and the trail, and a stack of its own
        let mut c = h.clone();
        assert_eq!(c.unify_work.capacity(), 0);
        assert!(unify(&mut c, s1, s2).is_some());
        assert!(c.unify_work.is_empty() && h.unify_work.is_empty());
        assert_eq!(h.unify_work.capacity(), room);
    }

    #[test]
    fn unify_arity_mismatch_fails() {
        let mut h = Heap::new();
        let s1 = h.new_struct(sym("f"), &[Cell::Int(1)]);
        let s2 = h.new_struct(sym("f"), &[Cell::Int(1), Cell::Int(2)]);
        assert!(unify(&mut h, s1, s2).is_none());
    }

    #[test]
    fn unify_lists() {
        let mut h = Heap::new();
        let x = h.new_var();
        let t = h.new_var();
        let l1 = h.cons(x, t);
        let l2 = h.list(&[Cell::Int(1), Cell::Int(2)]);
        assert!(unify(&mut h, l1, l2).is_some());
        assert_eq!(h.deref(x), Cell::Int(1));
        let items = crate::term::proper_list(&h, t).unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(h.deref(items[0]), Cell::Int(2));
    }

    #[test]
    fn var_var_then_bind_propagates() {
        let mut h = Heap::new();
        let (x, y) = mk(&mut h);
        assert!(unify(&mut h, x, y).is_some());
        assert!(unify(&mut h, y, Cell::Atom(sym("q"))).is_some());
        assert_eq!(h.deref(x), Cell::Atom(sym("q")));
    }

    #[test]
    fn occurs_check_rejects_cyclic() {
        let mut h = Heap::new();
        let x = h.new_var();
        let s = h.new_struct(sym("f"), &[x]);
        assert!(unify_oc(&mut h, x, s).is_none());
        // plain unify happily creates the cycle (like real Prologs)
        let mut h2 = Heap::new();
        let x2 = h2.new_var();
        let s2 = h2.new_struct(sym("f"), &[x2]);
        assert!(unify(&mut h2, x2, s2).is_some());
    }

    #[test]
    fn struct_eq_no_binding() {
        let mut h = Heap::new();
        let x = h.new_var();
        let s1 = h.new_struct(sym("f"), &[x]);
        let s2 = h.new_struct(sym("f"), &[Cell::Int(1)]);
        assert!(!struct_eq(&h, s1, s2));
        assert!(h.is_unbound(h.deref(x)));
        assert!(struct_eq(&h, s1, s1));
    }

    #[test]
    fn unify_is_symmetric_on_failure_cases() {
        let mut h = Heap::new();
        let s1 = h.new_struct(sym("f"), &[Cell::Int(1)]);
        assert!(unify(&mut h, s1, Cell::Nil).is_none());
        assert!(unify(&mut h, Cell::Nil, s1).is_none());
        assert!(unify(&mut h, Cell::Atom(sym("a")), Cell::Int(1)).is_none());
    }
}
