//! Structured views over heap cells and term-level utilities.

use crate::heap::{Addr, Cell, Heap};
use crate::sym::Sym;

/// A dereferenced, pattern-matchable view of a term.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TermView {
    /// Unbound variable at the given heap address.
    Var(Addr),
    Atom(Sym),
    Int(i64),
    /// Structure `f/arity` whose header cell is at the given address.
    Struct(Sym, u32, Addr),
    /// List pair at the given address (head at `a`, tail at `a+1`).
    List(Addr),
    Nil,
}

/// Dereference `c` in `heap` and classify it.
#[inline]
pub fn view(heap: &Heap, c: Cell) -> TermView {
    match heap.deref(c) {
        Cell::Ref(a) => TermView::Var(a),
        Cell::Atom(s) => TermView::Atom(s),
        Cell::Int(i) => TermView::Int(i),
        Cell::Str(hdr) => {
            let (f, n) = heap.functor_at(hdr);
            TermView::Struct(f, n, hdr)
        }
        Cell::Lst(a) => TermView::List(a),
        Cell::Nil => TermView::Nil,
        Cell::Functor(..) => unreachable!("Functor header is not a term"),
    }
}

/// Iterate the elements of a (possibly improper) list term. Yields each
/// element cell; `rest()` reports the final tail (Nil for proper lists).
pub struct ListIter<'h> {
    heap: &'h Heap,
    cur: Cell,
}

impl<'h> ListIter<'h> {
    pub fn new(heap: &'h Heap, list: Cell) -> Self {
        ListIter { heap, cur: list }
    }

    /// The unconsumed tail (call after exhausting the iterator).
    pub fn rest(&self) -> Cell {
        self.heap.deref(self.cur)
    }
}

impl<'h> Iterator for ListIter<'h> {
    type Item = Cell;

    fn next(&mut self) -> Option<Cell> {
        match self.heap.deref(self.cur) {
            Cell::Lst(p) => {
                let head = self.heap.lst_head(p);
                self.cur = self.heap.lst_tail(p);
                Some(head)
            }
            _ => None,
        }
    }
}

/// Collect a proper list into a `Vec` of element cells. Returns `None` if
/// the term is not a proper list (unbound or non-nil tail).
pub fn proper_list(heap: &Heap, list: Cell) -> Option<Vec<Cell>> {
    let mut it = ListIter::new(heap, list);
    let items: Vec<Cell> = it.by_ref().collect();
    if it.rest() == Cell::Nil {
        Some(items)
    } else {
        None
    }
}

/// Is the term fully ground (no unbound variables)?
pub fn is_ground(heap: &Heap, c: Cell) -> bool {
    let mut stack = vec![c];
    while let Some(c) = stack.pop() {
        match view(heap, c) {
            TermView::Var(_) => return false,
            TermView::Struct(_, n, hdr) => {
                for i in 0..n {
                    stack.push(heap.str_arg(hdr, i));
                }
            }
            TermView::List(p) => {
                stack.push(heap.lst_head(p));
                stack.push(heap.lst_tail(p));
            }
            _ => {}
        }
    }
    true
}

/// Number of cells the term transitively occupies (size metric used by the
/// cost model for copy charging).
pub fn term_size(heap: &Heap, c: Cell) -> usize {
    let mut size = 0;
    let mut stack = vec![c];
    while let Some(c) = stack.pop() {
        size += 1;
        match view(heap, c) {
            TermView::Struct(_, n, hdr) => {
                for i in 0..n {
                    stack.push(heap.str_arg(hdr, i));
                }
            }
            TermView::List(p) => {
                stack.push(heap.lst_head(p));
                stack.push(heap.lst_tail(p));
            }
            _ => {}
        }
    }
    size
}

/// Collect the distinct unbound variables in `c`, in first-occurrence order.
pub fn variables(heap: &Heap, c: Cell) -> Vec<Addr> {
    let mut seen = Vec::new();
    let mut stack = vec![c];
    // depth-first, left-to-right: push children reversed
    while let Some(c) = stack.pop() {
        match view(heap, c) {
            TermView::Var(a) if !seen.contains(&a) => seen.push(a),
            TermView::Var(_) => {}
            TermView::Struct(_, n, hdr) => {
                for i in (0..n).rev() {
                    stack.push(heap.str_arg(hdr, i));
                }
            }
            TermView::List(p) => {
                stack.push(heap.lst_tail(p));
                stack.push(heap.lst_head(p));
            }
            _ => {}
        }
    }
    seen
}

/// Standard order of terms comparison (Var < Int < Atom < compound;
/// compound by arity, then functor name, then args left-to-right).
pub fn compare(heap: &Heap, a: Cell, b: Cell) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    use TermView as V;

    fn rank(v: &TermView) -> u8 {
        match v {
            V::Var(_) => 0,
            V::Int(_) => 1,
            V::Atom(_) => 2,
            V::Nil => 2, // '[]' is an atom in the standard order
            V::List(_) => 3,
            V::Struct(..) => 3,
        }
    }

    let va = view(heap, a);
    let vb = view(heap, b);
    let (ra, rb) = (rank(&va), rank(&vb));
    if ra != rb {
        return ra.cmp(&rb);
    }
    match (va, vb) {
        (V::Var(x), V::Var(y)) => x.0.cmp(&y.0),
        (V::Int(x), V::Int(y)) => x.cmp(&y),
        (V::Atom(x), V::Atom(y)) => x.name().cmp(y.name()),
        (V::Nil, V::Nil) => Ordering::Equal,
        (V::Atom(x), V::Nil) => x.name().cmp("[]"),
        (V::Nil, V::Atom(y)) => "[]".cmp(y.name()),
        (ta, tb) => {
            // compound: compare arity, then name, then args
            let (fa, na, args_a) = compound_parts(heap, ta);
            let (fb, nb, args_b) = compound_parts(heap, tb);
            na.cmp(&nb)
                .then_with(|| fa.name().cmp(fb.name()))
                .then_with(|| {
                    for (x, y) in args_a.iter().zip(args_b.iter()) {
                        let o = compare(heap, *x, *y);
                        if o != Ordering::Equal {
                            return o;
                        }
                    }
                    Ordering::Equal
                })
        }
    }
}

fn compound_parts(heap: &Heap, v: TermView) -> (Sym, u32, Vec<Cell>) {
    match v {
        TermView::Struct(f, n, hdr) => (f, n, (0..n).map(|i| heap.str_arg(hdr, i)).collect()),
        TermView::List(p) => (
            crate::sym::wk().dot,
            2,
            vec![heap.lst_head(p), heap.lst_tail(p)],
        ),
        _ => unreachable!("compound_parts on non-compound"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::sym;

    #[test]
    fn view_classifies() {
        let mut h = Heap::new();
        let v = h.new_var();
        assert!(matches!(view(&h, v), TermView::Var(_)));
        assert_eq!(view(&h, Cell::Atom(sym("a"))), TermView::Atom(sym("a")));
        assert_eq!(view(&h, Cell::Int(5)), TermView::Int(5));
        assert_eq!(view(&h, Cell::Nil), TermView::Nil);
        let s = h.new_struct(sym("f"), &[Cell::Int(1)]);
        assert!(matches!(view(&h, s), TermView::Struct(f, 1, _) if f == sym("f")));
    }

    #[test]
    fn proper_list_roundtrip() {
        let mut h = Heap::new();
        let l = h.list(&[Cell::Int(1), Cell::Int(2)]);
        let items = proper_list(&h, l).unwrap();
        assert_eq!(items, vec![Cell::Int(1), Cell::Int(2)]);
    }

    #[test]
    fn improper_list_detected() {
        let mut h = Heap::new();
        let v = h.new_var();
        let l = h.cons(Cell::Int(1), v);
        assert!(proper_list(&h, l).is_none());
    }

    #[test]
    fn groundness() {
        let mut h = Heap::new();
        let v = h.new_var();
        let s1 = h.new_struct(sym("f"), &[Cell::Int(1), v]);
        assert!(!is_ground(&h, s1));
        let s2 = h.new_struct(sym("f"), &[Cell::Int(1), Cell::Atom(sym("a"))]);
        assert!(is_ground(&h, s2));
        // binding the var makes s1 ground
        let Cell::Ref(a) = v else { unreachable!() };
        h.bind(a, Cell::Int(9));
        assert!(is_ground(&h, s1));
    }

    #[test]
    fn sizes() {
        let mut h = Heap::new();
        assert_eq!(term_size(&h, Cell::Int(1)), 1);
        let s = h.new_struct(sym("f"), &[Cell::Int(1), Cell::Int(2)]);
        assert_eq!(term_size(&h, s), 3);
        let l = h.list(&[Cell::Int(1), Cell::Int(2)]);
        // [1,2] = Lst -> 1, Lst -> 2, Nil  => pair + head + pair + head + nil
        assert_eq!(term_size(&h, l), 5);
    }

    #[test]
    fn collect_variables_in_order() {
        let mut h = Heap::new();
        let x = h.new_var();
        let y = h.new_var();
        let inner = h.new_struct(sym("g"), &[y, x]);
        let s = h.new_struct(sym("f"), &[x, inner]);
        let (Cell::Ref(ax), Cell::Ref(ay)) = (x, y) else {
            unreachable!()
        };
        assert_eq!(variables(&h, s), vec![ax, ay]);
    }

    #[test]
    fn standard_order() {
        use std::cmp::Ordering::*;
        let mut h = Heap::new();
        let v = h.new_var();
        assert_eq!(compare(&h, v, Cell::Int(0)), Less);
        assert_eq!(compare(&h, Cell::Int(3), Cell::Atom(sym("a"))), Less);
        let s = h.new_struct(sym("f"), &[Cell::Int(1)]);
        assert_eq!(compare(&h, Cell::Atom(sym("z")), s), Less);
        assert_eq!(compare(&h, Cell::Int(2), Cell::Int(2)), Equal);
        let s2 = h.new_struct(sym("f"), &[Cell::Int(2)]);
        assert_eq!(compare(&h, s, s2), Less);
        let g1 = h.new_struct(sym("a"), &[Cell::Int(1)]);
        let g2 = h.new_struct(sym("b"), &[Cell::Int(0)]);
        assert_eq!(compare(&h, g1, g2), Less);
    }
}
