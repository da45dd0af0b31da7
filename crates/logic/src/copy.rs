//! Term copying between (or within) heaps.
//!
//! [`copy_term`] produces an isomorphic copy of a term in a destination
//! heap, with fresh variables standing in for the source's unbound
//! variables. Structure sharing is preserved (a shared subterm is copied
//! once), which also makes the copy terminate on cyclic terms.
//!
//! This is the workhorse of both parallel engines, whose joint copies are
//! all [`crate::TermArena::freeze_tuple`] (see [`copy_tuple`]).
//!
//! The returned [`CopyOut::cells_copied`] feeds the virtual cost model.

use crate::fxhash::FxHashMap;
use crate::heap::{deref_in, Addr, Cell, Heap};
use crate::sym::Sym;

/// Result of a [`copy_term`] call.
#[derive(Debug, Clone, Copy)]
pub struct CopyOut {
    /// The copied term's root cell, valid in the destination heap.
    pub root: Cell,
    /// Number of destination cells written (cost metric).
    pub cells_copied: usize,
    /// Number of fresh variables created.
    pub fresh_vars: usize,
}

/// Copy `root` from `src` into `dst` with fresh variables.
pub fn copy_term(src: &Heap, root: Cell, dst: &mut Heap) -> CopyOut {
    copy(Some(src.cells()), root, dst)
}

/// Copy a term within a single heap (fresh variables, new cells at the top).
/// Implements the `copy_term/2` builtin.
///
/// The copy only appends, and every source address predates it, so the
/// source cells are read from the same heap while it grows: cost is the
/// size of the term, whatever the size of the heap.
pub fn copy_term_within(heap: &mut Heap, root: Cell) -> CopyOut {
    copy(None, root, heap)
}

/// Copy `roots` out of `src` jointly, as the arguments of one new structure
/// `f(root₁, …, rootₙ)` in `dst`: a variable or subterm shared between roots
/// is copied once and stays shared. [`CopyOut::root`] is the structure, whose
/// `i`-th argument is the copy of `roots[i]`.
///
/// The structure exists in `dst` only — `src` is read, never extended — and
/// `dst` receives the cells, in the order, that [`copy_term`] would write
/// for that structure had it been built on top of `src`. This is the walk
/// under [`crate::TermArena::freeze_tuple`], the joint-copy path of both
/// engines.
pub fn copy_tuple(src: &Heap, f: Sym, roots: &[Cell], dst: &mut Heap) -> CopyOut {
    with_copier(|copier| {
        let hdr = dst.push(Cell::Functor(f, roots.len() as u32));
        for &root in roots {
            let slot = dst.push(Cell::Nil); // placeholder
            copier.work.push((root, slot));
        }
        copier.cells = 1 + roots.len();
        copier.fill(Some(src.cells()), Cell::Str(hdr), dst)
    })
}

/// The cells to read the source from: `src`, or `dst`'s own when the copy
/// is within one heap. Borrowed afresh for each read, so that `dst` is free
/// to grow in between.
fn source<'a>(src: Option<&'a [Cell]>, dst: &'a Heap) -> &'a [Cell] {
    src.unwrap_or(dst.cells())
}

/// Copy `root`, a term of the cells `src` (a heap's, or a frozen arena's,
/// whose addresses index it; `dst`'s own if `None`), into `dst`.
pub(crate) fn copy(src: Option<&[Cell]>, root: Cell, dst: &mut Heap) -> CopyOut {
    with_copier(|copier| {
        let root = copier.translate(src, root, dst);
        copier.fill(src, root, dst)
    })
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Copier> = std::cell::RefCell::default();
}

/// Run one copy in this thread's scratch copier, emptied first (in case a
/// copy unwound) and last, so that room past [`Copier::KEEP`] goes back as
/// the copy ends: a map held until the next copy can sit at the
/// allocator's heap top and keep a later large heap from reusing the room
/// below it. Below that the room is kept, so a copy allocates only when it
/// is the largest this thread has made.
fn with_copier(f: impl FnOnce(&mut Copier) -> CopyOut) -> CopyOut {
    SCRATCH.with(|cell| {
        let mut copier = cell.borrow_mut();
        copier.reset();
        let out = f(&mut copier);
        copier.reset();
        out
    })
}

/// The state of one copy. Both maps are keyed by source heap addresses,
/// which no input chooses — the keys [`crate::fxhash`] is for.
#[derive(Default)]
struct Copier {
    /// Unbound-variable source address -> fresh destination variable.
    ///
    /// Kept separate from `block_map`: in the compact (WAM-style) layout
    /// produced by compiled head code, a list pair's head slot can be an
    /// unbound variable stored *at* the pair address, so a single source
    /// address may name both a pair and a variable. A shared map would
    /// resolve the variable to the pair's destination block and
    /// manufacture a cycle (`[X|T]` with `X` = the list itself).
    var_map: FxHashMap<Addr, Cell>,
    /// Compound header/pair source address -> destination block cell;
    /// presence means the destination block already exists (sharing &
    /// cycle safety).
    block_map: FxHashMap<Addr, Cell>,
    /// Placeholder slots still to fill: `(source cell, destination slot)`.
    work: Vec<(Cell, Addr)>,
    cells: usize,
    vars: usize,
}

impl Copier {
    /// Scratch maps and work lists past this many entries are dropped
    /// rather than kept: emptying a map costs its capacity, and one huge
    /// copy must neither make every later small one pay for it nor leave
    /// its room held by the thread.
    const KEEP: usize = 1 << 10;

    fn reset(&mut self) {
        for map in [&mut self.var_map, &mut self.block_map] {
            if map.capacity() > Self::KEEP {
                *map = FxHashMap::default();
            } else if !map.is_empty() {
                map.clear();
            }
        }
        if self.work.capacity() > Self::KEEP {
            self.work = Vec::new();
        } else {
            self.work.clear();
        }
        self.cells = 0;
        self.vars = 0;
    }

    /// Fill the placeholder slots queued on `work` (and those their terms
    /// queue in turn); `root` is the finished copy's root cell.
    fn fill(&mut self, src: Option<&[Cell]>, root: Cell, dst: &mut Heap) -> CopyOut {
        while let Some((src_cell, at)) = self.work.pop() {
            let t = self.translate(src, src_cell, dst);
            dst.set_raw(at, t);
        }
        CopyOut {
            root,
            cells_copied: self.cells,
            fresh_vars: self.vars,
        }
    }

    /// Translate one source cell to a destination cell. Newly seen compound
    /// terms get their destination block reserved here, and their children
    /// queued onto `work` to be filled in later (iterative, so arbitrarily
    /// deep terms cannot overflow the Rust stack).
    fn translate(&mut self, src: Option<&[Cell]>, c: Cell, dst: &mut Heap) -> Cell {
        match deref_in(source(src, dst), c) {
            Cell::Ref(a) => *self.var_map.entry(a).or_insert_with(|| {
                self.vars += 1;
                self.cells += 1;
                dst.new_var()
            }),
            Cell::Atom(s) => Cell::Atom(s),
            Cell::Int(i) => Cell::Int(i),
            Cell::Nil => Cell::Nil,
            Cell::Str(hdr) => {
                if let Some(&d) = self.block_map.get(&hdr) {
                    return d;
                }
                let Cell::Functor(f, n) = source(src, dst)[hdr.idx()] else {
                    unreachable!("a structure points at its header")
                };
                let dhdr = dst.push(Cell::Functor(f, n));
                for i in 0..n as usize {
                    let arg = source(src, dst)[hdr.idx() + 1 + i];
                    let slot = dst.push(Cell::Nil); // placeholder
                    self.work.push((arg, slot));
                }
                self.cells += 1 + n as usize;
                let out = Cell::Str(dhdr);
                self.block_map.insert(hdr, out);
                out
            }
            Cell::Lst(p) => {
                if let Some(&d) = self.block_map.get(&p) {
                    return d;
                }
                let (head, tail) = (source(src, dst)[p.idx()], source(src, dst)[p.idx() + 1]);
                let dh = dst.push(Cell::Nil);
                let dt = dst.push(Cell::Nil);
                self.work.push((head, dh));
                self.work.push((tail, dt));
                self.cells += 2;
                let out = Cell::Lst(dh);
                self.block_map.insert(p, out);
                out
            }
            Cell::Functor(..) => unreachable!("Functor is not a term"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::sym;
    use crate::term::{is_ground, term_size, variables};
    use crate::unify::struct_eq;

    #[test]
    fn copy_ground_struct() {
        let mut src = Heap::new();
        let s = src.new_struct(sym("f"), &[Cell::Int(1), Cell::Atom(sym("a"))]);
        let mut dst = Heap::new();
        let out = copy_term(&src, s, &mut dst);
        assert_eq!(out.cells_copied, 3);
        assert!(is_ground(&dst, out.root));
        let Cell::Str(h) = out.root else {
            unreachable!()
        };
        assert_eq!(dst.functor_at(h), (sym("f"), 2));
        assert_eq!(dst.str_arg(h, 0), Cell::Int(1));
    }

    #[test]
    fn copy_renames_vars_consistently() {
        let mut src = Heap::new();
        let x = src.new_var();
        let s = src.new_struct(sym("f"), &[x, x, Cell::Int(3)]);
        let mut dst = Heap::new();
        let out = copy_term(&src, s, &mut dst);
        let vars = variables(&dst, out.root);
        assert_eq!(vars.len(), 1, "shared var copied once");
        assert_eq!(out.fresh_vars, 1);
    }

    #[test]
    fn copy_list() {
        let mut src = Heap::new();
        let l = src.list(&[Cell::Int(1), Cell::Int(2), Cell::Int(3)]);
        let mut dst = Heap::new();
        let out = copy_term(&src, l, &mut dst);
        let items = crate::term::proper_list(&dst, out.root).unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(dst.deref(items[0]), Cell::Int(1));
        assert_eq!(dst.deref(items[2]), Cell::Int(3));
        assert_eq!(term_size(&dst, out.root), term_size(&src, l));
    }

    #[test]
    fn copy_deep_nesting_no_stack_overflow() {
        let mut src = Heap::new();
        let mut t = Cell::Nil;
        for i in 0..50_000 {
            t = src.cons(Cell::Int(i), t);
        }
        let mut dst = Heap::new();
        let out = copy_term(&src, t, &mut dst);
        assert_eq!(term_size(&dst, out.root), term_size(&src, t));
    }

    #[test]
    fn the_thread_scratch_forgets_each_copy() {
        let mut src = Heap::new();
        let x = src.new_var();
        let small = src.new_struct(sym("f"), &[x, x]);
        let mut big = Cell::Nil;
        for _ in 0..5_000 {
            let v = src.new_var();
            big = src.cons(v, big);
        }
        let mut dst = Heap::new();
        let first = copy_term(&src, small, &mut dst);
        let large = copy_term(&src, big, &mut dst);
        assert_eq!((large.cells_copied, large.fresh_vars), (15_000, 5_000));
        // Neither the small term's variable nor the big term's blocks
        // are remembered by the next copy.
        for _ in 0..2 {
            let again = copy_term(&src, small, &mut dst);
            assert_eq!((again.cells_copied, again.fresh_vars), (4, 1));
            assert_ne!(again.root, first.root);
        }
        let out = copy_tuple(&src, sym("t"), &[small, small], &mut dst);
        assert_eq!((out.cells_copied, out.fresh_vars), (3 + 4, 1));

        // A wide structure queues every argument on the work list at once
        // and maps 5 000 variables; the copy does not keep that room once
        // it is done.
        let args: Vec<Cell> = (0..5_000).map(|_| src.new_var()).collect();
        let wide = src.new_struct(sym("w"), &args);
        let out = copy_term(&src, wide, &mut dst);
        assert_eq!((out.cells_copied, out.fresh_vars), (10_001, 5_000));
        let (work, vars) = SCRATCH.with(|cell| {
            let c = cell.borrow();
            (c.work.capacity(), c.var_map.capacity())
        });
        assert!(
            work <= Copier::KEEP && vars <= Copier::KEEP,
            "a wide copy's scratch room is still held: work {work}, var map {vars}"
        );
    }

    #[test]
    fn copy_within_heap() {
        let mut h = Heap::new();
        let x = h.new_var();
        let s = h.new_struct(sym("g"), &[x, Cell::Int(7)]);
        let out = copy_term_within(&mut h, s);
        assert!(struct_eq(&h, out.root, out.root));
        // the copy's variable is distinct from the original's
        let v1 = variables(&h, s);
        let v2 = variables(&h, out.root);
        assert_ne!(v1, v2);
    }

    #[test]
    fn copy_follows_bindings() {
        let mut src = Heap::new();
        let x = src.new_var();
        let s = src.new_struct(sym("f"), &[x]);
        let Cell::Ref(a) = x else { unreachable!() };
        src.bind(a, Cell::Int(9));
        let mut dst = Heap::new();
        let out = copy_term(&src, s, &mut dst);
        let Cell::Str(h) = out.root else {
            unreachable!()
        };
        assert_eq!(dst.str_arg(h, 0), Cell::Int(9));
    }

    #[test]
    fn copy_preserves_sharing() {
        let mut src = Heap::new();
        let shared = src.new_struct(sym("s"), &[Cell::Int(1)]);
        let outer = src.new_struct(sym("f"), &[shared, shared]);
        let mut dst = Heap::new();
        let out = copy_term(&src, outer, &mut dst);
        let Cell::Str(h) = out.root else {
            unreachable!()
        };
        assert_eq!(dst.str_arg(h, 0), dst.str_arg(h, 1));
    }

    #[test]
    fn copy_compact_pair_with_var_at_pair_address() {
        // Compiled head code lays `[H|T]` out WAM-style: the pair's head
        // slot *is* the unbound variable H, so the pair address and the
        // variable address coincide. The copy must produce `[H'|T']` with
        // fresh vars — not resolve H to the pair's own destination block.
        let mut src = Heap::new();
        let p = Addr(src.len() as u32);
        src.push(Cell::Ref(p)); // head slot: unbound var at the pair addr
        let t = Addr(src.len() as u32);
        src.push(Cell::Ref(t)); // tail slot: unbound var
        let list = Cell::Lst(p);
        let mut dst = Heap::new();
        let out = copy_term(&src, list, &mut dst);
        let Cell::Lst(dp) = out.root else {
            unreachable!()
        };
        assert_eq!(out.fresh_vars, 2);
        let head = dst.deref(dst.lst_head(dp));
        let tail = dst.deref(dst.lst_tail(dp));
        assert!(matches!(head, Cell::Ref(_)), "head stays a var: {head:?}");
        assert!(matches!(tail, Cell::Ref(_)), "tail stays a var: {tail:?}");
        assert_ne!(head, tail);
    }

    #[test]
    fn copy_terminates_on_cyclic_term() {
        let mut src = Heap::new();
        let x = src.new_var();
        let s = src.new_struct(sym("f"), &[x]);
        let Cell::Ref(a) = x else { unreachable!() };
        // create the rational tree f(f(f(...))) without occurs check
        crate::unify::unify(&mut src, Cell::Ref(a), s).unwrap();
        let mut dst = Heap::new();
        let out = copy_term(&src, s, &mut dst);
        // the copy is itself cyclic and was produced in finite time
        let Cell::Str(h) = out.root else {
            unreachable!()
        };
        assert_eq!(dst.deref(dst.str_arg(h, 0)), Cell::Str(h));
    }
}
