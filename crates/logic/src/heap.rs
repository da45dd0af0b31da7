//! Flat cell heap with binding trail.
//!
//! Terms are stored WAM-style in one growable array of [`Cell`]s. A *term*
//! is denoted by a cell **value** (not an address): immediates (`Atom`,
//! `Int`, `Nil`) carry their payload, while `Ref`, `Str` and `Lst` carry an
//! address into the heap. Structures occupy a `Functor` header cell followed
//! by `arity` argument cells; list pairs occupy two adjacent cells.
//!
//! Backtracking support follows the classic two-part discipline the paper's
//! machinery depends on:
//!
//! * the **trail** records every variable binding so it can be undone
//!   ([`Heap::undo_to`]);
//! * the heap only grows during forward execution, so restoring a choice
//!   point truncates it back to the recorded high-water mark
//!   ([`Heap::truncate_to`]).
//!
//! [`Heap::unwind_section`]/[`Heap::rewind_section`] additionally allow a
//! *temporary* detour to an earlier trail state without losing the current
//! bindings — the primitive used by the or-parallel engine to copy the state
//! of an interior choice point out of a running computation (MUSE-style
//! state copying).

use crate::sym::Sym;

/// Index of a cell in a [`Heap`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Addr(pub u32);

impl Addr {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    #[inline]
    pub fn offset(self, by: u32) -> Addr {
        Addr(self.0 + by)
    }
}

/// One heap cell. See the module docs for the term encoding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cell {
    /// A variable. Unbound iff the cell at the carried address is a `Ref`
    /// to itself; otherwise the carried address holds the binding.
    Ref(Addr),
    /// An atom (interned constant).
    Atom(Sym),
    /// A machine integer.
    Int(i64),
    /// A structure; the address points at its `Functor` header cell.
    Str(Addr),
    /// Structure header: functor name and arity. Argument cells follow
    /// contiguously. Never a term value on its own.
    Functor(Sym, u32),
    /// A list pair; the address points at two adjacent cells (head, tail).
    Lst(Addr),
    /// The empty list `[]`.
    Nil,
}

impl Cell {
    /// Does this cell carry a heap address that must be relocated when the
    /// containing region is block-copied to a different base offset?
    #[inline]
    pub fn relocatable(self) -> bool {
        matches!(self, Cell::Ref(_) | Cell::Str(_) | Cell::Lst(_))
    }

    /// Relocate the carried address (if any) by `base`.
    #[inline]
    pub fn relocated(self, base: u32) -> Cell {
        match self {
            Cell::Ref(a) => Cell::Ref(Addr(a.0 + base)),
            Cell::Str(a) => Cell::Str(Addr(a.0 + base)),
            Cell::Lst(a) => Cell::Lst(Addr(a.0 + base)),
            other => other,
        }
    }
}

/// Opaque trail position used to undo bindings back to a choice point.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct TrailMark(pub usize);

/// Heap high-water mark (cell count) used to truncate on backtracking.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct HeapMark(pub usize);

/// A growable term heap plus its binding trail.
#[derive(Clone, Debug, Default)]
pub struct Heap {
    cells: Vec<Cell>,
    trail: Vec<Addr>,
    /// The pairs [`crate::unify::unify`] has still to visit. Empty between
    /// calls — only its room is kept, so a heap that unifies allocates for
    /// that once, and a clone starts with none.
    pub(crate) unify_work: Vec<(Cell, Cell)>,
}

/// Trail entries a fresh heap has room for.
const SMALL_TRAIL: usize = 256;

/// Trail entries reserved in one step for a heap whose trail outgrows
/// [`SMALL_TRAIL`] — the heap of a running machine.
///
/// Reserved once, while the cell vector is a few pages, the trail never
/// moves, and the cell vector settles above it in the allocator's arena and
/// is extended in place. A trail that doubles on demand moves whenever it
/// outgrows the free chunk it sits in, to the top of the arena when no other
/// chunk fits — directly above the cell vector, which must then be copied
/// whole at its next doubling, old and new buffer alive together. The trail
/// is about a sixtieth of the cells, so that copy comes late and large, and
/// at which doubling it comes depends on the free chunks the rest of the
/// process left behind: a peak resident size that differs between identical
/// runs (18, 22 or 26 MB on the benchmark's `seq_det`). Room that is never
/// written costs address space, not memory.
const TRAIL_RESERVE: usize = 1 << 18;

impl Heap {
    /// A heap with room to run in. `Heap::default()` reserves nothing: the
    /// start for a copy target that [`Heap::shrink_to_fit`] then freezes.
    pub fn new() -> Self {
        Heap {
            cells: Vec::with_capacity(1024),
            trail: Vec::with_capacity(SMALL_TRAIL),
            unify_work: Vec::new(),
        }
    }

    pub fn with_capacity(cells: usize) -> Self {
        Heap {
            cells: Vec::with_capacity(cells),
            trail: Vec::with_capacity(cells / 4 + 16),
            unify_work: Vec::new(),
        }
    }

    /// A frozen copy of `cells`: room for exactly those cells and for no
    /// trail entry. This is how the reader hands over a clause; a heap that
    /// will grow or bind should start from [`Heap::new`].
    pub fn from_cells(cells: &[Cell]) -> Self {
        Heap {
            cells: Box::<[Cell]>::from(cells).into_vec(),
            trail: Vec::new(),
            unify_work: Vec::new(),
        }
    }

    /// The cells alone, in an allocation of exactly their number (the one
    /// they are in, for a heap from [`Heap::from_cells`]). This is how the
    /// clause store keeps a clause.
    pub fn into_cells(self) -> Box<[Cell]> {
        self.cells.into_boxed_slice()
    }

    /// Give back the room not in use. For a heap that was just filled and
    /// will only be read — a closure, a solution bundle — this leaves what
    /// [`Heap::from_cells`] would have built.
    pub fn shrink_to_fit(&mut self) {
        self.cells.shrink_to_fit();
        self.trail.shrink_to_fit();
        self.unify_work.shrink_to_fit();
    }

    /// Allocated room as `(cells, trail entries)`, used or not.
    pub fn reserved(&self) -> (usize, usize) {
        (self.cells.capacity(), self.trail.capacity())
    }

    /// Number of live cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Raw cell read.
    #[inline]
    pub fn cell(&self, a: Addr) -> Cell {
        self.cells[a.idx()]
    }

    /// Raw cell slice access (used by block copy / relocation).
    #[inline]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Push a raw cell, returning its address. Low-level; prefer the typed
    /// constructors below.
    #[inline]
    pub fn push(&mut self, c: Cell) -> Addr {
        let a = Addr(self.cells.len() as u32);
        self.cells.push(c);
        a
    }

    /// Append `cells` with every address they carry moved up by `base`: how
    /// a clause arena or a frozen answer is spliced in, in one reservation
    /// and one pass.
    #[inline]
    pub fn extend_relocated(&mut self, cells: &[Cell], base: u32) {
        self.extend_mapped(cells, |c| c.relocated(base));
    }

    /// Append `cells`, each passed through `f`, in one reservation and one
    /// pass (a body goal is copied out of its template this way).
    #[inline]
    pub fn extend_mapped(&mut self, cells: &[Cell], f: impl FnMut(Cell) -> Cell) {
        self.cells.extend(cells.iter().copied().map(f));
    }

    /// Overwrite a cell without trailing. Only for heap-construction
    /// protocols that reserve placeholder slots (term copying, relocation);
    /// never for variable binding — use [`Heap::bind`] for that.
    #[inline]
    pub fn set_raw(&mut self, a: Addr, c: Cell) {
        self.cells[a.idx()] = c;
    }

    // ------------------------------------------------------------------
    // Term constructors
    // ------------------------------------------------------------------

    /// Allocate a fresh unbound variable and return a reference to it.
    #[inline]
    pub fn new_var(&mut self) -> Cell {
        let a = Addr(self.cells.len() as u32);
        self.cells.push(Cell::Ref(a));
        Cell::Ref(a)
    }

    /// Build the structure `f(args...)`. With zero args this still builds a
    /// structure (use [`Cell::Atom`] directly for atoms).
    pub fn new_struct(&mut self, f: Sym, args: &[Cell]) -> Cell {
        let hdr = self.push(Cell::Functor(f, args.len() as u32));
        for &arg in args {
            self.cells.push(arg);
        }
        Cell::Str(hdr)
    }

    /// Build the list pair `[head | tail]`.
    pub fn cons(&mut self, head: Cell, tail: Cell) -> Cell {
        let a = self.push(head);
        self.cells.push(tail);
        Cell::Lst(a)
    }

    /// Build a proper list from `items`.
    pub fn list(&mut self, items: &[Cell]) -> Cell {
        let mut tail = Cell::Nil;
        for &item in items.iter().rev() {
            tail = self.cons(item, tail);
        }
        tail
    }

    // ------------------------------------------------------------------
    // Dereferencing and binding
    // ------------------------------------------------------------------

    /// Follow `Ref` chains until reaching an unbound variable (returned as
    /// `Ref(a)` where the cell at `a` is a self-reference) or a non-`Ref`
    /// value cell.
    #[inline]
    pub fn deref(&self, mut c: Cell) -> Cell {
        loop {
            match c {
                Cell::Ref(a) => {
                    let inner = self.cells[a.idx()];
                    if inner == Cell::Ref(a) {
                        return c; // unbound
                    }
                    c = inner;
                }
                other => return other,
            }
        }
    }

    /// Is `c` (already dereferenced) an unbound variable?
    #[inline]
    pub fn is_unbound(&self, c: Cell) -> bool {
        matches!(c, Cell::Ref(a) if self.cells[a.idx()] == Cell::Ref(a))
    }

    /// Bind the unbound variable at `a` to `value`, recording the binding on
    /// the trail. Debug-asserts that `a` is currently unbound.
    #[inline]
    pub fn bind(&mut self, a: Addr, value: Cell) {
        debug_assert_eq!(
            self.cells[a.idx()],
            Cell::Ref(a),
            "bind target must be an unbound variable"
        );
        self.cells[a.idx()] = value;
        if self.trail.len() == self.trail.capacity() {
            self.grow_trail();
        }
        self.trail.push(a);
    }

    /// Make room on a full trail: a small heap's trail goes to
    /// [`Heap::new`]'s size, one that outgrows that is reserved
    /// [`TRAIL_RESERVE`] entries at once, and doubles from there.
    #[cold]
    fn grow_trail(&mut self) {
        let room = match self.trail.capacity() {
            small if small < SMALL_TRAIL => SMALL_TRAIL,
            running if running < TRAIL_RESERVE => TRAIL_RESERVE,
            reserved => reserved * 2,
        };
        self.trail.reserve_exact(room - self.trail.len());
    }

    /// Bind two unbound variables together, choosing the direction that
    /// keeps references pointing from younger to older cells (so heap
    /// truncation can never orphan a binding).
    #[inline]
    pub fn bind_vars(&mut self, a: Addr, b: Addr) {
        if a.0 < b.0 {
            self.bind(b, Cell::Ref(a));
        } else if b.0 < a.0 {
            self.bind(a, Cell::Ref(b));
        }
        // a == b: already the same variable; nothing to do.
    }

    // ------------------------------------------------------------------
    // Trail & backtracking
    // ------------------------------------------------------------------

    /// Current trail position.
    #[inline]
    pub fn trail_mark(&self) -> TrailMark {
        TrailMark(self.trail.len())
    }

    /// Current heap high-water mark.
    #[inline]
    pub fn heap_mark(&self) -> HeapMark {
        HeapMark(self.cells.len())
    }

    /// Number of trail entries (diagnostics / cost accounting).
    #[inline]
    pub fn trail_len(&self) -> usize {
        self.trail.len()
    }

    /// Undo all bindings made since `mark`, returning how many were undone.
    pub fn undo_to(&mut self, mark: TrailMark) -> usize {
        let n = self.trail.len() - mark.0;
        for i in (mark.0..self.trail.len()).rev() {
            let a = self.trail[i];
            self.cells[a.idx()] = Cell::Ref(a);
        }
        self.trail.truncate(mark.0);
        n
    }

    /// Truncate the heap to `mark`. Callers must first [`Heap::undo_to`] the
    /// matching trail mark so no surviving cell references the dead region.
    pub fn truncate_to(&mut self, mark: HeapMark) {
        debug_assert!(mark.0 <= self.cells.len());
        self.cells.truncate(mark.0);
    }

    /// Undo the bindings in `(mark, now]` **while remembering them**, so
    /// they can be exactly restored by [`Heap::rewind_section`]. The heap is
    /// left looking as it did (binding-wise) at `mark`; the cells themselves
    /// are all still present.
    ///
    /// This is the state-copying primitive for or-parallelism: to hand an
    /// untried alternative of an interior choice point to another worker we
    /// must read the goal and continuation *as they were at that choice
    /// point*, without destroying the current (younger) bindings.
    pub fn unwind_section(&mut self, mark: TrailMark) -> UnwoundSection {
        let mut saved = Vec::with_capacity(self.trail.len() - mark.0);
        for i in (mark.0..self.trail.len()).rev() {
            let a = self.trail[i];
            saved.push((a, self.cells[a.idx()]));
            self.cells[a.idx()] = Cell::Ref(a);
        }
        UnwoundSection { mark, saved }
    }

    /// Restore the bindings captured by [`Heap::unwind_section`]. Must be
    /// called with the section produced by the matching `unwind_section`
    /// while no other binding activity happened in between.
    pub fn rewind_section(&mut self, section: UnwoundSection) {
        debug_assert_eq!(section.mark.0 + section.saved.len(), self.trail.len());
        for &(a, cell) in section.saved.iter().rev() {
            self.cells[a.idx()] = cell;
        }
    }

    /// The trail addresses recorded in `(mark, now]`, oldest first.
    /// Used by the shallow-parallelism optimization, which must remember a
    /// deterministic subgoal's *trail section* instead of its markers.
    pub fn trail_section(&self, mark: TrailMark) -> &[Addr] {
        &self.trail[mark.0..]
    }

    /// Reset the heap to empty (machine pooling).
    pub fn clear(&mut self) {
        self.cells.clear();
        self.trail.clear();
    }

    // ------------------------------------------------------------------
    // Structure access helpers
    // ------------------------------------------------------------------

    /// Functor name and arity of the structure whose header is at `hdr`.
    #[inline]
    pub fn functor_at(&self, hdr: Addr) -> (Sym, u32) {
        match self.cells[hdr.idx()] {
            Cell::Functor(f, n) => (f, n),
            other => panic!("functor_at: not a Functor header: {other:?}"),
        }
    }

    /// The `i`-th (0-based) argument cell of the structure at `hdr`.
    #[inline]
    pub fn str_arg(&self, hdr: Addr, i: u32) -> Cell {
        self.cells[hdr.idx() + 1 + i as usize]
    }

    /// Head cell of the list pair at `pair`.
    #[inline]
    pub fn lst_head(&self, pair: Addr) -> Cell {
        self.cells[pair.idx()]
    }

    /// Tail cell of the list pair at `pair`.
    #[inline]
    pub fn lst_tail(&self, pair: Addr) -> Cell {
        self.cells[pair.idx() + 1]
    }
}

/// Saved bindings from [`Heap::unwind_section`], consumed by
/// [`Heap::rewind_section`].
#[derive(Debug)]
pub struct UnwoundSection {
    mark: TrailMark,
    /// `(addr, value-it-had)` pairs in undo order (youngest first).
    saved: Vec<(Addr, Cell)>,
}

impl UnwoundSection {
    /// Number of bindings temporarily undone.
    pub fn len(&self) -> usize {
        self.saved.len()
    }

    pub fn is_empty(&self) -> bool {
        self.saved.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::sym;

    #[test]
    fn fresh_var_is_unbound() {
        let mut h = Heap::new();
        let v = h.new_var();
        assert!(h.is_unbound(h.deref(v)));
    }

    #[test]
    fn bind_and_deref() {
        let mut h = Heap::new();
        let v = h.new_var();
        let Cell::Ref(a) = v else { unreachable!() };
        h.bind(a, Cell::Int(42));
        assert_eq!(h.deref(v), Cell::Int(42));
    }

    #[test]
    fn deref_follows_chains() {
        let mut h = Heap::new();
        let v1 = h.new_var();
        let v2 = h.new_var();
        let Cell::Ref(a1) = v1 else { unreachable!() };
        let Cell::Ref(a2) = v2 else { unreachable!() };
        h.bind(a2, Cell::Ref(a1)); // v2 -> v1 (younger to older)
        assert!(h.is_unbound(h.deref(v2)));
        h.bind(a1, Cell::Atom(sym("x")));
        assert_eq!(h.deref(v2), Cell::Atom(sym("x")));
    }

    #[test]
    fn bind_vars_points_younger_to_older() {
        let mut h = Heap::new();
        let v1 = h.new_var();
        let v2 = h.new_var();
        let (Cell::Ref(a1), Cell::Ref(a2)) = (v1, v2) else {
            unreachable!()
        };
        h.bind_vars(a2, a1);
        assert_eq!(h.cell(a2), Cell::Ref(a1));
        assert_eq!(h.cell(a1), Cell::Ref(a1));
    }

    #[test]
    fn undo_restores_unbound_state() {
        let mut h = Heap::new();
        let v = h.new_var();
        let Cell::Ref(a) = v else { unreachable!() };
        let mark = h.trail_mark();
        h.bind(a, Cell::Int(7));
        assert_eq!(h.undo_to(mark), 1);
        assert!(h.is_unbound(h.deref(v)));
    }

    #[test]
    fn undo_then_truncate_roundtrip() {
        let mut h = Heap::new();
        let v = h.new_var();
        let Cell::Ref(a) = v else { unreachable!() };
        let tm = h.trail_mark();
        let hm = h.heap_mark();
        let s = h.new_struct(sym("f"), &[Cell::Int(1), Cell::Int(2)]);
        let Cell::Str(_) = s else { unreachable!() };
        h.bind(a, s);
        h.undo_to(tm);
        h.truncate_to(hm);
        assert_eq!(h.len(), 1);
        assert!(h.is_unbound(h.deref(v)));
    }

    #[test]
    fn struct_arg_access() {
        let mut h = Heap::new();
        let s = h.new_struct(sym("point"), &[Cell::Int(3), Cell::Int(4)]);
        let Cell::Str(hdr) = s else { unreachable!() };
        assert_eq!(h.functor_at(hdr), (sym("point"), 2));
        assert_eq!(h.str_arg(hdr, 0), Cell::Int(3));
        assert_eq!(h.str_arg(hdr, 1), Cell::Int(4));
    }

    #[test]
    fn list_construction() {
        let mut h = Heap::new();
        let l = h.list(&[Cell::Int(1), Cell::Int(2), Cell::Int(3)]);
        let Cell::Lst(p) = l else { unreachable!() };
        assert_eq!(h.lst_head(p), Cell::Int(1));
        let Cell::Lst(p2) = h.lst_tail(p) else {
            unreachable!()
        };
        assert_eq!(h.lst_head(p2), Cell::Int(2));
        let Cell::Lst(p3) = h.lst_tail(p2) else {
            unreachable!()
        };
        assert_eq!(h.lst_head(p3), Cell::Int(3));
        assert_eq!(h.lst_tail(p3), Cell::Nil);
    }

    #[test]
    fn empty_list_is_nil() {
        let mut h = Heap::new();
        assert_eq!(h.list(&[]), Cell::Nil);
    }

    #[test]
    fn unwind_rewind_preserves_current_bindings() {
        let mut h = Heap::new();
        let v1 = h.new_var();
        let v2 = h.new_var();
        let (Cell::Ref(a1), Cell::Ref(a2)) = (v1, v2) else {
            unreachable!()
        };
        h.bind(a1, Cell::Int(1));
        let mark = h.trail_mark();
        h.bind(a2, Cell::Int(2));

        let sect = h.unwind_section(mark);
        // At the mark, v1 was bound but v2 was not.
        assert_eq!(h.deref(v1), Cell::Int(1));
        assert!(h.is_unbound(h.deref(v2)));

        h.rewind_section(sect);
        assert_eq!(h.deref(v2), Cell::Int(2));
    }

    #[test]
    fn trail_section_reports_addresses() {
        let mut h = Heap::new();
        let v1 = h.new_var();
        let v2 = h.new_var();
        let (Cell::Ref(a1), Cell::Ref(a2)) = (v1, v2) else {
            unreachable!()
        };
        let mark = h.trail_mark();
        h.bind(a1, Cell::Int(1));
        h.bind(a2, Cell::Int(2));
        assert_eq!(h.trail_section(mark), &[a1, a2]);
    }

    #[test]
    fn trail_is_reserved_once_past_the_small_size() {
        let bind_fresh = |h: &mut Heap, n: usize| {
            for i in 0..n {
                let Cell::Ref(a) = h.new_var() else {
                    unreachable!()
                };
                h.bind(a, Cell::Int(i as i64));
            }
        };
        // A frozen copy has no trail; a few bindings give it the small one.
        let mut h = Heap::from_cells(&[]);
        bind_fresh(&mut h, 1);
        assert_eq!(h.reserved().1, SMALL_TRAIL);
        bind_fresh(&mut h, SMALL_TRAIL - 1);
        assert_eq!(h.reserved().1, SMALL_TRAIL);
        // One more and the trail is reserved for good, entries intact.
        bind_fresh(&mut h, 1);
        assert_eq!(h.reserved().1, TRAIL_RESERVE);
        assert_eq!(h.trail_len(), SMALL_TRAIL + 1);
        assert_eq!(h.undo_to(TrailMark(0)), SMALL_TRAIL + 1);
        assert!((0..h.len()).all(|i| h.is_unbound(Cell::Ref(Addr(i as u32)))));
    }

    #[test]
    fn relocation() {
        assert_eq!(Cell::Ref(Addr(3)).relocated(10), Cell::Ref(Addr(13)));
        assert_eq!(Cell::Str(Addr(0)).relocated(5), Cell::Str(Addr(5)));
        assert_eq!(Cell::Int(9).relocated(100), Cell::Int(9));
        assert!(!Cell::Nil.relocatable());
        assert!(Cell::Lst(Addr(1)).relocatable());
    }
}
