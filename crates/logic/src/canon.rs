//! Canonical call keys and relocatable answer arenas — the term-level
//! substrate of the answer store (`ace-table`).
//!
//! * [`CanonKey`] writes a *variant-normalized* byte encoding of a call
//!   term: variables are numbered in first-occurrence order, so two calls
//!   that differ only by a renaming of their variables produce
//!   byte-identical keys (and therefore hit the same table entry).
//!   Shared/cyclic subterms are encoded as back-references, which makes
//!   the writer terminate on rational trees and keeps the encoding
//!   injective up to variance.
//! * [`TermArena`] is a self-contained relocatable cell block holding one
//!   copied term, or several copied jointly — the one frozen form, of
//!   answers, state closures and shipped goals alike. Any worker can
//!   splice ("thaw") the arena into its own heap with a single block copy
//!   plus address relocation, exactly the mechanism clause instantiation
//!   already uses, without re-running the goal that produced it.
//! * A stored answer is a *substitution*: the bindings of its call's
//!   variables, in the order the call's key numbers them
//!   ([`CanonScratch::vars`]), frozen jointly. Every variant of the call
//!   has its variables in that order, so [`TermArena::bind_roots`] binds
//!   them on any heap without looking at the call again.

use std::collections::HashMap;

use crate::copy::{copy, copy_term, copy_tuple, CopyOut};
use crate::heap::{Addr, Cell, Heap};
use crate::sym::Sym;

/// FNV-1a over the key bytes (no dependency, stable across runs of one
/// process — `Sym` ids are process-global interner indices).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Working memory of the key writer, owned by
/// whoever canonicalizes often (a machine) and reused from call to call:
/// every part is emptied on use and keeps its room.
#[derive(Debug, Default)]
pub struct CanonScratch {
    bytes: Vec<u8>,
    var_ids: HashMap<Addr, u32>,
    /// The variables of `var_ids`, by id.
    vars: Vec<Cell>,
    /// compound (Str header / Lst pair) address -> visit id
    seen: HashMap<(bool, Addr), u32>,
    stack: Vec<Cell>,
}

impl CanonScratch {
    /// Write the canonical bytes of the term rooted at `root` (the
    /// encoding [`CanonKey`] documents); they stay readable here until the
    /// next call. A caller that only tests membership — is this answer a
    /// duplicate? — never owns a key.
    pub fn encode(&mut self, heap: &Heap, root: Cell) -> &[u8] {
        self.encode_roots(heap, &[root])
    }

    /// Write the canonical bytes of `roots`, one after another, with one
    /// variable numbering and one back-reference table: a substitution's
    /// key. Two sequences of as many roots write the same bytes iff they
    /// are variants of each other jointly.
    pub fn encode_roots(&mut self, heap: &Heap, roots: &[Cell]) -> &[u8] {
        let CanonScratch {
            bytes,
            var_ids,
            vars,
            seen,
            stack,
            ..
        } = self;
        bytes.clear();
        var_ids.clear();
        vars.clear();
        seen.clear();
        stack.clear();
        stack.extend(roots.iter().rev());
        while let Some(c) = stack.pop() {
            match heap.deref(c) {
                Cell::Ref(a) => {
                    let n = var_ids.len() as u32;
                    let id = *var_ids.entry(a).or_insert_with(|| {
                        vars.push(Cell::Ref(a));
                        n
                    });
                    bytes.push(b'V');
                    bytes.extend_from_slice(&id.to_le_bytes());
                }
                Cell::Atom(s) => {
                    bytes.push(b'A');
                    bytes.extend_from_slice(&s.0.to_le_bytes());
                }
                Cell::Int(i) => {
                    bytes.push(b'I');
                    bytes.extend_from_slice(&i.to_le_bytes());
                }
                Cell::Str(hdr) => {
                    let fresh = seen.len() as u32;
                    if let Some(&id) = seen.get(&(false, hdr)) {
                        bytes.push(b'B');
                        bytes.extend_from_slice(&id.to_le_bytes());
                        continue;
                    }
                    seen.insert((false, hdr), fresh);
                    let (f, n) = heap.functor_at(hdr);
                    bytes.push(b'S');
                    bytes.extend_from_slice(&f.0.to_le_bytes());
                    bytes.extend_from_slice(&n.to_le_bytes());
                    for i in (0..n).rev() {
                        stack.push(heap.str_arg(hdr, i));
                    }
                }
                Cell::Lst(a) => {
                    let fresh = seen.len() as u32;
                    if let Some(&id) = seen.get(&(true, a)) {
                        bytes.push(b'B');
                        bytes.extend_from_slice(&id.to_le_bytes());
                        continue;
                    }
                    seen.insert((true, a), fresh);
                    bytes.push(b'L');
                    stack.push(heap.lst_tail(a));
                    stack.push(heap.lst_head(a));
                }
                Cell::Nil => bytes.push(b'N'),
                Cell::Functor(..) => unreachable!("Functor header is not a term"),
            }
        }
        bytes
    }

    /// The unbound variables of the term last encoded, in the order its
    /// key numbers them (`V0`, `V1`, …): where a variant call keeps the
    /// variables its stored answers bind.
    pub fn vars(&self) -> &[Cell] {
        &self.vars
    }
}

/// A variant-normalized encoding of one call term, used as the lookup key
/// of the concurrent answer table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonKey {
    /// The canonical byte string (see [`CanonKey::of`]).
    pub bytes: Vec<u8>,
    /// FNV-1a hash of `bytes` (shard selection, trace correlation).
    pub hash: u64,
}

impl CanonKey {
    /// Canonicalize the term rooted at `root` in `heap`.
    ///
    /// Encoding, preorder: `V<id>` unbound variable (first-occurrence
    /// numbering), `A<sym>` atom, `I<i64>` integer, `S<sym><arity>` then
    /// the arguments, `L` then head and tail, `N` nil, `B<id>` a
    /// back-reference to the `id`-th compound already being (or done
    /// being) written. All integers little-endian.
    pub fn of(heap: &Heap, root: Cell) -> CanonKey {
        CanonKey::of_in(&mut CanonScratch::default(), heap, root)
    }

    /// [`CanonKey::of`] through the caller's scratch: the key's bytes are
    /// the one allocation.
    pub fn of_in(scratch: &mut CanonScratch, heap: &Heap, root: Cell) -> CanonKey {
        let bytes = scratch.encode(heap, root).to_vec();
        let hash = fnv1a(&bytes);
        CanonKey { bytes, hash }
    }

    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// A self-contained relocatable cell block of exactly the cells a
/// structure-sharing copy wrote: the one frozen form of the terms that
/// leave a machine. Made by [`TermArena::freeze`] (one term) or
/// [`TermArena::freeze_tuple`] (several, jointly); read by
/// [`TermArena::thaw`] (block append with address relocation, as in
/// clause instantiation) or [`TermArena::copy_out`] (one root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermArena {
    cells: Box<[Cell]>,
    root: Cell,
}

impl TermArena {
    /// Copy the term rooted at `root` out of `src` into a fresh arena.
    pub fn freeze(src: &Heap, root: Cell) -> TermArena {
        let mut heap = Heap::default();
        let out = copy_term(src, root, &mut heap);
        TermArena {
            cells: heap.into_cells(),
            root: out.root,
        }
    }

    /// Copy `roots` out of `src` jointly into a fresh arena: its root is
    /// the tuple `f(root₁, …, rootₙ)`, and [`TermArena::roots`] are the
    /// copies of `roots`. The cells are those [`TermArena::freeze`] keeps
    /// of the tuple built on `src`, which is read, never extended
    /// ([`copy_tuple`]).
    pub fn freeze_tuple(src: &Heap, f: Sym, roots: &[Cell]) -> TermArena {
        // Copied into the allocation the arena keeps, shrunk to its cells:
        // no scratch keeps the room of the largest bundle.
        let mut heap = Heap::default();
        let out = copy_tuple(src, f, roots, &mut heap);
        TermArena {
            cells: heap.into_cells(),
            root: out.root,
        }
    }

    /// Splice the arena into `dst`; returns the root cell (valid in
    /// `dst`) and the number of cells appended (cost accounting).
    pub fn thaw(&self, dst: &mut Heap) -> (Cell, usize) {
        let base = dst.len() as u32;
        dst.extend_relocated(&self.cells, base);
        (self.root.relocated(base), self.cells.len())
    }

    /// The root's arguments, as cells of the arena: a joint freeze's
    /// copied roots (none when the root is not a structure).
    pub fn roots(&self) -> &[Cell] {
        let Cell::Str(hdr) = self.root else {
            return &[];
        };
        let Cell::Functor(_, n) = self.cells[hdr.idx()] else {
            unreachable!("a structure points at its header")
        };
        &self.cells[hdr.idx() + 1..][..n as usize]
    }

    /// Copy root `i` ([`TermArena::roots`]) into `dst`, reading the arena
    /// in place: what [`copy_term`] of it writes from a heap holding the
    /// arena.
    pub fn copy_out(&self, i: usize, dst: &mut Heap) -> CopyOut {
        copy(Some(&self.cells), self.roots()[i], dst)
    }

    /// Bind variable `i` of a call to root `i` of this joint freeze (a
    /// stored substitution), `var(heap, i)` naming the variable. The cells
    /// the roots point into — every cell but the tuple's header and root
    /// slots, which no other cell of a joint freeze refers to — are
    /// spliced in first, so roots that share a variable or a subterm stay
    /// sharing it, and an atomic root is bound as it is, with nothing
    /// copied. Each variable must be unbound and distinct from the
    /// others, as a call's key variables are ([`CanonScratch::vars`]).
    /// Returns the cells appended and the variables bound.
    pub fn bind_roots(
        &self,
        heap: &mut Heap,
        var: impl Fn(&Heap, usize) -> Cell,
    ) -> (usize, usize) {
        let roots = self.roots();
        let under = 1 + roots.len() as u32;
        let base = heap.len() as u32;
        // Arena address `a >= under` lands at `base + (a - under)` (a
        // reference below `under`, not made by a joint freeze, overflows).
        let shift = |c: Cell| match c {
            Cell::Ref(a) => Cell::Ref(Addr(a.0 - under + base)),
            Cell::Str(a) => Cell::Str(Addr(a.0 - under + base)),
            Cell::Lst(a) => Cell::Lst(Addr(a.0 - under + base)),
            other => other,
        };
        let below = self.cells.get(under as usize..).unwrap_or(&[]);
        heap.extend_mapped(below, shift);
        for (i, &root) in roots.iter().enumerate() {
            let Cell::Ref(v) = heap.deref(var(heap, i)) else {
                unreachable!("a call's key variable is unbound when its answer is bound")
            };
            match heap.deref(shift(root)) {
                Cell::Ref(b) => heap.bind_vars(v, b),
                value => heap.bind(v, value),
            }
        }
        (below.len(), roots.len())
    }

    /// Cells occupied by the frozen term.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::parse_term;
    use crate::sym::sym;
    use crate::write::term_to_string;

    fn term(heap: &mut Heap, src: &str) -> Cell {
        parse_term(heap, src).unwrap().0
    }

    #[test]
    fn keys_are_variant_invariant() {
        let mut h1 = Heap::new();
        let t1 = term(&mut h1, "f(X, g(Y, X), [a, 1 | Z])");
        let mut h2 = Heap::new();
        let t2 = term(&mut h2, "f(Q, g(R, Q), [a, 1 | S])");
        assert_eq!(CanonKey::of(&h1, t1), CanonKey::of(&h2, t2));
    }

    #[test]
    fn keys_distinguish_variable_sharing() {
        let mut h1 = Heap::new();
        let t1 = term(&mut h1, "f(X, X)");
        let mut h2 = Heap::new();
        let t2 = term(&mut h2, "f(X, Y)");
        assert_ne!(CanonKey::of(&h1, t1), CanonKey::of(&h2, t2));
    }

    #[test]
    fn keys_distinguish_functor_atom_int_and_shape() {
        let mut h = Heap::new();
        let a = term(&mut h, "f(a)");
        let b = term(&mut h, "g(a)");
        let c = term(&mut h, "f(b)");
        let d = term(&mut h, "f(1)");
        let e = term(&mut h, "f(a, a)");
        let keys: Vec<CanonKey> = [a, b, c, d, e]
            .iter()
            .map(|&t| CanonKey::of(&h, t))
            .collect();
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "terms {i} and {j} collided");
            }
        }
    }

    #[test]
    fn keys_follow_bindings() {
        // f(X) with X bound to 7 must key like f(7)
        let mut h = Heap::new();
        let x = h.new_var();
        let fx = h.new_struct(sym("f"), &[x]);
        let Cell::Ref(a) = x else { unreachable!() };
        h.bind(a, Cell::Int(7));
        let mut h2 = Heap::new();
        let f7 = term(&mut h2, "f(7)");
        assert_eq!(CanonKey::of(&h, fx), CanonKey::of(&h2, f7));
    }

    #[test]
    fn cyclic_terms_terminate_with_backrefs() {
        // X = f(X): canonicalization must terminate and be stable
        let mut h = Heap::new();
        let x = h.new_var();
        let fx = h.new_struct(sym("f"), &[x]);
        let Cell::Ref(a) = x else { unreachable!() };
        h.bind(a, fx);
        let k1 = CanonKey::of(&h, fx);
        let k2 = CanonKey::of(&h, fx);
        assert_eq!(k1, k2);
        assert!(k1.bytes.contains(&b'B'), "cycle must emit a back-reference");
    }

    #[test]
    fn a_reused_scratch_writes_what_a_fresh_one_does() {
        let mut h = Heap::new();
        let x = h.new_var();
        let fx = h.new_struct(sym("f"), &[x]);
        let Cell::Ref(a) = x else { unreachable!() };
        h.bind(a, fx); // cyclic: back-references are numbered per call
        let big = term(&mut h, "g(X, [a, 1, Y | X], h(Y, Z), Z)");
        let small = term(&mut h, "p(Q)");
        let mut scratch = CanonScratch::default();
        for t in [big, fx, small, big, small, fx] {
            let fresh = CanonKey::of(&h, t);
            assert_eq!(scratch.encode(&h, t), &fresh.bytes[..]);
            assert_eq!(CanonKey::of_in(&mut scratch, &h, t), fresh);
        }
    }

    #[test]
    fn arena_round_trips_structure() {
        let mut src = Heap::new();
        let t = term(&mut src, "answer(f(1, [a, B]), g(B))");
        let arena = TermArena::freeze(&src, t);
        let mut dst = Heap::new();
        // pre-existing cells force a nonzero relocation base
        dst.push(Cell::Int(99));
        let (thawed, appended) = arena.thaw(&mut dst);
        assert_eq!(appended, arena.len());
        // variable names are heap-address-derived, so compare canonically
        assert_eq!(CanonKey::of(&dst, thawed), CanonKey::of(&src, t));
        assert!(term_to_string(&dst, thawed).starts_with("answer("));
        // a second thaw is a variant of the first (fresh variables)
        let (again, _) = arena.thaw(&mut dst);
        assert_eq!(CanonKey::of(&dst, thawed), CanonKey::of(&dst, again));
    }

    #[test]
    fn a_joint_arena_keeps_shared_variables_shared_and_only_its_cells() {
        use crate::term::variables;
        let mut h = Heap::new();
        let x = h.new_var();
        let g1 = h.new_struct(sym("p"), &[x, Cell::Int(1)]);
        let g2 = h.new_struct(sym("q"), &[x]);
        let arena = TermArena::freeze_tuple(&h, sym("$bundle"), &[g1, g2]);
        // $bundle/2 3, p(X, 1) 3, X 1, q(X) 2
        assert_eq!(arena.len(), 3 + 3 + 1 + 2);
        assert_eq!(arena.cells.len(), arena.len());
        assert_eq!(arena.roots().len(), 2);
        let frozen = Heap::from_cells(&arena.cells);
        let v1 = variables(&frozen, arena.roots()[0]);
        let v2 = variables(&frozen, arena.roots()[1]);
        assert_eq!(v1, v2, "shared variable stays shared across the arena");
        // Each root walks out alone, with the variable it shares fresh.
        let mut dst = Heap::new();
        let out = arena.copy_out(1, &mut dst);
        assert_eq!((out.cells_copied, out.fresh_vars), (3, 1));
        assert_eq!(CanonKey::of(&dst, out.root), CanonKey::of(&h, g2));
    }

    #[test]
    fn an_arena_is_no_larger_than_it_was() {
        assert!(std::mem::size_of::<TermArena>() <= 40);
    }

    #[test]
    fn thawed_arena_keys_like_the_original() {
        let mut src = Heap::new();
        let t = term(&mut src, "p(X, [1, X], q(Y))");
        let arena = TermArena::freeze(&src, t);
        let mut dst = Heap::new();
        let (thawed, _) = arena.thaw(&mut dst);
        assert_eq!(CanonKey::of(&src, t), CanonKey::of(&dst, thawed));
    }
}
