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
//!   copied term — the storage format for memoized answers. Any worker
//!   can splice ("thaw") the arena into its own heap with a single block
//!   copy plus address relocation, exactly the mechanism clause
//!   instantiation already uses, without re-running the goal that
//!   produced it.

use std::collections::HashMap;

use crate::copy::copy_term;
use crate::heap::{Addr, Cell, Heap};

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

/// Working memory of the key writer and the arena copier, owned by
/// whoever canonicalizes often (a machine) and reused from call to call:
/// every part is emptied on use and keeps its room.
#[derive(Debug, Default)]
pub struct CanonScratch {
    bytes: Vec<u8>,
    var_ids: HashMap<Addr, u32>,
    /// compound (Str header / Lst pair) address -> visit id
    seen: HashMap<(bool, Addr), u32>,
    stack: Vec<Cell>,
    /// Where [`TermArena::freeze_in`] builds the copy it then sizes.
    copy: Heap,
}

impl CanonScratch {
    /// Write the canonical bytes of the term rooted at `root` (the
    /// encoding [`CanonKey`] documents); they stay readable here until the
    /// next call. A caller that only tests membership — is this answer a
    /// duplicate? — never owns a key.
    pub fn encode(&mut self, heap: &Heap, root: Cell) -> &[u8] {
        let CanonScratch {
            bytes,
            var_ids,
            seen,
            stack,
            ..
        } = self;
        bytes.clear();
        var_ids.clear();
        seen.clear();
        stack.clear();
        stack.push(root);
        while let Some(c) = stack.pop() {
            match heap.deref(c) {
                Cell::Ref(a) => {
                    let n = var_ids.len() as u32;
                    let id = *var_ids.entry(a).or_insert(n);
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

/// A self-contained relocatable cell block holding one term — the storage
/// format of memoized answers. Produced by [`TermArena::freeze`] (a
/// structure-sharing [`copy_term`] into a private heap) and consumed by
/// [`TermArena::thaw`] (block append with address relocation, as in clause
/// instantiation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermArena {
    cells: Vec<Cell>,
    root: Cell,
}

impl TermArena {
    /// Copy the term rooted at `root` out of `src` into a fresh arena.
    pub fn freeze(src: &Heap, root: Cell) -> TermArena {
        TermArena::freeze_in(&mut CanonScratch::default(), src, root)
    }

    /// [`TermArena::freeze`] through the caller's scratch: the copy is
    /// built in its heap and the arena allocated at exactly its size.
    pub fn freeze_in(scratch: &mut CanonScratch, src: &Heap, root: Cell) -> TermArena {
        // Nothing binds here, so the scratch heap needs no trail.
        scratch.copy.clear();
        let out = copy_term(src, root, &mut scratch.copy);
        TermArena {
            cells: scratch.copy.cells().to_vec(),
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
            let arena = TermArena::freeze_in(&mut scratch, &h, t);
            assert_eq!(arena, TermArena::freeze(&h, t));
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
    fn thawed_arena_keys_like_the_original() {
        let mut src = Heap::new();
        let t = term(&mut src, "p(X, [1, X], q(Y))");
        let arena = TermArena::freeze(&src, t);
        let mut dst = Heap::new();
        let (thawed, _) = arena.thaw(&mut dst);
        assert_eq!(CanonKey::of(&src, t), CanonKey::of(&dst, thawed));
    }
}
