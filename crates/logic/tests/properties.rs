//! Property-based tests for the logic substrate: unification laws, trail
//! discipline, copying, and reader/writer round-trips over randomly
//! generated terms.

use proptest::prelude::*;

use ace_logic::copy::{copy_term, copy_tuple};
use ace_logic::heap::{Addr, Cell, Heap};
use ace_logic::sym::sym;
use ace_logic::term::{term_size, variables};
use ace_logic::unify::{struct_eq, unify};
use ace_logic::write::term_to_string;
use ace_logic::{CanonKey, CanonScratch, TermArena};

/// AST for generated terms (built into heaps by `build`).
#[derive(Debug, Clone)]
enum T {
    Var(u8),
    Atom(u8),
    Int(i16),
    Struct(u8, Vec<T>),
    List(Vec<T>),
}

fn term_strategy() -> impl Strategy<Value = T> {
    let leaf = prop_oneof![
        (0u8..4).prop_map(T::Var),
        (0u8..6).prop_map(T::Atom),
        any::<i16>().prop_map(T::Int),
    ];
    leaf.prop_recursive(4, 24, 4, |inner| {
        prop_oneof![
            ((0u8..4), prop::collection::vec(inner.clone(), 1..4))
                .prop_map(|(f, args)| T::Struct(f, args)),
            prop::collection::vec(inner, 0..4).prop_map(T::List),
        ]
    })
}

/// Build `t` into `heap`, sharing variables via `vars`.
fn build(heap: &mut Heap, t: &T, vars: &mut Vec<Option<Cell>>) -> Cell {
    match t {
        T::Var(i) => {
            let i = *i as usize;
            if vars.len() <= i {
                vars.resize(i + 1, None);
            }
            match vars[i] {
                Some(c) => c,
                None => {
                    let c = heap.new_var();
                    vars[i] = Some(c);
                    c
                }
            }
        }
        T::Atom(i) => Cell::Atom(sym(&format!("a{i}"))),
        T::Int(v) => Cell::Int(*v as i64),
        T::Struct(f, args) => {
            let cells: Vec<Cell> = args.iter().map(|a| build(heap, a, vars)).collect();
            heap.new_struct(sym(&format!("f{f}")), &cells)
        }
        T::List(items) => {
            let cells: Vec<Cell> = items.iter().map(|a| build(heap, a, vars)).collect();
            heap.list(&cells)
        }
    }
}

/// Build `terms` into `heap` as the root list goal shipping meets:
/// variables shared between roots, compact `[H|T]` pairs whose head
/// variable sits at the pair's address (also a root of its own), and
/// variables bound to whole roots without an occurs check — chains
/// (variable to variable to term) and rational trees.
fn shared_roots(
    heap: &mut Heap,
    terms: &[T],
    compact: &[bool],
    binds: &[(usize, usize)],
) -> Vec<Cell> {
    let mut vars = Vec::new();
    let mut roots: Vec<Cell> = terms.iter().map(|t| build(heap, t, &mut vars)).collect();
    for &open_tail in compact {
        let pair = Addr(heap.len() as u32);
        heap.push(Cell::Ref(pair)); // the head variable, at the pair address
        if open_tail {
            heap.new_var();
        } else {
            heap.push(Cell::Nil);
        }
        roots.push(Cell::Lst(pair));
        roots.push(Cell::Ref(pair));
    }
    for &(v, r) in binds {
        if roots.is_empty() {
            break;
        }
        let (var, to) = (roots[v % roots.len()], roots[r % roots.len()]);
        if let Cell::Ref(a) = heap.deref(var) {
            if heap.deref(to) != Cell::Ref(a) {
                heap.bind(a, to);
            }
        }
    }
    roots
}

/// A heap holding `arena`'s cells at their own addresses, and the arena's
/// root there.
fn frozen(arena: &TermArena) -> (Heap, Cell) {
    let mut heap = Heap::new();
    let (root, _) = arena.thaw(&mut heap);
    (heap, root)
}

/// `root`'s structure arguments in `heap`.
fn args_of(heap: &Heap, root: Cell) -> Vec<Cell> {
    let Cell::Str(hdr) = root else {
        panic!("a tuple is a structure")
    };
    (0..heap.functor_at(hdr).1)
        .map(|i| heap.str_arg(hdr, i))
        .collect()
}

/// How a generated answer binds one variable of its call.
#[derive(Debug, Clone)]
enum Binding {
    /// Left unbound: a non-ground answer.
    Free,
    /// An integer.
    Atomic(i16),
    /// A term whose `Var(k)` is a fresh answer variable `k / 2` for even
    /// `k` (shared between bindings) and call variable `k / 2` for odd
    /// `k` when that one is left free (so no binding is cyclic).
    Term(T),
}

fn binding_strategy() -> impl Strategy<Value = Binding> {
    prop_oneof![
        Just(Binding::Free),
        any::<i16>().prop_map(Binding::Atomic),
        term_strategy().prop_map(Binding::Term),
    ]
}

/// Build the call `p(args…)` into `heap` with its variables allocated
/// in ascending index order, or in descending order when `reversed`.
fn build_call(heap: &mut Heap, args: &[T], reversed: bool) -> Cell {
    let mut vars: Vec<Option<Cell>> = vec![None; 4];
    if reversed {
        for v in vars.iter_mut().rev() {
            *v = Some(heap.new_var());
        }
    }
    let cells: Vec<Cell> = args.iter().map(|a| build(heap, a, &mut vars)).collect();
    heap.new_struct(sym("p"), &cells)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A stored answer is the substitution of its call's key variables:
    /// binding it onto a variant call elsewhere — variables at other
    /// addresses, allocated in another order — keys like unifying the
    /// call with a thaw of the full answer, copies no more cells than that
    /// thaw, and copies none when every binding is atomic. Covers repeated
    /// call variables, compound and non-ground bindings, and variables
    /// shared between bindings.
    #[test]
    fn a_substitution_binds_a_variant_call_as_the_full_answer_unifies(
        args in prop::collection::vec(term_strategy(), 1..4),
        binds in prop::collection::vec(binding_strategy(), 4..5),
        all_atomic in any::<bool>(),
        junk in 0usize..8,
        reversed in any::<bool>(),
    ) {
        let mut scratch = CanonScratch::default();
        // The answer: the call, its key variables bound.
        let mut a = Heap::new();
        let call = build_call(&mut a, &args, false);
        let key = CanonKey::of(&a, call);
        scratch.encode(&a, call);
        let vars = scratch.vars().to_vec();
        let free: Vec<bool> = (0..vars.len())
            .map(|i| !all_atomic && matches!(binds[i], Binding::Free))
            .collect();
        let mut answer_vars: Vec<Option<Cell>> = vec![None; 8];
        for (j, &v) in vars.iter().enumerate() {
            if free[j] {
                answer_vars[2 * j + 1] = Some(v);
            }
        }
        for (i, &v) in vars.iter().enumerate() {
            let value = match &binds[i] {
                _ if free[i] => continue,
                Binding::Atomic(n) => Cell::Int(*n as i64),
                _ if all_atomic => Cell::Atom(sym("a")),
                Binding::Term(t) => build(&mut a, t, &mut answer_vars),
                Binding::Free => unreachable!("free bindings were skipped"),
            };
            let Cell::Ref(addr) = v else { unreachable!("a key variable is a Ref") };
            if value != v {
                a.bind(addr, value);
            }
        }
        let full = TermArena::freeze(&a, call);
        let subst = TermArena::freeze_tuple(&a, sym("$subst"), &vars);
        prop_assert_eq!(subst.roots().len(), vars.len());

        // A variant call on another heap.
        let mut b = Heap::new();
        for _ in 0..junk {
            b.new_var();
        }
        let variant = build_call(&mut b, &args, reversed);
        prop_assert_eq!(&CanonKey::of(&b, variant), &key);
        scratch.encode(&b, variant);
        let vars_b = scratch.vars().to_vec();

        let mut unified = b.clone();
        let (thawed, thawed_cells) = full.thaw(&mut unified);
        prop_assert!(unify(&mut unified, variant, thawed).is_some());
        let mut bound = b.clone();
        let (cells, bindings) = subst.bind_roots(&mut bound, |_, i| vars_b[i]);

        let want = CanonKey::of(&unified, variant);
        prop_assert_eq!(&CanonKey::of(&bound, variant), &want);
        prop_assert_eq!(&want, &CanonKey::of(&a, call));
        prop_assert_eq!(bindings, vars.len());
        prop_assert_eq!(bound.len(), b.len() + cells);
        prop_assert!(cells <= thawed_cells, "{} > {}", cells, thawed_cells);
        if all_atomic || subst.roots().iter().all(|r| !r.relocatable()) {
            prop_assert_eq!(cells, 0);
        }
    }

    /// Unifying a term with itself always succeeds and binds nothing new.
    #[test]
    fn unify_reflexive(t in term_strategy()) {
        let mut heap = Heap::new();
        let mut vars = Vec::new();
        let c = build(&mut heap, &t, &mut vars);
        let mark = heap.trail_mark();
        prop_assert!(unify(&mut heap, c, c).is_some());
        prop_assert_eq!(heap.trail_section(mark).len(), 0);
    }

    /// Unification success is symmetric, and both orders leave the pair
    /// structurally equal.
    #[test]
    fn unify_symmetric(a in term_strategy(), b in term_strategy()) {
        let mut h1 = Heap::new();
        let mut v1 = Vec::new();
        let a1 = build(&mut h1, &a, &mut v1);
        let mut v1b = Vec::new(); // b gets its own variables
        let b1 = build(&mut h1, &b, &mut v1b);
        let r1 = unify(&mut h1, a1, b1).is_some();

        let mut h2 = Heap::new();
        let mut v2 = Vec::new();
        let a2 = build(&mut h2, &a, &mut v2);
        let mut v2b = Vec::new();
        let b2 = build(&mut h2, &b, &mut v2b);
        let r2 = unify(&mut h2, b2, a2).is_some();

        prop_assert_eq!(r1, r2);
        if r1 {
            prop_assert!(struct_eq(&h1, a1, b1));
            prop_assert!(struct_eq(&h2, a2, b2));
        }
    }

    /// Undoing the trail restores every cell touched by a unification.
    #[test]
    fn trail_undo_restores_heap(a in term_strategy(), b in term_strategy()) {
        let mut heap = Heap::new();
        let mut va = Vec::new();
        let ca = build(&mut heap, &a, &mut va);
        let mut vb = Vec::new();
        let cb = build(&mut heap, &b, &mut vb);
        let snapshot: Vec<Cell> = heap.cells().to_vec();
        let mark = heap.trail_mark();
        let hmark = heap.heap_mark();
        let _ = unify(&mut heap, ca, cb);
        heap.undo_to(mark);
        heap.truncate_to(hmark);
        prop_assert_eq!(heap.cells(), &snapshot[..]);
    }

    /// copy_term preserves size, text (module variable names), and the
    /// variable count; the copy shares no variables with the original.
    #[test]
    fn copy_preserves_structure(t in term_strategy()) {
        let mut src = Heap::new();
        let mut vars = Vec::new();
        let c = build(&mut src, &t, &mut vars);
        let mut dst = Heap::new();
        let out = copy_term(&src, c, &mut dst);
        prop_assert_eq!(term_size(&dst, out.root), term_size(&src, c));
        prop_assert_eq!(
            variables(&dst, out.root).len(),
            variables(&src, c).len()
        );
        // normalize variable names before comparing text
        let norm = |s: String| {
            let mut names: Vec<String> = Vec::new();
            let mut out = String::new();
            let mut rest = s.as_str();
            while let Some(i) = rest.find("_G") {
                out.push_str(&rest[..i]);
                let tail = &rest[i + 2..];
                let end = tail
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(tail.len());
                let name = &rest[i..i + 2 + end];
                let id = match names.iter().position(|n| n == name) {
                    Some(p) => p,
                    None => {
                        names.push(name.to_owned());
                        names.len() - 1
                    }
                };
                out.push_str(&format!("V{id}"));
                rest = &rest[i + 2 + end..];
            }
            out.push_str(rest);
            out
        };
        prop_assert_eq!(
            norm(term_to_string(&src, c)),
            norm(term_to_string(&dst, out.root))
        );
    }

    /// write ∘ parse is the identity on rendered text (stable round-trip).
    #[test]
    fn write_parse_roundtrip(t in term_strategy()) {
        let mut heap = Heap::new();
        let mut vars = Vec::new();
        let c = build(&mut heap, &t, &mut vars);
        let s1 = term_to_string(&heap, c);
        let mut h2 = Heap::new();
        let (c2, _) = ace_logic::parse_term(&mut h2, &s1)
            .map_err(|e| TestCaseError::fail(format!("reparse {s1:?}: {e}")))?;
        let s2 = term_to_string(&h2, c2);
        prop_assert_eq!(s1, s2);
    }

    /// Memo keys are variant-invariant: copying a call term (which renames
    /// every variable to a fresh one) yields a byte-identical CanonKey,
    /// within one heap and across heaps.
    #[test]
    fn canon_keys_are_variant_invariant(t in term_strategy()) {
        let mut src = Heap::new();
        let mut vars = Vec::new();
        let c = build(&mut src, &t, &mut vars);
        let k = CanonKey::of(&src, c);
        // cross-heap rename
        let mut dst = Heap::new();
        let out = copy_term(&src, c, &mut dst);
        prop_assert_eq!(&CanonKey::of(&dst, out.root), &k);
        // within-heap rename
        let within = ace_logic::copy::copy_term_within(&mut src, c);
        prop_assert_eq!(&CanonKey::of(&src, within.root), &k);
    }

    /// A stored answer arena round-trips through freeze/thaw: the thawed
    /// term is a variant of the original (same canonical key, same size
    /// and variable count), at any relocation base.
    #[test]
    fn term_arena_round_trips(t in term_strategy(), base in 0usize..32) {
        let mut src = Heap::new();
        let mut vars = Vec::new();
        let c = build(&mut src, &t, &mut vars);
        let arena = TermArena::freeze(&src, c);
        let mut dst = Heap::new();
        for _ in 0..base {
            dst.new_var(); // force a nonzero relocation base
        }
        let (thawed, appended) = arena.thaw(&mut dst);
        prop_assert_eq!(appended, arena.len());
        prop_assert_eq!(&CanonKey::of(&dst, thawed), &CanonKey::of(&src, c));
        prop_assert_eq!(term_size(&dst, thawed), term_size(&src, c));
        prop_assert_eq!(
            variables(&dst, thawed).len(),
            variables(&src, c).len()
        );
    }

    /// The or-engine's procrastinated state capture freezes the arguments
    /// of a `$closure(Goal, Cont...)` tuple jointly and thaws it per claim:
    /// the arena is the freeze of that tuple built on the heap, variables
    /// shared between the goal and the continuation goals must stay
    /// shared (and un-shared ones distinct) through freeze→thaw, and the
    /// tuple must round-trip structurally at any relocation base.
    #[test]
    fn closure_freeze_thaw_preserves_goal_cont_sharing(
        goal in term_strategy(),
        cont in prop::collection::vec(term_strategy(), 0..4),
        base in 0usize..16,
    ) {
        let mut src = Heap::new();
        // One shared variable namespace: `T::Var(i)` denotes the same
        // variable wherever it occurs, across goal and continuation.
        let mut vars = Vec::new();
        let g = build(&mut src, &goal, &mut vars);
        let mut args = vec![g];
        for c in &cont {
            args.push(build(&mut src, c, &mut vars));
        }
        let tuple = src.new_struct(sym("$closure"), &args);

        let arena = TermArena::freeze(&src, tuple);
        // The joint freeze of the arguments, which never writes the tuple,
        // is that arena cell for cell.
        prop_assert_eq!(&TermArena::freeze_tuple(&src, sym("$closure"), &args), &arena);
        let mut dst = Heap::new();
        for _ in 0..base {
            dst.new_var(); // force a nonzero relocation base
        }
        let (thawed, appended) = arena.thaw(&mut dst);
        prop_assert_eq!(appended, arena.len());
        // Structural round trip, sharing included: CanonKey numbers
        // variables by first occurrence, so f(X,X) ≠ f(X,Y).
        prop_assert_eq!(&CanonKey::of(&dst, thawed), &CanonKey::of(&src, tuple));

        // Exact per-position sharing matrix: canonicalize every tuple
        // argument's variable occurrences by first appearance across the
        // whole tuple; the numbering must survive freeze→thaw verbatim.
        let shares = |heap: &Heap, root: Cell| -> Vec<Vec<usize>> {
            let Cell::Str(hdr) = heap.deref(root) else {
                panic!("closure tuple root must stay a struct");
            };
            let mut order = Vec::new();
            (0..args.len() as u32)
                .map(|i| {
                    variables(heap, heap.str_arg(hdr, i))
                        .into_iter()
                        .map(|v| match order.iter().position(|&o| o == v) {
                            Some(p) => p,
                            None => {
                                order.push(v);
                                order.len() - 1
                            }
                        })
                        .collect()
                })
                .collect()
        };
        prop_assert_eq!(shares(&dst, thawed), shares(&src, tuple));
    }

    /// Copying within a heap is the copy from a snapshot of that heap, cell
    /// for cell: same root, same counts (hence the same virtual cost), same
    /// appended cells — with bindings in place, which both must follow.
    #[test]
    fn copy_within_equals_copy_from_a_snapshot(a in term_strategy(), b in term_strategy()) {
        let mut heap = Heap::new();
        let mut vars = Vec::new();
        let ta = build(&mut heap, &a, &mut vars);
        let tb = build(&mut heap, &b, &mut vars);
        let pair = heap.new_struct(sym("pair"), &[ta, tb]);
        let mark = heap.trail_mark();
        if unify(&mut heap, ta, tb).is_none() {
            heap.undo_to(mark);
        }
        let mut beside = heap.clone();
        let from_snapshot = copy_term(&heap, pair, &mut beside);
        let within = ace_logic::copy::copy_term_within(&mut heap, pair);
        prop_assert_eq!(within.root, from_snapshot.root);
        prop_assert_eq!(within.cells_copied, from_snapshot.cells_copied);
        prop_assert_eq!(within.fresh_vars, from_snapshot.fresh_vars);
        prop_assert_eq!(heap.cells(), beside.cells());
    }

    /// The joint copy of a root list is the copy of a tuple of those roots
    /// built on a snapshot of the source — the same destination cells and
    /// tuple, hence the same root cells, and the same counts, hence the same
    /// virtual cost — and reads its source without extending it. The heaps carry what goal shipping meets:
    /// variables shared between roots, chains of bindings and cycles,
    /// compact `[H|T]` pairs whose head variable sits at the pair's address
    /// (also a root of its own), atomic and unbound roots, and no root at
    /// all.
    #[test]
    fn joint_copy_equals_copy_of_a_tuple_on_a_snapshot(
        terms in prop::collection::vec(term_strategy(), 0..5),
        compact in prop::collection::vec(any::<bool>(), 0..3),
        binds in prop::collection::vec((any::<usize>(), any::<usize>()), 0..6),
        base in 0usize..8,
    ) {
        let mut heap = Heap::new();
        let roots = shared_roots(&mut heap, &terms, &compact, &binds);
        let before: Vec<Cell> = heap.cells().to_vec();
        let f = sym("$bundle");

        let mut snapshot = heap.clone();
        let tuple = snapshot.new_struct(f, &roots);
        let mut want = Heap::new();
        let mut got = Heap::default();
        for _ in 0..base {
            want.new_var(); // a nonzero destination base
            got.new_var();
        }
        let reference = copy_term(&snapshot, tuple, &mut want);
        let joint = copy_tuple(&heap, f, &roots, &mut got);

        prop_assert_eq!(got.cells(), want.cells());
        prop_assert_eq!(joint.root, reference.root);
        prop_assert_eq!(joint.cells_copied, reference.cells_copied);
        prop_assert_eq!(joint.fresh_vars, reference.fresh_vars);
        prop_assert_eq!(heap.cells(), &before[..]);
    }

    /// A joint arena spliced whole into a heap appends exactly the cells a
    /// joint walk of its roots copies, and each root, and the tuple with the
    /// sharing between roots, keys alike: splicing a solution bundle prices
    /// what copying it did, at any relocation base.
    #[test]
    fn joint_arena_thaw_appends_what_a_walk_of_its_roots_copies(
        terms in prop::collection::vec(term_strategy(), 0..5),
        compact in prop::collection::vec(any::<bool>(), 0..3),
        binds in prop::collection::vec((any::<usize>(), any::<usize>()), 0..6),
        base in 1usize..8,
    ) {
        let mut heap = Heap::new();
        let roots = shared_roots(&mut heap, &terms, &compact, &binds);
        let f = sym("$bundle");
        let arena = TermArena::freeze_tuple(&heap, f, &roots);
        prop_assert_eq!(arena.roots().len(), roots.len());
        let (frozen, _) = frozen(&arena);

        let mut walked = Heap::new();
        let mut spliced = Heap::new();
        for _ in 0..base {
            walked.new_var(); // a nonzero destination base
            spliced.new_var();
        }
        let walk = copy_tuple(&frozen, f, arena.roots(), &mut walked);
        let (root, appended) = arena.thaw(&mut spliced);
        prop_assert_eq!(appended, walk.cells_copied);
        prop_assert_eq!(spliced.len(), walked.len());
        prop_assert_eq!(&CanonKey::of(&spliced, root), &CanonKey::of(&walked, walk.root));
        let pairs = args_of(&spliced, root).into_iter().zip(args_of(&walked, walk.root));
        for (s, w) in pairs {
            prop_assert_eq!(&CanonKey::of(&spliced, s), &CanonKey::of(&walked, w));
        }
    }

    /// Shipping one root out of a joint arena is `copy_term` of that tuple
    /// argument from a heap holding the arena: the same cells, counts and
    /// key, at any destination base.
    #[test]
    fn copy_out_equals_copy_term_from_the_tuple(
        terms in prop::collection::vec(term_strategy(), 1..5),
        compact in prop::collection::vec(any::<bool>(), 0..3),
        binds in prop::collection::vec((any::<usize>(), any::<usize>()), 0..6),
        base in 0usize..8,
    ) {
        let mut heap = Heap::new();
        let roots = shared_roots(&mut heap, &terms, &compact, &binds);
        let arena = TermArena::freeze_tuple(&heap, sym("$bundle"), &roots);
        let (frozen, tuple) = frozen(&arena);
        for (i, arg) in args_of(&frozen, tuple).into_iter().enumerate() {
            let mut got = Heap::new();
            let mut want = Heap::new();
            for _ in 0..base {
                got.new_var();
                want.new_var();
            }
            let out = arena.copy_out(i, &mut got);
            let reference = copy_term(&frozen, arg, &mut want);
            prop_assert_eq!(got.cells(), want.cells());
            prop_assert_eq!(out.root, reference.root);
            prop_assert_eq!(out.cells_copied, reference.cells_copied);
            prop_assert_eq!(out.fresh_vars, reference.fresh_vars);
            prop_assert_eq!(&CanonKey::of(&got, out.root), &CanonKey::of(&frozen, arg));
        }
    }

    /// The clause store is exact: a loaded clause's arena is its
    /// `arena_len()` cells and nothing else — boxed cells have no spare
    /// room and no trail — and instantiating it is one block copy of
    /// exactly those cells that renames the clause's variables apart from
    /// every earlier instance.
    #[test]
    fn clause_arenas_are_exact_and_instantiate_renames_apart(
        heads in prop::collection::vec(term_strategy(), 1..6),
        body in term_strategy(),
    ) {
        use ace_logic::db::Database;

        let mut vars = Vec::new();
        let mut src_txt = String::new();
        for (i, h) in heads.iter().enumerate() {
            let mut sh = Heap::new();
            let hd = build(&mut sh, h, &mut vars);
            let bd = build(&mut sh, &body, &mut vars);
            src_txt.push_str(&format!(
                "p({}, {i}) :- q({}).\n",
                term_to_string(&sh, hd),
                term_to_string(&sh, bd)
            ));
            vars.clear();
        }
        src_txt.push_str("?- p(X, 0), q(X).\n");
        let db = Database::load(&src_txt)
            .map_err(|e| TestCaseError::fail(format!("load failed: {e}\n{src_txt}")))?;
        let pred = db.predicate(sym("p"), 2).unwrap();

        for clause in pred.clauses.iter().chain(db.directives()) {
            let mut arena = Heap::default();
            let (head, _) = clause.instantiate(&mut arena);
            prop_assert_eq!(arena.len(), clause.arena_len());

            let mut h = Heap::new();
            h.new_var(); // a nonzero relocation base
            let (h1, b1) = clause.instantiate(&mut h);
            let (h2, b2) = clause.instantiate(&mut h);
            prop_assert_eq!(h.len(), 1 + 2 * clause.arena_len());
            prop_assert_eq!(&CanonKey::of(&h, h1), &CanonKey::of(&arena, head));
            prop_assert_eq!(&CanonKey::of(&h, h2), &CanonKey::of(&arena, head));
            let first: Vec<_> = [variables(&h, h1), variables(&h, b1)].concat();
            let second: Vec<_> = [variables(&h, h2), variables(&h, b2)].concat();
            prop_assert!(first.iter().all(|v| !second.contains(v)), "{}", src_txt);
        }
    }

    /// Switch-on-term index soundness and exactness. For a random
    /// predicate and a random call argument:
    /// * the bucket-chain walk (`next_matching`) enumerates exactly the
    ///   same clause ordinals as the literal linear scan the interpreter
    ///   oracle charges for (`next_matching_scan`);
    /// * the chain's length agrees with that enumeration;
    /// * every clause whose head actually unifies with the call is in the
    ///   enumeration (the index may over-approximate, never drop);
    /// * the same holds on the chains that name every clause and are
    ///   stepped without a search: an `Any` call, and a predicate `q`
    ///   whose first arguments are all variables.
    #[test]
    fn index_chain_is_sound_and_equals_scan(
        heads in prop::collection::vec(term_strategy(), 1..8),
        goal in term_strategy(),
    ) {
        use ace_logic::db::{Database, IndexKey};

        let mut src_txt = String::new();
        for (i, h) in heads.iter().enumerate() {
            let mut sh = Heap::new();
            let mut vars = Vec::new();
            let c = build(&mut sh, h, &mut vars);
            src_txt.push_str(&format!("p({}, {i}).\nq(V, {i}).\n", term_to_string(&sh, c)));
        }
        let db = Database::load(&src_txt)
            .map_err(|e| TestCaseError::fail(format!("load failed: {e}\n{src_txt}")))?;
        let pred = db.predicate(sym("p"), 2).unwrap();

        let mut gh = Heap::new();
        let mut gvars = Vec::new();
        let g = build(&mut gh, &goal, &mut gvars);
        let key = IndexKey::of(&gh, g);

        let enumerate = |key: IndexKey, next: &dyn Fn(IndexKey, usize) -> Option<usize>| {
            let mut v = Vec::new();
            let mut from = 0;
            while let Some(i) = next(key, from) {
                v.push(i);
                from = i + 1;
            }
            v
        };
        let all_vars = db.predicate(sym("q"), 2).unwrap();
        for (p, k) in [(pred, IndexKey::Any), (all_vars, key), (all_vars, IndexKey::Any)] {
            let chain = enumerate(k, &|k, f| p.next_matching(0, k, f));
            prop_assert_eq!(&chain, &enumerate(k, &|k, f| p.next_matching_scan(k, f)));
            prop_assert_eq!(&chain, &(0..heads.len()).collect::<Vec<_>>());
            prop_assert_eq!(chain.len(), p.matching_chain(0, k).len());
            prop_assert_eq!(p.next_matching(0, k, heads.len() + 1), None);
        }
        let chain = enumerate(key, &|k, f| pred.next_matching(0, k, f));
        let scan = enumerate(key, &|k, f| pred.next_matching_scan(k, f));
        prop_assert_eq!(&chain, &scan);
        prop_assert_eq!(chain.len(), pred.matching_chain(0, key).len());

        for (ord, clause) in pred.clauses.iter().enumerate() {
            let mut h = Heap::new();
            let mut gv = Vec::new();
            let garg = build(&mut h, &goal, &mut gv);
            let out = h.new_var();
            let call = h.new_struct(sym("p"), &[garg, out]);
            let (head, _body) = clause.instantiate(&mut h);
            if unify(&mut h, call, head).is_some() {
                prop_assert!(
                    chain.contains(&ord),
                    "clause {ord} unifies but is not in chain {chain:?} for key {key:?}\n{src_txt}"
                );
            }
        }
    }

    /// Argument indexes equal the scan. For a random predicate `p/3` and
    /// random call keys, the chain of every argument position lists exactly
    /// the clauses a linear scan on that argument admits, in source order,
    /// and `next_matching` steps through it — also after more clauses are
    /// pushed onto the predicate once its indexes are built.
    #[test]
    fn argument_chains_equal_scan(
        heads in prop::collection::vec(prop::collection::vec(term_strategy(), 3), 1..12),
        more in prop::collection::vec(prop::collection::vec(term_strategy(), 3), 1..6),
        goal in term_strategy(),
    ) {
        use ace_logic::db::{Database, IndexKey, Predicate};

        let program = |clauses: &[Vec<T>]| {
            let mut text = String::new();
            for args in clauses {
                let mut sh = Heap::new();
                let mut vars = Vec::new();
                let args: Vec<String> = args
                    .iter()
                    .map(|a| {
                        let c = build(&mut sh, a, &mut vars);
                        term_to_string(&sh, c)
                    })
                    .collect();
                text.push_str(&format!("p({}).\n", args.join(", ")));
            }
            text
        };
        // The oracle: instantiate each head and key its argument `arg`.
        let scan = |pred: &Predicate, arg: u32, call: IndexKey| -> Vec<u32> {
            let admits = |clause: &ace_logic::Clause| {
                let mut h = Heap::new();
                let (head, _) = clause.instantiate(&mut h);
                let Cell::Str(hdr) = h.deref(head) else {
                    unreachable!("p/3 heads are structures")
                };
                IndexKey::of(&h, h.str_arg(hdr, arg)).may_match(call)
            };
            (0..pred.clauses.len() as u32)
                .filter(|&i| admits(&pred.clauses[i as usize]))
                .collect()
        };
        let check = |pred: &Predicate| -> Result<(), TestCaseError> {
            let mut gh = Heap::new();
            let g = build(&mut gh, &goal, &mut Vec::new());
            for arg in 0..3 {
                let mut keys = vec![IndexKey::of(&gh, g), IndexKey::Any];
                keys.extend(pred.clauses.iter().map(|c| c.arg_key(arg)));
                for call in keys {
                    let chain = pred.matching_chain(arg, call);
                    prop_assert_eq!(chain, &scan(pred, arg, call)[..]);
                    let mut stepped = Vec::new();
                    let mut from = 0;
                    while let Some(i) = pred.next_matching(arg, call, from) {
                        stepped.push(i as u32);
                        from = i + 1;
                    }
                    prop_assert_eq!(&stepped[..], chain);
                }
            }
            Ok(())
        };

        let mut db = Database::load(&program(&heads))
            .map_err(|e| TestCaseError::fail(format!("load failed: {e}")))?;
        check(db.predicate(sym("p"), 3).unwrap())?;
        db.consult(&program(&more))
            .map_err(|e| TestCaseError::fail(format!("consult failed: {e}")))?;
        check(db.predicate(sym("p"), 3).unwrap())?;
    }

    /// Compiled head code is an exact drop-in for the interpreter's
    /// instantiate-then-unify: same success/failure on every clause, and
    /// on success the call term is bound to a variant-identical instance.
    #[test]
    fn compiled_head_matches_like_interpreter(
        heads in prop::collection::vec(term_strategy(), 1..6),
        goal in term_strategy(),
    ) {
        use ace_logic::db::Database;
        use ace_logic::{run_head, CanonKey};

        let mut src_txt = String::new();
        for (i, h) in heads.iter().enumerate() {
            let mut sh = Heap::new();
            let mut vars = Vec::new();
            let c = build(&mut sh, h, &mut vars);
            src_txt.push_str(&format!("p({}, {i}).\n", term_to_string(&sh, c)));
        }
        let db = Database::load(&src_txt)
            .map_err(|e| TestCaseError::fail(format!("load failed: {e}\n{src_txt}")))?;
        let pred = db.predicate(sym("p"), 2).unwrap();

        for clause in pred.clauses.iter() {
            // Interpreter oracle: copy the whole head out of the clause
            // arena, then general unification against the call.
            let mut h1 = Heap::new();
            let mut gv1 = Vec::new();
            let g1 = build(&mut h1, &goal, &mut gv1);
            let out1 = h1.new_var();
            let call1 = h1.new_struct(sym("p"), &[g1, out1]);
            let (head, _body) = clause.instantiate(&mut h1);
            let ok1 = unify(&mut h1, call1, head).is_some();

            // Compiled: run the register code against the call in place.
            let mut h2 = Heap::new();
            let mut gv2 = Vec::new();
            let g2 = build(&mut h2, &goal, &mut gv2);
            let out2 = h2.new_var();
            let call2 = h2.new_struct(sym("p"), &[g2, out2]);
            let Cell::Str(hdr) = h2.deref(call2) else {
                return Err(TestCaseError::fail("call must be a struct"));
            };
            let mut slots = Vec::new();
            let (ok2, _cost) = run_head(&mut h2, clause.code(), Some(hdr), &mut slots);

            prop_assert!(
                ok1 == ok2,
                "match disagreement on\n{}\ncall {}",
                src_txt,
                term_to_string(&h1, call1)
            );
            if ok1 {
                prop_assert!(
                    CanonKey::of(&h2, call2) == CanonKey::of(&h1, call1),
                    "bindings diverge on\n{}\ninterp {} vs compiled {}",
                    src_txt,
                    term_to_string(&h1, call1),
                    term_to_string(&h2, call2)
                );
            }
        }
    }

    /// Long bodies — ten to fifteen steps of calls, unifications and
    /// builtins over random terms sharing the head's variables — compile to
    /// steps that build, once the head code has matched a call, a variant
    /// of the body the interpreter copies out of the clause arena, the
    /// call's bindings included; and the link pass resolves exactly the
    /// call steps naming a defined predicate that is not a builtin.
    #[test]
    fn long_bodies_materialize_like_interpreter(
        head in term_strategy(),
        body in prop::collection::vec((0u8..4, term_strategy()), 10..16),
        goal in term_strategy(),
    ) {
        use ace_logic::db::Database;
        use ace_logic::{run_head, CanonKey};

        // One heap and one variable table: head and body share variables.
        let mut sh = Heap::new();
        let mut vars = Vec::new();
        let hd = build(&mut sh, &head, &mut vars);
        let steps: Vec<String> = body
            .iter()
            .map(|(kind, t)| {
                let t = build(&mut sh, t, &mut vars);
                let t = term_to_string(&sh, t);
                match kind {
                    0 => format!("q({t})"),         // defined: linked
                    1 => format!("r({t})"),         // undefined: left by name
                    2 => format!("Out = {t}"),      // inline unification
                    _ => format!("length({t}, N)"), // builtin: left by name
                }
            })
            .collect();
        let src_txt = format!(
            "p({}, Out) :- {}.\nq(_).\nlength(_, user).\n",
            term_to_string(&sh, hd),
            steps.join(", ")
        );
        let db = Database::load(&src_txt)
            .map_err(|e| TestCaseError::fail(format!("load failed: {e}\n{src_txt}")))?;
        let clause = &db.predicate(sym("p"), 2).unwrap().clauses[0];
        let code = clause.code();
        prop_assert_eq!(code.steps(0).len(), body.len());
        let q = db.pred_id(sym("q"), 1);
        for (st, (kind, _)) in code.steps(0).iter().zip(&body) {
            prop_assert!(st.callee.get() == q.filter(|_| *kind == 0), "{}", src_txt);
        }

        let call = |h: &mut Heap| {
            let mut gv = Vec::new();
            let g = build(h, &goal, &mut gv);
            let out = h.new_var();
            h.new_struct(sym("p"), &[g, out])
        };
        // Interpreter oracle: copy the clause, unify the head.
        let mut h1 = Heap::new();
        let call1 = call(&mut h1);
        let (head1, body1) = clause.instantiate(&mut h1);
        let ok1 = unify(&mut h1, call1, head1).is_some();
        // Compiled: head code in place, then the steps' templates.
        let mut h2 = Heap::new();
        let call2 = call(&mut h2);
        let Cell::Str(hdr) = h2.deref(call2) else {
            return Err(TestCaseError::fail("call must be a struct"));
        };
        let mut slots = Vec::new();
        let (ok2, _cost) = run_head(&mut h2, code, Some(hdr), &mut slots);
        prop_assert!(ok1 == ok2, "match disagreement on\n{}", src_txt);
        if ok1 {
            let (body2, _) = code.instantiate_body(&mut h2, &mut slots);
            let both1 = h1.new_struct(sym("both"), &[call1, body1]);
            let both2 = h2.new_struct(sym("both"), &[call2, body2]);
            prop_assert!(
                CanonKey::of(&h1, both1) == CanonKey::of(&h2, both2),
                "bodies diverge on\n{}\ninterp {}\ncompiled {}",
                src_txt,
                term_to_string(&h1, both1),
                term_to_string(&h2, both2)
            );
        }
    }

    /// Unwind/rewind is an exact inverse pair even interleaved with reads.
    #[test]
    fn unwind_rewind_identity(a in term_strategy(), b in term_strategy()) {
        let mut heap = Heap::new();
        let (mut va, mut vb) = (Vec::new(), Vec::new());
        let ca = build(&mut heap, &a, &mut va);
        let cb = build(&mut heap, &b, &mut vb);
        let mark = heap.trail_mark();
        if unify(&mut heap, ca, cb).is_none() {
            heap.undo_to(mark);
            return Ok(());
        }
        let after: Vec<Cell> = heap.cells().to_vec();
        let section = heap.unwind_section(mark);
        let _ = term_to_string(&heap, ca); // arbitrary read while unwound
        heap.rewind_section(section);
        prop_assert_eq!(heap.cells(), &after[..]);
    }
}
