//! Goal continuations: linked lists of pending goals whose nodes live on a
//! per-machine stack that control frames protect, as a WAM's environment
//! stack is protected by its choice points.
//!
//! A node holds one typed frame ([`Goal`]): a goal term, a call whose
//! predicate the database's link pass resolved, the remaining steps of a
//! compiled clause body with its environment, or one of the machine's own
//! control frames. None of them is a heap term — a user goal can never be
//! mistaken for one — and only a continuation that leaves the machine (an
//! or-parallel state closure, a suspended tabled consumer) is written to
//! the heap, by [`ContStack::freeze`], and read back by
//! [`ContStack::thaw`].
//!
//! A [`Cont`] is a `Copy` handle — an index into the machine's
//! [`ContStack`], or [`Cont::NONE`] for the finished computation. Pushing a
//! goal appends one node whose `next` is the continuation it extends, so a
//! node only ever links *downwards* and capturing a continuation (in a
//! choice point, a parcall frame) is a word copy. Nothing is counted and
//! nothing is freed node by node: space comes back by truncating the stack.
//!
//! # The liveness rule
//!
//! Every control frame records the stack height at its creation (its
//! [`ContMark`], beside its heap and trail marks); frames are pushed in
//! order, so marks never decrease up the control stack. A handle may be
//! held in exactly three kinds of place, and wherever it is held it names
//! a node **below `max(top frame's mark, machine.cont + 1)`**:
//!
//! * `Machine.cont`, the running continuation — below `cont + 1`;
//! * a control frame (`ChoicePoint.cont`, `ParcallFrame.cont`) — the handle
//!   existed when the frame was pushed, so it is below that frame's mark,
//!   hence below the top frame's;
//! * the and-engine's `FrameState.cont`, a copy of the `ParcallFrame.cont`
//!   of a frame still on the owner's control stack, read by the owner only
//!   (`Machine::resume_with_cont` asserts the protection).
//!
//! Everything at or above that bound is unreachable and may be dropped:
//! `Machine::step` pops by `cont = node.next` and truncates to the bound
//! (environment trimming — determinate recursion runs in constant
//! continuation space, and what a cut strands goes at the next pop);
//! backtracking restores `cont` and truncates to the choice point's mark
//! exactly as it does the heap. Debug builds stamp every node and handle
//! with a push serial, so a handle that outlived its node is caught at its
//! next use instead of silently naming the node's successor in the slot.

use ace_logic::sym::sym;
use ace_logic::{Addr, Cell, ClauseId, Heap, PredId, Sym};

/// Handle to a continuation: the pending goals from one [`ContStack`] node
/// downwards, or [`Cont::NONE`] (the computation is finished).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Cont {
    idx: u32,
    #[cfg(debug_assertions)]
    serial: u32,
}

impl Cont {
    /// The empty continuation.
    pub const NONE: Cont = Cont {
        idx: u32::MAX,
        #[cfg(debug_assertions)]
        serial: 0,
    };

    #[inline]
    pub fn is_none(self) -> bool {
        self.idx == u32::MAX
    }

    #[inline]
    pub fn is_some(self) -> bool {
        !self.is_none()
    }

    /// The stack height that keeps this continuation alive: one past its
    /// node, 0 for [`Cont::NONE`].
    #[inline]
    fn end(self) -> u32 {
        self.idx.wrapping_add(1)
    }
}

impl std::fmt::Debug for Cont {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_none() {
            f.write_str("Cont::NONE")
        } else {
            write!(f, "Cont({})", self.idx)
        }
    }
}

/// A [`ContStack`] height, recorded by every control frame at its creation
/// (the continuation-stack counterpart of `HeapMark` / `TrailMark`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct ContMark(pub u32);

impl ContMark {
    /// Does a frame carrying this mark keep `cont` alive?
    #[inline]
    pub fn protects(self, cont: Cont) -> bool {
        cont.end() <= self.0
    }
}

/// A callable term in one word: a structure, by its header, or an atom.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Callable {
    Str(Addr),
    Atom(Sym),
}

impl Callable {
    /// `c`, dereferenced, if it is a structure or an atom.
    #[inline]
    pub fn of(heap: &Heap, c: Cell) -> Option<Callable> {
        match heap.deref(c) {
            Cell::Str(h) => Some(Callable::Str(h)),
            Cell::Atom(s) => Some(Callable::Atom(s)),
            _ => None,
        }
    }

    #[inline]
    pub fn cell(self) -> Cell {
        match self {
            Callable::Str(h) => Cell::Str(h),
            Callable::Atom(s) => Cell::Atom(s),
        }
    }
}

/// A position in a compiled clause body: its branch (0 the plain
/// conjunction, 1 the then-branch, 2 the else-branch) and a step index,
/// in one word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BodyAt(u32);

impl BodyAt {
    const STEP_BITS: u32 = 30;

    #[inline]
    pub fn new(branch: u8, step: usize) -> BodyAt {
        debug_assert!(branch < 4 && step < 1 << Self::STEP_BITS);
        BodyAt(((branch as u32) << Self::STEP_BITS) | step as u32)
    }

    #[inline]
    pub fn branch(self) -> u8 {
        (self.0 >> Self::STEP_BITS) as u8
    }

    #[inline]
    pub fn step(self) -> usize {
        (self.0 & ((1 << Self::STEP_BITS) - 1)) as usize
    }
}

/// The environment of one body activation: the `$slots(…)` structure
/// holding the clause's variables, by header address, or none for a clause
/// whose body has no variables. It is built once per activation and shared
/// by the activation's every body frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Env(u32);

impl Env {
    pub const NONE: Env = Env(u32::MAX);

    /// The environment whose term is `term` (a `$slots` structure or `[]`).
    #[inline]
    pub fn of(term: Cell) -> Env {
        match term {
            Cell::Str(h) => Env(h.0),
            _ => Env::NONE,
        }
    }

    /// The header of the `$slots` structure, if there is one.
    #[inline]
    pub fn slots(self) -> Option<Addr> {
        (self != Env::NONE).then_some(Addr(self.0))
    }

    /// The environment as a term: the `$slots` structure, or `[]`.
    #[inline]
    pub fn term(self) -> Cell {
        self.slots().map_or(Cell::Nil, Cell::Str)
    }
}

/// What one continuation node holds. Sixteen bytes, like a heap cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Goal {
    /// A goal term, dispatched by its principal functor.
    Term(Cell),
    /// A materialized body goal whose user predicate the link pass
    /// resolved: called without a lookup by name.
    Call { goal: Callable, pred: PredId },
    /// Steps `at..` of a compiled clause body, reading its variables from
    /// `env`.
    Body {
        clause: ClauseId,
        at: BodyAt,
        env: Env,
    },
    /// An if-then-else condition succeeded: cut the control stack back to
    /// `cut_to` (dropping the else-branch), then run the then-branch, which
    /// is the next node.
    IteThen { cut_to: u32 },
    /// A derivation of the call watched in memo slot `slot` completed.
    MemoStore { slot: u32, gen: u32 },
    /// A derivation of local tabled subgoal `subgoal` (the call `goal`)
    /// reached an answer.
    TableAnswer { subgoal: u32, goal: Callable },
    /// The inline-executed branch of the parallel call `frame` arrived at
    /// its end.
    InlineBarrier { frame: u64 },
}

/// One pending goal plus the cut barrier of its enclosing clause body
/// (the control-stack height that `!` cuts back to).
#[derive(Clone, Copy, Debug)]
pub struct ContNode {
    pub goal: Goal,
    pub barrier: u32,
    pub next: Cont,
    #[cfg(debug_assertions)]
    serial: u32,
}

/// The continuation nodes of one machine (see the module docs).
#[derive(Debug, Default)]
pub struct ContStack {
    nodes: Vec<ContNode>,
    /// Pushes so far (stale-handle detection).
    #[cfg(debug_assertions)]
    pushes: u32,
}

impl ContStack {
    pub fn new() -> Self {
        Self::default()
    }

    /// Push `goal` in front of `next`.
    #[inline]
    pub fn push(&mut self, next: Cont, goal: Goal, barrier: u32) -> Cont {
        // `u32::MAX` is `Cont::NONE`; a stack that deep is not addressable.
        assert!(
            self.nodes.len() < u32::MAX as usize,
            "continuation stack overflow"
        );
        let idx = self.nodes.len() as u32;
        #[cfg(debug_assertions)]
        let serial = {
            self.pushes = self.pushes.wrapping_add(1);
            self.pushes
        };
        self.nodes.push(ContNode {
            goal,
            barrier,
            next,
            #[cfg(debug_assertions)]
            serial,
        });
        Cont {
            idx,
            #[cfg(debug_assertions)]
            serial,
        }
    }

    /// The first node of `cont`; `None` for the empty continuation. Panics
    /// on a handle above the stack (and, in debug builds, on any handle
    /// whose node has been dropped since): the liveness rule was broken.
    #[inline]
    pub fn node(&self, cont: Cont) -> Option<ContNode> {
        if cont.is_none() {
            return None;
        }
        let node = self.nodes[cont.idx as usize];
        #[cfg(debug_assertions)]
        assert_eq!(
            node.serial, cont.serial,
            "stale continuation handle {cont:?}"
        );
        Some(node)
    }

    /// Current height (what a control frame records at its creation).
    #[inline]
    pub fn mark(&self) -> ContMark {
        ContMark(self.nodes.len() as u32)
    }

    /// Drop every node at or above `mark` (backtracking to the frame that
    /// recorded it).
    #[inline]
    pub fn truncate_to(&mut self, mark: ContMark) {
        self.nodes.truncate(mark.0 as usize);
    }

    /// Drop every node that neither `floor` (the top control frame's mark)
    /// nor the running continuation `cont` keeps alive.
    #[inline]
    pub fn trim(&mut self, floor: ContMark, cont: Cont) {
        self.nodes.truncate(floor.0.max(cont.end()) as usize);
    }

    /// Number of nodes on the stack, live or stranded (diagnostics).
    pub fn height(&self) -> usize {
        self.nodes.len()
    }

    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// The nodes of `cont`, nearest first.
    fn iter(&self, cont: Cont) -> impl Iterator<Item = ContNode> + '_ {
        let mut cur = cont;
        std::iter::from_fn(move || {
            let node = self.node(cur)?;
            cur = node.next;
            Some(node)
        })
    }

    /// Collect the frames (and barriers) of a continuation, nearest first.
    pub fn to_vec(&self, cont: Cont) -> Vec<(Goal, u32)> {
        self.iter(cont).map(|n| (n.goal, n.barrier)).collect()
    }

    /// Rebuild a continuation from frames collected by
    /// [`ContStack::to_vec`] (nearest first), applying `map_barrier` to
    /// each stored barrier.
    pub fn from_vec(&mut self, goals: &[(Goal, u32)], map_barrier: impl Fn(u32) -> u32) -> Cont {
        let mut cont = Cont::NONE;
        for &(goal, barrier) in goals.iter().rev() {
            cont = self.push(cont, goal, map_barrier(barrier));
        }
        cont
    }

    /// Write `goal` and the frames of `cont` that `keep` accepts on `heap`
    /// as one `$closure(Goal, F1, …, Fn)` tuple, so that freezing the tuple
    /// keeps every variable they share shared. A goal frame is written as
    /// its goal; the frames that hold more than cells as a `$frame`
    /// structure of the parts a machine-local heap marker had: a body
    /// frame as `$frame(Clause, At, Env)`, the control frames as their
    /// integers — a frozen continuation has as many cells, and is priced
    /// the same, as when those frames were heap terms. Returns the tuple and
    /// the frames kept, which [`ContStack::thaw`] needs to read it back.
    pub fn freeze(
        &self,
        heap: &mut Heap,
        goal: Cell,
        cont: Cont,
        keep: impl Fn(&Goal) -> bool,
    ) -> (Cell, Vec<Goal>) {
        // Counted first: the frames are kept as long as the closure is.
        let kept = || self.iter(cont).map(|n| n.goal).filter(&keep);
        let mut frames = Vec::with_capacity(kept().count());
        frames.extend(kept());
        let f = frame_sym();
        let int = |i: u64| Cell::Int(i as i64);
        let mut args = Vec::with_capacity(frames.len() + 1);
        args.push(goal);
        for frame in &frames {
            args.push(match *frame {
                Goal::Term(g) => g,
                Goal::Call { goal, .. } => goal.cell(),
                Goal::Body { clause, at, env } => {
                    heap.new_struct(f, &[int(clause.0 as u64), int(at.0 as u64), env.term()])
                }
                Goal::IteThen { cut_to } => heap.new_struct(f, &[int(cut_to as u64)]),
                Goal::MemoStore { slot, gen } => {
                    heap.new_struct(f, &[int(slot as u64), int(gen as u64)])
                }
                Goal::TableAnswer { subgoal, goal } => {
                    heap.new_struct(f, &[int(subgoal as u64), goal.cell()])
                }
                Goal::InlineBarrier { frame } => heap.new_struct(f, &[int(frame)]),
            });
        }
        (heap.new_struct(closure_sym(), &args), frames)
    }

    /// Rebuild a continuation [`ContStack::freeze`] wrote, from its tuple
    /// thawed into `heap` (header `tuple`) and the frames it returned.
    /// Frame `i` takes its cells from argument `i + 1` by position, never
    /// by functor: what was a goal term thaws as a goal term, whatever it
    /// looks like. Every frame gets cut barrier `barrier`.
    pub fn thaw(&mut self, heap: &Heap, tuple: Addr, frames: &[Goal], barrier: u32) -> Cont {
        let callable = |c| Callable::of(heap, c).expect("a frozen call is callable");
        let thawed: Vec<(Goal, u32)> = frames
            .iter()
            .enumerate()
            .map(|(i, frame)| {
                let arg = heap.str_arg(tuple, 1 + i as u32);
                let field = |k| match heap.deref(arg) {
                    Cell::Str(h) => heap.str_arg(h, k),
                    other => unreachable!("a frozen frame is a structure, not {other:?}"),
                };
                let goal = match *frame {
                    Goal::Term(_) => Goal::Term(arg),
                    Goal::Call { pred, .. } => Goal::Call {
                        goal: callable(arg),
                        pred,
                    },
                    Goal::Body { clause, at, .. } => Goal::Body {
                        clause,
                        at,
                        env: Env::of(heap.deref(field(2))),
                    },
                    Goal::TableAnswer { subgoal, .. } => Goal::TableAnswer {
                        subgoal,
                        goal: callable(field(1)),
                    },
                    control => control,
                };
                (goal, barrier)
            })
            .collect();
        self.from_vec(&thawed, |b| b)
    }

    /// Length of a continuation (diagnostics).
    pub fn len(&self, cont: Cont) -> usize {
        self.iter(cont).count()
    }
}

/// Functor of a frozen frame's structure (never dispatched: frames thaw
/// by position).
fn frame_sym() -> Sym {
    static S: std::sync::OnceLock<Sym> = std::sync::OnceLock::new();
    *S.get_or_init(|| sym("$frame"))
}

/// Functor of the frozen goal + continuation tuple.
fn closure_sym() -> Sym {
    static S: std::sync::OnceLock<Sym> = std::sync::OnceLock::new();
    *S.get_or_init(|| sym("$closure"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_logic::Cell;

    /// A goal frame holding the integer `i`.
    fn t(i: i64) -> Goal {
        Goal::Term(Cell::Int(i))
    }

    #[test]
    fn push_and_walk() {
        let mut s = ContStack::new();
        let c = s.push(Cont::NONE, t(1), 0);
        let c = s.push(c, t(2), 3);
        assert_eq!(s.len(c), 2);
        assert_eq!(s.to_vec(c), vec![(t(2), 3), (t(1), 0)]);
        assert_eq!(s.len(Cont::NONE), 0);
        assert!(Cont::NONE.is_none() && c.is_some());
    }

    #[test]
    fn continuations_share_their_tail() {
        let mut s = ContStack::new();
        let base = s.push(Cont::NONE, t(1), 0);
        let a = s.push(base, t(2), 0);
        let b = s.push(base, t(3), 0);
        assert_eq!(s.to_vec(a)[0].0, t(2));
        assert_eq!(s.to_vec(b)[0].0, t(3));
        assert_eq!(s.to_vec(base).len(), 1);
        assert_eq!(s.height(), 3);
    }

    #[test]
    fn from_vec_roundtrip_with_barrier_map() {
        let mut s = ContStack::new();
        let c = s.push(Cont::NONE, t(1), 5);
        let c = s.push(c, t(2), 9);
        let v = s.to_vec(c);
        let c2 = s.from_vec(&v, |b| b.saturating_sub(5));
        assert_eq!(s.to_vec(c2), vec![(t(2), 4), (t(1), 0)]);
    }

    #[test]
    fn trim_keeps_what_the_floor_or_the_continuation_names() {
        let mut s = ContStack::new();
        let a = s.push(Cont::NONE, t(1), 0);
        let b = s.push(a, t(2), 0);
        let c = s.push(b, t(3), 0);
        // Popping `c` with no frame: only its tail survives.
        let next = s.node(c).unwrap().next;
        s.trim(ContMark(0), next);
        assert_eq!(s.height(), 2);
        // A frame created at height 2 protects `b` however far `cont` pops.
        let floor = s.mark();
        assert!(floor.protects(b) && floor.protects(Cont::NONE));
        s.trim(floor, Cont::NONE);
        assert_eq!(s.height(), 2);
        assert_eq!(s.len(b), 2);
        // A continuation above the floor is kept whole.
        let d = s.push(b, t(4), 0);
        assert!(!floor.protects(d));
        s.trim(floor, d);
        assert_eq!(s.height(), 3);
        // Backtracking to the frame drops everything pushed since.
        s.truncate_to(floor);
        assert_eq!(s.height(), 2);
        s.trim(ContMark(0), Cont::NONE);
        assert_eq!(s.height(), 0);
    }

    #[test]
    fn a_restored_continuation_survives_pushes_above_it() {
        let mut s = ContStack::new();
        let kept = s.push(Cont::NONE, t(7), 1);
        let floor = s.mark();
        for i in 0..1000 {
            let c = s.push(kept, t(i), 0);
            let next = s.node(c).unwrap().next;
            s.trim(floor, next);
        }
        assert_eq!(s.height(), 1);
        assert_eq!(s.to_vec(kept), vec![(t(7), 1)]);
    }

    #[test]
    #[should_panic]
    fn a_handle_above_the_stack_is_caught() {
        let mut s = ContStack::new();
        let c = s.push(Cont::NONE, t(1), 0);
        s.truncate_to(ContMark(0));
        s.node(c);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale continuation handle")]
    fn a_stale_handle_is_caught_in_debug_builds() {
        let mut s = ContStack::new();
        let stale = s.push(Cont::NONE, t(1), 0);
        s.truncate_to(ContMark(0));
        s.push(Cont::NONE, t(2), 0); // reuses the slot
        s.node(stale);
    }

    /// One frame of every kind, with `cells` for the ones that hold terms.
    fn every_frame(heap: &mut Heap) -> Vec<Goal> {
        let x = heap.new_var();
        let call = heap.new_struct(sym("p"), &[x, Cell::Int(1)]);
        let env = heap.new_struct(sym("$slots"), &[x, Cell::Int(2)]);
        let user = heap.new_struct(frame_sym(), &[Cell::Int(0), Cell::Int(0), Cell::Nil]);
        let callable = Callable::of(heap, call).unwrap();
        vec![
            Goal::Term(call),
            Goal::Term(user),
            Goal::Call {
                goal: callable,
                pred: PredId(3),
            },
            Goal::Call {
                goal: Callable::Atom(sym("go")),
                pred: PredId(4),
            },
            Goal::Body {
                clause: ClauseId(7),
                at: BodyAt::new(2, 100_000),
                env: Env::of(env),
            },
            Goal::Body {
                clause: ClauseId(8),
                at: BodyAt::new(0, 1),
                env: Env::NONE,
            },
            Goal::IteThen { cut_to: 5 },
            Goal::MemoStore { slot: 9, gen: 11 },
            Goal::TableAnswer {
                subgoal: 2,
                goal: callable,
            },
            Goal::InlineBarrier { frame: 1 << 40 },
        ]
    }

    #[test]
    fn every_goal_variant_survives_to_vec_and_from_vec() {
        let mut heap = Heap::new();
        let frames = every_frame(&mut heap);
        let mut s = ContStack::new();
        let mut c = Cont::NONE;
        for (i, &g) in frames.iter().enumerate().rev() {
            c = s.push(c, g, i as u32);
        }
        let v = s.to_vec(c);
        let want: Vec<(Goal, u32)> = frames.iter().copied().zip(0..).collect();
        assert_eq!(v, want);
        let c2 = s.from_vec(&v, |b| b + 1);
        let back = s.to_vec(c2);
        assert!(back
            .iter()
            .zip(&want)
            .all(|(a, b)| a.0 == b.0 && a.1 == b.1 + 1));
        let at = BodyAt::new(2, 100_000);
        assert_eq!((at.branch(), at.step()), (2, 100_000));
    }

    #[test]
    fn a_node_is_the_size_it_was_when_it_held_a_cell() {
        assert_eq!(std::mem::size_of::<Goal>(), std::mem::size_of::<Cell>());
        // Release: goal, barrier, next. Debug builds add the push serials.
        let node = if cfg!(debug_assertions) { 32 } else { 24 };
        assert_eq!(std::mem::size_of::<ContNode>(), node);
    }

    #[test]
    fn frozen_frames_thaw_by_position_with_their_cells() {
        use ace_logic::TermArena;
        let mut src = Heap::new();
        let frames = every_frame(&mut src);
        let mut s = ContStack::new();
        let mut c = Cont::NONE;
        for &g in frames.iter().rev() {
            c = s.push(c, g, 3);
        }
        let goal = src.new_struct(sym("q"), &[Cell::Nil]);
        let memo = |g: &Goal| !matches!(g, Goal::MemoStore { .. });
        let (tuple, kept) = s.freeze(&mut src, goal, c, memo);
        assert_eq!(kept.len(), frames.len() - 1);
        let arena = TermArena::freeze(&src, tuple);
        // The cells the frames had as heap markers: `$closure` + 10 arguments
        // (one frame dropped) 11; goal q([]) 2; p(X, 1) 3 + X 1; the user
        // term 4; $slots(X, 2) 3; the body frames 4 + 4; the if-then-else
        // frame 2; the table-answer frame 3; the barrier 2.
        assert_eq!(arena.len(), 11 + 2 + 4 + 4 + 3 + 8 + 2 + 3 + 2);

        let mut dst = Heap::new();
        dst.new_var(); // a nonzero relocation base
        let (root, _) = arena.thaw(&mut dst);
        let Cell::Str(hdr) = root else {
            panic!("the tuple is a structure")
        };
        let mut s2 = ContStack::new();
        let thawed = s2.thaw(&dst, hdr, &kept, 0);
        let back = s2.to_vec(thawed);
        assert_eq!(back.len(), kept.len());
        assert!(back.iter().all(|&(_, b)| b == 0));
        let text = |c| ace_logic::write::term_to_string(&dst, c);
        for ((g, _), was) in back.iter().zip(&kept) {
            match (*g, *was) {
                (Goal::Term(t), Goal::Term(_)) => assert!(text(t).starts_with(['p', '\''])),
                (Goal::Call { goal, pred }, Goal::Call { pred: p0, .. }) => {
                    assert_eq!(pred, p0);
                    assert!(text(goal.cell()).starts_with(['p', 'g']));
                }
                (
                    Goal::Body { clause, at, env },
                    Goal::Body {
                        clause: c0,
                        at: a0,
                        env: e0,
                    },
                ) => {
                    assert_eq!((clause, at), (c0, a0));
                    assert_eq!(env == Env::NONE, e0 == Env::NONE);
                    if let Some(h) = env.slots() {
                        assert_eq!(dst.functor_at(h), (sym("$slots"), 2));
                    }
                }
                (Goal::TableAnswer { subgoal, goal }, Goal::TableAnswer { subgoal: s0, .. }) => {
                    assert_eq!(subgoal, s0);
                    assert!(text(goal.cell()).starts_with("p("));
                }
                (now, was) => assert_eq!(now, was),
            }
        }
        // The user term shaped like a frozen frame stays a goal term.
        assert!(matches!(back[1].0, Goal::Term(_)));
        // Variables shared between frames stay shared: the call's X is the
        // environment's first slot.
        let (Goal::Call { goal, .. }, Goal::Body { env, .. }) = (back[2].0, back[4].0) else {
            panic!("frame order")
        };
        let (Callable::Str(call), Some(slots)) = (goal, env.slots()) else {
            panic!("shapes")
        };
        assert_eq!(
            dst.deref(dst.str_arg(call, 0)),
            dst.deref(dst.str_arg(slots, 0))
        );
    }
}
