//! Goal continuations and body environments: linked lists of pending
//! goals, and the variables of the clause bodies they resume, on a
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
//! The stack keeps the environments of body activations beside the nodes,
//! as cells: a `$slots/n` header, then the clause's `n` variables. An
//! activation pushes its environment once, when it pushes its first body
//! frame, and every later step of the body reads the variables in place;
//! an [`Env`] is the header's index. An environment is never written after
//! its push, and it is a heap term only inside a frozen continuation.
//!
//! # The liveness rule
//!
//! Every control frame records the stack height at its creation (its
//! [`ContMark`]: nodes and environments, beside its heap and trail marks);
//! frames are pushed in order, so marks never decrease up the control
//! stack. A continuation handle may be held in exactly three kinds of
//! place, and wherever it is held it names a node **below `max(top frame's
//! mark, machine.cont + 1)`**:
//!
//! * `Machine.cont`, the running continuation — below `cont + 1`;
//! * a control frame (`ChoicePoint.cont`, `ParcallFrame.cont`,
//!   `ParRecord.cont`) — the handle
//!   existed when the frame was pushed, so it is below that frame's mark,
//!   hence below the top frame's;
//! * the and-engine's `FrameState.cont`, a copy of the `ParcallFrame.cont`
//!   of a frame still on the owner's control stack, read by the owner only
//!   (`Machine::resume_with_cont` asserts the protection).
//!
//! Everything at or above that bound is unreachable and may be dropped:
//! `Machine::step` pops by `cont = node.next` and truncates to the bound
//! (continuation trimming — determinate recursion runs in constant
//! continuation space, and what a cut strands goes at the next pop);
//! backtracking restores `cont` and truncates nodes and environments to
//! the choice point's mark exactly as it does the heap.
//!
//! Environments lie in continuation order: a callee's is pushed above its
//! caller's, and [`ContStack::thaw`] pushes a frozen continuation's
//! environments deepest frame first. So when a body frame over environment
//! `e` runs, the callees of its activation have finished, and every
//! environment above `e` that the top frame's mark does not protect is
//! theirs: the step truncates the environments to `max(top frame's mark,
//! end of e)`, and at the activation's last step to `max(top frame's mark,
//! e)`, dropping `e` too (`ContStack::trim_envs`; determinate recursion
//! runs in constant environment space). A body frame with no environment
//! trims nothing. Debug builds stamp every node, environment and handle
//! with a push serial, so a handle that outlived what it named is caught
//! at its next use instead of silently naming a successor in the slot.

use ace_logic::code::UNSET_SLOT;
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

/// A [`ContStack`] height — its nodes and its environment cells — recorded
/// by every control frame at its creation (the continuation-stack
/// counterpart of `HeapMark` / `TrailMark`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ContMark {
    nodes: u32,
    envs: u32,
}

impl ContMark {
    /// The empty stack's height: what no control frame protects.
    pub const ZERO: ContMark = ContMark { nodes: 0, envs: 0 };

    /// Does a frame carrying this mark keep `cont` alive?
    #[inline]
    pub fn protects(self, cont: Cont) -> bool {
        cont.end() <= self.nodes
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

/// The environment of one body activation — the clause's variables, on
/// the [`ContStack`] — by the index of its header, or none for a clause
/// whose body has no variables. It is pushed once per activation and
/// shared by the activation's every body frame.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Env {
    idx: u32,
    #[cfg(debug_assertions)]
    serial: u32,
}

impl Env {
    pub const NONE: Env = Env {
        idx: u32::MAX,
        #[cfg(debug_assertions)]
        serial: 0,
    };

    #[inline]
    pub fn is_none(self) -> bool {
        self.idx == u32::MAX
    }
}

impl std::fmt::Debug for Env {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_none() {
            f.write_str("Env::NONE")
        } else {
            write!(f, "Env({})", self.idx)
        }
    }
}

/// What one continuation node holds. Sixteen bytes, like a heap cell
/// (release builds; debug builds add the environment's push serial).
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
    /// A derivation of local tabled subgoal `subgoal` reached an answer:
    /// the bindings of the call's variables, which `vars` keeps (the atom
    /// `'$subst'` when it has none, else `'$subst'(V1, …, Vn)`).
    TableAnswer { subgoal: u32, vars: Callable },
    /// The inline-executed branch of the parallel call `frame` arrived at
    /// its end.
    InlineBarrier { frame: u64 },
    /// Goal `next - 1` of the parallel conjunction whose record sits at
    /// control index `rec` finished: start goal `next`, or after the last
    /// one pop the record if it is on top. Once the record is promoted,
    /// the end of the goal its owner was running: the frame's barrier.
    ParNext { rec: u32, next: u32 },
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

/// The continuation nodes and body environments of one machine (see the
/// module docs).
#[derive(Debug, Default)]
pub struct ContStack {
    nodes: Vec<ContNode>,
    /// Environments, one after another: a `$slots/n` header cell, then the
    /// `n` slots.
    envs: Vec<Cell>,
    /// Pushes so far (stale-handle detection).
    #[cfg(debug_assertions)]
    pushes: u32,
    /// The push serial of each environment, at its header's index (0 at
    /// its slots'), as long as `envs`.
    #[cfg(debug_assertions)]
    env_serials: Vec<u32>,
}

impl ContStack {
    pub fn new() -> Self {
        Self::default()
    }

    #[cfg(debug_assertions)]
    fn next_serial(&mut self) -> u32 {
        self.pushes = self.pushes.wrapping_add(1);
        self.pushes
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
        let serial = self.next_serial();
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

    /// Push an environment holding `slots`, which must all be set: an
    /// environment is read in place and never written again.
    #[inline]
    pub(crate) fn push_env(&mut self, slots: &[Cell]) -> Env {
        debug_assert!(
            !slots.contains(&UNSET_SLOT),
            "an environment slot is set after its push"
        );
        // `u32::MAX` is `Env::NONE`.
        assert!(
            self.envs.len() + slots.len() < u32::MAX as usize,
            "environment stack overflow"
        );
        let idx = self.envs.len() as u32;
        self.envs.push(Cell::Functor(env_sym(), slots.len() as u32));
        self.envs.extend_from_slice(slots);
        #[cfg(debug_assertions)]
        let serial = {
            let serial = self.next_serial();
            self.env_serials.push(serial);
            self.env_serials.resize(self.envs.len(), 0);
            serial
        };
        Env {
            idx,
            #[cfg(debug_assertions)]
            serial,
        }
    }

    /// Where the `n` slots of `env` lie on the stack (nowhere for
    /// [`Env::NONE`]). Panics on a handle above the stack (and, in debug
    /// builds, on any handle whose environment has been dropped since, or
    /// with the wrong `n`): the liveness rule was broken.
    #[inline]
    fn env_range(&self, env: Env, n: usize) -> std::ops::Range<usize> {
        if env.is_none() {
            return 0..0;
        }
        let h = env.idx as usize;
        #[cfg(debug_assertions)]
        {
            assert!(
                self.env_serials.get(h) == Some(&env.serial),
                "stale environment handle {env:?}"
            );
            assert!(
                matches!(self.envs[h], Cell::Functor(_, m) if m as usize == n),
                "environment {env:?} read as {n} slots"
            );
        }
        h + 1..h + 1 + n
    }

    /// The number of slots of `env`, from its header.
    #[inline]
    fn env_len(&self, env: Env) -> usize {
        match self.envs[env.idx as usize] {
            Cell::Functor(_, n) => n as usize,
            _ => panic!("stale environment handle {env:?}"),
        }
    }

    /// The slots of `env`, read in place (none for [`Env::NONE`]).
    pub(crate) fn env_slots(&self, env: Env) -> &[Cell] {
        let n = if env.is_none() { 0 } else { self.env_len(env) };
        &self.envs[self.env_range(env, n)]
    }

    /// The `n` slots of `env` (its clause's `nslots`), for the inline-step
    /// loop that also runs over a register file with slots still to set:
    /// an environment has none, so nothing is written through this.
    #[inline]
    pub(crate) fn env_slots_mut(&mut self, env: Env, n: usize) -> &mut [Cell] {
        let range = self.env_range(env, n);
        &mut self.envs[range]
    }

    /// A body frame over `env` ran: drop the environments above `env` that
    /// `floor` (the top control frame's mark) does not protect, which its
    /// activation's finished callees left; after the activation's `last`
    /// step, `env` as well. Trims nothing for [`Env::NONE`].
    #[inline]
    pub(crate) fn trim_envs(&mut self, floor: ContMark, env: Env, last: bool) {
        if env.is_none() {
            return;
        }
        let keep = if last {
            env.idx as usize
        } else {
            env.idx as usize + 1 + self.env_len(env)
        };
        self.truncate_envs(keep.max(floor.envs as usize));
    }

    #[inline]
    fn truncate_envs(&mut self, len: usize) {
        self.envs.truncate(len);
        #[cfg(debug_assertions)]
        self.env_serials.truncate(len);
    }

    /// Current height (what a control frame records at its creation).
    #[inline]
    pub fn mark(&self) -> ContMark {
        ContMark {
            nodes: self.nodes.len() as u32,
            envs: self.envs.len() as u32,
        }
    }

    /// Drop every node and environment at or above `mark` (backtracking to
    /// the frame that recorded it).
    #[inline]
    pub fn truncate_to(&mut self, mark: ContMark) {
        self.nodes.truncate(mark.nodes as usize);
        self.truncate_envs(mark.envs as usize);
    }

    /// Drop every node that neither `floor` (the top control frame's mark)
    /// nor the running continuation `cont` keeps alive.
    #[inline]
    pub fn trim(&mut self, floor: ContMark, cont: Cont) {
        self.nodes.truncate(floor.nodes.max(cont.end()) as usize);
    }

    /// Number of nodes on the stack, live or stranded (diagnostics).
    pub fn height(&self) -> usize {
        self.nodes.len()
    }

    /// Number of environment cells on the stack, headers included
    /// (diagnostics).
    pub(crate) fn env_height(&self) -> usize {
        self.envs.len()
    }

    pub fn clear(&mut self) {
        self.nodes.clear();
        self.truncate_envs(0);
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

    /// Write `goal` and the frames of `cont` that `keep` accepts on `heap`
    /// as the arguments of one `$closure(Goal, F1, …, Fn)` tuple, so that
    /// freezing them jointly keeps every variable they share shared. A goal
    /// frame is written as its goal; the frames that hold more than cells
    /// as a `$frame` structure of the parts a machine-local heap marker
    /// had: a body frame as `$frame(Clause, At, Env)`, its environment as
    /// the `$slots(…)` term of its cells (once per environment, however
    /// many frames share it), the control frames as their integers — a
    /// frozen continuation has as many cells, and is priced the same, as
    /// when those frames and environments were heap terms. Returns the
    /// tuple's arguments and the frames kept, which [`ContStack::thaw`]
    /// needs to read it back.
    pub fn freeze(
        &self,
        heap: &mut Heap,
        goal: Cell,
        cont: Cont,
        keep: impl Fn(&Goal) -> bool,
    ) -> (Vec<Cell>, Vec<Goal>) {
        // Counted first: the frames are kept as long as the closure is.
        let kept = || self.iter(cont).map(|n| n.goal).filter(&keep);
        let mut frames = Vec::with_capacity(kept().count());
        frames.extend(kept());
        let f = frame_sym();
        let int = |i: u64| Cell::Int(i as i64);
        let mut args = Vec::with_capacity(frames.len() + 1);
        args.push(goal);
        // The last environment written, by header index, and its term:
        // environments lie in continuation order, so frames that share one
        // meet it one after another.
        let mut written: Option<(u32, Cell)> = None;
        for frame in &frames {
            args.push(match *frame {
                Goal::Term(g) => g,
                Goal::Call { goal, .. } => goal.cell(),
                Goal::Body { clause, at, env } => {
                    let env = match written {
                        _ if env.is_none() => Cell::Nil,
                        Some((idx, term)) if idx == env.idx => term,
                        _ => {
                            debug_assert!(
                                written.is_none_or(|(idx, _)| env.idx < idx),
                                "environments out of continuation order"
                            );
                            let term = heap.new_struct(env_sym(), self.env_slots(env));
                            written = Some((env.idx, term));
                            term
                        }
                    };
                    heap.new_struct(f, &[int(clause.0 as u64), int(at.0 as u64), env])
                }
                Goal::IteThen { cut_to } => heap.new_struct(f, &[int(cut_to as u64)]),
                Goal::MemoStore { slot, gen } => {
                    heap.new_struct(f, &[int(slot as u64), int(gen as u64)])
                }
                Goal::TableAnswer { subgoal, vars } => {
                    heap.new_struct(f, &[int(subgoal as u64), vars.cell()])
                }
                Goal::InlineBarrier { frame } => heap.new_struct(f, &[int(frame)]),
                Goal::ParNext { rec, next } => {
                    heap.new_struct(f, &[int(rec as u64), int(next as u64)])
                }
            });
        }
        (args, frames)
    }

    /// Rebuild a continuation [`ContStack::freeze`] wrote, from its tuple,
    /// frozen and thawed into `heap` (header `tuple`), and the frames it
    /// returned.
    /// Frame `i` takes its cells from argument `i + 1` by position, never
    /// by functor: what was a goal term thaws as a goal term, whatever it
    /// looks like. A body frame's `$slots` term becomes an environment
    /// again (one per term), pushed deepest frame first so that
    /// environments lie in continuation order, as the trimming rule
    /// requires. Every frame gets cut barrier `barrier`.
    pub fn thaw(&mut self, heap: &Heap, tuple: Addr, frames: &[Goal], barrier: u32) -> Cont {
        let callable = |c| Callable::of(heap, c).expect("a frozen call is callable");
        // The last `$slots` term thawed, by header address, and its
        // environment (frames that share one are consecutive, as in
        // `freeze`).
        let mut pushed: Option<(Addr, Env)> = None;
        let mut cont = Cont::NONE;
        for (i, frame) in frames.iter().enumerate().rev() {
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
                Goal::Body { clause, at, .. } => {
                    let env = match (heap.deref(field(2)), pushed) {
                        (Cell::Str(h), Some((last, env))) if last == h => env,
                        (Cell::Str(h), _) => {
                            let n = heap.functor_at(h).1 as usize;
                            let env = self.push_env(&heap.cells()[h.idx() + 1..h.idx() + 1 + n]);
                            pushed = Some((h, env));
                            env
                        }
                        _ => Env::NONE,
                    };
                    Goal::Body { clause, at, env }
                }
                Goal::TableAnswer { subgoal, .. } => Goal::TableAnswer {
                    subgoal,
                    vars: callable(field(1)),
                },
                control => control,
            };
            cont = self.push(cont, goal, barrier);
        }
        cont
    }

    /// Length of a continuation (diagnostics).
    pub fn len(&self, cont: Cont) -> usize {
        self.iter(cont).count()
    }
}

/// Functor of an environment's header, and of its term in a frozen
/// continuation.
fn env_sym() -> Sym {
    static S: std::sync::OnceLock<Sym> = std::sync::OnceLock::new();
    *S.get_or_init(|| sym("$slots"))
}

/// Functor of a frozen frame's structure (never dispatched: frames thaw
/// by position).
fn frame_sym() -> Sym {
    static S: std::sync::OnceLock<Sym> = std::sync::OnceLock::new();
    *S.get_or_init(|| sym("$frame"))
}

/// Functor of the frozen goal + continuation tuple.
pub(crate) fn closure_sym() -> Sym {
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

    /// A body frame of clause `clause` over `env`.
    fn body(clause: u32, env: Env) -> Goal {
        Goal::Body {
            clause: ClauseId(clause),
            at: BodyAt::new(0, 1),
            env,
        }
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
    fn trim_keeps_what_the_floor_or_the_continuation_names() {
        let mut s = ContStack::new();
        let a = s.push(Cont::NONE, t(1), 0);
        let b = s.push(a, t(2), 0);
        let c = s.push(b, t(3), 0);
        // Popping `c` with no frame: only its tail survives.
        let next = s.node(c).unwrap().next;
        s.trim(ContMark::ZERO, next);
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
        s.trim(ContMark::ZERO, Cont::NONE);
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
        s.truncate_to(ContMark::ZERO);
        s.node(c);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale continuation handle")]
    fn a_stale_handle_is_caught_in_debug_builds() {
        let mut s = ContStack::new();
        let stale = s.push(Cont::NONE, t(1), 0);
        s.truncate_to(ContMark::ZERO);
        s.push(Cont::NONE, t(2), 0); // reuses the slot
        s.node(stale);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale environment handle")]
    fn a_stale_environment_handle_is_caught_in_debug_builds() {
        let mut s = ContStack::new();
        let stale = s.push_env(&[Cell::Int(1), Cell::Int(2)]);
        s.truncate_to(ContMark::ZERO);
        s.push_env(&[Cell::Int(3)]); // reuses the header's index
        s.env_slots(stale);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "set after its push")]
    fn an_environment_is_pushed_with_every_slot_set() {
        ContStack::new().push_env(&[Cell::Int(1), ace_logic::code::UNSET_SLOT]);
    }

    #[test]
    fn environments_are_marked_truncated_and_trimmed() {
        let mut s = ContStack::new();
        let outer = s.push_env(&[Cell::Int(1), Cell::Int(2)]);
        let floor = s.mark();
        let inner = s.push_env(&[Cell::Int(3)]);
        s.push_env(&[Cell::Int(4), Cell::Int(5), Cell::Int(6)]);
        assert_eq!(s.env_height(), 3 + 2 + 4);
        assert_eq!(s.env_slots(inner), &[Cell::Int(3)]);
        assert_eq!(s.env_slots(Env::NONE), &[] as &[Cell]);
        // A frame over `inner` runs: `top` belongs to a finished callee.
        s.trim_envs(ContMark::ZERO, inner, false);
        assert_eq!(s.env_height(), 5);
        // ... and at its last step `inner` goes too, but never below the
        // floor a frame protects.
        s.trim_envs(ContMark::ZERO, Env::NONE, true);
        assert_eq!(s.env_height(), 5);
        s.trim_envs(floor, inner, true);
        assert_eq!(s.env_height(), 3);
        s.trim_envs(floor, outer, true);
        assert_eq!(s.env_height(), 3);
        assert_eq!(s.env_slots(outer), &[Cell::Int(1), Cell::Int(2)]);
        // Backtracking drops nodes and environments alike.
        s.push(Cont::NONE, t(1), 0);
        s.truncate_to(ContMark::ZERO);
        assert_eq!((s.height(), s.env_height()), (0, 0));
    }

    /// One frame of every kind, with `cells` for the ones that hold terms,
    /// the environment on `s`.
    fn every_frame(heap: &mut Heap, s: &mut ContStack) -> Vec<Goal> {
        let x = heap.new_var();
        let call = heap.new_struct(sym("p"), &[x, Cell::Int(1)]);
        let env = s.push_env(&[x, Cell::Int(2)]);
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
                env,
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
                vars: callable,
            },
            Goal::InlineBarrier { frame: 1 << 40 },
            Goal::ParNext { rec: 6, next: 3 },
        ]
    }

    #[test]
    fn every_goal_variant_survives_the_stack() {
        let mut heap = Heap::new();
        let mut s = ContStack::new();
        let frames = every_frame(&mut heap, &mut s);
        let mut c = Cont::NONE;
        for (i, &g) in frames.iter().enumerate().rev() {
            c = s.push(c, g, i as u32);
        }
        let want: Vec<(Goal, u32)> = frames.iter().copied().zip(0..).collect();
        assert_eq!(s.to_vec(c), want);
        let at = BodyAt::new(2, 100_000);
        assert_eq!((at.branch(), at.step()), (2, 100_000));
    }

    #[test]
    fn a_node_is_the_size_it_was_when_it_held_a_cell() {
        // Release: 16-byte frames, and nodes of goal, barrier, next. Debug
        // builds add the push serials of environments, nodes and handles.
        let (goal, node) = if cfg!(debug_assertions) {
            (24, 40)
        } else {
            (16, 24)
        };
        assert_eq!(std::mem::size_of::<Cell>(), 16);
        assert_eq!(std::mem::size_of::<Goal>(), goal);
        assert_eq!(std::mem::size_of::<ContNode>(), node);
    }

    #[test]
    fn a_choice_point_is_the_size_it_was_before_argument_indexes() {
        use crate::frames::{Alts, ChoicePoint, CtrlFrame};
        // The dispatch argument rides in the padding of the clause
        // alternatives: no frame of the control stack grew for it.
        // Debug builds add the push serial of the continuation handle.
        let frame = if cfg!(debug_assertions) { 112 } else { 104 };
        assert_eq!(std::mem::size_of::<Alts>(), 40);
        assert_eq!(std::mem::size_of::<ChoicePoint>(), frame);
        assert_eq!(std::mem::size_of::<CtrlFrame>(), frame);
    }

    /// Push `frames` (nearest first) on `s`, freeze them and thaw them into
    /// a fresh heap (at a nonzero base) and stack; returns both and the
    /// thawed continuation.
    fn round_trip(src: &mut Heap, s: &mut ContStack, frames: &[Goal]) -> (Heap, ContStack, Cont) {
        use ace_logic::TermArena;
        let mut c = Cont::NONE;
        for &g in frames.iter().rev() {
            c = s.push(c, g, 3);
        }
        let goal = src.new_struct(sym("q"), &[Cell::Nil]);
        let (args, kept) = s.freeze(src, goal, c, |_| true);
        let arena = TermArena::freeze_tuple(src, closure_sym(), &args);
        let mut dst = Heap::new();
        dst.new_var();
        let (root, _) = arena.thaw(&mut dst);
        let Cell::Str(hdr) = root else {
            panic!("the tuple is a structure")
        };
        let mut s2 = ContStack::new();
        let thawed = s2.thaw(&dst, hdr, &kept, 0);
        (dst, s2, thawed)
    }

    #[test]
    fn frozen_frames_thaw_by_position_with_their_cells() {
        use ace_logic::TermArena;
        let mut src = Heap::new();
        let mut s = ContStack::new();
        let frames = every_frame(&mut src, &mut s);
        let mut c = Cont::NONE;
        for &g in frames.iter().rev() {
            c = s.push(c, g, 3);
        }
        let goal = src.new_struct(sym("q"), &[Cell::Nil]);
        let memo = |g: &Goal| !matches!(g, Goal::MemoStore { .. });
        let (args, kept) = s.freeze(&mut src, goal, c, memo);
        assert_eq!(kept.len(), frames.len() - 1);
        let arena = TermArena::freeze_tuple(&src, closure_sym(), &args);
        // The cells the frames had as heap markers: `$closure` + 11 arguments
        // (one frame dropped) 12; goal q([]) 2; p(X, 1) 3 + X 1; the user
        // term 4; $slots(X, 2) 3; the body frames 4 + 4; the if-then-else
        // frame 2; the table-answer frame 3; the barrier 2; the
        // conjunction's next-goal frame 3.
        assert_eq!(arena.len(), 12 + 2 + 4 + 4 + 3 + 8 + 2 + 3 + 2 + 3);

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
                    assert_eq!(env.is_none(), e0.is_none());
                    assert_eq!(s2.env_slots(env).len(), s.env_slots(e0).len());
                }
                (Goal::TableAnswer { subgoal, vars }, Goal::TableAnswer { subgoal: s0, .. }) => {
                    assert_eq!(subgoal, s0);
                    assert!(text(vars.cell()).starts_with("p("));
                }
                (now, was) => assert_eq!(now, was),
            }
        }
        // The user term shaped like a frozen frame stays a goal term.
        assert!(matches!(back[1].0, Goal::Term(_)));
        // Variables shared between frames stay shared: the call's X is the
        // environment's first slot, and the second slot is the integer.
        let (Goal::Call { goal, .. }, Goal::Body { env, .. }) = (back[2].0, back[4].0) else {
            panic!("frame order")
        };
        let Callable::Str(call) = goal else {
            panic!("shapes")
        };
        let slots = s2.env_slots(env);
        assert_eq!(dst.deref(dst.str_arg(call, 0)), dst.deref(slots[0]));
        assert_eq!(slots[1], Cell::Int(2));
        assert_eq!(s2.env_height(), 3);
    }

    #[test]
    fn thawed_environments_follow_continuation_order() {
        let mut src = Heap::new();
        let mut s = ContStack::new();
        // A caller's activation, then its callee's, as a machine pushes
        // them; the callee's body frame is the nearer one.
        let caller = s.push_env(&[Cell::Int(1), Cell::Int(2)]);
        let callee = s.push_env(&[Cell::Int(3)]);
        // The same environment twice is written and thawed once.
        let frames = [body(1, callee), t(0), body(2, caller), body(3, caller)];
        let (_, mut s2, c) = round_trip(&mut src, &mut s, &frames);
        let envs: Vec<Env> = s2
            .to_vec(c)
            .iter()
            .filter_map(|&(g, _)| match g {
                Goal::Body { env, .. } => Some(env),
                _ => None,
            })
            .collect();
        let [near, deep, deep_again] = envs[..] else {
            panic!("three body frames")
        };
        assert_eq!(deep, deep_again);
        assert_eq!(s2.env_height(), 3 + 2);
        assert_eq!(s2.env_slots(deep), &[Cell::Int(1), Cell::Int(2)]);
        assert_eq!(s2.env_slots(near), &[Cell::Int(3)]);
        // Deepest first: the nearer frame's environment is the higher one,
        // so its last step drops it and keeps the deeper frame's.
        assert!(near.idx > deep.idx);
        s2.trim_envs(ContMark::ZERO, near, true);
        assert_eq!(s2.env_height(), 3);
        assert_eq!(s2.env_slots(deep), &[Cell::Int(1), Cell::Int(2)]);
    }
}
