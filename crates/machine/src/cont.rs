//! Goal continuations: linked lists of pending goals whose nodes live on a
//! per-machine stack that control frames protect, as a WAM's environment
//! stack is protected by its choice points.
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

use ace_logic::Cell;

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

/// One pending goal plus the cut barrier of its enclosing clause body
/// (the control-stack height that `!` cuts back to).
#[derive(Clone, Copy, Debug)]
pub struct ContNode {
    pub goal: Cell,
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
    pub fn push(&mut self, next: Cont, goal: Cell, barrier: u32) -> Cont {
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

    /// Collect the goals (and barriers) of a continuation, nearest first.
    /// Used when publishing a choice point's state to the or-tree.
    pub fn to_vec(&self, cont: Cont) -> Vec<(Cell, u32)> {
        self.iter(cont).map(|n| (n.goal, n.barrier)).collect()
    }

    /// Rebuild a continuation from goals collected by
    /// [`ContStack::to_vec`] (nearest first), applying `map_barrier` to
    /// each stored barrier.
    pub fn from_vec(&mut self, goals: &[(Cell, u32)], map_barrier: impl Fn(u32) -> u32) -> Cont {
        let mut cont = Cont::NONE;
        for &(goal, barrier) in goals.iter().rev() {
            cont = self.push(cont, goal, map_barrier(barrier));
        }
        cont
    }

    /// Length of a continuation (diagnostics).
    pub fn len(&self, cont: Cont) -> usize {
        self.iter(cont).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_logic::Cell;

    #[test]
    fn push_and_walk() {
        let mut s = ContStack::new();
        let c = s.push(Cont::NONE, Cell::Int(1), 0);
        let c = s.push(c, Cell::Int(2), 3);
        assert_eq!(s.len(c), 2);
        assert_eq!(s.to_vec(c), vec![(Cell::Int(2), 3), (Cell::Int(1), 0)]);
        assert_eq!(s.len(Cont::NONE), 0);
        assert!(Cont::NONE.is_none() && c.is_some());
    }

    #[test]
    fn continuations_share_their_tail() {
        let mut s = ContStack::new();
        let base = s.push(Cont::NONE, Cell::Int(1), 0);
        let a = s.push(base, Cell::Int(2), 0);
        let b = s.push(base, Cell::Int(3), 0);
        assert_eq!(s.to_vec(a)[0].0, Cell::Int(2));
        assert_eq!(s.to_vec(b)[0].0, Cell::Int(3));
        assert_eq!(s.to_vec(base).len(), 1);
        assert_eq!(s.height(), 3);
    }

    #[test]
    fn from_vec_roundtrip_with_barrier_map() {
        let mut s = ContStack::new();
        let c = s.push(Cont::NONE, Cell::Int(1), 5);
        let c = s.push(c, Cell::Int(2), 9);
        let v = s.to_vec(c);
        let c2 = s.from_vec(&v, |b| b.saturating_sub(5));
        assert_eq!(s.to_vec(c2), vec![(Cell::Int(2), 4), (Cell::Int(1), 0)]);
    }

    #[test]
    fn trim_keeps_what_the_floor_or_the_continuation_names() {
        let mut s = ContStack::new();
        let a = s.push(Cont::NONE, Cell::Int(1), 0);
        let b = s.push(a, Cell::Int(2), 0);
        let c = s.push(b, Cell::Int(3), 0);
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
        let d = s.push(b, Cell::Int(4), 0);
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
        let kept = s.push(Cont::NONE, Cell::Int(7), 1);
        let floor = s.mark();
        for i in 0..1000 {
            let c = s.push(kept, Cell::Int(i), 0);
            let next = s.node(c).unwrap().next;
            s.trim(floor, next);
        }
        assert_eq!(s.height(), 1);
        assert_eq!(s.to_vec(kept), vec![(Cell::Int(7), 1)]);
    }

    #[test]
    #[should_panic]
    fn a_handle_above_the_stack_is_caught() {
        let mut s = ContStack::new();
        let c = s.push(Cont::NONE, Cell::Int(1), 0);
        s.truncate_to(ContMark(0));
        s.node(c);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale continuation handle")]
    fn a_stale_handle_is_caught_in_debug_builds() {
        let mut s = ContStack::new();
        let stale = s.push(Cont::NONE, Cell::Int(1), 0);
        s.truncate_to(ContMark(0));
        s.push(Cont::NONE, Cell::Int(2), 0); // reuses the slot
        s.node(stale);
    }
}
