//! Control-stack frames: the state-saving data structures of §2 of the
//! paper (Figure 2), made concrete.
//!
//! * [`ChoicePoint`] — "allocated whenever a non-deterministic goal is
//!   called; it also serves as a source of or-parallel work."
//! * [`ParcallFrame`] — "allocated when a parallel conjunction is called;
//!   it serves as a source of and-parallel work."
//! * [`Marker`] — input/end markers "delimit the segments of stacks
//!   corresponding to goals taken from a parallel conjunction."
//!
//! The optimizations are, concretely, policies about when these frames can
//! be *reused* (LPCO, LAO), *never allocated* (SPO, PDO), or traversed in
//! one step instead of many (flattening).

use std::any::Any;
use std::sync::Arc;

use ace_logic::db::IndexKey;
use ace_logic::heap::HeapMark;
use ace_logic::{Cell, PredId, TrailMark};
use ace_table::AnswerEntry;

use crate::cont::{Cont, ContMark};

/// The untried alternatives of a choice point.
#[derive(Debug)]
pub enum Alts {
    /// Remaining clauses of a user predicate call: try clause indices
    /// `>= next` of `pred` whose index key may match `key`.
    Clauses {
        pred: PredId,
        key: IndexKey,
        next: usize,
    },
    /// The right branch of a `;`/2 disjunction.
    Disj { rhs: Cell },
    /// `between/3` enumeration: bind `var` to `next..=hi`.
    Between { var: Cell, next: i64, hi: i64 },
    /// Remaining answers of a call whose **complete** answer set is in
    /// the answer store (a memoized call or a completed tabled subgoal):
    /// thaw and unify `entry.answers[next..]`. Never published to the
    /// or-tree — the answer set is already complete, so there is nothing
    /// to claim.
    Replay {
        entry: Arc<AnswerEntry>,
        next: usize,
    },
    /// A consumer of a machine-local tabled subgoal under evaluation:
    /// unify answers `>= next` of the local answer list; when the list
    /// runs dry, either finish (subgoal complete) or **suspend** the
    /// continuation as a frozen closure until new answers land. Never
    /// published — local SLG state is meaningless on another machine.
    TableConsumer { subgoal: usize, next: usize },
    /// The generator choice point of a machine-local tabled subgoal:
    /// remaining program clauses feeding the subgoal's failure-driven
    /// answer loop. Exhaustion triggers the SCC completion check. Never
    /// published (see `Machine::table_publish_floor`).
    TableGen {
        subgoal: usize,
        pred: PredId,
        key: IndexKey,
        next: usize,
    },
}

/// Hook installed by the or-parallel engine when a choice point is made
/// **public**: its alternatives move into a shared pool that both the
/// owning machine (on backtracking) and idle remote workers (work finding)
/// claim from atomically.
pub trait SharedChoice: Send + Sync {
    /// Claim the next untried clause index; `None` when exhausted.
    fn claim_next(&self) -> Option<usize>;
    /// The owner backtracked past this node (its local stack section is
    /// gone); remote workers may still hold claims.
    fn owner_detached(&self);
    /// Diagnostic id.
    fn node_id(&self) -> u64;
    /// Publication epoch of the node this hook serves (bumped by LAO
    /// reuse). Implementations without epochs report 0.
    fn epoch(&self) -> u64 {
        0
    }
}

/// A choice point: everything needed to restore the computation to the
/// state at a nondeterministic call and try the next alternative.
pub struct ChoicePoint {
    /// The call that created this choice point (re-unified on retry).
    pub goal: Cell,
    pub alts: Alts,
    /// Continuation to restore on retry.
    pub cont: Cont,
    pub trail: TrailMark,
    pub heap: HeapMark,
    /// Continuation-stack height at creation: restored on retry like the
    /// heap, and while this frame is on the control stack nothing below
    /// it is dropped (the liveness rule of [`crate::cont`]).
    pub conts: ContMark,
    /// Cut barrier active at the call (restored on retry).
    pub barrier: u32,
    /// Set when the or-engine has published this choice point; alternatives
    /// are then claimed through the shared pool instead of `alts`.
    pub shared: Option<Arc<dyn SharedChoice>>,
}

impl std::fmt::Debug for ChoicePoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChoicePoint")
            .field("alts", &self.alts)
            .field("trail", &self.trail)
            .field("heap", &self.heap)
            .field("barrier", &self.barrier)
            .field("shared", &self.shared.as_ref().map(|s| s.node_id()))
            .finish_non_exhaustive()
    }
}

/// A parallel-conjunction descriptor. One slot per subgoal; the and-engine
/// stores its orchestration state in `ext`.
pub struct ParcallFrame {
    /// Monotonic id (diagnostics, marker linkage).
    pub id: u64,
    /// The subgoal terms, in source order, in the owning machine's heap.
    pub branches: Vec<Cell>,
    /// Continuation after the parallel conjunction.
    pub cont: Cont,
    pub trail: TrailMark,
    pub heap: HeapMark,
    /// Continuation-stack height at creation (protects `cont`).
    pub conts: ContMark,
    pub barrier: u32,
    /// And-engine attachment (slot states, generators, scheduling handle).
    pub ext: Option<Box<dyn Any + Send>>,
}

impl std::fmt::Debug for ParcallFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParcallFrame")
            .field("id", &self.id)
            .field("branches", &self.branches.len())
            .field("trail", &self.trail)
            .field("ext", &self.ext.is_some())
            .finish_non_exhaustive()
    }
}

/// Which end of a stack section a marker delimits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerKind {
    /// "indicates the beginning of a new execution" of a picked-up subgoal.
    Input,
    /// Marks the end of the subgoal's execution.
    End,
    /// A backtrack fence below an owner-executed (PDO) subgoal: reaching it
    /// while backtracking means the subgoal is exhausted, which the engine
    /// must interpret as failure of the parallel call rather than letting
    /// backtracking leak into the preceding inline section.
    Fence,
}

/// A stack-section marker. The paper notes these "store various
/// information" — the fields here mirror that: linkage back to the parcall
/// frame and slot, plus the trail extent of the section for backtracking.
#[derive(Debug, Clone)]
pub struct Marker {
    pub kind: MarkerKind,
    /// Id of the parcall frame whose subgoal this section executes.
    pub parcall_id: u64,
    /// Slot index within that frame.
    pub slot: u32,
    /// Trail position at section start (Input) / end (End).
    pub trail: TrailMark,
    /// Heap position at section start (Input) / end (End).
    pub heap: HeapMark,
    /// Continuation-stack height at section start (Input) / end (End).
    pub conts: ContMark,
}

/// One frame of the control stack.
#[derive(Debug)]
pub enum CtrlFrame {
    Choice(ChoicePoint),
    Parcall(ParcallFrame),
    Marker(Marker),
}

impl CtrlFrame {
    pub fn is_choice(&self) -> bool {
        matches!(self, CtrlFrame::Choice(_))
    }

    pub fn is_parcall(&self) -> bool {
        matches!(self, CtrlFrame::Parcall(_))
    }

    pub fn is_marker(&self) -> bool {
        matches!(self, CtrlFrame::Marker(_))
    }

    /// Continuation-stack height when this frame was pushed.
    #[inline]
    pub fn cont_mark(&self) -> ContMark {
        match self {
            CtrlFrame::Choice(cp) => cp.conts,
            CtrlFrame::Parcall(pf) => pf.conts,
            CtrlFrame::Marker(m) => m.conts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_kind_predicates() {
        let m = CtrlFrame::Marker(Marker {
            kind: MarkerKind::Input,
            parcall_id: 1,
            slot: 0,
            trail: TrailMark(0),
            heap: HeapMark(0),
            conts: ContMark(3),
        });
        assert_eq!(m.cont_mark(), ContMark(3));
        assert!(m.is_marker());
        assert!(!m.is_choice());
        assert!(!m.is_parcall());
    }

    #[test]
    fn choicepoint_debug_does_not_panic() {
        let cp = ChoicePoint {
            goal: Cell::Nil,
            alts: Alts::Disj { rhs: Cell::Nil },
            cont: Cont::NONE,
            trail: TrailMark(0),
            heap: HeapMark(0),
            conts: ContMark(0),
            barrier: 0,
            shared: None,
        };
        let s = format!("{cp:?}");
        assert!(s.contains("ChoicePoint"));
    }
}
