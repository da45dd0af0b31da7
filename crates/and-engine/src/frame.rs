//! Shared parcall-frame orchestration state.
//!
//! A [`FrameState`] is the cross-worker view of one machine-level
//! `ParcallFrame`: the slot table, solution bundles, grouping (PDO),
//! LPCO-added slots, and the integration bookkeeping the owning worker
//! uses to splice subgoal solutions back into the parent computation.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Weak};

use ace_logic::copy::copy_tuple;
use ace_logic::heap::HeapMark;
use ace_logic::sym::sym;
use ace_logic::{Cell, Heap, TrailMark};
use ace_machine::{Cont, Machine, ParcallFrame};
use ace_runtime::CancelToken;
use parking_lot::Mutex;

/// A self-contained heap holding one or more related terms (joint copies,
/// so variables shared between the terms stay shared). Frozen: nothing
/// binds or grows it, and it holds room for its cells only.
#[derive(Debug, Clone)]
pub struct Bundle {
    pub heap: Arc<Heap>,
    pub roots: Vec<Cell>,
}

impl Bundle {
    /// The shipping closure of the `i`-th term.
    pub fn closure(&self, i: usize) -> Closure {
        Closure {
            heap: self.heap.clone(),
            root: self.roots[i],
        }
    }
}

/// A subgoal term ready for pickup by any worker (goal shipping source).
#[derive(Debug, Clone)]
pub struct Closure {
    pub heap: Arc<Heap>,
    pub root: Cell,
}

/// Copy `roots` jointly out of `src` into a fresh bundle. Returns the
/// bundle and the number of cells copied (for cost charging). Time and
/// memory are those of the terms copied, whatever the size of `src`.
pub fn bundle_copy(src: &Heap, roots: &[Cell]) -> (Bundle, usize) {
    // Joint copy under one tuple so shared variables stay shared.
    let mut heap = Heap::default();
    let out = copy_tuple(src, sym("$bundle"), roots, &mut heap);
    heap.shrink_to_fit();
    let Cell::Str(hdr) = out.root else {
        unreachable!()
    };
    let roots_out: Vec<Cell> = (0..roots.len())
        .map(|i| heap.str_arg(hdr, i as u32))
        .collect();
    (
        Bundle {
            heap: Arc::new(heap),
            roots: roots_out,
        },
        out.cells_copied,
    )
}

/// Which branches of a new frame the owner machine already holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Local {
    /// The last branch runs inline (a frame raised at the `&`).
    Last,
    /// Branches before `k` finished on the owner and branch `k` is running
    /// there (a promoted record): the finished ones are owner-run slots,
    /// `k` an owner slot in progress, the rest slots for any worker.
    Prefix(usize),
}

impl Local {
    /// The slots of an `n`-branch frame any worker may take.
    pub fn shippable(self, n: usize) -> Range<usize> {
        match self {
            Local::Last => 0..n - 1,
            Local::Prefix(k) => k + 1..n,
        }
    }
}

/// Scheduling state of one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Available for pickup.
    Unclaimed,
    /// Claimed by a worker (possibly merged into a PDO group).
    Running,
    /// First (or current-wave) solution available in its group's bundle.
    Done,
    /// Removed (LPCO-added slot invalidated by a redo of its origin).
    Dropped,
}

/// One subgoal slot of a parallel call.
#[derive(Debug)]
pub struct SlotRec {
    /// The subgoal term to execute, once copied out for shipping. A slot
    /// without one is owner-only until the owner copies closures on demand
    /// (when idle workers appear) — &ACE-style local goals.
    pub closure: Option<Closure>,
    /// The subgoal term in the *parent* machine's heap, unified with the
    /// solution at integration. `None` for LPCO-added slots until the
    /// integration of their origin slot materializes it.
    pub parent_goal: Option<Cell>,
    pub state: SlotState,
    /// Leader slot index of the group executing this slot.
    pub group: Option<usize>,
    /// For LPCO-added slots: the slot whose merge created this one.
    pub origin: Option<usize>,
    /// Executed directly on the owner's machine (PDO): its bindings live
    /// in the parent heap below every integration mark, so a redo wave
    /// that resets it must unwind to the frame's creation marks.
    pub owner_run: bool,
    /// A PDO speculation already ran this slot and found it
    /// nondeterministic: never speculate on it again.
    pub spec_failed: bool,
    /// `parent_goal` was materialized by an integration (cross-machine
    /// LPCO) — it dies with that integration's cells and must be nulled
    /// whenever integrations are redone. Inline-merged goals (created
    /// below any spine choice point) stay valid across re-arrivals.
    pub materialized: bool,
}

/// A group of consecutively-executed slots (always a single slot unless
/// PDO merged neighbours onto one machine).
#[derive(Debug, Default)]
pub struct GroupRec {
    /// Member slot indices, ascending and consecutive.
    pub slots: Vec<usize>,
    /// Resumable generator: kept while the group is nondeterministic and
    /// free of nested parcall frames (plain choice points only).
    pub machine: Option<Box<Machine>>,
    /// Latest solution bundle; roots `[0..slots.len())` are the solved
    /// instances of the member slots in order, further roots are
    /// LPCO-added branch goals (see `extra`).
    pub bundle: Option<Bundle>,
    /// Machine-heap cells of the shipped goals (bundle extraction roots)
    /// in the generator machine, when one is kept.
    pub goal_cells: Vec<Cell>,
    /// `(added_slot_idx, bundle_root_idx)` for LPCO-added branch goals.
    pub extra: Vec<(usize, usize)>,
    /// All member slots finished deterministically.
    pub det: bool,
    /// Nondeterministic but contained nested parcall frames: further
    /// solutions are obtained by (sequential) recomputation.
    pub recompute: bool,
    /// Solutions delivered to the parent so far (recomputation skip count).
    pub solutions_delivered: u64,
    /// Known to have no further solutions.
    pub exhausted: bool,
}

/// Lifecycle of a frame's current wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameStage {
    /// Slots of the current wave are still being solved.
    Filling,
    /// All slots have solutions; awaiting integration by the owner.
    Ready,
    /// Integrated into the parent; parent is running past the parcall.
    Integrated,
    /// Some slot failed: the whole parallel call fails (inside backtrack).
    Failed,
    /// Cross-product enumeration exhausted all combinations.
    Exhausted,
}

/// Mutable interior of a frame.
#[derive(Debug)]
pub struct FrameInner {
    pub slots: Vec<SlotRec>,
    /// Groups keyed by leader slot index (ordered for right-to-left scans).
    pub groups: BTreeMap<usize, GroupRec>,
    pub stage: FrameStage,
    /// Slots of the current wave still lacking a solution (the inline slot
    /// is never counted — its completion is the owner's own Solution).
    pub pending: usize,
    /// First slot whose integration must (re)run in the next integration.
    pub integrate_from: usize,
    /// Per-slot parent (trail, heap) marks recorded at integration time.
    pub marks: Vec<Option<(TrailMark, HeapMark)>>,
    /// The slot executed inline on the owner's machine (&ACE model: the
    /// rightmost branch runs locally, needs no marker, no goal shipping
    /// and no integration — its bindings land in the parent heap
    /// directly).
    pub inline: Option<usize>,
    /// The inline branch left a choice point when it reached the barrier:
    /// by the time backtracking reaches the frame they are exhausted and
    /// its bindings partly undone, so a redo wave must run it again.
    pub inline_nondet: bool,
    /// Where the inline branch goes on after its last LPCO merge: the goal
    /// it continued with and the parent's (trail, heap) marks there. A redo
    /// wave that advances a merged slot re-runs the branch from here — the
    /// merged slots belong to the part before it.
    pub spine: Option<(Cell, TrailMark, HeapMark)>,
    /// Parent (trail, heap) marks when the inline branch reached the
    /// barrier: owner-run slots and integrations all lie above them.
    pub inline_end: Option<(TrailMark, HeapMark)>,
    /// This frame lies in the determinate inline branch or owner-run slot
    /// of an enclosing frame, whose redo keeps that branch's bindings:
    /// exhausted without ever having had an alternative, it is passed, not
    /// undone.
    pub passable: bool,
}

impl FrameInner {
    /// Every integration was undone: redo them all from the first, drop the
    /// parent goals they materialized (the origin's re-integration makes
    /// them again), and put the owner-run slots, whose bindings went with
    /// them, up for another run. Adds the ones that ship to `rerun`.
    pub fn redo_integrations(&mut self, rerun: &mut Vec<usize>) {
        self.marks.fill(None);
        self.integrate_from = 0;
        for (i, sl) in self.slots.iter_mut().enumerate() {
            if sl.materialized {
                sl.parent_goal = None;
                sl.materialized = false;
            }
            if sl.owner_run && sl.state == SlotState::Done {
                sl.owner_run = false;
                sl.state = SlotState::Unclaimed;
                self.pending += 1;
                if sl.closure.is_some() {
                    rerun.push(i);
                }
            }
        }
    }
}

/// Cross-worker state of one parallel call.
pub struct FrameState {
    pub id: u64,
    /// Nesting depth: 1 for a frame created by the root computation, +1 per
    /// nested parcall. LPCO keeps this at the origin's depth (flattening);
    /// the Figure-4 shape tests assert on it.
    pub depth: u32,
    /// The frame this one nests in (none for the root computation's).
    pub parent: Option<Weak<FrameState>>,
    pub cancel: CancelToken,
    /// The owner machine's continuation after the parallel call: a copy of
    /// the handle in the machine-level `ParcallFrame`, which keeps its nodes
    /// alive while it is on the owner's control stack. Read by the owner
    /// only — a handle means nothing on another machine.
    pub cont: Cont,
    /// Owner machine (trail, heap) marks at frame creation — the undo
    /// point when a redo wave must also re-run the inline branch.
    pub created_at: (TrailMark, HeapMark),
    pub inner: Mutex<FrameInner>,
}

impl FrameState {
    /// The engine state attached to a machine-level parcall frame.
    pub fn of(pf: &ParcallFrame) -> Option<&Arc<FrameState>> {
        pf.ext.as_ref()?.downcast_ref::<Arc<FrameState>>()
    }

    /// The engine's verdict on a parcall frame for [`Machine::determinate`]:
    /// it is integrated and can give no further solution.
    pub fn determinate(pf: &ParcallFrame) -> bool {
        FrameState::of(pf).is_some_and(|f| f.fully_deterministic())
    }

    /// Can LPCO grow this frame from its inline branch? It must still be
    /// collecting slots (`Ready` re-opens when slots are appended), and
    /// its owner must run an inline branch: a promoted record has none.
    pub fn has_spine(&self) -> bool {
        let inner = self.inner.lock();
        matches!(inner.stage, FrameStage::Filling | FrameStage::Ready) && inner.inline.is_some()
    }

    /// Build a frame for `branches` (terms in `parent_heap`). The branches
    /// `local` says the owner holds need no goal-shipping copy; the others
    /// are copied into a shared closure bundle for pickup when `ship_now`.
    /// Returns the frame and the number of cells copied.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        id: u64,
        parent_heap: &Heap,
        branches: &[Cell],
        parent: Option<&Arc<FrameState>>,
        cancel_parent: &CancelToken,
        local: Local,
        cont: Cont,
        created_at: (TrailMark, HeapMark),
        ship_now: bool,
    ) -> (Arc<FrameState>, usize) {
        let n = branches.len();
        let shippable = local.shippable(n);
        let to_ship = &branches[shippable.clone()];
        // Demand-driven goal shipping: closures are only copied when idle
        // workers could actually steal them; otherwise goals stay owner-
        // local (copied later on demand, or never — PDO runs them in
        // place).
        let (bundle, cells) = if ship_now {
            let (bundle, cells) = bundle_copy(parent_heap, to_ship);
            (Some(bundle), cells)
        } else {
            (None, 0)
        };
        // A slot the owner holds needs no closure: its goal lives in (and
        // its solution binds) the parent heap directly.
        let slots: Vec<SlotRec> = branches
            .iter()
            .enumerate()
            .map(|(i, &pg)| SlotRec {
                closure: match &bundle {
                    Some(b) if shippable.contains(&i) => Some(b.closure(i - shippable.start)),
                    _ => None,
                },
                parent_goal: Some(pg),
                state: if shippable.contains(&i) {
                    SlotState::Unclaimed
                } else if matches!(local, Local::Prefix(k) if i < k) {
                    SlotState::Done
                } else {
                    SlotState::Running
                },
                group: None,
                origin: None,
                owner_run: matches!(local, Local::Prefix(k) if i < k),
                spec_failed: false,
                materialized: false,
            })
            .collect();
        let inline = (local == Local::Last).then(|| n - 1);
        let pending = match local {
            Local::Last => n - 1,
            Local::Prefix(k) => n - k,
        };
        let frame = FrameState {
            id,
            depth: parent.map_or(1, |p| p.depth + 1),
            parent: parent.map(Arc::downgrade),
            cancel: cancel_parent.child(),
            cont,
            created_at,
            inner: Mutex::new(FrameInner {
                slots,
                groups: BTreeMap::new(),
                stage: FrameStage::Filling,
                pending,
                integrate_from: 0,
                marks: vec![None; n],
                inline,
                inline_nondet: false,
                spine: None,
                inline_end: None,
                passable: false,
            }),
        };
        (Arc::new(frame), cells)
    }

    /// Claim an unclaimed slot for OWNER-direct (PDO) execution: like
    /// [`FrameState::claim`], but skips slots whose speculation already
    /// failed (nondeterministic — they must ship normally).
    pub fn claim_for_owner(&self) -> Option<usize> {
        let mut inner = self.inner.lock();
        if inner.stage != FrameStage::Filling {
            return None;
        }
        // Cross-machine LPCO slots (materialized parent goals) ship via
        // their closures: their parent-side terms live above integration
        // marks and may be unwound by redo waves, so they are never
        // owner-run. Inline-merged slots' goals live on the owner's own
        // spine (below any choice point) and are safe to run directly.
        let idx = inner.slots.iter().position(|s| {
            s.state == SlotState::Unclaimed
                && !s.spec_failed
                && !s.materialized
                && s.parent_goal.is_some()
        })?;
        inner.slots[idx].state = SlotState::Running;
        Some(idx)
    }

    /// Claim an unclaimed slot: `preferred` first (PDO adjacency), else the
    /// lowest-index unclaimed slot. Returns the claimed index.
    pub fn claim(&self, preferred: Option<usize>) -> Option<usize> {
        let mut inner = self.inner.lock();
        if inner.stage != FrameStage::Filling {
            return None;
        }
        if let Some(p) = preferred {
            if inner
                .slots
                .get(p)
                .is_some_and(|s| s.state == SlotState::Unclaimed && s.closure.is_some())
            {
                inner.slots[p].state = SlotState::Running;
                return Some(p);
            }
            return None;
        }
        let idx = inner
            .slots
            .iter()
            .position(|s| s.state == SlotState::Unclaimed && s.closure.is_some())?;
        inner.slots[idx].state = SlotState::Running;
        Some(idx)
    }

    /// Indices of unclaimed slots that have no shipping closure yet.
    pub fn unshipped(&self) -> Vec<usize> {
        self.inner
            .lock()
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.state == SlotState::Unclaimed && s.closure.is_none() && s.parent_goal.is_some()
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Install shipping closures for `idxs` (copied by the owner from its
    /// own heap into `bundle`, whose roots parallel `idxs`).
    pub fn install_closures(&self, idxs: &[usize], bundle: Bundle) {
        let mut inner = self.inner.lock();
        for (k, &i) in idxs.iter().enumerate() {
            let s = &mut inner.slots[i];
            if s.state == SlotState::Unclaimed && s.closure.is_none() {
                s.closure = Some(bundle.closure(k));
            }
        }
    }

    /// Is this frame's wave complete (stage Ready) / failed?
    pub fn stage(&self) -> FrameStage {
        self.inner.lock().stage
    }

    /// Mark the frame failed (inside backtracking) and cancel all of its
    /// running subgoal executions and nested frames.
    pub fn fail(&self) {
        let mut inner = self.inner.lock();
        if inner.stage != FrameStage::Failed {
            inner.stage = FrameStage::Failed;
            self.cancel.cancel();
        }
    }

    /// Is this (integrated) frame incapable of producing further
    /// solutions? True when every group is exhausted — the refined
    /// determinacy test for subgoals whose nested parallel calls were
    /// themselves deterministic.
    pub fn fully_deterministic(&self) -> bool {
        let inner = self.inner.lock();
        inner.stage == FrameStage::Integrated && inner.groups.values().all(|g| g.exhausted)
    }

    /// Is this frame nested, at any depth, in `ancestor`?
    pub fn descends_from(&self, ancestor: &FrameState) -> bool {
        let mut up = self.parent.as_ref().and_then(Weak::upgrade);
        while let Some(f) = up {
            if f.id == ancestor.id {
                return true;
            }
            up = f.parent.as_ref().and_then(Weak::upgrade);
        }
        false
    }

    /// Number of live (non-dropped) slots — the frame's width. LPCO grows
    /// this instead of nesting new frames.
    pub fn width(&self) -> usize {
        self.inner
            .lock()
            .slots
            .iter()
            .filter(|s| s.state != SlotState::Dropped)
            .count()
    }
}

impl std::fmt::Debug for FrameState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameState")
            .field("id", &self.id)
            .field("depth", &self.depth)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_logic::sym::sym as s;
    use ace_logic::term::variables;

    #[test]
    fn bundle_copy_preserves_shared_vars() {
        let mut h = Heap::new();
        let x = h.new_var();
        let g1 = h.new_struct(s("p"), &[x, Cell::Int(1)]);
        let g2 = h.new_struct(s("q"), &[x]);
        let (b, cells) = bundle_copy(&h, &[g1, g2]);
        assert!(cells > 0);
        assert_eq!(b.roots.len(), 2);
        let v1 = variables(&b.heap, b.roots[0]);
        let v2 = variables(&b.heap, b.roots[1]);
        assert_eq!(v1, v2, "shared variable stays shared across the bundle");
        // A closure is frozen: room for the cells copied, none for a trail.
        assert_eq!(b.heap.len(), cells);
        assert_eq!(b.heap.reserved(), (cells, 0));
    }

    #[test]
    fn frame_create_and_claim_in_order() {
        let mut h = Heap::new();
        let g1 = Cell::Atom(s("a"));
        let g2 = h.new_struct(s("p"), &[Cell::Int(1)]);
        let g3 = Cell::Atom(s("c"));
        let root = CancelToken::new();
        let (f, _) = FrameState::create(
            1,
            &h,
            &[g1, g2, g3],
            None,
            &root,
            Local::Last,
            Cont::NONE,
            (h.trail_mark(), h.heap_mark()),
            true,
        );
        assert_eq!(f.width(), 3);
        assert_eq!(f.claim(None), Some(0));
        assert_eq!(f.claim(None), Some(1));
        assert_eq!(f.claim(None), None, "the last branch runs inline");
    }

    #[test]
    fn a_promoted_prefix_is_owner_run_and_the_rest_ships() {
        let h = Heap::new();
        let goals = [Cell::Atom(s("a")), Cell::Atom(s("b")), Cell::Atom(s("c"))];
        let root = CancelToken::new();
        let (f, _) = FrameState::create(
            1,
            &h,
            &goals,
            None,
            &root,
            Local::Prefix(1),
            Cont::NONE,
            (h.trail_mark(), h.heap_mark()),
            true,
        );
        {
            let inner = f.inner.lock();
            let states: Vec<_> = inner
                .slots
                .iter()
                .map(|sl| (sl.state, sl.owner_run))
                .collect();
            assert_eq!(
                states,
                [
                    (SlotState::Done, true),
                    (SlotState::Running, false),
                    (SlotState::Unclaimed, false)
                ]
            );
            assert_eq!(inner.pending, 2, "the running goal and the unstarted one");
            assert_eq!(inner.inline, None);
        }
        assert_eq!(f.claim(None), Some(2));
        assert_eq!(f.claim(None), None);
    }

    #[test]
    fn claim_preferred_respects_state() {
        let mut h = Heap::new();
        let g1 = h.new_struct(s("p"), &[Cell::Int(1)]);
        let g2 = h.new_struct(s("p"), &[Cell::Int(2)]);
        let g3 = Cell::Atom(s("c"));
        let root = CancelToken::new();
        let (f, _) = FrameState::create(
            1,
            &h,
            &[g1, g2, g3],
            None,
            &root,
            Local::Last,
            Cont::NONE,
            (h.trail_mark(), h.heap_mark()),
            true,
        );
        assert_eq!(f.claim(Some(1)), Some(1));
        assert_eq!(f.claim(Some(1)), None, "already claimed");
        assert_eq!(f.claim(None), Some(0));
    }

    #[test]
    fn fail_cancels_descendants() {
        let mut h = Heap::new();
        let g = h.new_struct(s("p"), &[Cell::Int(1)]);
        let root = CancelToken::new();
        let (f, _) = FrameState::create(
            1,
            &h,
            &[g],
            None,
            &root,
            Local::Last,
            Cont::NONE,
            (h.trail_mark(), h.heap_mark()),
            true,
        );
        let slot_token = f.cancel.child();
        f.fail();
        assert!(slot_token.is_cancelled());
        assert!(!root.is_cancelled(), "parent token unaffected");
        assert_eq!(f.stage(), FrameStage::Failed);
        assert_eq!(f.claim(None), None, "failed frame hands out no work");
    }
}
