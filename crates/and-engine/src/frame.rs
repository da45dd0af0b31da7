//! Shared parcall-frame orchestration state.
//!
//! A [`FrameState`] is the cross-worker view of one machine-level
//! `ParcallFrame`: the slot table, solution bundles, grouping (PDO),
//! LPCO-added slots, and the integration bookkeeping the owning worker
//! uses to splice subgoal solutions back into the parent computation.
//! A *bundle* is a joint [`TermArena`] of goals or solutions; a slot's
//! goal is root `i` of one, `(arena, i)`.
//!
//! The slot table is private here: each step a worker takes on it is one
//! `FrameState` method (a *wave transition*, under the frame lock) that
//! returns what the worker charges or does next. The wave rule, LPCO's
//! appends, PDO's groups and the redo plan are said once, in this module.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Weak};

use ace_logic::heap::HeapMark;
use ace_logic::unify::unify;
use ace_logic::{Cell, Heap, TermArena, TrailMark};
use ace_machine::{Cont, CtrlFrame, Machine, ParcallFrame};
use ace_runtime::CancelToken;
use parking_lot::Mutex;

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
struct SlotRec {
    /// The subgoal term to execute, once frozen for shipping: argument `i`
    /// of a bundle. A slot without one is owner-only until the owner ships
    /// its goal on demand (when idle workers appear) — &ACE-style local
    /// goals.
    closure: Option<(Arc<TermArena>, usize)>,
    /// The subgoal term in the *parent* machine's heap, unified with the
    /// solution at integration. `None` for LPCO-added slots until the
    /// integration of their origin slot materializes it.
    parent_goal: Option<Cell>,
    state: SlotState,
    /// Leader slot index of the group executing this slot.
    group: Option<usize>,
    /// For LPCO-added slots: the slot whose merge created this one.
    origin: Option<usize>,
    /// Executed directly on the owner's machine (PDO): its bindings live
    /// in the parent heap below every integration mark, so a redo wave
    /// that resets it must unwind to the frame's creation marks.
    owner_run: bool,
    /// A PDO speculation already ran this slot and found it
    /// nondeterministic: never speculate on it again.
    spec_failed: bool,
    /// `parent_goal` was materialized by an integration (cross-machine
    /// LPCO) — it dies with that integration's cells and must be nulled
    /// whenever integrations are redone. Inline-merged goals (created
    /// below any spine choice point) stay valid across re-arrivals.
    materialized: bool,
}

impl SlotRec {
    /// The one slot constructor: in no group yet, never speculated on. A
    /// slot made `Done` is one the owner ran in place.
    fn new(
        ship: Option<(Arc<TermArena>, usize)>,
        goal: Option<Cell>,
        state: SlotState,
        origin: Option<usize>,
    ) -> Self {
        SlotRec {
            closure: ship,
            parent_goal: goal,
            state,
            group: None,
            origin,
            owner_run: state == SlotState::Done,
            spec_failed: false,
            materialized: false,
        }
    }
}

/// A group of consecutively-executed slots (always a single slot unless
/// PDO merged neighbours onto one machine).
#[derive(Debug, Default)]
struct GroupRec {
    /// Member slot indices, ascending and consecutive.
    slots: Vec<usize>,
    /// Resumable generator: kept while the group is nondeterministic and
    /// free of nested parcall frames (plain choice points only).
    machine: Option<Box<Machine>>,
    /// Latest solution bundle; roots `[0..slots.len())` are the solved
    /// instances of the member slots in order, further roots are
    /// LPCO-added branch goals (see `extra`).
    bundle: Option<Arc<TermArena>>,
    /// Machine-heap cells of the shipped goals (bundle extraction roots)
    /// in the generator machine, when one is kept.
    goal_cells: Vec<Cell>,
    /// `(added_slot_idx, bundle_root_idx)` for LPCO-added branch goals.
    extra: Vec<(usize, usize)>,
    /// Nondeterministic but contained nested parcall frames: further
    /// solutions are obtained by (sequential) recomputation.
    recompute: bool,
    /// Solutions delivered to the parent so far (recomputation skip count).
    solutions_delivered: u64,
    /// Known to have no further solutions.
    exhausted: bool,
}

/// Lifecycle of a frame's current wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrameStage {
    /// Slots of the current wave are still being solved.
    #[default]
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
#[derive(Debug, Default)]
struct FrameInner {
    slots: Vec<SlotRec>,
    /// Groups keyed by leader slot index (ordered for right-to-left scans).
    groups: BTreeMap<usize, GroupRec>,
    stage: FrameStage,
    /// Slots of the current wave still lacking a solution (the inline slot
    /// is never counted — its completion is the owner's own Solution).
    pending: usize,
    /// First slot whose integration must (re)run in the next integration.
    integrate_from: usize,
    /// Per-slot parent (trail, heap) marks recorded at integration time.
    marks: Vec<Option<(TrailMark, HeapMark)>>,
    /// The slot executed inline on the owner's machine (&ACE model: the
    /// rightmost branch runs locally, needs no marker, no goal shipping
    /// and no integration — its bindings land in the parent heap
    /// directly).
    inline: Option<usize>,
    /// The inline branch left a choice point when it reached the barrier:
    /// by the time backtracking reaches the frame they are exhausted and
    /// its bindings partly undone, so a redo wave must run it again.
    inline_nondet: bool,
    /// Where the inline branch goes on after its last LPCO merge: the goal
    /// it continued with and the parent's (trail, heap) marks there. A redo
    /// wave that advances a merged slot re-runs the branch from here — the
    /// merged slots belong to the part before it.
    spine: Option<(Cell, TrailMark, HeapMark)>,
    /// Parent (trail, heap) marks when the inline branch reached the
    /// barrier: owner-run slots and integrations all lie above them.
    inline_end: Option<(TrailMark, HeapMark)>,
    /// This frame lies in the determinate inline branch or owner-run slot
    /// of an enclosing frame, whose redo keeps that branch's bindings:
    /// exhausted without ever having had an alternative, it is passed, not
    /// undone.
    passable: bool,
}

impl FrameInner {
    /// The wave rule: a frame collecting slots is `Ready` once its last
    /// counted slot has finished.
    fn settle(&mut self) {
        if self.pending == 0 && self.stage == FrameStage::Filling {
            self.stage = FrameStage::Ready;
        }
    }

    /// LPCO: append a slot per `(closure, parent goal)`, made by a merge in
    /// slot `origin` (a redo that re-runs `origin` drops them). They join
    /// the current wave, so a `Ready` frame fills again.
    fn append(
        &mut self,
        goals: impl Iterator<Item = (Option<(Arc<TermArena>, usize)>, Option<Cell>)>,
        origin: usize,
    ) -> Range<usize> {
        let base = self.slots.len();
        for (closure, goal) in goals {
            let slot = SlotRec::new(closure, goal, SlotState::Unclaimed, Some(origin));
            self.slots.push(slot);
            self.marks.push(None);
            self.pending += 1;
        }
        if self.stage == FrameStage::Ready {
            self.stage = FrameStage::Filling;
        }
        base..self.slots.len()
    }

    /// Claim an unclaimed slot `ok` accepts: `preferred` only when given,
    /// else the lowest-index one.
    fn claim(&mut self, preferred: Option<usize>, ok: fn(&SlotRec) -> bool) -> Option<usize> {
        if self.stage != FrameStage::Filling {
            return None;
        }
        let claimable = |s: &SlotRec| s.state == SlotState::Unclaimed && ok(s);
        let idx = match preferred {
            Some(p) if self.slots.get(p).is_some_and(claimable) => p,
            Some(_) => return None,
            None => self.slots.iter().position(claimable)?,
        };
        self.slots[idx].state = SlotState::Running;
        Some(idx)
    }

    /// Every integration was undone: redo them all from the first, drop the
    /// parent goals they materialized (the origin's re-integration makes
    /// them again), and put the owner-run slots, whose bindings went with
    /// them, up for another run. Adds the ones that ship to `rerun`.
    fn redo_integrations(&mut self, rerun: &mut Vec<usize>) {
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

    /// Integrated, and no group has another solution: the refined
    /// determinacy test for subgoals whose nested parallel calls were
    /// themselves deterministic.
    fn fully_deterministic(&self) -> bool {
        self.stage == FrameStage::Integrated && self.groups.values().all(|g| g.exhausted)
    }

    /// The wave count (debug builds, after every transition): while the
    /// wave is live, `pending` is the number of non-inline slots still
    /// unclaimed or running.
    fn check(&self) {
        let live = !matches!(self.stage, FrameStage::Failed | FrameStage::Exhausted);
        if cfg!(debug_assertions) && live {
            let open = |(i, s): (usize, &SlotRec)| {
                Some(i) != self.inline
                    && matches!(s.state, SlotState::Unclaimed | SlotState::Running)
            };
            let open = self.slots.iter().enumerate().filter(|&x| open(x)).count();
            debug_assert_eq!(self.pending, open, "wave count of a {:?} frame", self.stage);
        }
    }
}

/// What the redo scan of an integrated frame found ([`FrameState::redo`]).
pub enum Redo {
    /// No group can advance. `pass` when the call never had an alternative
    /// and lies in a determinate branch the owner ran itself.
    Exhausted { pass: bool },
    /// Resume group `leader`'s kept generator (its goals at `goal_cells`).
    Generator {
        leader: usize,
        machine: Box<Machine>,
        goal_cells: Vec<Cell>,
    },
    /// Recompute group `leader` from `goals`, skipping `skip` solutions.
    Recompute {
        leader: usize,
        skip: u64,
        goals: Vec<(Arc<TermArena>, usize)>,
    },
}

/// What a redo wave does next: see [`FrameState::advance`].
pub type RedoPlan = ((TrailMark, HeapMark), Option<Cell>, Vec<usize>);

/// Cross-worker state of one parallel call.
pub struct FrameState {
    pub id: u64,
    /// The frame this one nests in (none for the root computation's).
    parent: Option<Weak<FrameState>>,
    pub cancel: CancelToken,
    /// The owner machine's continuation after the parallel call: a copy of
    /// the handle in the machine-level `ParcallFrame`, which keeps its nodes
    /// alive while it is on the owner's control stack. Read by the owner
    /// only — a handle means nothing on another machine.
    pub cont: Cont,
    /// Owner machine (trail, heap) marks at frame creation — the undo
    /// point when a redo wave must also re-run the inline branch.
    created_at: (TrailMark, HeapMark),
    inner: Mutex<FrameInner>,
}

impl FrameState {
    /// The engine state attached to a machine-level parcall frame.
    pub fn of(pf: &ParcallFrame) -> Option<&Arc<FrameState>> {
        pf.ext.as_ref()?.downcast_ref::<Arc<FrameState>>()
    }

    /// The engine's verdict on a parcall frame for [`Machine::determinate`]:
    /// it is integrated and can give no further solution.
    pub fn determinate(pf: &ParcallFrame) -> bool {
        FrameState::of(pf).is_some_and(|f| f.inner.lock().fully_deterministic())
    }

    /// Can LPCO grow this frame from its inline branch? It must still be
    /// collecting slots (`Ready` re-opens when slots are appended), and
    /// its owner must run an inline branch: a promoted record has none.
    pub fn has_spine(&self) -> bool {
        let inner = self.inner.lock();
        matches!(inner.stage, FrameStage::Filling | FrameStage::Ready) && inner.inline.is_some()
    }

    /// Build a frame for `branches` (terms in the parent heap). The
    /// branches `local` says the owner holds need no goal-shipping copy;
    /// `shipped`, when given, is the bundle of the others, frozen for
    /// pickup in order.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        id: u64,
        branches: &[Cell],
        parent: Option<&Arc<FrameState>>,
        cancel_parent: &CancelToken,
        local: Local,
        cont: Cont,
        created_at: (TrailMark, HeapMark),
        shipped: Option<Arc<TermArena>>,
    ) -> Arc<FrameState> {
        let n = branches.len();
        let shippable = local.shippable(n);
        // A slot the owner holds needs no closure: its goal lives in (and
        // its solution binds) the parent heap directly.
        let slots: Vec<SlotRec> = branches
            .iter()
            .enumerate()
            .map(|(i, &pg)| {
                let ships = shippable.contains(&i);
                let owner_run = matches!(local, Local::Prefix(k) if i < k);
                let closure =
                    (shipped.as_ref().filter(|_| ships)).map(|b| (b.clone(), i - shippable.start));
                let state = match (ships, owner_run) {
                    (true, _) => SlotState::Unclaimed,
                    (_, true) => SlotState::Done,
                    _ => SlotState::Running,
                };
                SlotRec::new(closure, Some(pg), state, None)
            })
            .collect();
        let inline = (local == Local::Last).then(|| n - 1);
        let pending = match local {
            Local::Last => n - 1,
            Local::Prefix(k) => n - k,
        };
        let frame = FrameState {
            id,
            parent: parent.map(Arc::downgrade),
            cancel: cancel_parent.child(),
            cont,
            created_at,
            inner: Mutex::new(FrameInner {
                slots,
                pending,
                marks: vec![None; n],
                inline,
                ..FrameInner::default()
            }),
        };
        frame.inner.lock().check();
        Arc::new(frame)
    }

    /// Run one wave transition under the frame lock; debug builds then
    /// check the wave count.
    fn wave<R>(&self, step: impl FnOnce(&mut FrameInner) -> R) -> R {
        let mut inner = self.inner.lock();
        let out = step(&mut inner);
        inner.check();
        out
    }

    /// Claim a slot for OWNER-direct (PDO) execution, skipping those whose
    /// speculation already failed (they must ship). Returns the slot and
    /// its goal in the owner's heap.
    pub fn claim_for_owner(&self) -> Option<(usize, Cell)> {
        let mut inner = self.inner.lock();
        // Cross-machine LPCO slots (materialized parent goals) ship via
        // their closures: their parent-side terms live above integration
        // marks and may be unwound by redo waves, so they are never
        // owner-run. Inline-merged slots' goals live on the owner's own
        // spine (below any choice point) and are safe to run directly.
        let ok = |s: &SlotRec| !s.spec_failed && !s.materialized && s.parent_goal.is_some();
        let idx = inner.claim(None, ok)?;
        Some((idx, inner.slots[idx].parent_goal?))
    }

    /// Claim an unclaimed slot: `preferred` first (PDO adjacency), else the
    /// lowest-index unclaimed slot. Returns the claimed index.
    pub fn claim(&self, preferred: Option<usize>) -> Option<usize> {
        self.inner.lock().claim(preferred, |s| s.closure.is_some())
    }

    /// Ship the goals of unclaimed slots without a closure, as the bundle
    /// `freeze` makes of them (terms of the owner's heap). Returns those
    /// slots and the cells frozen.
    pub fn ship_local(&self, freeze: impl FnOnce(&[Cell]) -> TermArena) -> (Vec<usize>, usize) {
        let mut inner = self.inner.lock();
        let (slots, goals): (Vec<usize>, Vec<Cell>) = (inner.slots.iter().enumerate())
            .filter(|(_, s)| s.state == SlotState::Unclaimed && s.closure.is_none())
            .filter_map(|(i, s)| Some((i, s.parent_goal?)))
            .unzip();
        if slots.is_empty() {
            return (slots, 0);
        }
        let bundle = Arc::new(freeze(&goals));
        for (k, &i) in slots.iter().enumerate() {
            inner.slots[i].closure = Some((bundle.clone(), k));
        }
        (slots, bundle.len())
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

    /// The frames from control index `from` of `machine` up lie in a
    /// determinate branch the owner ran itself (see `FrameInner::passable`).
    pub fn mark_passable(machine: &Machine, from: usize) {
        for f in &machine.ctrl_frames()[from..] {
            if let CtrlFrame::Parcall(pf) = f {
                if let Some(fs) = FrameState::of(pf) {
                    fs.inner.lock().passable = true;
                }
            }
        }
    }

    /// Group start: `slot`, claimed, leads a new group. Returns its goal.
    pub fn start_group(&self, slot: usize) -> (Arc<TermArena>, usize) {
        self.wave(|w| {
            let mut group = GroupRec::default();
            group.slots.push(slot);
            w.groups.insert(slot, group);
            let sl = &mut w.slots[slot];
            sl.group = Some(slot);
            sl.closure.clone().expect("claimed slot without closure")
        })
    }

    /// PDO extension: claim the slot after group `leader`'s last member
    /// and join it to the group. Returns its goal.
    pub fn extend_group(&self, leader: usize) -> Option<(Arc<TermArena>, usize)> {
        self.wave(|w| {
            let next = w.groups[&leader].slots.last().unwrap() + 1;
            let next = w.claim(Some(next), |s| s.closure.is_some())?;
            w.slots[next].group = Some(leader);
            w.groups.get_mut(&leader).unwrap().slots.push(next);
            w.slots[next].closure.clone()
        })
    }

    /// Inline LPCO merge: the inline branch's last `&` adds `shipped` as
    /// slots (their goals from `bundle`, if frozen) and goes on from `spine`
    /// (its last goal, the parent's marks there). Returns the new slots.
    pub fn merge_inline(
        &self,
        shipped: &[Cell],
        bundle: Option<&Arc<TermArena>>,
        spine: (Cell, TrailMark, HeapMark),
    ) -> Range<usize> {
        self.wave(|w| {
            let origin = w.inline.expect("inline chain without inline slot");
            let goals = (shipped.iter().enumerate())
                .map(|(i, &goal)| (bundle.map(|b| (b.clone(), i)), Some(goal)));
            let added = w.append(goals, origin);
            w.spine = Some(spine);
            added
        })
    }

    /// Inline arrival at the barrier, the parent at `end`; `nondet` if a
    /// choice point is left. A re-arrival's backtracking undid every
    /// integration. Returns the owner-run slots to publish again.
    pub fn arrive(&self, rearrival: bool, nondet: bool, end: (TrailMark, HeapMark)) -> Vec<usize> {
        self.wave(|w| {
            if let Some(idx) = w.inline {
                w.slots[idx].state = SlotState::Done;
            }
            w.inline_nondet = nondet;
            w.inline_end = Some(end);
            let mut rerun = Vec::new();
            if rearrival {
                w.redo_integrations(&mut rerun);
                if w.stage == FrameStage::Integrated {
                    w.stage = FrameStage::Filling;
                }
            }
            w.settle();
            rerun
        })
    }

    /// Owner-slot commit: the owner ran `slot` in place and determinately;
    /// its bindings are the parent's.
    pub fn owner_slot_done(&self, slot: usize) {
        self.wave(|w| {
            w.slots[slot].state = SlotState::Done;
            w.slots[slot].owner_run = true;
            w.pending -= 1;
            w.settle();
        })
    }

    /// Failed speculation: the owner rolled `slot` back; it ships, and the
    /// wave still waits for it.
    pub fn speculation_failed(&self, slot: usize) {
        self.wave(|w| {
            w.slots[slot].state = SlotState::Unclaimed;
            w.slots[slot].spec_failed = true;
        })
    }

    /// Group finish: `bundle` holds the members' solved goals (at
    /// `goal_cells`), then the goals LPCO merged out, which become slots.
    /// A nondeterministic group without a `generator` is recomputed.
    /// Returns the new slots.
    pub fn finish_group(
        &self,
        leader: usize,
        bundle: Arc<TermArena>,
        goal_cells: Vec<Cell>,
        det: bool,
        generator: Option<Box<Machine>>,
    ) -> Range<usize> {
        self.wave(|w| {
            let members = goal_cells.len();
            let last = *w.groups[&leader].slots.last().unwrap();
            debug_assert_eq!(w.groups[&leader].slots.len(), members);
            let merged = (members..bundle.roots().len()).map(|i| (Some((bundle.clone(), i)), None));
            let added = w.append(merged, last);
            let g = w.groups.get_mut(&leader).unwrap();
            g.extra = added.clone().zip(members..).collect();
            g.bundle = Some(bundle);
            g.goal_cells = goal_cells;
            g.exhausted = det; // deterministic: no further solutions
            g.recompute = !det && generator.is_none();
            g.solutions_delivered = 1;
            g.machine = generator;
            for &s in &g.slots {
                w.slots[s].state = SlotState::Done;
            }
            w.pending -= members;
            w.settle();
            added
        })
    }

    /// Integration: thaw the bundles into the parent `heap`, unify each
    /// member with its goal, and record the undo marks. Returns the cells
    /// copied, unify steps, and `false` if the goals were not independent.
    pub fn integrate(&self, heap: &mut Heap) -> (usize, u64, bool) {
        self.wave(|w| {
            let (mut cells, mut steps) = (0, 0u64);
            for (_, g) in w.groups.range(w.integrate_from..) {
                let bundle = g.bundle.as_ref().expect("ready group without bundle");
                // Record the undo point for this group.
                let mark = (heap.trail_mark(), heap.heap_mark());
                // The whole bundle, spliced into the parent heap: every
                // cell of it is reachable from its tuple.
                let (root, copied) = bundle.thaw(heap);
                let Cell::Str(hdr) = root else {
                    unreachable!("a bundle's root is its tuple")
                };
                cells += copied;
                for (i, &slot) in g.slots.iter().enumerate() {
                    w.marks[slot] = Some(mark);
                    let solved = heap.str_arg(hdr, i as u32);
                    let goal = w.slots[slot]
                        .parent_goal
                        .expect("parent goal not materialized in order");
                    match unify(heap, goal, solved) {
                        Some(n) => steps += n as u64,
                        None => return (cells, steps, false),
                    }
                }
                // Materialize parent-side terms for LPCO-added slots.
                for &(added, root) in &g.extra {
                    w.slots[added].parent_goal = Some(heap.str_arg(hdr, root as u32));
                    w.slots[added].materialized = true;
                    w.marks[added] = Some(mark);
                }
            }
            w.stage = FrameStage::Integrated;
            w.integrate_from = w.slots.len();
            (cells, steps, true)
        })
    }

    /// The right-to-left redo scan for a group with another solution.
    /// Returns what to do and the number of groups visited.
    pub fn redo(&self) -> (Redo, u64) {
        self.wave(|w| {
            let pass = w.fully_deterministic() && w.passable;
            let mut visited = 0;
            for (&leader, g) in w.groups.iter_mut().rev() {
                visited += 1;
                if g.exhausted {
                    continue;
                }
                if let Some(machine) = g.machine.take() {
                    let goal_cells = g.goal_cells.clone();
                    let next = Redo::Generator {
                        leader,
                        machine,
                        goal_cells,
                    };
                    return (next, visited);
                }
                if g.recompute {
                    let goals = (g.slots.iter())
                        .map(|&s| w.slots[s].closure.clone())
                        .collect::<Option<Vec<_>>>()
                        .expect("group member without closure");
                    let skip = g.solutions_delivered;
                    return (
                        Redo::Recompute {
                            leader,
                            skip,
                            goals,
                        },
                        visited,
                    );
                }
                // det group: cannot advance
                g.exhausted = true;
            }
            w.stage = FrameStage::Exhausted;
            (Redo::Exhausted { pass }, visited)
        })
    }

    /// Group exhausted: `leader` has no further solution.
    pub fn group_exhausted(&self, leader: usize) {
        self.wave(|w| {
            let g = w.groups.get_mut(&leader).unwrap();
            g.exhausted = true;
            g.machine = None;
        })
    }

    /// The redo plan once group `leader` gave `bundle` (its generator
    /// `kept` again, if any): the slots right of it rejoin the wave.
    /// Returns the parent's undo point, the inline branch goal to re-run if
    /// any, and the slots to publish.
    pub fn advance(
        &self,
        leader: usize,
        bundle: Arc<TermArena>,
        kept: Option<Box<Machine>>,
    ) -> RedoPlan {
        self.wave(|w| {
            let group_last = *w.groups[&leader].slots.last().unwrap();
            // If the inline slot lies right of the advanced group, its
            // branch must re-run too; its bindings predate every
            // integration, so the undo point is the frame's creation. A
            // nondeterministic inline branch left of it is exhausted by
            // now: it re-runs from where it went on after the merges that
            // made the advanced group's slots (they lie left of the rest
            // of it), or whole if there were none.
            let spine = w.spine.filter(|_| w.inline.is_some_and(|i| i < group_last));
            let rerun_inline = w
                .inline
                .is_some_and(|i| i > group_last || (w.inline_nondet && spine.is_none()));
            let rerun_spine = !rerun_inline && w.inline_nondet && spine.is_some();
            let owner_reset =
                w.slots.iter().enumerate().any(|(i, sl)| {
                    i > group_last && sl.owner_run && sl.state != SlotState::Dropped
                });
            // Inline and owner-executed bindings predate every integration
            // mark: resetting them needs an earlier undo point — the
            // frame's creation, the spine's restart, or (owner-run slots
            // only, the inline branch intact) where the inline branch ended.
            let deep_undo = rerun_inline || rerun_spine || owner_reset;
            let undo = match spine {
                _ if rerun_inline => self.created_at,
                Some((_, t, h)) if rerun_spine => (t, h),
                _ if owner_reset => w.inline_end.unwrap_or(self.created_at),
                _ => w.marks[leader].expect("advanced group not integrated"),
            };

            let g = w.groups.get_mut(&leader).unwrap();
            g.bundle = Some(bundle);
            g.solutions_delivered += 1;
            g.machine = kept;

            // Reset everything to the right of the advanced group.
            let mut publish = Vec::new();
            w.pending = 0;
            for s in group_last + 1..w.slots.len() {
                let sl = &mut w.slots[s];
                if sl.state == SlotState::Dropped {
                    continue;
                }
                w.marks[s] = None;
                if Some(s) == w.inline {
                    // the owner machine re-runs this branch itself
                    sl.state = SlotState::Running;
                    continue;
                }
                if let Some(gl) = sl.group.take() {
                    w.groups.remove(&gl);
                }
                // LPCO-added slots whose origin also reruns will be
                // re-created by that rerun: drop them.
                if sl.origin.is_some_and(|o| o > group_last) {
                    sl.state = SlotState::Dropped;
                    continue;
                }
                sl.state = SlotState::Unclaimed;
                sl.owner_run = false;
                w.pending += 1;
                if sl.closure.is_some() {
                    publish.push(s);
                }
            }
            if deep_undo {
                // every integration was undone, and the owner-run slots
                // left of the advanced group lost their bindings to it
                w.redo_integrations(&mut publish);
            }
            let mut rerun = None;
            if rerun_inline || rerun_spine {
                let idx = w.inline.unwrap();
                w.slots[idx].state = SlotState::Running;
                w.marks[idx] = None;
                rerun = if rerun_spine {
                    spine.map(|(goal, ..)| goal)
                } else {
                    w.spine = None;
                    w.slots[idx].parent_goal
                };
            } else if !deep_undo {
                w.integrate_from = leader;
            }
            w.stage = FrameStage::Filling;
            w.settle();
            (undo, rerun, publish)
        })
    }
}

impl std::fmt::Debug for FrameState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameState")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_logic::sym::sym as s;

    /// `roots`, terms of `h`, frozen jointly for pickup.
    fn bundle(h: &Heap, roots: &[Cell]) -> Arc<TermArena> {
        Arc::new(TermArena::freeze_tuple(h, s("$bundle"), roots))
    }

    /// A frame over `goals` (terms of `h`), created at `h`'s marks; the
    /// goals `local` leaves to any worker are frozen for pickup when `ship`.
    fn create(h: &Heap, goals: &[Cell], local: Local, ship: bool) -> Arc<FrameState> {
        let shipped = ship.then(|| bundle(h, &goals[local.shippable(goals.len())]));
        let root = CancelToken::new();
        FrameState::create(1, goals, None, &root, local, Cont::NONE, marks(h), shipped)
    }

    #[test]
    fn frame_create_and_claim_in_order() {
        let mut h = Heap::new();
        let g1 = Cell::Atom(s("a"));
        let g2 = h.new_struct(s("p"), &[Cell::Int(1)]);
        let g3 = Cell::Atom(s("c"));
        let f = create(&h, &[g1, g2, g3], Local::Last, true);
        assert_eq!(f.inner.lock().slots.len(), 3);
        assert_eq!(f.claim(None), Some(0));
        assert_eq!(f.claim(None), Some(1));
        assert_eq!(f.claim(None), None, "the last branch runs inline");
    }

    #[test]
    fn a_promoted_prefix_is_owner_run_and_the_rest_ships() {
        let h = Heap::new();
        let goals = [Cell::Atom(s("a")), Cell::Atom(s("b")), Cell::Atom(s("c"))];
        let f = create(&h, &goals, Local::Prefix(1), true);
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
        let f = create(&h, &[g1, g2, g3], Local::Last, true);
        assert_eq!(f.claim(Some(1)), Some(1));
        assert_eq!(f.claim(Some(1)), None, "already claimed");
        assert_eq!(f.claim(None), Some(0));
    }

    #[test]
    fn fail_cancels_descendants() {
        let mut h = Heap::new();
        let g = h.new_struct(s("p"), &[Cell::Int(1)]);
        let root = CancelToken::new();
        let f = FrameState::create(
            1,
            &[g],
            None,
            &root,
            Local::Last,
            Cont::NONE,
            marks(&h),
            Some(bundle(&h, &[])),
        );
        let slot_token = f.cancel.child();
        f.fail();
        assert!(slot_token.is_cancelled());
        assert!(!root.is_cancelled(), "parent token unaffected");
        assert_eq!(f.stage(), FrameStage::Failed);
        assert_eq!(f.claim(None), None, "failed frame hands out no work");
    }

    // The wave rules on plain heaps: no machine runs, a goal is an atom.

    /// A frame over the atoms `names`, created at `h`'s marks.
    fn frame_of(h: &Heap, names: &[&str], local: Local, ship: bool) -> Arc<FrameState> {
        let goals: Vec<Cell> = names.iter().map(|n| Cell::Atom(s(n))).collect();
        create(h, &goals, local, ship)
    }

    fn marks(h: &Heap) -> (TrailMark, HeapMark) {
        (h.trail_mark(), h.heap_mark())
    }

    /// Claim `slot` and finish it as a group of its own, with the goals
    /// `merged` LPCO took out of it: determinate, or to be recomputed.
    fn solve(f: &FrameState, slot: usize, det: bool, merged: &[&str]) -> Range<usize> {
        assert_eq!(f.claim(Some(slot)), Some(slot));
        finish(f, slot, det, merged)
    }

    /// Finish the claimed `slot` as [`solve`] does.
    fn finish(f: &FrameState, slot: usize, det: bool, merged: &[&str]) -> Range<usize> {
        let (goal, i) = f.start_group(slot);
        let mut h = Heap::new();
        let mut roots = vec![goal.copy_out(i, &mut h).root];
        roots.extend(merged.iter().map(|n| Cell::Atom(s(n))));
        f.finish_group(slot, bundle(&h, &roots), vec![roots[0]], det, None)
    }

    /// Integrate `f` into `h`, then advance the group the redo scan picks.
    /// Returns that group and the redo plan.
    fn redo_wave(f: &FrameState, h: &mut Heap) -> (usize, RedoPlan) {
        assert!(f.integrate(h).2, "atoms unify with themselves");
        let (Redo::Recompute { leader, .. }, _) = f.redo() else {
            panic!("no group to recompute")
        };
        let again = bundle(h, &[Cell::Atom(s("again"))]);
        (leader, f.advance(leader, again, None))
    }

    fn states(f: &FrameState) -> Vec<SlotState> {
        f.inner.lock().slots.iter().map(|sl| sl.state).collect()
    }

    #[test]
    fn ready_only_when_the_last_counted_slot_finishes() {
        let h = Heap::new();
        let f = frame_of(&h, &["a", "b", "c"], Local::Last, true);
        solve(&f, 1, true, &[]);
        assert_eq!(f.stage(), FrameStage::Filling, "slot 0 still pending");
        solve(&f, 0, true, &[]);
        assert_eq!(
            f.stage(),
            FrameStage::Ready,
            "the inline slot is not counted"
        );
        assert!(f.arrive(false, false, marks(&h)).is_empty());
        assert_eq!(f.stage(), FrameStage::Ready);
    }

    #[test]
    fn an_append_reopens_a_ready_frame() {
        let mut h = Heap::new();
        let f = frame_of(&h, &["a", "b"], Local::Last, true);
        solve(&f, 0, true, &[]);
        assert_eq!(f.stage(), FrameStage::Ready);
        let x = h.new_struct(s("x"), &[Cell::Int(1)]);
        let shipped = bundle(&h, &[x]);
        let spine = (Cell::Atom(s("y")), h.trail_mark(), h.heap_mark());
        assert_eq!(f.merge_inline(&[x], Some(&shipped), spine), 2..3);
        assert_eq!(f.stage(), FrameStage::Filling);
        solve(&f, 2, true, &[]);
        assert_eq!(f.stage(), FrameStage::Ready);
    }

    #[test]
    fn a_failed_speculation_stays_pending_and_ships() {
        let h = Heap::new();
        let f = frame_of(&h, &["a", "b", "c"], Local::Last, false);
        assert_eq!(f.claim(None), None, "nothing is shipped yet");
        assert_eq!(f.claim_for_owner(), Some((0, Cell::Atom(s("a")))));
        f.speculation_failed(0);
        assert_eq!(f.inner.lock().pending, 2);
        assert_eq!(f.stage(), FrameStage::Filling);
        assert_eq!(
            f.claim_for_owner(),
            Some((1, Cell::Atom(s("b")))),
            "0 is not retried"
        );
        let (shipped, cells) =
            f.ship_local(|goals| TermArena::freeze_tuple(&h, s("$bundle"), goals));
        assert_eq!((shipped, cells > 0), (vec![0], true), "slot 1 is running");
        assert_eq!(f.claim(None), Some(0));
        f.owner_slot_done(1);
        finish(&f, 0, true, &[]);
        assert_eq!(f.stage(), FrameStage::Ready);
    }

    #[test]
    fn redo_undoes_to_the_advanced_groups_integration_mark() {
        // A promoted record: slot 0 ran on the owner, left of every group.
        let mut h = Heap::new();
        let f = frame_of(&h, &["a", "b", "c"], Local::Prefix(0), true);
        f.owner_slot_done(0);
        solve(&f, 1, true, &[]);
        solve(&f, 2, false, &[]);
        assert_eq!(f.stage(), FrameStage::Ready);
        let created = marks(&h);
        assert!(f.integrate(&mut h).2);
        let mark = f.inner.lock().marks[2].unwrap();
        assert!(mark > created, "group 1 was integrated first");
        let (Redo::Recompute { leader: 2, .. }, 1) = f.redo() else {
            panic!("the rightmost group advances")
        };
        let again = bundle(&h, &[Cell::Atom(s("again"))]);
        let (undo, rerun, publish) = f.advance(2, again, None);
        assert_eq!((undo, rerun, publish), (mark, None, vec![]));
        assert_eq!(f.stage(), FrameStage::Ready, "nothing right of it to rerun");
        assert_eq!(f.inner.lock().integrate_from, 2);
    }

    #[test]
    fn redo_left_of_the_inline_slot_undoes_to_the_frames_creation() {
        let mut h = Heap::new();
        h.new_var();
        let f = frame_of(&h, &["a", "b", "c"], Local::Last, true);
        solve(&f, 0, false, &[]);
        solve(&f, 1, true, &[]);
        f.arrive(false, false, marks(&h));
        let (leader, (undo, rerun, publish)) = redo_wave(&f, &mut h);
        assert_eq!(leader, 0, "group 1 is determinate");
        assert_eq!(undo, f.created_at);
        assert_eq!(rerun, Some(Cell::Atom(s("c"))), "the whole inline branch");
        assert_eq!(publish, [1]);
        use SlotState::*;
        assert_eq!(states(&f), [Done, Unclaimed, Running]);
        assert_eq!(f.stage(), FrameStage::Filling);
    }

    #[test]
    fn redo_of_a_merged_slot_restarts_a_nondeterministic_spine() {
        let mut h = Heap::new();
        let f = frame_of(&h, &["a", "b"], Local::Last, true);
        h.new_var();
        let x = Cell::Atom(s("x"));
        let shipped = bundle(&h, &[x]);
        let spine = (Cell::Atom(s("y")), h.trail_mark(), h.heap_mark());
        f.merge_inline(&[x], Some(&shipped), spine);
        h.new_var();
        f.arrive(false, true, marks(&h));
        solve(&f, 0, true, &[]);
        solve(&f, 2, false, &[]);
        let (leader, (undo, rerun, publish)) = redo_wave(&f, &mut h);
        assert_eq!(leader, 2);
        assert_eq!(undo, (spine.1, spine.2));
        assert!(undo != f.created_at);
        assert_eq!((rerun, publish), (Some(Cell::Atom(s("y"))), vec![]));
        use SlotState::*;
        assert_eq!(states(&f), [Done, Running, Done]);
    }

    #[test]
    fn redo_resetting_only_owner_run_slots_undoes_to_the_inline_end() {
        let mut h = Heap::new();
        let f = frame_of(&h, &["a", "b"], Local::Last, true);
        let goals = [Cell::Atom(s("x")), Cell::Atom(s("z"))];
        let shipped = bundle(&h, &goals);
        let spine = (Cell::Atom(s("y")), h.trail_mark(), h.heap_mark());
        f.merge_inline(&goals, Some(&shipped), spine);
        h.new_var();
        let end = marks(&h);
        f.arrive(false, false, end);
        solve(&f, 0, true, &[]);
        solve(&f, 2, false, &[]);
        assert_eq!(f.claim_for_owner(), Some((3, goals[1])));
        f.owner_slot_done(3);
        assert_eq!(f.stage(), FrameStage::Ready);
        let (leader, (undo, rerun, publish)) = redo_wave(&f, &mut h);
        assert_eq!((leader, undo, rerun), (2, end, None));
        assert_eq!(publish, [3], "the owner-run slot ships");
        let inner = f.inner.lock();
        assert_eq!((inner.pending, inner.integrate_from), (1, 0));
        assert!(
            inner.marks.iter().all(Option::is_none),
            "every integration redone"
        );
    }

    #[test]
    fn redo_drops_the_slots_a_rerun_origin_makes_again() {
        let mut h = Heap::new();
        let f = frame_of(&h, &["a", "b", "c"], Local::Last, true);
        solve(&f, 0, false, &[]);
        assert_eq!(solve(&f, 1, true, &["m"]), 3..4, "slot 1 merged one goal");
        solve(&f, 3, true, &[]);
        f.arrive(false, false, marks(&h));
        assert!(f.integrate(&mut h).2);
        assert_eq!(
            f.inner.lock().slots[3].parent_goal,
            Some(Cell::Atom(s("m")))
        );
        let (Redo::Recompute { leader: 0, .. }, 3) = f.redo() else {
            panic!("groups 3 and 1 are determinate")
        };
        let again = bundle(&h, &[Cell::Atom(s("again"))]);
        let (_, rerun, publish) = f.advance(0, again, None);
        assert_eq!((rerun, publish), (Some(Cell::Atom(s("c"))), vec![1]));
        use SlotState::*;
        assert_eq!(states(&f), [Done, Unclaimed, Running, Dropped]);
        let inner = f.inner.lock();
        assert_eq!(inner.groups.keys().copied().collect::<Vec<_>>(), [0]);
        assert_eq!(inner.pending, 1);
    }
}
