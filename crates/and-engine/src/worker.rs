//! And-parallel worker agents.
//!
//! Each worker cooperates through the shared task queue and the
//! [`FrameState`]s of active parallel calls. A worker maintains a stack of
//! *activations*:
//!
//! * `Run` — driving a machine (the root query or a subgoal group);
//! * `Wait` — the machine below raised a parallel call; the worker helps
//!   with other work until the frame's wave completes, then integrates;
//! * `Advance` — outside backtracking: producing the next solution of one
//!   subgoal group (via its kept generator machine or by recomputation).
//!
//! All engine-side operations charge the [`ace_runtime::CostModel`] so the
//! virtual-time driver sees scheduler and data-structure costs exactly
//! where the paper locates them.

use std::collections::VecDeque;
use std::sync::Arc;

use ace_logic::copy::{copy_term, copy_tuple};
use ace_logic::{CanonKey, Cell, Database};
use ace_machine::{Machine, MachinePool, MarkerKind, Solution, Status};
use ace_runtime::{CancelToken, Engine, EventKind, Step, WorkerCore, QUANTUM};
use parking_lot::Mutex;

use crate::frame::{bundle_copy, FrameInner, FrameStage, FrameState, GroupRec, SlotState};

/// A schedulable unit: one slot of one frame.
#[derive(Clone)]
pub struct Task {
    pub frame: Arc<FrameState>,
    pub slot: usize,
    pub creator: usize,
}

/// The and-engine's share of a run's state (the run protocol's share is
/// the [`ace_runtime::Control`] block).
#[derive(Default)]
pub struct Shared {
    pub queue: Mutex<VecDeque<Task>>,
    pub solutions: Mutex<Vec<Solution>>,
}

/// What a `Run` activation is computing.
enum RunCtx {
    /// The root query (worker 0 starts with it).
    Root,
    /// A group of subgoal slots of `frame`, led by slot `leader`.
    Slot {
        frame: Arc<FrameState>,
        leader: usize,
    },
}

/// How an `Advance` activation obtains the next solution.
enum AdvanceMode {
    /// Resume the kept generator machine.
    Generator,
    /// Re-execute from scratch (sequentially), skipping `skip` solutions.
    Recompute { skip: u64, seen: u64 },
}

/// Bookkeeping for a subgoal the owner machine is executing directly
/// (speculative PDO): where to roll back to if it turns out
/// nondeterministic, and the fence guarding backtracking below it.
struct OwnerSlot {
    frame: Arc<FrameState>,
    slot: usize,
    fence_idx: usize,
    ctrl_len: usize,
    trail: ace_logic::TrailMark,
    heap: ace_logic::heap::HeapMark,
}

enum Act {
    Run {
        machine: Box<Machine>,
        ctx: RunCtx,
        cancel: CancelToken,
        /// Machine-heap cells of each member slot's shipped goal (in group
        /// slot order) — the roots extracted into the solution bundle.
        goal_cells: Vec<Cell>,
        /// Memo keys of the member goals, canonicalized *before* execution
        /// bound them (same order as `goal_cells`; empty when memo is off).
        /// Deterministic groups publish their answers under these keys at
        /// finalization.
        memo_keys: Vec<CanonKey>,
        /// Machine-heap cells of LPCO-merged branch goals awaiting
        /// registration as new slots at group finalization.
        lpco_added: Vec<Cell>,
        /// PDO: a member before the last carried nondeterminism. The
        /// machine cannot serve as a plain generator (backtracking into an
        /// early member would skip re-running the later ones), so redos go
        /// through recomputation instead.
        pdo_nondet_prefix: bool,
        /// Frames whose *inline* (rightmost) branch this machine is
        /// currently executing, outermost first (&ACE model: the owner
        /// runs the last subgoal locally while the others are shipped).
        inline: Vec<Arc<FrameState>>,
        /// Shipped slots being executed directly on this machine instead
        /// (speculative PDO), innermost last; see [`OwnerSlot`].
        owner_slot: Vec<OwnerSlot>,
    },
    Wait {
        frame: Arc<FrameState>,
    },
    Advance {
        frame: Arc<FrameState>,
        leader: usize,
        machine: Box<Machine>,
        mode: AdvanceMode,
        goal_cells: Vec<Cell>,
    },
}

/// One and-parallel worker (an [`ace_runtime::Agent`] for either driver).
pub struct AndWorker {
    core: WorkerCore,
    sh: Arc<Shared>,
    stack: Vec<Act>,
    machines: MachinePool,
    /// Root query variables (worker 0 only).
    root_vars: Vec<(String, Cell)>,
}

impl AndWorker {
    pub fn new(core: WorkerCore, sh: Arc<Shared>, db: Arc<Database>) -> Self {
        AndWorker {
            core,
            sh,
            stack: Vec::new(),
            machines: MachinePool::new(db),
            root_vars: Vec::new(),
        }
    }

    /// Install the root query on this worker (worker 0).
    pub fn install_root(&mut self, query: &str) -> Result<(), ace_logic::ReadError> {
        let mut machine = self.machines.acquire(&mut self.core);
        machine.enable_parallel(true);
        self.root_vars = machine.load_query_text(query)?;
        self.stack.push(Act::Run {
            machine,
            ctx: RunCtx::Root,
            cancel: self.core.ctl.cancel.clone(),
            goal_cells: Vec::new(),
            memo_keys: Vec::new(),
            lpco_added: Vec::new(),
            pdo_nondet_prefix: false,
            inline: Vec::new(),
            owner_slot: Vec::new(),
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Work acquisition
    // ------------------------------------------------------------------

    fn try_get_work(&mut self) -> Step {
        // Injected transient steal failure: the task stays queued (checked
        // before any claim so nothing needs un-claiming) and this worker
        // retries on a later phase after its idle backoff — bounded retry,
        // since each fault event fires at most once.
        if self.core.steal_faulted(|| !self.sh.queue.lock().is_empty()) {
            return Step::NoWork;
        }
        self.core.note(EventKind::StealAttempt);
        let task = {
            let mut q = self.sh.queue.lock();
            loop {
                let Some(t) = q.pop_front() else { break None };
                if t.frame.cancel.is_cancelled() {
                    continue;
                }
                if t.frame.claim(Some(t.slot)).is_some() {
                    break Some(t);
                }
                // already claimed elsewhere (e.g. PDO) — skip
            }
        };
        let Some(task) = task else {
            self.core.note(EventKind::StealFail);
            return Step::NoWork;
        };
        if task.creator != self.core.id {
            self.core.stats.tasks_stolen += 1;
            self.core.charge(self.core.costs.steal);
            self.core.note(EventKind::StealSuccess);
        } else {
            self.core.charge(self.core.costs.queue_op);
        }
        self.start_slot(task.frame, task.slot);
        Step::Worked
    }

    /// Begin executing `slot` of `frame` on a fresh machine: ship the goal,
    /// allocate (or procrastinate) the input marker, register the group.
    fn start_slot(&mut self, frame: Arc<FrameState>, slot: usize) {
        let mut machine = self.machines.acquire(&mut self.core);
        machine.enable_parallel(true);

        // Goal shipping: copy the subgoal closure into the machine.
        let goal = frame.inner.lock().slots[slot]
            .closure
            .clone()
            .expect("claimed slot without closure");
        let out = copy_term(&goal.heap, goal.root, &mut machine.heap);
        self.core.stats.cells_copied += out.cells_copied as u64;
        self.core
            .charge(out.cells_copied as u64 * self.core.costs.heap_cell);

        // Markers: the unoptimized engine allocates the input marker
        // eagerly; SPO procrastinates it (paper §4.1).
        if self.core.ctl.cfg.opts.spo {
            self.core.charge(self.core.costs.spo_track);
            machine.procrastinate_input_marker(frame.id, slot as u32);
        } else {
            machine.push_marker(MarkerKind::Input, frame.id, slot as u32);
        }
        machine.set_query(out.root);

        // Snapshot the memo key while the shipped goal is still unbound:
        // a deterministic completion publishes its answer under this key.
        let memo_keys = if machine.memo_enabled() {
            self.core.charge(self.core.costs.memo_lookup);
            vec![machine.memo_key(out.root)]
        } else {
            Vec::new()
        };

        // Register the group.
        {
            let mut inner = frame.inner.lock();
            inner.slots[slot].group = Some(slot);
            inner.groups.insert(
                slot,
                GroupRec {
                    slots: vec![slot],
                    ..GroupRec::default()
                },
            );
        }
        self.core.charge(self.core.costs.lock);

        machine.surface(&mut self.core);
        let cancel = frame.cancel.clone();
        self.stack.push(Act::Run {
            machine,
            ctx: RunCtx::Slot {
                frame,
                leader: slot,
            },
            cancel,
            goal_cells: vec![out.root],
            memo_keys,
            lpco_added: Vec::new(),
            pdo_nondet_prefix: false,
            inline: Vec::new(),
            owner_slot: Vec::new(),
        });
    }

    fn step_run(&mut self) -> Step {
        let Some(Act::Run {
            machine,
            cancel,
            inline,
            ..
        }) = self.stack.last_mut()
        else {
            unreachable!()
        };
        // Check the innermost inline frame's token: it is a descendant of
        // the activation token, so it also covers ancestor cancellation,
        // and additionally catches sibling failures of the parallel call
        // whose branch is executing inline right here.
        let check = inline.last().map_or(&*cancel, |f| &f.cancel);
        let status = machine.run(QUANTUM, Some(check));
        machine.surface(&mut self.core);

        match status {
            Status::Running => Step::Worked,
            Status::Parcall => self.on_parcall(),
            Status::Solution => self.on_solution(),
            Status::Failed => self.on_failed(),
            Status::ParcallRedo => self.on_redo(),
            Status::InlineBarrier(fid) => self.on_barrier(fid),
            Status::FenceHit(fid, slot) => self.on_fence_hit(fid, slot),
            Status::Cancelled => self.on_cancelled(),
            Status::Halted => {
                self.core.ctl.finish();
                Step::Worked
            }
            Status::Error(e) => {
                self.core.ctl.fail_with(e);
                Step::Worked
            }
        }
    }

    // ------------------------------------------------------------------
    // Parallel call creation (and LPCO)
    // ------------------------------------------------------------------

    fn on_parcall(&mut self) -> Step {
        // LPCO applicability (paper §3.1).
        if self.core.ctl.cfg.opts.lpco {
            self.core.charge(self.core.costs.lpco_check);
            if self.try_lpco_inline() {
                return Step::Worked;
            }
            if self.try_lpco() {
                return Step::Worked;
            }
        }

        let ship_now = self.core.others_idle();
        let Some(Act::Run {
            machine,
            ctx,
            cancel,
            inline,
            ..
        }) = self.stack.last_mut()
        else {
            unreachable!()
        };
        let depth = match (&inline.last(), &ctx) {
            (Some(f), _) => f.depth + 1,
            (None, RunCtx::Root) => 1,
            (None, RunCtx::Slot { frame, .. }) => frame.depth + 1,
        };
        let pf = machine.top_parcall().expect("Parcall status without frame");
        let n_branches = pf.branches.len();
        let last_branch = *pf.branches.last().expect("parcall without branches");
        // Nested frames hang off the innermost inline frame's token so a
        // sibling failure anywhere up the chain kills them too.
        let parent_token = inline.last().map_or(&*cancel, |f| &f.cancel);
        let (frame, cells) = FrameState::create(
            pf.id,
            &machine.heap,
            &pf.branches,
            depth,
            parent_token,
            true,
            pf.cont,
            (pf.trail, pf.heap),
            ship_now,
        );
        machine.top_parcall_mut().unwrap().ext = Some(Box::new(frame.clone()));
        self.core.stats.cells_copied += cells as u64;
        let n = n_branches as u64;
        let charge = self.core.costs.parcall_frame_alloc
            + self.core.costs.parcall_slot * n
            + cells as u64 * self.core.costs.heap_cell
            + self.core.costs.queue_op * (n - 1);
        self.core.charge(charge);
        self.core.note(EventKind::FrameAlloc { slots: n_branches });

        // Ship all branches but the last (when idle workers demand them);
        // run the last inline, &ACE-style ("the goal a does not need an
        // input marker as the parcall frame marks its beginning" — paper
        // Figure 2; the *local* branch needs neither marker nor copy).
        let tasks: Vec<Task> = if ship_now {
            (0..n_branches - 1)
                .map(|slot| Task {
                    frame: frame.clone(),
                    slot,
                    creator: self.core.id,
                })
                .collect()
        } else {
            Vec::new()
        };
        machine.run_inline_branch(last_branch, frame.id);
        inline.push(frame);
        if !tasks.is_empty() {
            self.sh.queue.lock().extend(tasks);
        }
        Step::Worked
    }

    /// LPCO within an inline chain: the machine executing the inline
    /// (rightmost) branch of `frame` reached a trailing parallel call and
    /// has been determinate since entering it — append the new branches as
    /// slots of `frame` (shipping all but the last) and keep walking the
    /// rightmost spine inline. `process_list/2` recursion thus runs in ONE
    /// wide frame (paper Figure 4).
    fn try_lpco_inline(&mut self) -> bool {
        let ship_now = self.core.others_idle();
        let Some(Act::Run {
            machine, inline, ..
        }) = self.stack.last_mut()
        else {
            return false;
        };
        let Some(frame) = inline.last().cloned() else {
            return false;
        };
        if !machine.deterministic_since_previous_parcall() {
            return false;
        }
        // "last goal" in an inline chain: nothing follows but this frame's
        // own end-marker barrier (the real continuation is parked in the
        // frame).
        if !machine.top_parcall_cont_is_barrier_of(frame.id) {
            return false;
        }
        {
            // Filling or Ready (shipped slots may finish before the inline
            // chain does); appending slots below re-opens the wave.
            let inner = frame.inner.lock();
            if !matches!(inner.stage, FrameStage::Filling | FrameStage::Ready) {
                return false;
            }
        }
        let pf = machine.merge_out_parcall();
        let branches = pf.branches;
        let k = branches.len();
        let shipped = &branches[..k - 1];
        let (bundle, cells) = if ship_now {
            let (bundle, cells) = bundle_copy(&machine.heap, shipped);
            (Some(bundle), cells)
        } else {
            (None, 0)
        };
        self.core.stats.cells_copied += cells as u64;
        let charge =
            self.core.costs.lpco_merge_slot * k as u64 + cells as u64 * self.core.costs.heap_cell;
        self.core.charge(charge);
        self.core.note(EventKind::FrameElide { merged_slots: k });

        let mut tasks = Vec::with_capacity(shipped.len());
        {
            let mut inner = frame.inner.lock();
            let inline_idx = inner.inline.expect("inline chain without inline slot");
            let base = inner.slots.len();
            for (i, &pg) in shipped.iter().enumerate() {
                inner.slots.push(crate::frame::SlotRec {
                    closure: bundle.as_ref().map(|b| b.closure(i)),
                    parent_goal: Some(pg),
                    state: SlotState::Unclaimed,
                    group: None,
                    // A rerun of the inline spine re-creates these slots:
                    // mark their origin so redo waves drop them first.
                    origin: Some(inline_idx),
                    owner_run: false,
                    spec_failed: false,
                    materialized: false,
                });
                inner.marks.push(None);
                inner.pending += 1;
                if ship_now {
                    tasks.push(Task {
                        frame: frame.clone(),
                        slot: base + i,
                        creator: self.core.id,
                    });
                }
            }
            if inner.stage == FrameStage::Ready {
                inner.stage = FrameStage::Filling;
            }
        }
        machine.run_inline_branch(*branches.last().unwrap(), frame.id);
        self.sh.queue.lock().extend(tasks);
        true
    }

    /// Try to apply the Last Parallel Call Optimization: merge the newly
    /// raised parallel call's subgoals into the *enclosing* frame as
    /// additional slots instead of nesting a child frame. Conditions:
    /// the raising computation is a subgoal group that is currently the
    /// rightmost of its frame, it has been determinate so far, and nothing
    /// follows the parallel call in its continuation.
    fn try_lpco(&mut self) -> bool {
        let Some(Act::Run {
            machine,
            ctx: RunCtx::Slot { frame, leader: _ },
            lpco_added,
            ..
        }) = self.stack.last_mut()
        else {
            return false;
        };
        if !machine.deterministic_before_top_parcall() {
            return false;
        }
        {
            let pf = machine.top_parcall().unwrap();
            if pf.cont.is_some() {
                return false; // parallel call is not the last goal
            }
        }
        {
            let inner = frame.inner.lock();
            if inner.stage != FrameStage::Filling {
                return false;
            }
        }
        // Note: the paper's general LPCO (Figure 3) merges trailing
        // parallel calls of *any* slot into the enclosing frame. When the
        // merging slot is not the rightmost and its appended branches turn
        // out nondeterministic, the cross-product enumeration order can
        // deviate from strict sequential order (the solution multiset is
        // preserved) — the same caveat the paper notes about "backtracking
        // over parcalls". Conditions (i)/(ii) (determinacy of the merging
        // computation) are enforced above.
        // Merge: take the branches; the machine resumes past the parallel
        // call (and, its continuation being empty, completes immediately).
        let pf = machine.merge_out_parcall();
        let k = pf.branches.len() as u64;
        lpco_added.extend(pf.branches);
        self.core.charge(self.core.costs.lpco_merge_slot * k);
        self.core.note(EventKind::FrameElide {
            merged_slots: k as usize,
        });
        true
    }

    // ------------------------------------------------------------------
    // Solutions
    // ------------------------------------------------------------------

    fn on_solution(&mut self) -> Step {
        let is_root = matches!(
            self.stack.last(),
            Some(Act::Run {
                ctx: RunCtx::Root,
                ..
            })
        );
        if is_root {
            self.on_root_solution()
        } else {
            self.on_slot_solution()
        }
    }

    /// The inline branch of frame `fid` (re-)arrived at its barrier.
    ///
    /// * First arrival: its slot joins the barrier; wait for the shipped
    ///   slots, then integrate.
    /// * Re-arrival (the machine's own backtracking found another inline
    ///   solution): the backtrack that reached the inline choice points
    ///   unwound every sibling integration on the trail, so mark the whole
    ///   frame for re-integration and wait again.
    fn on_barrier(&mut self, fid: u64) -> Step {
        // Owner-executed (PDO) subgoal completion?
        if matches!(
            self.stack.last(),
            Some(Act::Run { owner_slot, .. })
                if owner_slot.last().is_some_and(|o| o.frame.id == fid)
        ) {
            return self.on_owner_slot_done();
        }
        let Some(Act::Run {
            machine, inline, ..
        }) = self.stack.last_mut()
        else {
            unreachable!()
        };
        let (frame, rearrival) = if inline.last().is_some_and(|f| f.id == fid) {
            (inline.pop().unwrap(), false)
        } else {
            // find the frame on this machine's control stack
            let found = machine.ctrl_frames().iter().find_map(|f| match f {
                ace_machine::CtrlFrame::Parcall(pf) => pf
                    .ext
                    .as_ref()
                    .and_then(|e| e.downcast_ref::<Arc<FrameState>>())
                    .filter(|fr| fr.id == fid)
                    .cloned(),
                _ => None,
            });
            match found {
                Some(fr) => (fr, true),
                None => {
                    self.core.ctl.fail_with(format!(
                        "engine bug: inline barrier for unknown frame {fid}"
                    ));
                    return Step::Worked;
                }
            }
        };
        let mut owner_reruns: Vec<Task> = Vec::new();
        {
            let mut inner = frame.inner.lock();
            if let Some(idx) = inner.inline {
                inner.slots[idx].state = SlotState::Done;
            }
            inner.inline_done = true;
            if rearrival {
                // every integration (and every owner-executed binding) was
                // unwound by the backtracking that reached the inline
                // choice points: redo integrations and re-run owner slots
                for m in inner.marks.iter_mut() {
                    *m = None;
                }
                for sl in inner.slots.iter_mut() {
                    if sl.materialized {
                        sl.parent_goal = None;
                        sl.materialized = false;
                    }
                }
                inner.integrate_from = 0;
                for slot_idx in 0..inner.slots.len() {
                    if inner.slots[slot_idx].owner_run
                        && inner.slots[slot_idx].state == SlotState::Done
                    {
                        inner.slots[slot_idx].owner_run = false;
                        inner.slots[slot_idx].state = SlotState::Unclaimed;
                        inner.pending += 1;
                        if inner.slots[slot_idx].closure.is_some() {
                            owner_reruns.push(Task {
                                frame: frame.clone(),
                                slot: slot_idx,
                                creator: self.core.id,
                            });
                        }
                    }
                }
                if inner.stage == FrameStage::Integrated {
                    inner.stage = if inner.pending == 0 {
                        FrameStage::Ready
                    } else {
                        FrameStage::Filling
                    };
                }
                self.core.note(EventKind::RedoRound);
            } else if inner.pending == 0 && inner.stage == FrameStage::Filling {
                inner.stage = FrameStage::Ready;
            }
        }
        if !owner_reruns.is_empty() {
            self.sh.queue.lock().extend(owner_reruns);
        }
        self.core
            .charge(self.core.costs.slot_join + self.core.costs.lock);
        self.stack.push(Act::Wait { frame });
        Step::Worked
    }

    /// The owner-executed subgoal reached the barrier: commit it if its
    /// execution was determinate (PDO success — no markers, no copies), or
    /// roll it back and ship it normally.
    fn on_owner_slot_done(&mut self) -> Step {
        let Some(Act::Run {
            machine,
            inline,
            owner_slot,
            ..
        }) = self.stack.last_mut()
        else {
            unreachable!()
        };
        let o = owner_slot.pop().expect("checked in on_barrier");
        if inline.last().is_some_and(|f| f.id == o.frame.id) {
            inline.pop();
        }
        // region above the fence: determinate?
        let det = region_is_deterministic(machine, o.ctrl_len + 1);
        if det {
            machine.disarm_fence(o.fence_idx);
            {
                let mut inner = o.frame.inner.lock();
                inner.slots[o.slot].state = SlotState::Done;
                inner.slots[o.slot].owner_run = true;
                inner.pending -= 1;
                if inner.pending == 0 && inner.stage == FrameStage::Filling {
                    inner.stage = FrameStage::Ready;
                }
            }
            self.core
                .charge(self.core.costs.slot_join + self.core.costs.lock);
            self.core.note(EventKind::PdoMerge);
        } else {
            // speculation failed: undo and ship to a fresh machine
            machine.rollback_to(o.ctrl_len, o.trail, o.heap);
            machine.surface(&mut self.core);
            {
                let mut inner = o.frame.inner.lock();
                inner.slots[o.slot].state = SlotState::Unclaimed;
                inner.slots[o.slot].spec_failed = true;
            }
            self.sh.queue.lock().push_back(Task {
                frame: o.frame.clone(),
                slot: o.slot,
                creator: self.core.id,
            });
            self.core.charge(self.core.costs.queue_op);
        }
        let frame = o.frame;
        self.stack.push(Act::Wait { frame });
        Step::Worked
    }

    /// Backtracking crossed a PDO fence: the owner-executed subgoal has no
    /// solution, so the whole parallel call fails (inside backtracking).
    fn on_fence_hit(&mut self, fid: u64, _slot: u32) -> Step {
        let Some(Act::Run {
            machine,
            inline,
            owner_slot,
            ..
        }) = self.stack.last_mut()
        else {
            unreachable!()
        };
        let o = owner_slot.pop().expect("fence hit without owner slot");
        debug_assert_eq!(o.frame.id, fid);
        if inline.last().is_some_and(|f| f.id == fid) {
            inline.pop();
        }
        self.core.note(EventKind::SlotFail);
        o.frame.fail();
        machine.fail_parcall_until(fid);
        machine.surface(&mut self.core);
        Step::Worked
    }

    fn on_root_solution(&mut self) -> Step {
        let Some(Act::Run { machine, .. }) = self.stack.last_mut() else {
            unreachable!()
        };
        let sol = Solution::new(machine.answer_line(&self.root_vars));
        // Streamed delivery before publication.
        let over = self
            .core
            .ctl
            .deliver(&mut self.core.stats, std::iter::once(&sol));
        self.sh.solutions.lock().push(sol);
        self.core.note(EventKind::Solution);
        if over {
            return Step::Worked;
        }
        // search for more solutions
        machine.backtrack();
        machine.surface(&mut self.core);
        Step::Worked
    }

    fn on_slot_solution(&mut self) -> Step {
        // PDO (paper §4.2): if the sequentially-next slot is still
        // unclaimed, continue it on this same machine as one contiguous
        // computation — no markers, no new machine.
        if self.core.ctl.cfg.opts.pdo {
            self.core.charge(self.core.costs.pdo_check);
            if self.try_pdo() {
                return Step::Worked;
            }
        }
        self.finalize_group()
    }

    fn try_pdo(&mut self) -> bool {
        let Some(Act::Run {
            machine,
            ctx: RunCtx::Slot { frame, leader },
            goal_cells,
            memo_keys,
            lpco_added,
            pdo_nondet_prefix,
            ..
        }) = self.stack.last_mut()
        else {
            return false;
        };
        if !lpco_added.is_empty() {
            // group already carries merged branch goals: finalize first so
            // the new slots become available
            return false;
        }
        let next = {
            let inner = frame.inner.lock();
            let group = &inner.groups[leader];
            *group.slots.last().unwrap() + 1
        };
        if frame.claim(Some(next)).is_none() {
            return false;
        }
        // Claimed: extend the group.
        let goal = {
            let mut inner = frame.inner.lock();
            inner.slots[next].group = Some(*leader);
            let g = inner.groups.get_mut(leader).unwrap();
            g.slots.push(next);
            inner.slots[next]
                .closure
                .clone()
                .expect("claimed slot without closure")
        };
        // If the members so far left any choice point, the merged machine
        // cannot later serve as a plain generator (see `pdo_nondet_prefix`).
        if !machine.is_deterministic_above(0) {
            *pdo_nondet_prefix = true;
        }
        let out = copy_term(&goal.heap, goal.root, &mut machine.heap);
        goal_cells.push(out.root);
        if machine.memo_enabled() {
            memo_keys.push(machine.memo_key(out.root));
            self.core.charge(self.core.costs.memo_lookup);
        }
        machine.continue_with(out.root);
        machine.surface(&mut self.core);
        self.core.stats.cells_copied += out.cells_copied as u64;
        self.core
            .charge(out.cells_copied as u64 * self.core.costs.heap_cell + self.core.costs.lock);
        self.core.note(EventKind::PdoMerge);
        true
    }

    /// The group's current solution is final for this wave: handle end
    /// markers, extract the solution bundle, register LPCO-added slots,
    /// classify the machine (retire / keep as generator / recompute), and
    /// update the frame's fill state.
    fn finalize_group(&mut self) -> Step {
        let Some(Act::Run {
            mut machine,
            ctx: RunCtx::Slot { frame, leader },
            mut goal_cells,
            memo_keys,
            lpco_added,
            pdo_nondet_prefix,
            ..
        }) = self.stack.pop()
        else {
            unreachable!()
        };

        let det = machine_is_deterministic(&machine);
        let has_frames = machine.has_parcall_frames() || pdo_nondet_prefix;

        // End marker policy (paper §4.1): unoptimized always allocates it;
        // SPO elides both markers for deterministic subgoals.
        let last_slot = {
            let inner = frame.inner.lock();
            *inner.groups[&leader].slots.last().unwrap()
        };
        if self.core.ctl.cfg.opts.spo {
            if det {
                // The subgoal completed deterministically: neither marker
                // was ever needed; only its trail section is remembered.
                machine.clear_pending_marker();
                self.core.charge(self.core.costs.spo_track);
                self.core.note(EventKind::MarkerElide);
            } else {
                machine.materialize_pending_marker();
                machine.push_marker(MarkerKind::End, frame.id, last_slot as u32);
            }
        } else {
            machine.push_marker(MarkerKind::End, frame.id, last_slot as u32);
        }

        // Publish the answers of a determinate group: with no choice point
        // ever created, no parallel call raised, and no side effects, each
        // member's single solution is its complete answer set. (The
        // machine's own memo watches normally got there first —
        // publication is idempotent, so this is a cheap engine-side
        // backstop that also covers SPO/PDO-merged members.)
        if det
            && !has_frames
            && lpco_added.is_empty()
            && !memo_keys.is_empty()
            && machine.stats.choice_points == 0
            && machine.output.is_empty()
            && machine.answers.is_empty()
        {
            for (key, &goal) in memo_keys.iter().zip(&goal_cells) {
                machine.memo_publish_answer(key, goal);
            }
        }

        machine.surface(&mut self.core);

        // Extract the solution bundle (goal instances + LPCO branches).
        let n_members = goal_cells.len();
        goal_cells.extend(&lpco_added);
        let (bundle, cells) = bundle_copy(&machine.heap, &goal_cells);
        goal_cells.truncate(n_members);
        self.core.stats.cells_copied += cells as u64;
        self.core.charge(
            cells as u64 * self.core.costs.heap_cell
                + self.core.costs.slot_join
                + self.core.costs.lock,
        );

        let mut new_tasks: Vec<Task> = Vec::new();
        let keep = !det && !has_frames;
        let mut machine_opt = Some(machine);
        {
            let mut inner = frame.inner.lock();
            debug_assert_eq!(inner.groups[&leader].slots.len(), n_members);
            // Register LPCO-added slots.
            let added_base = inner.slots.len();
            for (j, _) in lpco_added.iter().enumerate() {
                let root_idx = n_members + j;
                inner.slots.push(crate::frame::SlotRec {
                    closure: Some(bundle.closure(root_idx)),
                    parent_goal: None,
                    state: SlotState::Unclaimed,
                    group: None,
                    origin: Some(last_slot),
                    owner_run: false,
                    spec_failed: false,
                    materialized: false,
                });
                inner.marks.push(None);
                inner.pending += 1;
                new_tasks.push(Task {
                    frame: frame.clone(),
                    slot: added_base + j,
                    creator: self.core.id,
                });
            }
            let FrameInner { groups, slots, .. } = &mut *inner;
            let g = groups.get_mut(&leader).unwrap();
            g.bundle = Some(bundle);
            g.goal_cells = goal_cells;
            g.det = det;
            g.exhausted = det; // deterministic: no further solutions
            g.recompute = !det && has_frames;
            g.solutions_delivered = 1;
            g.extra = (0..lpco_added.len())
                .map(|j| (added_base + j, n_members + j))
                .collect();
            // Keep the machine as a generator, or retire it below.
            if keep {
                let mut m = machine_opt.take().unwrap();
                // generators continue sequentially on redo
                m.enable_parallel(false);
                g.machine = Some(m);
            }
            // Mark members done and update the wave count.
            for &s in &g.slots {
                slots[s].state = SlotState::Done;
            }
            inner.pending -= n_members;
            if inner.pending == 0 && inner.stage == FrameStage::Filling {
                inner.stage = FrameStage::Ready;
            }
        }
        if let Some(m) = machine_opt {
            self.machines.retire(&mut self.core, m);
        }
        if !new_tasks.is_empty() {
            self.sh.queue.lock().extend(new_tasks);
        }
        Step::Worked
    }

    // ------------------------------------------------------------------
    // Failure (inside backtracking)
    // ------------------------------------------------------------------

    fn on_failed(&mut self) -> Step {
        let Some(act) = self.stack.pop() else {
            unreachable!()
        };
        let Act::Run { machine, ctx, .. } = act else {
            unreachable!()
        };
        match ctx {
            RunCtx::Root => {
                self.machines.retire(&mut self.core, machine);
                self.core.ctl.finish();
            }
            RunCtx::Slot { frame, .. } => {
                self.core.note(EventKind::SlotFail);
                frame.fail();
                self.machines.retire(&mut self.core, machine);
            }
        }
        Step::Worked
    }

    fn on_cancelled(&mut self) -> Step {
        // Distinguish "this whole activation is doomed" (ancestor token)
        // from "the parallel call whose branch we are running inline
        // failed" (inline frame token): the latter unwinds the machine to
        // that frame and keeps going below it.
        let Some(Act::Run {
            machine,
            cancel,
            inline,
            ..
        }) = self.stack.last_mut()
        else {
            unreachable!()
        };
        if cancel.is_cancelled() {
            let Some(Act::Run { machine, .. }) = self.stack.pop() else {
                unreachable!()
            };
            self.machines.retire(&mut self.core, machine);
            return Step::Worked;
        }
        // Find the outermost cancelled inline frame and unwind to it.
        let mut target = None;
        while let Some(f) = inline.last() {
            if f.cancel.is_cancelled() {
                target = inline.pop();
            } else {
                break;
            }
        }
        match target {
            Some(f) => {
                self.core.stats.frame_traversals += 1;
                machine.fail_parcall_until(f.id);
                machine.surface(&mut self.core);
            }
            None => {
                // spurious wake-up: token cleared meanwhile (cannot
                // happen with our one-way tokens, but stay safe)
            }
        }
        Step::Worked
    }

    // ------------------------------------------------------------------
    // Waiting & integration
    // ------------------------------------------------------------------

    /// Copy the shipping closures of `idxs` (owner-local subgoals of
    /// `frame`) out of the owner machine's heap and publish their tasks.
    fn ship_slots(&mut self, frame: &Arc<FrameState>, idxs: &[usize]) {
        // the owner machine sits directly below this Wait
        let n = self.stack.len();
        let Some(Act::Run { machine, .. }) = (n >= 2).then(|| &mut self.stack[n - 2]) else {
            unreachable!("Wait without Run below")
        };
        let goals: Vec<Cell> = {
            let inner = frame.inner.lock();
            idxs.iter()
                .map(|&i| inner.slots[i].parent_goal.expect("unshipped w/o goal"))
                .collect()
        };
        let (bundle, cells) = bundle_copy(&machine.heap, &goals);
        frame.install_closures(idxs, bundle);
        self.core.stats.cells_copied += cells as u64;
        let charge =
            cells as u64 * self.core.costs.heap_cell + self.core.costs.queue_op * idxs.len() as u64;
        self.core.charge(charge);
        let tasks: Vec<Task> = idxs
            .iter()
            .map(|&slot| Task {
                frame: frame.clone(),
                slot,
                creator: self.core.id,
            })
            .collect();
        self.sh.queue.lock().extend(tasks);
    }

    fn step_wait(&mut self) -> Step {
        let Some(Act::Wait { frame }) = self.stack.last() else {
            unreachable!()
        };
        let frame = frame.clone();
        match frame.stage() {
            FrameStage::Filling => {
                // An ancestor failed while this frame was filling: the
                // whole branch is doomed and will never reach Ready/Failed.
                // Unwind — the Run below observes its (cancelled) token on
                // its next phase.
                if frame.cancel.is_cancelled() {
                    self.stack.pop();
                    return Step::Worked;
                }
                // Demand-driven shipping: if idle workers exist (or the
                // owner itself needs a closure to help below), copy the
                // closures of any still-local subgoals out of the owner's
                // heap and publish them.
                let want_ship = self.core.others_idle() || !self.core.ctl.cfg.opts.pdo;
                if want_ship {
                    let idxs = frame.unshipped();
                    if !idxs.is_empty() {
                        self.ship_slots(&frame, &idxs);
                        return Step::Worked;
                    }
                }
                // PDO (speculative): the owner picks up its own frame's
                // next unclaimed subgoal and runs it DIRECTLY on its
                // machine — no goal copy, no markers, no integration —
                // exactly the "single contiguous piece of computation" of
                // §4.2. A fence guards backtracking; if the subgoal turns
                // out nondeterministic it is rolled back and shipped
                // normally (determinacy is only known a posteriori).
                if self.core.ctl.cfg.opts.pdo {
                    self.core.charge(self.core.costs.pdo_check);
                    if let Some(slot) = frame.claim_for_owner() {
                        let goal = frame.inner.lock().slots[slot]
                            .parent_goal
                            .expect("shipped slot without parent goal");
                        self.stack.pop(); // the Wait; re-pushed at the barrier
                        let Some(Act::Run {
                            machine,
                            inline,
                            owner_slot,
                            ..
                        }) = self.stack.last_mut()
                        else {
                            unreachable!("Wait without Run below")
                        };
                        let ctrl_len = machine.ctrl_len();
                        let trail = machine.heap.trail_mark();
                        let heap = machine.heap.heap_mark();
                        let fence_idx = machine.push_fence(frame.id, slot as u32);
                        machine.run_inline_branch(goal, frame.id);
                        owner_slot.push(OwnerSlot {
                            frame: frame.clone(),
                            slot,
                            fence_idx,
                            ctrl_len,
                            trail,
                            heap,
                        });
                        inline.push(frame);
                        return Step::Worked;
                    }
                }
                // Help-first: while blocked on this frame's barrier, only
                // pick up ITS unclaimed slots. Stealing unrelated (and
                // possibly long) work here would bury this Wait under new
                // activations and serialize the whole computation.
                match frame.claim(None) {
                    Some(slot) => {
                        self.core.charge(self.core.costs.queue_op);
                        self.start_slot(frame, slot);
                        Step::Worked
                    }
                    None => {
                        // remaining local goals the owner cannot run
                        // directly (failed speculation, LPCO-added): ship
                        // them so help-first / remote workers can
                        let idxs = frame.unshipped();
                        if !idxs.is_empty() {
                            self.ship_slots(&frame, &idxs);
                            return Step::Worked;
                        }
                        Step::NoWork
                    }
                }
            }
            FrameStage::Ready => {
                self.stack.pop();
                self.integrate(&frame);
                Step::Worked
            }
            FrameStage::Failed => {
                self.stack.pop();
                // one level of failure propagation up the frame chain
                self.core.stats.frame_traversals += 1;
                self.core.charge(self.core.costs.frame_traverse);
                let Some(Act::Run { machine, .. }) = self.stack.last_mut() else {
                    unreachable!("Wait without Run below");
                };
                // Deeper (already integrated) inline frames may sit above
                // this one on the control stack; discard them with it.
                machine.fail_parcall_until(frame.id);
                machine.surface(&mut self.core);
                Step::Worked
            }
            FrameStage::Integrated | FrameStage::Exhausted => {
                self.core
                    .ctl
                    .fail_with("engine bug: waiting on finished frame".into());
                Step::Worked
            }
        }
    }

    /// Splice the frame's slot solutions into the parent machine: copy each
    /// group bundle in, unify each member's solved instance with the
    /// parent-side subgoal term, record per-slot undo marks, materialize
    /// parent-side terms for LPCO-added slots, and resume the parent.
    fn integrate(&mut self, frame: &Arc<FrameState>) {
        let mut copied = 0u64;
        let mut unify_steps = 0u64;
        let mut independence_violation = false;
        {
            let Some(Act::Run { machine, .. }) = self.stack.last_mut() else {
                unreachable!("integrate without parent Run")
            };
            let mut inner = frame.inner.lock();
            let FrameInner {
                groups,
                slots,
                marks,
                integrate_from,
                ..
            } = &mut *inner;
            'groups: for g in groups.range(*integrate_from..).map(|(_, g)| g) {
                let bundle = g.bundle.as_ref().expect("ready group without bundle");
                // Record the undo point for this group.
                let mark = (machine.heap.trail_mark(), machine.heap.heap_mark());
                // Joint copy of the whole bundle into the parent heap.
                let out = copy_tuple(
                    &bundle.heap,
                    ace_logic::sym("$integ"),
                    &bundle.roots,
                    &mut machine.heap,
                );
                let Cell::Str(hdr) = out.root else {
                    unreachable!()
                };
                copied += out.cells_copied as u64;

                for (i, &slot) in g.slots.iter().enumerate() {
                    marks[slot] = Some(mark);
                    let solved = machine.heap.str_arg(hdr, i as u32);
                    let parent_goal = slots[slot]
                        .parent_goal
                        .expect("parent goal not materialized in order");
                    match ace_logic::unify::unify(&mut machine.heap, parent_goal, solved) {
                        Some(steps) => unify_steps += steps as u64,
                        None => {
                            independence_violation = true;
                            break 'groups;
                        }
                    }
                }
                // Materialize parent-side terms for LPCO-added slots.
                for &(added_slot, root_idx) in &g.extra {
                    let cell = machine.heap.str_arg(hdr, root_idx as u32);
                    slots[added_slot].parent_goal = Some(cell);
                    slots[added_slot].materialized = true;
                    marks[added_slot] = Some(mark);
                }
            }
            if !independence_violation {
                inner.stage = FrameStage::Integrated;
                inner.integrate_from = inner.slots.len();
                drop(inner);
                // The frame may be buried under deeper (already
                // integrated) inline frames on the control stack, so
                // resume via its stored continuation.
                machine.resume_with_cont(frame.cont);
            }
        }
        self.core.stats.cells_copied += copied;
        self.core
            .charge(copied * self.core.costs.heap_cell + unify_steps * self.core.costs.unify_step);
        if independence_violation {
            self.core.ctl.fail_with(
                "parallel goals were not independent: cross-slot binding \
                 conflict at integration"
                    .into(),
            );
        }
    }

    // ------------------------------------------------------------------
    // Outside backtracking (redo)
    // ------------------------------------------------------------------

    /// The machine of the top `Run` activation is at `ParcallRedo`: find
    /// the rightmost group that can produce another solution and start
    /// advancing it; if none can, the parallel call is exhausted.
    fn on_redo(&mut self) -> Step {
        self.core.note(EventKind::RedoRound);
        let Some(Act::Run {
            machine, inline, ..
        }) = self.stack.last_mut()
        else {
            unreachable!()
        };
        let frame = {
            let pf = machine
                .top_parcall_mut()
                .expect("ParcallRedo without frame");
            pf.ext
                .as_ref()
                .and_then(|e| e.downcast_ref::<Arc<FrameState>>())
                .cloned()
                .expect("parcall frame without engine attachment")
        };

        // Backtracking reached a frame that was never (or is no longer)
        // integrated: its inline branch failed — inside backtracking, the
        // whole parallel call fails (paper §2: a subgoal with no solution
        // fails the conjunction).
        if frame.stage() != FrameStage::Integrated {
            if inline.last().is_some_and(|f| f.id == frame.id) {
                inline.pop();
            }
            self.core.note(EventKind::SlotFail);
            frame.fail();
            machine.fail_parcall();
            machine.surface(&mut self.core);
            return Step::Worked;
        }

        // Scan groups right-to-left for an advanceable one. Each visited
        // group costs a frame traversal — this is exactly the "repeated
        // traversal" LPCO's flattening reduces.
        /// What the redo scan selected: (group leader, kept generator if
        /// any, its goal cells, recompute-skip count).
        type Advance = (usize, Option<Box<Machine>>, Vec<Cell>, u64);
        let mut advance: Option<Advance> = None;
        {
            let mut inner = frame.inner.lock();
            let leaders: Vec<usize> = inner.groups.keys().copied().collect();
            for &leader in leaders.iter().rev() {
                self.core.stats.frame_traversals += 1;
                self.core.charge(self.core.costs.frame_traverse);
                let g = inner.groups.get_mut(&leader).unwrap();
                if g.exhausted {
                    continue;
                }
                if let Some(m) = g.machine.take() {
                    advance = Some((leader, Some(m), g.goal_cells.clone(), 0));
                    break;
                }
                if g.recompute {
                    let skip = g.solutions_delivered;
                    advance = Some((leader, None, Vec::new(), skip));
                    break;
                }
                // det group: cannot advance
                g.exhausted = true;
            }
            if advance.is_none() {
                inner.stage = FrameStage::Exhausted;
            }
        }

        match advance {
            None => {
                // Exhausted: fail the parallel call in the parent.
                let Some(Act::Run { machine, .. }) = self.stack.last_mut() else {
                    unreachable!()
                };
                machine.fail_parcall();
                machine.surface(&mut self.core);
                Step::Worked
            }
            Some((leader, Some(mut genm), goal_cells, _)) => {
                // Resume the kept generator.
                genm.backtrack();
                genm.surface(&mut self.core);
                self.stack.push(Act::Advance {
                    frame,
                    leader,
                    machine: genm,
                    mode: AdvanceMode::Generator,
                    goal_cells,
                });
                Step::Worked
            }
            Some((leader, None, _, skip)) => {
                // Recompute the group from its goal closures, sequentially.
                let mut m = self.machines.acquire(&mut self.core);
                m.enable_parallel(false);
                let (roots, cells) = {
                    let inner = frame.inner.lock();
                    let g = &inner.groups[&leader];
                    let mut roots = Vec::new();
                    let mut cells = 0usize;
                    for &s in &g.slots {
                        let goal = inner.slots[s]
                            .closure
                            .as_ref()
                            .expect("group member without closure");
                        let out = copy_term(&goal.heap, goal.root, &mut m.heap);
                        cells += out.cells_copied;
                        roots.push(out.root);
                    }
                    (roots, cells)
                };
                self.core.stats.cells_copied += cells as u64;
                self.core.charge(cells as u64 * self.core.costs.heap_cell);
                // conjoin the roots: run them in order
                let mut goal = *roots.last().unwrap();
                for &r in roots.iter().rev().skip(1) {
                    goal = m.heap.new_struct(ace_logic::sym(","), &[r, goal]);
                }
                m.set_query(goal);
                self.stack.push(Act::Advance {
                    frame,
                    leader,
                    machine: m,
                    mode: AdvanceMode::Recompute { skip, seen: 0 },
                    goal_cells: roots,
                });
                Step::Worked
            }
        }
    }

    fn step_advance(&mut self) -> Step {
        let Some(Act::Advance { frame, machine, .. }) = self.stack.last_mut() else {
            unreachable!()
        };
        let status = machine.run(QUANTUM, Some(&frame.cancel));
        machine.surface(&mut self.core);

        match status {
            Status::Running => Step::Worked,
            Status::Solution => {
                // Recompute mode may need to skip already-delivered ones.
                let Some(Act::Advance { machine, mode, .. }) = self.stack.last_mut() else {
                    unreachable!()
                };
                if let AdvanceMode::Recompute { skip, seen } = mode {
                    if *seen < *skip {
                        *seen += 1;
                        machine.backtrack();
                        machine.surface(&mut self.core);
                        return Step::Worked;
                    }
                }
                self.advance_succeeded()
            }
            Status::Failed => {
                let Some(Act::Advance {
                    frame,
                    leader,
                    machine,
                    ..
                }) = self.stack.pop()
                else {
                    unreachable!()
                };
                {
                    let mut inner = frame.inner.lock();
                    let g = inner.groups.get_mut(&leader).unwrap();
                    g.exhausted = true;
                    g.machine = None;
                }
                self.machines.retire(&mut self.core, machine);
                // Parent (below) is still at ParcallRedo; next phase
                // rescans for a group further left.
                Step::Worked
            }
            Status::Cancelled => {
                let Some(Act::Advance { machine, .. }) = self.stack.pop() else {
                    unreachable!()
                };
                self.machines.retire(&mut self.core, machine);
                Step::Worked
            }
            Status::Error(e) => {
                self.core.ctl.fail_with(e);
                Step::Worked
            }
            other => {
                self.core
                    .ctl
                    .fail_with(format!("engine bug: unexpected generator status {other:?}"));
                Step::Worked
            }
        }
    }

    /// A group produced its next solution: rebuild its bundle, undo the
    /// parent's integrations from that group rightwards, reset and re-run
    /// the groups to its right, and wait for the wave to refill.
    fn advance_succeeded(&mut self) -> Step {
        let Some(Act::Advance {
            frame,
            leader,
            machine,
            mode,
            goal_cells,
        }) = self.stack.pop()
        else {
            unreachable!()
        };

        let (bundle, cells) = bundle_copy(&machine.heap, &goal_cells);
        self.core.stats.cells_copied += cells as u64;
        self.core.charge(cells as u64 * self.core.costs.heap_cell);

        let mut new_tasks: Vec<Task> = Vec::new();
        let mut machine_opt = Some(machine);
        let mut rerun_branch: Option<Cell> = None;
        {
            // Undo parent integrations from this group onwards.
            let Some(Act::Run {
                machine: parent, ..
            }) = self.stack.last_mut()
            else {
                unreachable!("Advance without parent Run")
            };
            let mut inner = frame.inner.lock();
            let group_last = *inner.groups[&leader].slots.last().unwrap();
            // If the inline slot lies right of the advanced group, its
            // branch must re-run too; its bindings predate every
            // integration, so the undo point is the frame's creation.
            let rerun_inline = inner.inline.is_some_and(|i| i > group_last);
            let owner_reset =
                inner.slots.iter().enumerate().any(|(i, sl)| {
                    i > group_last && sl.owner_run && sl.state != SlotState::Dropped
                });
            // Inline and owner-executed bindings predate every integration
            // mark, so resetting them needs the frame-creation undo point.
            let deep_undo = rerun_inline || owner_reset;
            let (tm, hm) = if deep_undo {
                frame.created_at
            } else {
                inner.marks[leader].expect("advanced group not integrated")
            };
            let undone = parent.heap.undo_to(tm);
            parent.heap.truncate_to(hm);
            self.core.stats.trail_undos += undone as u64;
            self.core.charge(undone as u64 * self.core.costs.trail_undo);

            // Store the new bundle & machine state.
            {
                let g = inner.groups.get_mut(&leader).unwrap();
                g.bundle = Some(bundle);
                g.solutions_delivered += 1;
                if matches!(mode, AdvanceMode::Generator) {
                    g.machine = machine_opt.take();
                }
                // Recompute mode: the scratch machine is retired below.
            }

            // Reset everything to the right of the advanced group.
            let total = inner.slots.len();
            let mut pending = 0usize;
            for s in (group_last + 1)..total {
                if inner.slots[s].state == SlotState::Dropped {
                    continue;
                }
                if Some(s) == inner.inline {
                    // the owner machine re-runs this branch itself
                    inner.slots[s].state = SlotState::Running;
                    inner.marks[s] = None;
                    continue;
                }
                let origin = inner.slots[s].origin;
                // LPCO-added slots whose origin also reruns will be
                // re-created by that rerun: drop them.
                if origin.is_some_and(|o| o > group_last) {
                    inner.slots[s].state = SlotState::Dropped;
                    if let Some(gl) = inner.slots[s].group.take() {
                        inner.groups.remove(&gl);
                    }
                    inner.marks[s] = None;
                    continue;
                }
                if let Some(gl) = inner.slots[s].group.take() {
                    inner.groups.remove(&gl);
                }
                inner.slots[s].state = SlotState::Unclaimed;
                inner.slots[s].owner_run = false;
                inner.marks[s] = None;
                pending += 1;
                if inner.slots[s].closure.is_some() {
                    new_tasks.push(Task {
                        frame: frame.clone(),
                        slot: s,
                        creator: self.core.id,
                    });
                }
            }
            if deep_undo {
                // every integration was undone: redo them all, and drop
                // LPCO-materialized parent goals (their cells were
                // truncated; the origin's re-integration recreates them)
                for m in inner.marks.iter_mut() {
                    *m = None;
                }
                for sl in inner.slots.iter_mut() {
                    if sl.materialized {
                        sl.parent_goal = None;
                        sl.materialized = false;
                    }
                }
                inner.integrate_from = 0;
            }
            if rerun_inline {
                inner.inline_done = false;
                inner.rerun_inline = true;
                let idx = inner.inline.unwrap();
                rerun_branch = inner.slots[idx].parent_goal;
            } else if !deep_undo {
                inner.integrate_from = leader;
            }
            inner.pending = pending;
            inner.stage = if pending > 0 {
                FrameStage::Filling
            } else {
                FrameStage::Ready
            };
        }
        if let Some(m) = machine_opt {
            self.machines.retire(&mut self.core, m);
        }
        if !new_tasks.is_empty() {
            self.sh.queue.lock().extend(new_tasks);
        }
        match rerun_branch {
            Some(branch) => {
                // Restart the inline branch on the owner machine; the
                // barrier Wait is pushed by its completion handler.
                let Some(Act::Run {
                    machine: parent,
                    inline,
                    ..
                }) = self.stack.last_mut()
                else {
                    unreachable!()
                };
                parent.run_inline_branch(branch, frame.id);
                inline.push(frame);
            }
            None => {
                self.stack.push(Act::Wait { frame });
            }
        }
        Step::Worked
    }
}

/// Refined runtime determinacy: a finished subgoal is deterministic when
/// no choice point survives AND every nested parcall frame it integrated
/// is itself incapable of further solutions. (The coarse
/// `Machine::is_deterministic_above` treats any parcall frame as a
/// nondeterminism source; this looks through the engine attachment.)
fn machine_is_deterministic(machine: &Machine) -> bool {
    region_is_deterministic(machine, 0)
}

/// Like [`machine_is_deterministic`], restricted to control frames at
/// height `from` and above (owner-PDO determinacy check of one region).
fn region_is_deterministic(machine: &Machine, from: usize) -> bool {
    use ace_machine::CtrlFrame;
    let ctrl = machine.ctrl_frames();
    ctrl[from.min(ctrl.len())..].iter().all(|f| match f {
        CtrlFrame::Marker(_) => true,
        CtrlFrame::Choice(_) => false,
        CtrlFrame::Parcall(pf) => pf
            .ext
            .as_ref()
            .and_then(|e| e.downcast_ref::<Arc<FrameState>>())
            .is_some_and(|fs| fs.fully_deterministic()),
    })
}

impl Engine for AndWorker {
    fn core(&mut self) -> &mut WorkerCore {
        &mut self.core
    }

    fn work(&mut self) -> Step {
        match self.stack.last() {
            None => self.try_get_work(),
            Some(Act::Run { .. }) => self.step_run(),
            Some(Act::Wait { .. }) => self.step_wait(),
            Some(Act::Advance { .. }) => self.step_advance(),
        }
    }

    /// Harvest counters from machines still on the activation stack (the
    /// root machine in particular never retires).
    fn drain(&mut self) {
        while let Some(act) = self.stack.pop() {
            if let Act::Run { machine, .. } | Act::Advance { machine, .. } = act {
                self.machines.retire(&mut self.core, machine);
            }
        }
    }
}
