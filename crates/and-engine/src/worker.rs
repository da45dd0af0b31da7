//! And-parallel worker agents.
//!
//! Each worker cooperates through the goal list ([`Shared`]: it publishes
//! the slots others may run and takes what others published) and the
//! [`FrameState`]s of active parallel calls: each change to a frame's slot
//! table is one `FrameState` method, and the prices, trace notes and
//! publications around it stay here. Whether a stretch of a
//! machine's control stack is determinate — the question behind LPCO, SPO
//! and PDO — is asked of [`Machine::determinate`], with
//! [`FrameState::determinate`] as the verdict on each parcall frame in it.
//! A worker maintains a stack of *activations*:
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

use std::sync::Arc;

use ace_logic::{Cell, Database};
use ace_machine::{Machine, MachinePool, MarkerKind, MemoCall, Solution, Spine, Status};
use ace_runtime::{CancelToken, Engine, EventKind, Step, WorkerCore, QUANTUM};

use crate::frame::{FrameStage, FrameState, Local, Redo};
use crate::sched::Shared;

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
/// (speculative PDO, or the goal a promoted record was running): where to
/// roll back to if it turns out nondeterministic, and the fence guarding
/// backtracking below it.
struct OwnerSlot {
    frame: Arc<FrameState>,
    slot: usize,
    /// The fence's control index. A promoted record's running goal has
    /// none: its frame lies directly below it, and backtracking that
    /// reaches the frame unfilled fails the call, as a fence would.
    fence: Option<usize>,
    /// Control index of the first frame the subgoal's execution pushed.
    region: usize,
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
        /// Memo keys of the member goals with their variables, taken
        /// *before* execution bound them (same order as `goal_cells`;
        /// empty when memo is off). Deterministic groups publish the
        /// bindings of those variables under these keys at finalization.
        memo_calls: Vec<MemoCall>,
        /// Machine-heap cells of LPCO-merged branch goals awaiting
        /// registration as new slots at group finalization.
        lpco_added: Vec<Cell>,
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
            memo_calls: Vec::new(),
            lpco_added: Vec::new(),
            inline: Vec::new(),
            owner_slot: Vec::new(),
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Work acquisition
    // ------------------------------------------------------------------

    /// Take the first published slot that is still claimable — of a frame
    /// nested in `under`, when given — and start it.
    fn take_task(&mut self, under: Option<&Arc<FrameState>>) -> Step {
        // Injected transient steal failure: the task stays queued (checked
        // before any claim so nothing needs un-claiming) and this worker
        // retries on a later phase after its idle backoff — bounded retry,
        // since each fault event fires at most once.
        if self.core.steal_faulted(|| self.sh.has_work()) {
            return Step::NoWork;
        }
        self.core.note(EventKind::StealAttempt);
        let taken = match under {
            None => self.sh.take(),
            Some(frame) => self.sh.take_nested(frame),
        };
        let Some(task) = taken else {
            self.core.note(EventKind::StealFail);
            return Step::NoWork;
        };
        if task.stolen_by(self.core.id) {
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

        // Goal shipping: copy the subgoal out of its bundle into the machine.
        let (bundle, i) = frame.start_group(slot);
        let out = bundle.copy_out(i, &mut machine.heap);
        self.core.charge_copy(out.cells_copied);

        // Markers: the unoptimized engine allocates the input marker
        // eagerly; SPO procrastinates it (paper §4.1).
        if self.core.ctl.cfg.run.opts.spo {
            self.core.charge(self.core.costs.spo_track);
            machine.procrastinate_input_marker(frame.id, slot as u32);
        } else {
            machine.push_marker(MarkerKind::Input, frame.id, slot as u32);
        }
        machine.set_query(out.root);

        // Snapshot the memo key while the shipped goal is still unbound:
        // a deterministic completion publishes its answer under this key.
        let memo_calls = if machine.memo_enabled() {
            self.core.charge(self.core.costs.memo_lookup);
            vec![machine.memo_call(out.root)]
        } else {
            Vec::new()
        };

        // The group's registration (`start_group`).
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
            memo_calls,
            lpco_added: Vec::new(),
            inline: Vec::new(),
            owner_slot: Vec::new(),
        });
    }

    fn step_run(&mut self) -> Step {
        // Lazy frames: an idle worker is the demand that builds a frame —
        // for the next `&` reached, and for the oldest record still holding
        // unstarted goals.
        let lazy = self.core.ctl.cfg.run.opts.lazy;
        // Until the root raises its first frame, no other worker can have
        // work: all of them are idle, whether they have said so yet or not.
        let first = self.core.stats.parcall_frames == 0
            && self.core.ctl.cfg.run.workers > 1
            && matches!(
                self.stack.as_slice(),
                [Act::Run {
                    ctx: RunCtx::Root,
                    ..
                }]
            );
        let demand = first || self.core.others_idle();
        if lazy && demand && self.try_promote() {
            return Step::Worked;
        }
        let lpco = self.core.ctl.cfg.run.opts.lpco;
        let Some(Act::Run {
            machine,
            ctx,
            cancel,
            inline,
            owner_slot,
            ..
        }) = self.stack.last_mut()
        else {
            unreachable!()
        };
        let defer = lazy && !demand;
        // A `&` that LPCO merges into a frame already built is raised even
        // now: a record per element would nest where the frame grows, and
        // once a worker asks, the record it promotes would ship the rest
        // of the list, not one element.
        let spine = match inline.last() {
            _ if !defer || !lpco => Spine::None,
            Some(f) if owner_slot.last().is_some_and(|o| o.frame.id == f.id) => Spine::None,
            Some(f) if f.has_spine() => Spine::Inline(f.id),
            Some(_) => Spine::None,
            None if matches!(ctx, RunCtx::Slot { .. }) => Spine::Slot,
            None => Spine::None,
        };
        machine.defer_parcalls(defer, spine);
        // Check the innermost inline frame's token: it is a descendant of
        // the activation token, so it also covers ancestor cancellation,
        // and additionally catches sibling failures of the parallel call
        // whose branch is executing inline right here.
        let check = inline.last().map_or(&*cancel, |f| &f.cancel);
        let status = machine.run_on(self.machines.db(), QUANTUM, Some(check));
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
        if self.core.ctl.cfg.run.opts.lpco {
            self.core.charge(self.core.costs.lpco_check);
            if self.try_lpco_inline() {
                return Step::Worked;
            }
            if self.try_lpco() {
                return Step::Worked;
            }
        }

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
        let idx = machine.ctrl_len() - 1;
        let last_branch = *machine.parcall_at_mut(idx).branches.last().unwrap();
        let ship_now = self.core.others_idle();
        let frame = build_frame(
            &mut self.core,
            &self.sh,
            machine,
            ctx,
            cancel,
            inline,
            idx,
            Local::Last,
            ship_now,
        );
        // Ship all branches but the last (when idle workers demand them);
        // run the last inline, &ACE-style ("the goal a does not need an
        // input marker as the parcall frame marks its beginning" — paper
        // Figure 2; the *local* branch needs neither marker nor copy).
        machine.run_inline_branch(last_branch, frame.id);
        inline.push(frame);
        Step::Worked
    }

    /// Lazy frames: promote the running machine's oldest record that still
    /// has unstarted goals and no choice point above it into the frame its
    /// `&` would have raised. Its finished goals become owner-run slots,
    /// the running one an owner slot whose end is the node after it, and
    /// the unstarted ones are copied out for the idle workers now. Every
    /// binding since the record is permanent with respect to any choice
    /// point above it (there is none), so the copies are the goals as the
    /// frame would have shipped them. Runs on the owner, at its own
    /// checkpoint.
    fn try_promote(&mut self) -> bool {
        let Some(Act::Run {
            machine,
            ctx,
            cancel,
            inline,
            owner_slot,
            ..
        }) = self.stack.last_mut()
        else {
            unreachable!()
        };
        if machine.status() != &Status::Running {
            return false;
        }
        let Some(idx) = machine.promotable_record() else {
            return false;
        };
        let (running, (trail, heap)) = machine.promote_record(idx);
        let frame = build_frame(
            &mut self.core,
            &self.sh,
            machine,
            ctx,
            cancel,
            inline,
            idx,
            Local::Prefix(running),
            true,
        );
        self.core.note(EventKind::FramePromote {
            slots: machine.parcall_at_mut(idx).branches.len(),
        });
        owner_slot.push(OwnerSlot {
            frame: frame.clone(),
            slot: running,
            fence: None,
            region: idx + 1,
            trail,
            heap,
        });
        inline.push(frame);
        true
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
            machine,
            inline,
            owner_slot,
            ..
        }) = self.stack.last_mut()
        else {
            return false;
        };
        let Some(frame) = inline.last().cloned() else {
            return false;
        };
        // A speculative owner slot is no inline spine: if it turns out
        // nondeterministic it is rolled back, and slots merged from it
        // would name the cells the rollback drops.
        if owner_slot.last().is_some_and(|o| o.frame.id == frame.id) {
            return false;
        }
        if !machine.deterministic_since_parcall(frame.id, FrameState::determinate) {
            return false;
        }
        // "last goal" in an inline chain: nothing follows but this frame's
        // own end-marker barrier (the real continuation is parked in the
        // frame).
        if !machine.top_parcall_cont_is_barrier_of(frame.id) {
            return false;
        }
        if !frame.has_spine() {
            return false;
        }
        let pf = machine.merge_out_parcall();
        let branches = pf.branches;
        // The branch runs on from here, and a redo wave that re-runs it
        // starts here (the frame's spine): the frames it has passed
        // (determinate, just checked) must keep what lies below this point.
        if let Some(idx) = machine.parcall_index(frame.id) {
            FrameState::mark_passable(machine, idx + 1);
        }
        let k = branches.len();
        let shipped = &branches[..k - 1];
        let bundle = ship_now.then(|| Arc::new(machine.freeze_goals(shipped)));
        self.core
            .charge_copy(bundle.as_ref().map_or(0, |b| b.len()));
        self.core.charge(self.core.costs.lpco_merge_slot * k as u64);
        self.core.note(EventKind::FrameElide { merged_slots: k });

        let rest = *branches.last().unwrap();
        let spine = (rest, machine.heap.trail_mark(), machine.heap.heap_mark());
        let added = frame.merge_inline(shipped, bundle.as_ref(), spine);
        machine.run_inline_branch(rest, frame.id);
        if ship_now {
            self.sh.publish(&frame, added, self.core.id);
        }
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
        if machine.top_parcall().unwrap().cont.is_some() {
            return false; // parallel call is not the last goal
        }
        if frame.stage() != FrameStage::Filling {
            return false;
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

    /// The inline branch of frame `fid` (re-)arrived at its barrier: wait
    /// for the shipped slots, then integrate. A re-arrival is the machine's
    /// own backtracking finding another inline solution
    /// ([`FrameState::arrive`] redoes the integrations it unwound).
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
        let at = machine.parcall_index(fid);
        let (frame, rearrival) = if inline.last().is_some_and(|f| f.id == fid) {
            (inline.pop().unwrap(), false)
        } else {
            // find the frame on this machine's control stack
            match at.and_then(|idx| FrameState::of(machine.parcall_at_mut(idx)).cloned()) {
                Some(fr) => (fr, true),
                None => {
                    self.core.ctl.fail_with(format!(
                        "engine bug: inline barrier for unknown frame {fid}"
                    ));
                    return Step::Worked;
                }
            }
        };
        // Did the inline branch leave a choice point above its frame? A
        // re-arrival came back through one of its choice points.
        let nondet = rearrival
            || at.is_none_or(|idx| !machine.determinate(idx + 1.., FrameState::determinate));
        if let (false, Some(idx)) = (nondet, at) {
            FrameState::mark_passable(machine, idx + 1);
        }
        let end = (machine.heap.trail_mark(), machine.heap.heap_mark());
        let owner_reruns = frame.arrive(rearrival, nondet, end);
        if rearrival {
            self.core.note(EventKind::RedoRound);
        }
        if !owner_reruns.is_empty() {
            self.sh.publish(&frame, owner_reruns, self.core.id);
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
        // the subgoal's region: determinate?
        if machine.determinate(o.region.., FrameState::determinate) {
            FrameState::mark_passable(machine, o.region);
            if let Some(fence) = o.fence {
                machine.disarm_fence(fence);
            }
            o.frame.owner_slot_done(o.slot);
            self.core
                .charge(self.core.costs.slot_join + self.core.costs.lock);
            self.core.note(EventKind::PdoMerge);
        } else {
            // speculation failed: undo and ship to a fresh machine
            machine.rollback_to(o.fence.unwrap_or(o.region), o.trail, o.heap);
            machine.surface(&mut self.core);
            o.frame.speculation_failed(o.slot);
            self.sh.publish(&o.frame, [o.slot], self.core.id);
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
        if self.core.ctl.cfg.run.opts.pdo {
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
            memo_calls,
            lpco_added,
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
        // The next member runs after this one's solution, as `(a, b)` would
        // — but in front of an empty continuation, so backtracking into a
        // choice point (or a frame with more solutions) the members so far
        // left would skip it and drop its goal's cells. Only a determinate
        // group is extended.
        if !machine.determinate(.., FrameState::determinate) {
            return false;
        }
        let Some((bundle, i)) = frame.extend_group(*leader) else {
            return false;
        };
        let out = bundle.copy_out(i, &mut machine.heap);
        goal_cells.push(out.root);
        if machine.memo_enabled() {
            memo_calls.push(machine.memo_call(out.root));
            self.core.charge(self.core.costs.memo_lookup);
        }
        machine.continue_with(out.root);
        machine.surface(&mut self.core);
        self.core.charge_copy(out.cells_copied);
        self.core.charge(self.core.costs.lock);
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
            memo_calls,
            lpco_added,
            ..
        }) = self.stack.pop()
        else {
            unreachable!()
        };

        let det = machine.determinate(.., FrameState::determinate);
        let has_frames = machine.has_parcall_frames();

        // End marker policy (paper §4.1): unoptimized always allocates it;
        // SPO elides both markers for deterministic subgoals.
        let last_slot = leader + goal_cells.len() - 1; // members are consecutive
        if self.core.ctl.cfg.run.opts.spo {
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
            && !memo_calls.is_empty()
            && machine.stats.choice_points == 0
            && machine.output.is_empty()
            && machine.answers.is_empty()
        {
            for call in &memo_calls {
                machine.memo_publish_answer(call);
            }
        }

        machine.surface(&mut self.core);

        // Extract the solution bundle (goal instances + LPCO branches).
        let n_members = goal_cells.len();
        goal_cells.extend(&lpco_added);
        let bundle = Arc::new(machine.freeze_goals(&goal_cells));
        goal_cells.truncate(n_members);
        self.core.charge_copy(bundle.len());
        self.core
            .charge(self.core.costs.slot_join + self.core.costs.lock);

        // Keep the machine as a generator (it continues sequentially on
        // redo), or retire it once the group is registered.
        let (generator, spent) = if !det && !has_frames {
            machine.enable_parallel(false);
            (Some(machine), None)
        } else {
            (None, Some(machine))
        };
        let added = frame.finish_group(leader, bundle, goal_cells, det, generator);
        if let Some(m) = spent {
            self.machines.retire(&mut self.core, m);
        }
        if !added.is_empty() {
            self.sh.publish(&frame, added, self.core.id);
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
            owner_slot,
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
        while owner_slot
            .last()
            .is_some_and(|o| o.frame.cancel.is_cancelled())
        {
            owner_slot.pop();
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

    /// Copy the owner-local subgoals of `frame` out of the owner machine's
    /// heap and publish their tasks. False if there were none.
    fn ship_slots(&mut self, frame: &Arc<FrameState>) -> bool {
        // the owner machine sits directly below this Wait
        let n = self.stack.len();
        let Some(Act::Run { machine, .. }) = (n >= 2).then(|| &mut self.stack[n - 2]) else {
            unreachable!("Wait without Run below")
        };
        let (shipped, cells) = frame.ship_local(|goals| machine.freeze_goals(goals));
        if shipped.is_empty() {
            return false;
        }
        self.core.charge_copy(cells);
        self.core
            .charge(self.core.costs.queue_op * shipped.len() as u64);
        self.sh.publish(frame, shipped, self.core.id);
        true
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
                let want_ship = self.core.others_idle() || !self.core.ctl.cfg.run.opts.pdo;
                if want_ship && self.ship_slots(&frame) {
                    return Step::Worked;
                }
                // PDO (speculative): the owner picks up its own frame's
                // next unclaimed subgoal and runs it DIRECTLY on its
                // machine — no goal copy, no markers, no integration —
                // exactly the "single contiguous piece of computation" of
                // §4.2. A fence guards backtracking; if the subgoal turns
                // out nondeterministic it is rolled back and shipped
                // normally (determinacy is only known a posteriori).
                if self.core.ctl.cfg.run.opts.pdo {
                    self.core.charge(self.core.costs.pdo_check);
                    if let Some((slot, goal)) = frame.claim_for_owner() {
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
                        let trail = machine.heap.trail_mark();
                        let heap = machine.heap.heap_mark();
                        let fence = machine.push_fence(frame.id, slot as u32);
                        machine.run_inline_branch(goal, frame.id);
                        owner_slot.push(OwnerSlot {
                            frame: frame.clone(),
                            slot,
                            fence: Some(fence),
                            region: fence + 1,
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
                        if self.ship_slots(&frame) {
                            return Step::Worked;
                        }
                        // Lazy frames: the frame waited on is often the
                        // narrow one a promotion built, and the work it
                        // waits for is promoted below it, on the machines
                        // that took its slots. Running a slot of a frame
                        // nested in it cannot delay it: it is not complete
                        // until that slot is.
                        if self.core.ctl.cfg.run.opts.lazy {
                            return self.take_task(Some(&frame));
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

    /// Splice the frame's slot solutions into the parent machine (see
    /// [`FrameState::integrate`]) and resume the parent.
    fn integrate(&mut self, frame: &Arc<FrameState>) {
        let Some(Act::Run { machine, .. }) = self.stack.last_mut() else {
            unreachable!("integrate without parent Run")
        };
        let (copied, unify_steps, independent) = frame.integrate(&mut machine.heap);
        self.core.charge_copy(copied);
        self.core.charge(unify_steps * self.core.costs.unify_step);
        if independent {
            // The frame may be buried under deeper (already integrated)
            // inline frames on the control stack, so resume via its
            // stored continuation.
            machine.resume_with_cont(frame.cont);
        } else {
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
            machine,
            inline,
            owner_slot,
            ..
        }) = self.stack.last_mut()
        else {
            unreachable!()
        };
        let frame = machine
            .top_parcall()
            .and_then(FrameState::of)
            .cloned()
            .expect("ParcallRedo without an engine frame on top");

        // Backtracking reached a frame that was never (or is no longer)
        // integrated: its inline branch failed — inside backtracking, the
        // whole parallel call fails (paper §2: a subgoal with no solution
        // fails the conjunction).
        if frame.stage() != FrameStage::Integrated {
            if inline.last().is_some_and(|f| f.id == frame.id) {
                inline.pop();
            }
            // A promoted record's running goal failed into its frame.
            if owner_slot.last().is_some_and(|o| o.frame.id == frame.id) {
                owner_slot.pop();
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
        let (redo, visited) = frame.redo();
        self.core.stats.frame_traversals += visited;
        self.core.charge(visited * self.core.costs.frame_traverse);
        let (leader, machine, mode, goal_cells) = match redo {
            Redo::Exhausted { pass } => {
                // Exhausted: fail the parallel call in the parent — or, if
                // it never had an alternative and lies in a determinate
                // branch the owner ran itself, pass it: undoing to its
                // creation would take that branch's later bindings, which
                // the enclosing frame's redo keeps.
                if pass {
                    machine.pass_parcall();
                } else {
                    machine.fail_parcall();
                }
                machine.surface(&mut self.core);
                return Step::Worked;
            }
            Redo::Generator {
                leader,
                mut machine,
                goal_cells,
            } => {
                // Resume the kept generator.
                machine.backtrack();
                machine.surface(&mut self.core);
                (leader, machine, AdvanceMode::Generator, goal_cells)
            }
            Redo::Recompute {
                leader,
                skip,
                goals,
            } => {
                // Recompute the group from its goal closures, sequentially.
                let mut m = self.machines.acquire(&mut self.core);
                m.enable_parallel(false);
                let roots: Vec<_> = (goals.iter())
                    .map(|(bundle, i)| bundle.copy_out(*i, &mut m.heap))
                    .collect();
                self.core
                    .charge_copy(roots.iter().map(|out| out.cells_copied).sum());
                let roots: Vec<Cell> = roots.iter().map(|out| out.root).collect();
                // conjoin the roots: run them in order
                let mut goal = *roots.last().unwrap();
                for &r in roots.iter().rev().skip(1) {
                    goal = m.heap.new_struct(ace_logic::sym(","), &[r, goal]);
                }
                m.set_query(goal);
                (leader, m, AdvanceMode::Recompute { skip, seen: 0 }, roots)
            }
        };
        self.stack.push(Act::Advance {
            frame,
            leader,
            machine,
            mode,
            goal_cells,
        });
        Step::Worked
    }

    fn step_advance(&mut self) -> Step {
        let Some(Act::Advance { frame, machine, .. }) = self.stack.last_mut() else {
            unreachable!()
        };
        let status = machine.run_on(self.machines.db(), QUANTUM, Some(&frame.cancel));
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
                frame.group_exhausted(leader);
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
            // `halt/0` on outside backtracking ends the run, as in a `Run`.
            Status::Halted => {
                self.core.ctl.finish();
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

        let bundle = Arc::new(machine.freeze_goals(&goal_cells));
        self.core.charge_copy(bundle.len());

        // A generator is kept for the group's next solution; a scratch
        // recomputation machine is retired.
        let (generator, spent) = match mode {
            AdvanceMode::Generator => (Some(machine), None),
            AdvanceMode::Recompute { .. } => (None, Some(machine)),
        };
        let ((trail, heap), rerun, publish) = frame.advance(leader, bundle, generator);
        // Undo the parent's bindings the reset slots went with.
        let Some(Act::Run {
            machine: parent, ..
        }) = self.stack.last_mut()
        else {
            unreachable!("Advance without parent Run")
        };
        let undone = parent.heap.undo_to(trail);
        parent.heap.truncate_to(heap);
        self.core.stats.trail_undos += undone as u64;
        self.core.charge(undone as u64 * self.core.costs.trail_undo);
        if let Some(m) = spent {
            self.machines.retire(&mut self.core, m);
        }
        if !publish.is_empty() {
            self.sh.publish(&frame, publish, self.core.id);
        }
        match rerun {
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

/// The one frame-building path: attach the and-engine's state to the
/// parcall frame at control index `idx` of `machine` — raised at an `&`
/// (`Local::Last`) or promoted from a record (`Local::Prefix`) — charge
/// it as a frame, and queue the slots shipped now. `ctx`, `cancel` and
/// `inline` are the running activation's: the frame nests in its innermost
/// inline frame.
#[allow(clippy::too_many_arguments)]
fn build_frame(
    core: &mut WorkerCore,
    sh: &Shared,
    machine: &mut Machine,
    ctx: &RunCtx,
    cancel: &CancelToken,
    inline: &[Arc<FrameState>],
    idx: usize,
    local: Local,
    ship_now: bool,
) -> Arc<FrameState> {
    let parent = match (inline.last(), ctx) {
        (Some(f), _) => Some(f),
        (None, RunCtx::Root) => None,
        (None, RunCtx::Slot { frame, .. }) => Some(frame),
    };
    // Nested frames hang off the innermost inline frame's token so a
    // sibling failure anywhere up the chain kills them too.
    let parent_token = inline.last().map_or(cancel, |f| &f.cancel);
    let pf = machine.parcall_at_mut(idx);
    let (id, cont, created_at) = (pf.id, pf.cont, (pf.trail, pf.heap));
    let branches = std::mem::take(&mut pf.branches);
    let n = branches.len();
    // Demand-driven goal shipping: goals are only frozen when idle workers
    // could actually steal them; otherwise they stay owner-local (shipped
    // later on demand, or never — PDO runs them in place).
    let shipped = ship_now.then(|| Arc::new(machine.freeze_goals(&branches[local.shippable(n)])));
    core.charge_copy(shipped.as_ref().map_or(0, |b| b.len()));
    let frame = FrameState::create(
        id,
        &branches,
        parent,
        parent_token,
        local,
        cont,
        created_at,
        shipped,
    );
    let pf = machine.parcall_at_mut(idx);
    pf.branches = branches;
    pf.ext = Some(Box::new(frame.clone()));
    core.charge(
        core.costs.parcall_frame_alloc
            + core.costs.parcall_slot * n as u64
            + core.costs.queue_op * (n as u64 - 1),
    );
    core.note(EventKind::FrameAlloc { slots: n });
    if ship_now {
        sh.publish(&frame, local.shippable(n), core.id);
    }
    frame
}

impl Engine for AndWorker {
    fn core(&mut self) -> &mut WorkerCore {
        &mut self.core
    }

    fn work(&mut self) -> Step {
        match self.stack.last() {
            None => self.take_task(None),
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
