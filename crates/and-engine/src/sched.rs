//! The goal list: the one place slots are published for pickup and taken.
//!
//! &ACE schedules goals from one goal list. A frame's owner publishes the
//! slots any worker may run, in slot order; a worker looking for work takes
//! the oldest entry it can still claim. Entries are never updated in place:
//! one whose frame was cancelled, or whose slot was claimed by other means
//! (the owner's PDO claim, a help-first claim by the frame's waiter), is
//! skipped and dropped when it reaches the front. Prices stay with the
//! worker, at the sites that publish and take.

use std::collections::VecDeque;
use std::sync::Arc;

use ace_machine::Solution;
use parking_lot::Mutex;

use crate::frame::FrameState;

/// A schedulable unit: one slot of one frame, published by `creator`.
/// Only [`Shared::publish`] makes one.
pub struct Task {
    pub frame: Arc<FrameState>,
    pub slot: usize,
    creator: usize,
}

impl Task {
    /// Taken by `worker`, is this task a steal (another worker made it)?
    pub fn stolen_by(&self, worker: usize) -> bool {
        self.creator != worker
    }

    /// Claim the slot, unless its frame was cancelled or it was claimed.
    fn claim(&self) -> bool {
        !self.frame.cancel.is_cancelled() && self.frame.claim(Some(self.slot)).is_some()
    }
}

/// The and-engine's share of a run's state (the run protocol's share is
/// the [`ace_runtime::Control`] block).
#[derive(Default)]
pub struct Shared {
    queue: Mutex<VecDeque<Task>>,
    pub solutions: Mutex<Vec<Solution>>,
}

impl Shared {
    /// Publish `slots` of `frame`, in order, as work `creator` made. Call
    /// it with no frame lock held: a taker locks the list, then the frame.
    pub fn publish(
        &self,
        frame: &Arc<FrameState>,
        slots: impl IntoIterator<Item = usize>,
        creator: usize,
    ) {
        self.queue.lock().extend(slots.into_iter().map(|slot| Task {
            frame: frame.clone(),
            slot,
            creator,
        }));
    }

    /// Is anything published (claimable or not)?
    pub fn has_work(&self) -> bool {
        !self.queue.lock().is_empty()
    }

    /// Take the first claimable entry, FIFO, dropping the cancelled and
    /// already-claimed entries in front of it.
    pub fn take(&self) -> Option<Task> {
        let mut q = self.queue.lock();
        while let Some(t) = q.pop_front() {
            if t.claim() {
                return Some(t);
            }
        }
        None
    }

    /// Lazy frames: take the first claimable slot of a frame nested, at any
    /// depth, in `under` — work the frame waited on cannot finish without.
    /// Entries it passes stay where they are.
    pub fn take_nested(&self, under: &FrameState) -> Option<Task> {
        let mut q = self.queue.lock();
        let at = q
            .iter()
            .position(|t| t.frame.descends_from(under) && t.claim())?;
        q.remove(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Local;
    use ace_logic::sym::sym;
    use ace_logic::{Cell, Heap, TermArena};
    use ace_machine::Cont;
    use ace_runtime::CancelToken;

    /// A three-branch frame raised at a `&`: slots 0 and 1 ship.
    fn frame(id: u64, parent: Option<&Arc<FrameState>>) -> Arc<FrameState> {
        let h = Heap::new();
        let goals = [
            Cell::Atom(sym("a")),
            Cell::Atom(sym("b")),
            Cell::Atom(sym("c")),
        ];
        let token = parent.map_or_else(CancelToken::new, |p| p.cancel.clone());
        let marks = (h.trail_mark(), h.heap_mark());
        let shipped = TermArena::freeze_tuple(&h, sym("$bundle"), &goals[..2]);
        FrameState::create(
            id,
            &goals,
            parent,
            &token,
            Local::Last,
            Cont::NONE,
            marks,
            Some(Arc::new(shipped)),
        )
    }

    /// What worker `taker` got: frame, slot, and whether it stole it.
    fn taken(t: Option<Task>, taker: usize) -> Option<(u64, usize, bool)> {
        t.map(|t| (t.frame.id, t.slot, t.stolen_by(taker)))
    }

    #[test]
    fn takes_are_fifo_across_frames_and_the_creator_decides_steal() {
        let sh = Shared::default();
        let (a, b) = (frame(1, None), frame(2, None));
        sh.publish(&a, [0], 0);
        sh.publish(&b, [0], 1);
        sh.publish(&a, [1], 0);
        assert!(sh.has_work());
        assert_eq!(taken(sh.take(), 0), Some((1, 0, false)));
        assert_eq!(taken(sh.take(), 0), Some((2, 0, true)), "worker 1 made it");
        assert_eq!(taken(sh.take(), 1), Some((1, 1, true)), "worker 0 made it");
        assert_eq!(taken(sh.take(), 0), None);
        assert!(!sh.has_work());
    }

    #[test]
    fn cancelled_and_claimed_entries_are_skipped_and_dropped() {
        let sh = Shared::default();
        let (a, b) = (frame(1, None), frame(2, None));
        sh.publish(&a, 0..2, 0);
        sh.publish(&b, 0..2, 0);
        a.fail();
        assert_eq!(b.claim(Some(0)), Some(0), "claimed by other means");
        assert_eq!(taken(sh.take(), 1), Some((2, 1, true)));
        assert!(!sh.has_work(), "the skipped entries are gone");
        assert_eq!(taken(sh.take(), 1), None);
    }

    #[test]
    fn the_nested_probe_takes_only_descendants_of_the_waited_frame() {
        let sh = Shared::default();
        let (waited, other) = (frame(1, None), frame(2, None));
        let child = frame(3, Some(&waited));
        let grandchild = frame(4, Some(&child));
        sh.publish(&other, [0], 0);
        sh.publish(&waited, [0], 0);
        sh.publish(&grandchild, [0], 1);
        sh.publish(&child, [1], 1);
        assert_eq!(taken(sh.take_nested(&waited), 0), Some((4, 0, true)));
        assert_eq!(taken(sh.take_nested(&waited), 0), Some((3, 1, true)));
        assert_eq!(
            taken(sh.take_nested(&waited), 0),
            None,
            "its own slot is no descendant"
        );
        // What the probe passed is still queued, in order.
        assert_eq!(taken(sh.take(), 0), Some((2, 0, false)));
        assert_eq!(taken(sh.take(), 0), Some((1, 0, false)));
        assert_eq!(taken(sh.take(), 0), None);
    }
}
