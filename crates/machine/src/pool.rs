//! Per-worker machine recycling.

use std::sync::Arc;

use ace_logic::Database;
use ace_runtime::{EventKind, WorkerCore};

use crate::machine::Machine;

/// How many reset machines a worker keeps for reuse. A worker's stack of
/// activations is shallow, so a small cache captures nearly all reuse
/// without hoarding heap capacity.
const CAP: usize = 8;

/// A worker's cache of reset machines, so that starting a subgoal or
/// installing a claimed alternative does not pay a fresh heap/trail
/// allocation (and interned handles stay warm).
pub struct MachinePool {
    db: Arc<Database>,
    #[allow(clippy::vec_box)] // machines move in and out of activations as Box
    free: Vec<Box<Machine>>,
}

impl MachinePool {
    pub fn new(db: Arc<Database>) -> Self {
        MachinePool {
            db,
            free: Vec::new(),
        }
    }

    /// The program every machine of this pool runs, for
    /// [`Machine::run_on`].
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// A machine configured for `w`'s run: a recycled one when available,
    /// else freshly allocated.
    pub fn acquire(&mut self, w: &mut WorkerCore) -> Box<Machine> {
        let mut m = match self.free.pop() {
            Some(m) => {
                w.note(EventKind::MachineRecycle);
                m
            }
            None => Box::new(Machine::new(self.db.clone(), w.costs.clone())),
        };
        m.configure(&w.ctl.cfg, w.ctl.store.clone());
        m
    }

    /// Take a finished machine back: surface any cost and events not yet
    /// on the worker's clock and tracer, harvest its counters into the
    /// worker's sheet, reset it and cache it for the next `acquire`.
    pub fn retire(&mut self, w: &mut WorkerCore, mut m: Box<Machine>) {
        m.surface(w);
        // Busy cost drives clocks via per-phase surfacing; `stats.cost`
        // keeps the report totals coherent.
        w.stats += m.stats;
        m.reset();
        if self.free.len() < CAP {
            self.free.push(m);
        }
    }
}
