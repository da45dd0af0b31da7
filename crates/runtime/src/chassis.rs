//! The worker chassis: the run protocol every engine shares.
//!
//! The and-parallel, or-parallel and finite-domain engines are instances
//! of one nondeterministic agent model, so everything about a run that is
//! not the search itself lives here, once:
//!
//! * the [`Control`] block shared by a run's workers — config, completion
//!   flag, first error, root [`CancelToken`], fault injector, answer-store
//!   handle, idle-worker count, the streamed-delivery step and the
//!   launch-and-fold tail ([`Control::launch`]);
//! * the [`WorkerCore`] each worker embeds — id, stats sheet, tracer,
//!   virtual clock, idle mark and backoff — and its one entry point for
//!   scheduling facts, [`WorkerCore::note`];
//! * the phase anatomy ([`Engine`] → [`Agent`]), in this order: **done**
//!   (drain hook, deposit stats and trace buffer, once) → **cancel** →
//!   **fault** → **work** → **idle** (quiescence test, exponential backoff).
//!
//! An engine supplies only its work step, its drain hook and, where the
//! engine rather than a worker decides that the search is over, a
//! quiescence test.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use ace_table::AnswerStore;
use parking_lot::Mutex;

use crate::cancel::CancelToken;
use crate::config::{DriverKind, EngineConfig};
use crate::cost::CostModel;
use crate::driver::{Agent, Phase, RunOutcome, SimDriver, ThreadsDriver};
use crate::fault::{FaultAction, FaultInjector, FAULT_ERROR_PREFIX, INJECTED_DEATH};
use crate::stats::Stats;
use crate::trace::{EventKind, LiveCounters, Trace, TraceBuf, TraceSink, Tracer};

/// Maximum cost a worker accumulates in one uninterrupted phase before
/// yielding to the driver (bounds cancellation latency and interleaving
/// granularity in the simulator), and the ceiling of the idle backoff.
pub const QUANTUM: u64 = 400;

/// State shared by all workers of one run, whatever the engine.
pub struct Control {
    pub cfg: EngineConfig,
    /// The run's one cost model: workers, machine pools and the root
    /// machine share it by refcount.
    pub costs: Arc<CostModel>,
    /// Answer store shared by every machine of the run (and, when the
    /// caller passed one in, across runs); `None` = memoization and
    /// tabling both off.
    pub store: Option<Arc<AnswerStore>>,
    /// Root of the run's cancellation tree: a child of
    /// `cfg.session.cancel` when an outside supervisor set one. The
    /// drivers cancel it when they contain a panic or hit a deadline;
    /// [`Control::finish`] cancels it after raising `done`.
    pub cancel: CancelToken,
    /// Fault injection (tests/robustness validation); `None` = no faults.
    pub injector: Option<FaultInjector>,
    done: AtomicBool,
    error: Mutex<Option<String>>,
    /// Workers currently without work — the demand signal for goal
    /// shipping and node publication.
    idle: AtomicUsize,
    nsolutions: AtomicUsize,
    worker_stats: Mutex<Vec<Stats>>,
    /// Ring buffers deposited by finished workers (tracing enabled only).
    trace_bufs: Mutex<Vec<TraceBuf>>,
}

/// What [`Control::launch`] hands back: the driver outcome with the run's
/// statistics folded and its trace merged.
pub struct Finished {
    /// `aborted` carries the run's failure whichever side raised it: the
    /// driver's own abort (panic, deadline, time limit) first, else the
    /// first error a worker recorded through [`Control::fail_with`].
    pub outcome: RunOutcome,
    pub stats: Stats,
    pub per_worker: Vec<Stats>,
    /// Merged event trace (`Some` iff `cfg.observe.trace.enabled`).
    pub trace: Option<Trace>,
}

impl Control {
    pub fn new(cfg: &EngineConfig) -> Arc<Control> {
        Arc::new(Control {
            cfg: cfg.clone(),
            costs: Arc::new(cfg.costs.clone()),
            store: cfg.resolve_store(),
            cancel: cfg.root_cancel(),
            injector: cfg
                .session
                .fault_plan
                .as_ref()
                .map(|p| FaultInjector::new(p, cfg.run.workers.max(1))),
            done: AtomicBool::new(false),
            error: Mutex::new(None),
            idle: AtomicUsize::new(0),
            nsolutions: AtomicUsize::new(0),
            worker_stats: Mutex::new(Vec::new()),
            trace_bufs: Mutex::new(Vec::new()),
        })
    }

    /// Number of workers the run has (at least one).
    pub fn workers(&self) -> usize {
        self.cfg.run.workers.max(1)
    }

    #[inline]
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// End the run: every worker drains at its next phase, and machines
    /// mid-quantum stop at their next cancellation check. `done` is
    /// stored before the token is cancelled, so a worker that sees the
    /// token cancelled can tell completion from an outside kill.
    pub fn finish(&self) {
        self.done.store(true, Ordering::Release);
        self.cancel.cancel();
    }

    /// End the run with an error (the first one wins).
    pub fn fail_with(&self, msg: String) {
        self.error.lock().get_or_insert(msg);
        self.finish();
    }

    /// Stream `answers` to the consumer's sink (if any) and count them
    /// against `max_solutions`. A `Stop` verdict, or reaching the bound,
    /// ends the run through the same cooperative path; returns whether
    /// the run is over.
    pub fn deliver<S: AsRef<str>>(
        &self,
        stats: &mut Stats,
        answers: impl ExactSizeIterator<Item = S>,
    ) -> bool {
        let n = answers.len();
        if let Some(sink) = &self.cfg.session.sink {
            for answer in answers {
                stats.answers_streamed += 1;
                if sink.deliver(answer.as_ref()).is_stop() {
                    stats.sink_stops += 1;
                    self.finish();
                    break;
                }
            }
        }
        let total = self.nsolutions.fetch_add(n, Ordering::AcqRel) + n;
        if self.cfg.max_solutions.is_some_and(|max| total >= max) {
            self.finish();
        }
        self.is_done()
    }

    /// Run `workers` to completion under the configured driver, then fold
    /// the run: per-worker stats summed, the live registry updated under
    /// `engine`, ring buffers and driver events merged into one trace.
    pub fn launch<'a, A: Agent + 'a>(&self, engine: &str, workers: Vec<A>) -> Finished {
        let cfg = &self.cfg;
        let sink = cfg.observe.trace.enabled.then(TraceSink::default);
        let (cancel, trace) = (Some(self.cancel.clone()), sink.clone());
        let agents = workers.into_iter();
        let mut outcome = match cfg.run.driver {
            DriverKind::Sim => {
                SimDriver { cancel, trace }.run(agents.map(|w| Box::new(w) as _).collect())
            }
            DriverKind::Threads => ThreadsDriver {
                deadline: cfg.run.threads_deadline,
                cancel,
                trace,
            }
            .run(agents.map(|w| Box::new(w) as _).collect()),
        };
        // Panics and driver aborts carry their own structured, prefixed
        // messages; report them ahead of any secondary error the drain
        // path may have recorded.
        if outcome.aborted.is_none() {
            outcome.aborted = self.error.lock().take();
        }
        let per_worker = std::mem::take(&mut *self.worker_stats.lock());
        let mut stats = Stats::new();
        for w in &per_worker {
            stats += *w;
        }
        // Fold the finished run into the live registry (engine totals +
        // per-tenant store traffic); a scrape between runs sees it.
        if let (Some(metrics), None) = (&cfg.observe.metrics, &outcome.aborted) {
            metrics.record_run(engine, cfg.store.tenant, &stats, outcome.virtual_time);
        }
        let trace =
            sink.map(|s| Trace::merge(std::mem::take(&mut *self.trace_bufs.lock()), s.drain()));
        Finished {
            outcome,
            stats,
            per_worker,
            trace,
        }
    }
}

/// The engine-independent half of a worker; engines embed one.
pub struct WorkerCore {
    /// Worker index (agent index in the driver).
    pub id: usize,
    pub ctl: Arc<Control>,
    /// [`Control::costs`], one hop closer to the hot paths.
    pub costs: Arc<CostModel>,
    pub stats: Stats,
    /// Event tracing (no-op unless `cfg.observe.trace.enabled`).
    pub tracer: Tracer,
    /// Live series of the events this worker notes; an engine whose
    /// events have any attaches them when the run carries a registry.
    pub live: Option<Box<LiveCounters>>,
    /// Virtual cost of the phase in progress, returned to the driver when
    /// it ends. Engines add cost a machine already counted in its own
    /// stats here directly; everything else goes through
    /// [`WorkerCore::charge`].
    pub phase_cost: u64,
    /// Virtual time of all phases already returned to the driver.
    vclock: u64,
    /// Counted in the control block's idle-worker count.
    marked_idle: bool,
    /// Consecutive no-work phases (exponential idle backoff).
    idle_streak: u32,
    reported: bool,
}

impl WorkerCore {
    pub fn new(id: usize, ctl: &Arc<Control>) -> Self {
        WorkerCore {
            id,
            ctl: ctl.clone(),
            costs: ctl.costs.clone(),
            stats: Stats::new(),
            tracer: Tracer::new(&ctl.cfg.observe.trace, id),
            live: None,
            phase_cost: 0,
            vclock: 0,
            marked_idle: false,
            idle_streak: 0,
            reported: false,
        }
    }

    /// Current worker-local virtual time, for event timestamps: monotone
    /// per worker and tracking the driver's clock.
    #[inline]
    pub fn now(&self) -> u64 {
        self.vclock + self.phase_cost
    }

    #[inline]
    pub fn charge(&mut self, units: u64) {
        self.stats.charge(units);
        self.phase_cost += units;
    }

    /// `cells` heap cells copied between heaps (a shipped goal, a solution
    /// bundle, an integration): count them and charge their price.
    pub fn charge_copy(&mut self, cells: usize) {
        self.stats.cells_copied += cells as u64;
        self.charge(cells as u64 * self.costs.heap_cell);
    }

    /// A scheduling fact happened, now: bump the counters its row
    /// declares, record it if this run traces its class, step its live
    /// series if one is attached. Prices stay with the site
    /// ([`WorkerCore::charge`]).
    #[inline(always)]
    pub fn note(&mut self, ev: EventKind) {
        ev.apply(&mut self.stats);
        if let Some(live) = &self.live {
            live.meter(&ev, self.id);
        }
        if self.tracer.records(ev.class()) {
            let t = self.now();
            self.tracer.record(t, ev);
        }
    }

    /// Are there idle workers other than this one? (The demand signal for
    /// goal shipping and publication; a worker's own idle mark from its
    /// previous phase must not count.)
    #[inline]
    pub fn others_idle(&self) -> bool {
        self.ctl.idle.load(Ordering::Acquire) > usize::from(self.marked_idle)
    }

    #[inline]
    fn mark_idle(&mut self, idle: bool) {
        if idle != self.marked_idle {
            self.marked_idle = idle;
            if idle {
                self.ctl.idle.fetch_add(1, Ordering::AcqRel);
            } else {
                self.ctl.idle.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }

    /// Probe again at the base cadence instead of backing off (the work
    /// step saw work that is about to become claimable).
    pub fn reset_backoff(&mut self) {
        self.idle_streak = 0;
    }

    /// Scheduler checkpoint: should this worker's next steal attempt fail?
    /// Consulted before anything is claimed, and only while `work_visible`
    /// (so the fault is spent on a steal that would have succeeded); the
    /// work stays where it is and the worker retries after its backoff.
    pub fn steal_faulted(&mut self, work_visible: impl FnOnce() -> bool) -> bool {
        let faulted = self
            .ctl
            .injector
            .as_ref()
            .is_some_and(|inj| work_visible() && inj.steal_fails(self.id));
        if faulted {
            self.note(EventKind::FaultInjected { kind: "steal-fail" });
            self.note(EventKind::FaultRetry { what: "steal" });
        }
        faulted
    }

    /// The cancellation and fault-injection checkpoint every phase passes
    /// before it works; `Some` is the phase result when one of them fired.
    #[inline]
    fn checkpoint(&mut self) -> Option<Phase> {
        // Cooperative shutdown: the drivers cancel the root token when
        // they contain a panic or hit a deadline, an outside supervisor
        // cancels its parent. `finish()` cancels it too, but stores `done`
        // first — so re-checking `done` here tells the two apart and
        // never fails a completed run.
        if self.ctl.cancel.is_cancelled() {
            if !self.ctl.is_done() {
                self.ctl
                    .fail_with(format!("{FAULT_ERROR_PREFIX} run cancelled"));
            }
            return Some(Phase::Busy(1));
        }
        match self.ctl.injector.as_ref()?.poll(self.id)? {
            // A clock jump: virtual time lost, no state touched.
            FaultAction::Stall(cost) => {
                self.stats.charge(cost);
                self.note(EventKind::FaultInjected { kind: "stall" });
                self.note(EventKind::FaultStall { cost });
                Some(Phase::Busy(cost.max(1)))
            }
            FaultAction::Cancel => {
                self.note(EventKind::FaultInjected { kind: "cancel" });
                self.ctl.fail_with(format!(
                    "{FAULT_ERROR_PREFIX} injected cancellation on worker {}",
                    self.id
                ));
                Some(Phase::Busy(1))
            }
            FaultAction::Die => panic!("{INJECTED_DEATH}"),
        }
    }

    /// One fruitless probe: consecutive ones grow exponentially up to the
    /// quantum, so idle workers don't flood the virtual-time driver with
    /// micro-phases.
    fn idle_probe(&mut self) -> Phase {
        let base = self.costs.idle_probe;
        let p = (base << self.idle_streak.min(6)).min(QUANTUM.max(base));
        self.idle_streak = self.idle_streak.saturating_add(1);
        self.note(EventKind::IdleProbe { cost: p });
        Phase::Idle(p)
    }
}

/// Result of one engine work step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Did something; its cost is on the core's `phase_cost`.
    Worked,
    /// Found nothing to do.
    NoWork,
}

/// What an engine's worker plugs into the chassis. Every `Engine` is an
/// [`Agent`]: the chassis wraps the work step in the shared phase anatomy.
pub trait Engine: Send {
    fn core(&mut self) -> &mut WorkerCore;

    /// One bounded step of the engine's own work.
    fn work(&mut self) -> Step;

    /// Run once, when this worker first observes `done`: release what the
    /// worker still holds so its counters reach the stats sheet.
    fn drain(&mut self) {}

    /// Asked after a fruitless work step: is there provably no work left
    /// anywhere? Engines whose root computation ends the run itself keep
    /// the default.
    fn quiescent(&self) -> bool {
        false
    }
}

impl<E: Engine> Agent for E {
    fn phase(&mut self) -> Phase {
        // Reset before anything can emit: a stale partial cost from the
        // previous phase would inflate event timestamps past this phase's
        // clock advance.
        self.core().phase_cost = 0;
        let p = phase_inner(self);
        let w = self.core();
        if let Phase::Busy(c) | Phase::Idle(c) = p {
            let phase = if matches!(p, Phase::Busy(_)) {
                "busy"
            } else {
                "idle"
            };
            // The phase is over: its bounds are the driver's clock before
            // and after it, with no partial cost on top.
            w.phase_cost = 0;
            w.note(EventKind::PhaseStart { phase });
            w.vclock += c;
            w.note(EventKind::PhaseEnd { phase });
        }
        p
    }
}

fn phase_inner<E: Engine>(e: &mut E) -> Phase {
    if e.core().ctl.is_done() {
        if !e.core().reported {
            e.core().reported = true;
            e.drain();
            let w = e.core();
            w.ctl.worker_stats.lock().push(w.stats);
            if let Some(buf) = w.tracer.take() {
                w.ctl.trace_bufs.lock().push(buf);
            }
        }
        return Phase::Done;
    }
    if let Some(p) = e.core().checkpoint() {
        return p;
    }
    match e.work() {
        Step::Worked => {
            let w = e.core();
            w.idle_streak = 0;
            w.mark_idle(false);
            Phase::Busy(w.phase_cost.max(1))
        }
        Step::NoWork => {
            // The idle mark stays up across phases so busy workers ship
            // and publish on demand.
            e.core().mark_idle(true);
            if e.quiescent() {
                e.core().ctl.finish();
                return Phase::Busy(1);
            }
            e.core().idle_probe()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::sink::{AnswerSink, SinkVerdict};

    /// A machine-free engine: `work_left` busy steps of cost 5 (each one
    /// delivering an answer when `answers` is set), then no work.
    struct Toy {
        core: WorkerCore,
        work_left: u32,
        answers: bool,
        drains: u32,
        quiescent: bool,
    }

    impl Toy {
        fn new(id: usize, ctl: &Arc<Control>, work_left: u32) -> Toy {
            Toy {
                core: WorkerCore::new(id, ctl),
                work_left,
                answers: false,
                drains: 0,
                quiescent: false,
            }
        }
    }

    impl Engine for Toy {
        fn core(&mut self) -> &mut WorkerCore {
            &mut self.core
        }

        fn work(&mut self) -> Step {
            if self.work_left == 0 {
                return Step::NoWork;
            }
            self.work_left -= 1;
            self.core.charge(5);
            if self.answers {
                let answer = format!("X={}", self.work_left);
                self.core
                    .ctl
                    .deliver(&mut self.core.stats, std::iter::once(answer));
            }
            Step::Worked
        }

        fn drain(&mut self) {
            self.drains += 1;
        }

        fn quiescent(&self) -> bool {
            self.quiescent
        }
    }

    fn cfg() -> EngineConfig {
        EngineConfig::default().all_solutions()
    }

    #[test]
    fn done_drains_and_deposits_exactly_once_per_worker() {
        let ctl = Control::new(&cfg().with_trace(crate::TraceConfig::enabled()));
        let mut a = Toy::new(0, &ctl, 2);
        let mut b = Toy::new(1, &ctl, 0);
        assert_eq!(a.phase(), Phase::Busy(5));
        assert!(matches!(b.phase(), Phase::Idle(_)));
        ctl.finish();
        for _ in 0..3 {
            assert_eq!(a.phase(), Phase::Done);
            assert_eq!(b.phase(), Phase::Done);
        }
        assert_eq!((a.drains, b.drains), (1, 1));
        assert_eq!(ctl.worker_stats.lock().len(), 2);
        assert_eq!(ctl.trace_bufs.lock().len(), 2);
        assert_eq!(a.work_left, 1, "a done worker does no further work");
    }

    #[test]
    fn launch_folds_stats_and_merges_the_trace() {
        let ctl = Control::new(
            &cfg()
                .with_workers(2)
                .with_trace(crate::TraceConfig::enabled()),
        );
        let mut workers: Vec<Toy> = (0..2).map(|id| Toy::new(id, &ctl, 3)).collect();
        // Worker 1 decides the search is over once it runs dry.
        workers[1].quiescent = true;
        let fin = ctl.launch("toy", workers);
        assert!(fin.outcome.aborted.is_none());
        assert_eq!(fin.per_worker.len(), 2);
        assert_eq!(fin.stats.cost, 30);
        // Worker 0 ran dry first and probed once (12); worker 1 ended the
        // run from its own dry step (1).
        assert_eq!(fin.stats.idle_probes, 1);
        assert_eq!(fin.outcome.clocks, vec![27, 16]);
        let trace = fin.trace.expect("tracing was on");
        assert_eq!(trace.workers(), 2);
    }

    #[test]
    fn cancellation_after_done_is_not_a_failure() {
        // The race: a worker read `done == false`, then a concurrent
        // `finish()` stored `done` and cancelled the token. Entering the
        // checkpoint directly is exactly that worker's view.
        let ctl = Control::new(&cfg());
        let mut w = WorkerCore::new(0, &ctl);
        ctl.finish();
        assert_eq!(w.checkpoint(), Some(Phase::Busy(1)));
        assert!(ctl.error.lock().is_none());

        // An outside kill (token cancelled, run not done) is a fault.
        let session = CancelToken::new();
        let mut c = cfg();
        c.session.cancel = Some(session.clone());
        let ctl = Control::new(&c);
        let mut w = WorkerCore::new(0, &ctl);
        assert_eq!(w.checkpoint(), None);
        session.cancel();
        assert_eq!(w.checkpoint(), Some(Phase::Busy(1)));
        assert!(ctl.is_done());
        let err = ctl.error.lock().clone().expect("kill must be recorded");
        assert!(err.starts_with(FAULT_ERROR_PREFIX), "{err}");
    }

    #[test]
    fn fault_checkpoint_stalls_cancels_and_dies() {
        let plan = FaultPlan::new(0)
            .with(0, 0, FaultKind::Stall { cost: 50 })
            .with(0, 3, FaultKind::Stall { cost: 0 })
            .with(1, 0, FaultKind::Cancel)
            .with(2, 0, FaultKind::Die);
        let mut c = cfg().with_workers(3);
        c.session.fault_plan = Some(plan);
        let ctl = Control::new(&c);

        let mut w = WorkerCore::new(0, &ctl);
        assert_eq!(w.checkpoint(), Some(Phase::Busy(50)));
        assert_eq!(w.checkpoint(), None);
        assert_eq!(
            w.checkpoint(),
            Some(Phase::Busy(1)),
            "Stall(0) still advances"
        );
        assert_eq!((w.stats.faults_injected, w.stats.fault_stalls), (2, 2));
        assert_eq!(w.stats.cost, 50);

        let mut dying = WorkerCore::new(2, &ctl);
        let payload = crate::supervised(|| dying.checkpoint()).expect_err("Die must panic");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), INJECTED_DEATH);

        let mut w = WorkerCore::new(1, &ctl);
        assert_eq!(w.checkpoint(), Some(Phase::Busy(1)));
        assert_eq!(w.stats.faults_injected, 1);
        let err = ctl
            .error
            .lock()
            .clone()
            .expect("Cancel goes through fail_with");
        assert!(err.starts_with(FAULT_ERROR_PREFIX), "{err}");
        assert!(ctl.is_done() && ctl.cancel.is_cancelled());
    }

    #[test]
    fn idle_backoff_doubles_up_to_the_quantum() {
        let mut c = cfg();
        c.costs.idle_probe = 10;
        let ctl = Control::new(&c);
        let mut toy = Toy::new(0, &ctl, 0);
        let probes: Vec<Phase> = (0..8).map(|_| toy.phase()).collect();
        let expect = [10, 20, 40, 80, 160, 320, 400, 400].map(Phase::Idle);
        assert_eq!(probes, expect);
        assert_eq!(toy.core.stats.idle_probes, 8);
        assert_eq!(toy.core.stats.idle_cost, 1430);
        // Work resets the streak.
        toy.work_left = 1;
        assert_eq!(toy.phase(), Phase::Busy(5));
        assert_eq!(toy.phase(), Phase::Idle(10));
    }

    #[test]
    fn sink_stop_on_the_kth_answer_ends_the_run() {
        let sink = AnswerSink::new({
            let seen = AtomicUsize::new(0);
            move |_| {
                if seen.fetch_add(1, Ordering::Relaxed) + 1 == 3 {
                    SinkVerdict::Stop
                } else {
                    SinkVerdict::Continue
                }
            }
        });
        let mut c = cfg();
        c.session.sink = Some(sink);
        let ctl = Control::new(&c);
        let mut toy = Toy::new(0, &ctl, 10);
        toy.answers = true;
        let fin = ctl.launch("toy", vec![toy]);
        assert!(fin.outcome.aborted.is_none());
        assert_eq!(fin.stats.answers_streamed, 3);
        assert_eq!(fin.stats.sink_stops, 1);
        assert_eq!(fin.outcome.virtual_time, 15);
    }

    #[test]
    fn max_solutions_bounds_a_batch_delivery() {
        let mut c = cfg();
        c.max_solutions = Some(2);
        let ctl = Control::new(&c);
        let mut stats = Stats::new();
        assert!(!ctl.deliver(&mut stats, ["a"].iter()));
        assert!(ctl.deliver(&mut stats, ["b", "c"].iter()));
        assert!(ctl.is_done());
        assert_eq!(stats.answers_streamed, 0, "no sink, nothing streamed");
    }
}
