//! Execution drivers: deterministic virtual-time simulation and real
//! OS threads.
//!
//! Engines expose their workers as [`Agent`]s: objects that perform one
//! bounded *phase* of work per call and report its virtual cost. Between
//! phases, workers interact only through shared structures (work pools,
//! parcall frames, the or-tree), so a driver that serializes phases in
//! virtual-clock order ([`SimDriver`]) observes the same interleaving
//! semantics a real multiprocessor would, while remaining exactly
//! reproducible on a single host core.
//!
//! [`ThreadsDriver`] runs the identical agents on real threads; engines
//! must therefore be `Send` and use real synchronization internally, which
//! the test suite exercises.
//!
//! Both drivers *supervise* their workers: a panicking agent is contained
//! with `catch_unwind`, reported as a structured [`WorkerExit::Panicked`],
//! and the remaining workers are shut down cooperatively (via the driver's
//! [`CancelToken`] and, under threads, a stop flag checked between phases).
//! The process never aborts because one worker died, and the surviving
//! workers' clocks are still reported.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::cancel::CancelToken;
use crate::fault::{ABORT_ERROR_PREFIX, PANIC_ERROR_PREFIX};
use crate::trace::{EventKind, TraceSink};

/// The result of one agent phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Performed useful work costing this many units.
    Busy(u64),
    /// Probed for work and found none; cost of the probe.
    Idle(u64),
    /// This agent will never run again (global completion observed).
    Done,
}

/// A cooperative engine worker.
pub trait Agent: Send {
    /// Perform one bounded phase of work.
    fn phase(&mut self) -> Phase;
}

/// How one worker left the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerExit {
    /// Reported `Phase::Done` normally.
    Completed,
    /// Panicked mid-phase; the payload message is preserved.
    Panicked(String),
    /// Stopped by the driver before reporting `Done` (another worker
    /// panicked, or the run was aborted).
    Cancelled,
    /// Stopped because the wall-clock deadline expired.
    DeadlineExceeded,
}

impl WorkerExit {
    /// Short reason string used in trace events.
    fn trace_reason(&self) -> String {
        match self {
            WorkerExit::Completed => "completed".to_owned(),
            WorkerExit::Panicked(msg) => format!("panicked: {msg}"),
            WorkerExit::Cancelled => "cancelled".to_owned(),
            WorkerExit::DeadlineExceeded => "deadline-exceeded".to_owned(),
        }
    }
}

/// Outcome of a driver run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// max over workers of (busy + idle) virtual time — the simulated
    /// execution time reported in all reproduced tables.
    pub virtual_time: u64,
    /// Per-worker final clocks. A panicked worker's clock reflects the
    /// phases it completed before dying.
    pub clocks: Vec<u64>,
    /// Host wall-clock duration of the run.
    pub wall: Duration,
    /// Set when the driver aborted (livelock guard, time limit, wall-clock
    /// deadline, or a worker panic).
    pub aborted: Option<String>,
    /// Per-worker exit status, indexed like `clocks`.
    pub worker_exits: Vec<WorkerExit>,
}

impl RunOutcome {
    /// First panicked worker, if any: `(index, panic message)`.
    pub fn first_panic(&self) -> Option<(usize, &str)> {
        self.worker_exits.iter().enumerate().find_map(|(i, e)| {
            if let WorkerExit::Panicked(msg) = e {
                Some((i, msg.as_str()))
            } else {
                None
            }
        })
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

std::thread_local! {
    static SUPPRESS_PANIC_OUTPUT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// `catch_unwind` without the default hook's stderr backtrace: a panic the
/// driver is about to convert into [`WorkerExit::Panicked`] is supervision,
/// not a crash, and its message survives on the outcome. The installed hook
/// delegates to the previous one for every unsupervised thread, so panics
/// outside driver phases still print normally.
pub fn supervised<R>(f: impl FnOnce() -> R) -> std::thread::Result<R> {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(|flag| flag.get()) {
                prev(info);
            }
        }));
    });
    SUPPRESS_PANIC_OUTPUT.with(|flag| flag.set(true));
    let r = catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|flag| flag.set(false));
    r
}

/// Deterministic virtual-time driver: always advances the worker with the
/// smallest clock.
pub struct SimDriver {
    /// Abort when any clock exceeds this bound (livelock/bug guard).
    pub time_limit: Option<u64>,
    /// Cancelled by the driver when it aborts or contains a panic, so
    /// engine workers observing it can drain cooperatively. Engines pass
    /// their root token here.
    pub cancel: Option<CancelToken>,
    /// Sink for driver-side trace events (worker exits, aborts).
    pub trace: Option<TraceSink>,
}

impl Default for SimDriver {
    fn default() -> Self {
        SimDriver {
            time_limit: Some(200_000_000_000),
            cancel: None,
            trace: None,
        }
    }
}

impl SimDriver {
    pub fn new(time_limit: Option<u64>) -> Self {
        SimDriver {
            time_limit,
            cancel: None,
            trace: None,
        }
    }

    /// Attach the engine's root cancellation token (cancelled on abort or
    /// contained panic so surviving workers shut down instead of idling).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Attach a trace sink that receives worker-exit and abort events.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    fn cancel_all(&self) {
        if let Some(c) = &self.cancel {
            c.cancel();
        }
    }

    pub fn run(&self, mut agents: Vec<Box<dyn Agent + '_>>) -> RunOutcome {
        let start = Instant::now();
        let n = agents.len();
        let mut clocks = vec![0u64; n];
        let mut done = vec![false; n];
        let mut exits = vec![WorkerExit::Completed; n];
        let mut live = n;
        let mut aborted: Option<String> = None;
        // Livelock guard: consecutive all-idle rounds with no progress.
        let mut idle_streak = 0u64;
        let idle_limit = 1_000_000u64.max(10_000 * n as u64);

        while live > 0 {
            // Pick the live agent with the smallest clock (ties: lowest id,
            // which keeps the schedule deterministic).
            let mut who = usize::MAX;
            let mut best = u64::MAX;
            for i in 0..n {
                if !done[i] && clocks[i] < best {
                    best = clocks[i];
                    who = i;
                }
            }
            let phase = supervised(|| agents[who].phase());
            match phase {
                Ok(Phase::Busy(c)) => {
                    clocks[who] += c.max(1);
                    idle_streak = 0;
                }
                Ok(Phase::Idle(c)) => {
                    clocks[who] += c.max(1);
                    // Fast-forward past redundant probes: nothing can have
                    // changed before the next other live agent acts.
                    let next_other = (0..n)
                        .filter(|&i| i != who && !done[i])
                        .map(|i| clocks[i])
                        .min();
                    if let Some(t) = next_other {
                        if clocks[who] < t {
                            clocks[who] = t;
                        }
                    }
                    idle_streak += 1;
                    if idle_streak > idle_limit {
                        aborted = Some(format!(
                            "{ABORT_ERROR_PREFIX} livelock: {idle_streak} consecutive idle phases"
                        ));
                        break;
                    }
                }
                Ok(Phase::Done) => {
                    done[who] = true;
                    live -= 1;
                    idle_streak = 0;
                }
                Err(payload) => {
                    // Contain the panic: retire this agent, cancel the rest
                    // so they drain cooperatively, keep the run alive.
                    let msg = panic_message(payload);
                    if aborted.is_none() {
                        aborted =
                            Some(format!("{PANIC_ERROR_PREFIX} worker {who} panicked: {msg}"));
                    }
                    exits[who] = WorkerExit::Panicked(msg);
                    done[who] = true;
                    live -= 1;
                    idle_streak = 0;
                    self.cancel_all();
                }
            }
            if let Some(limit) = self.time_limit {
                if clocks[who] > limit {
                    aborted = Some(format!(
                        "{ABORT_ERROR_PREFIX} virtual time limit exceeded ({} > {limit})",
                        clocks[who]
                    ));
                    break;
                }
            }
        }

        if aborted.is_some() {
            self.cancel_all();
            for i in 0..n {
                if !done[i] {
                    exits[i] = WorkerExit::Cancelled;
                }
            }
        }

        if let Some(sink) = &self.trace {
            for (i, exit) in exits.iter().enumerate() {
                sink.emit(
                    clocks[i],
                    i,
                    EventKind::WorkerExit {
                        reason: exit.trace_reason(),
                    },
                );
            }
            if let Some(reason) = &aborted {
                let t = clocks.iter().copied().max().unwrap_or(0);
                sink.emit(
                    t,
                    0,
                    EventKind::Abort {
                        reason: reason.clone(),
                    },
                );
            }
        }

        RunOutcome {
            virtual_time: clocks.iter().copied().max().unwrap_or(0),
            clocks,
            wall: start.elapsed(),
            aborted,
            worker_exits: exits,
        }
    }
}

/// Real-threads driver: each agent runs on its own OS thread until `Done`.
///
/// Supervision: each worker loop runs under `catch_unwind`; the first panic
/// (or an expired wall-clock deadline) raises a stop flag checked between
/// phases and cancels the attached token, so the remaining workers shut
/// down cooperatively. Phases are quantum-bounded inside the engines, which
/// keeps the stop latency small.
#[derive(Default)]
pub struct ThreadsDriver {
    /// Wall-clock budget for the whole run; `None` disables the watchdog.
    pub deadline: Option<Duration>,
    /// Cancelled on panic or deadline so engine workers observing it can
    /// drain instead of waiting on shared state forever.
    pub cancel: Option<CancelToken>,
    /// Sink for driver-side trace events (worker exits, aborts).
    pub trace: Option<TraceSink>,
}

impl ThreadsDriver {
    pub fn new(deadline: Option<Duration>, cancel: Option<CancelToken>) -> Self {
        ThreadsDriver {
            deadline,
            cancel,
            trace: None,
        }
    }

    /// Attach a trace sink that receives worker-exit and abort events.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    pub fn run(&self, agents: Vec<Box<dyn Agent + Send + '_>>) -> RunOutcome {
        let start = Instant::now();
        let n = agents.len();
        let clocks: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let stop = AtomicBool::new(false);
        let deadline_hit = AtomicBool::new(false);
        let remaining = AtomicUsize::new(n);
        let panic_note: parking_lot::Mutex<Option<String>> = parking_lot::Mutex::new(None);

        let exits: Vec<WorkerExit> = std::thread::scope(|scope| {
            let clocks = &clocks;
            let stop = &stop;
            let remaining = &remaining;
            let panic_note = &panic_note;
            let cancel = &self.cancel;
            let handles: Vec<_> = agents
                .into_iter()
                .enumerate()
                .map(|(i, mut agent)| {
                    scope.spawn(move || {
                        let result = supervised(|| loop {
                            if stop.load(Ordering::Acquire) {
                                return WorkerExit::Cancelled;
                            }
                            match agent.phase() {
                                Phase::Busy(c) => {
                                    clocks[i].fetch_add(c, Ordering::Relaxed);
                                }
                                Phase::Idle(c) => {
                                    clocks[i].fetch_add(c, Ordering::Relaxed);
                                    std::thread::yield_now();
                                }
                                Phase::Done => return WorkerExit::Completed,
                            }
                        });
                        remaining.fetch_sub(1, Ordering::AcqRel);
                        match result {
                            Ok(exit) => exit,
                            Err(payload) => {
                                // First panic wins the abort message; either
                                // way stop the siblings and cancel the run.
                                let msg = panic_message(payload);
                                let mut note = panic_note.lock();
                                if note.is_none() {
                                    *note = Some(format!(
                                        "{PANIC_ERROR_PREFIX} worker {i} panicked: {msg}"
                                    ));
                                }
                                drop(note);
                                stop.store(true, Ordering::Release);
                                if let Some(c) = cancel {
                                    c.cancel();
                                }
                                WorkerExit::Panicked(msg)
                            }
                        }
                    })
                })
                .collect();

            // Watchdog: the spawning thread polls for deadline expiry while
            // workers run. A worker stuck *inside* a single phase cannot be
            // interrupted (phases are quantum-bounded by construction), but
            // anything cooperating at phase granularity stops promptly.
            if let Some(limit) = self.deadline {
                while remaining.load(Ordering::Acquire) > 0 {
                    if start.elapsed() >= limit {
                        deadline_hit.store(true, Ordering::Release);
                        stop.store(true, Ordering::Release);
                        if let Some(c) = &self.cancel {
                            c.cancel();
                        }
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }

            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|payload| {
                        // Only reachable if the supervision epilogue itself
                        // panicked; still never poison the whole run.
                        WorkerExit::Panicked(panic_message(payload))
                    })
                })
                .collect()
        });

        let deadline_expired = deadline_hit.load(Ordering::Acquire);
        let exits: Vec<WorkerExit> = exits
            .into_iter()
            .map(|e| {
                if deadline_expired && e == WorkerExit::Cancelled {
                    WorkerExit::DeadlineExceeded
                } else {
                    e
                }
            })
            .collect();

        let aborted = if deadline_expired {
            Some(format!(
                "{ABORT_ERROR_PREFIX} wall-clock deadline exceeded ({:?})",
                self.deadline.unwrap_or_default()
            ))
        } else {
            panic_note.lock().take()
        };

        let clocks: Vec<u64> = clocks.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        if let Some(sink) = &self.trace {
            for (i, exit) in exits.iter().enumerate() {
                sink.emit(
                    clocks[i],
                    i,
                    EventKind::WorkerExit {
                        reason: exit.trace_reason(),
                    },
                );
            }
            if let Some(reason) = &aborted {
                let t = clocks.iter().copied().max().unwrap_or(0);
                sink.emit(
                    t,
                    0,
                    EventKind::Abort {
                        reason: reason.clone(),
                    },
                );
            }
        }
        RunOutcome {
            virtual_time: clocks.iter().copied().max().unwrap_or(0),
            clocks,
            wall: start.elapsed(),
            aborted,
            worker_exits: exits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Toy agent: performs `work` phases of cost `each`, then Done.
    struct Toy {
        work: u64,
        each: u64,
        log: Arc<AtomicU64>,
    }

    impl Agent for Toy {
        fn phase(&mut self) -> Phase {
            if self.work == 0 {
                return Phase::Done;
            }
            self.work -= 1;
            self.log.fetch_add(1, Ordering::Relaxed);
            Phase::Busy(self.each)
        }
    }

    #[test]
    fn sim_runs_all_agents_to_completion() {
        let log = Arc::new(AtomicU64::new(0));
        let agents: Vec<Box<dyn Agent>> = (0..4)
            .map(|_| {
                Box::new(Toy {
                    work: 10,
                    each: 5,
                    log: log.clone(),
                }) as Box<dyn Agent>
            })
            .collect();
        let out = SimDriver::default().run(agents);
        assert_eq!(log.load(Ordering::Relaxed), 40);
        assert_eq!(out.virtual_time, 50);
        assert!(out.aborted.is_none());
        assert!(out.worker_exits.iter().all(|e| *e == WorkerExit::Completed));
    }

    #[test]
    fn sim_virtual_time_is_max_clock() {
        let log = Arc::new(AtomicU64::new(0));
        let agents: Vec<Box<dyn Agent>> = vec![
            Box::new(Toy {
                work: 1,
                each: 100,
                log: log.clone(),
            }),
            Box::new(Toy {
                work: 1,
                each: 10,
                log: log.clone(),
            }),
        ];
        let out = SimDriver::default().run(agents);
        assert_eq!(out.virtual_time, 100);
        assert_eq!(out.clocks, vec![100, 10]);
    }

    /// An agent that idles until a shared counter reaches a threshold
    /// raised by the other agent, then finishes.
    struct Waiter {
        shared: Arc<AtomicU64>,
        need: u64,
    }

    impl Agent for Waiter {
        fn phase(&mut self) -> Phase {
            if self.shared.load(Ordering::Acquire) >= self.need {
                Phase::Done
            } else {
                Phase::Idle(3)
            }
        }
    }

    struct Producer {
        shared: Arc<AtomicU64>,
        left: u64,
    }

    impl Agent for Producer {
        fn phase(&mut self) -> Phase {
            if self.left == 0 {
                return Phase::Done;
            }
            self.left -= 1;
            self.shared.fetch_add(1, Ordering::Release);
            Phase::Busy(20)
        }
    }

    #[test]
    fn sim_idle_agent_waits_for_producer() {
        let shared = Arc::new(AtomicU64::new(0));
        let agents: Vec<Box<dyn Agent>> = vec![
            Box::new(Producer {
                shared: shared.clone(),
                left: 5,
            }),
            Box::new(Waiter {
                shared: shared.clone(),
                need: 5,
            }),
        ];
        let out = SimDriver::default().run(agents);
        assert!(out.aborted.is_none());
        // waiter's clock advanced while idling but never past the producer
        // by more than one fast-forward hop
        assert!(out.clocks[1] <= out.clocks[0] + 3);
    }

    #[test]
    fn sim_detects_livelock() {
        struct Forever;
        impl Agent for Forever {
            fn phase(&mut self) -> Phase {
                Phase::Idle(1)
            }
        }
        let out = SimDriver::default().run(vec![Box::new(Forever)]);
        assert!(out.aborted.is_some());
        assert_eq!(out.worker_exits, vec![WorkerExit::Cancelled]);
    }

    #[test]
    fn sim_is_deterministic() {
        let run = || {
            let shared = Arc::new(AtomicU64::new(0));
            let agents: Vec<Box<dyn Agent>> = vec![
                Box::new(Producer {
                    shared: shared.clone(),
                    left: 7,
                }),
                Box::new(Waiter {
                    shared: shared.clone(),
                    need: 7,
                }),
                Box::new(Toy {
                    work: 3,
                    each: 11,
                    log: Arc::new(AtomicU64::new(0)),
                }),
            ];
            SimDriver::default().run(agents).clocks
        };
        assert_eq!(run(), run());
    }

    /// Panics on its `boom`-th phase; completes `boom` busy phases first.
    struct Bomb {
        boom: u64,
        at: u64,
    }

    impl Agent for Bomb {
        fn phase(&mut self) -> Phase {
            if self.at == self.boom {
                panic!("bomb went off at phase {}", self.at);
            }
            self.at += 1;
            Phase::Busy(5)
        }
    }

    /// Finishes when the token is cancelled, like a real engine worker.
    struct Cancellable {
        token: CancelToken,
        each: u64,
    }

    impl Agent for Cancellable {
        fn phase(&mut self) -> Phase {
            if self.token.is_cancelled() {
                Phase::Done
            } else {
                Phase::Busy(self.each)
            }
        }
    }

    #[test]
    fn sim_contains_worker_panic() {
        let token = CancelToken::new();
        let agents: Vec<Box<dyn Agent>> = vec![
            Box::new(Bomb { boom: 3, at: 0 }),
            Box::new(Cancellable {
                token: token.clone(),
                each: 4,
            }),
        ];
        let out = SimDriver::default().with_cancel(token).run(agents);
        let (who, msg) = out.first_panic().expect("panic must be reported");
        assert_eq!(who, 0);
        assert!(msg.contains("bomb went off"));
        assert!(out
            .aborted
            .as_deref()
            .unwrap()
            .starts_with(PANIC_ERROR_PREFIX));
        // the bomb's pre-panic phases are still on its clock
        assert_eq!(out.clocks[0], 15);
        // the survivor drained cooperatively
        assert_eq!(out.worker_exits[1], WorkerExit::Completed);
    }

    #[test]
    fn threads_driver_completes() {
        let log = Arc::new(AtomicU64::new(0));
        let agents: Vec<Box<dyn Agent + Send>> = (0..3)
            .map(|_| {
                Box::new(Toy {
                    work: 100,
                    each: 1,
                    log: log.clone(),
                }) as Box<dyn Agent + Send>
            })
            .collect();
        let out = ThreadsDriver::default().run(agents);
        assert_eq!(log.load(Ordering::Relaxed), 300);
        assert_eq!(out.virtual_time, 100);
        assert!(out.aborted.is_none());
        assert!(out.worker_exits.iter().all(|e| *e == WorkerExit::Completed));
    }

    #[test]
    fn threads_driver_survives_worker_panic() {
        // One poisoned agent must not abort the process, and the sibling
        // workers' clocks must still be reported.
        let token = CancelToken::new();
        let log = Arc::new(AtomicU64::new(0));
        let agents: Vec<Box<dyn Agent + Send>> = vec![
            Box::new(Bomb { boom: 2, at: 0 }),
            Box::new(Cancellable {
                token: token.clone(),
                each: 1,
            }),
            Box::new(Toy {
                work: 50,
                each: 2,
                log: log.clone(),
            }),
        ];
        let out = ThreadsDriver::new(None, Some(token)).run(agents);
        let (who, msg) = out.first_panic().expect("panic must be reported");
        assert_eq!(who, 0);
        assert!(msg.contains("bomb went off"));
        assert!(out
            .aborted
            .as_deref()
            .unwrap()
            .starts_with(PANIC_ERROR_PREFIX));
        assert_eq!(out.clocks.len(), 3);
        // the bomb completed 2 phases of cost 5 before dying
        assert_eq!(out.clocks[0], 10);
        // the cancellable worker drained (Done) or was stopped by the flag;
        // either way it exited in a structured fashion
        assert!(matches!(
            out.worker_exits[1],
            WorkerExit::Completed | WorkerExit::Cancelled
        ));
    }

    #[test]
    fn threads_driver_enforces_deadline() {
        // A worker that never finishes: without a deadline this would hang.
        struct Spinner;
        impl Agent for Spinner {
            fn phase(&mut self) -> Phase {
                std::thread::sleep(Duration::from_micros(200));
                Phase::Idle(1)
            }
        }
        let out = ThreadsDriver::new(Some(Duration::from_millis(50)), None)
            .run(vec![Box::new(Spinner), Box::new(Spinner)]);
        let reason = out.aborted.expect("deadline must abort the run");
        assert!(reason.contains("deadline"));
        assert!(out
            .worker_exits
            .iter()
            .all(|e| *e == WorkerExit::DeadlineExceeded));
    }
}
