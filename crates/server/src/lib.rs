//! # ace-server — a multi-tenant query server over one worker fleet
//!
//! The engines answer one query at a time; real deployments multiplex many.
//! [`QueryServer`] owns a small fleet of serving threads and turns every
//! submitted query into a [`Session`](SessionHandle) with a priority class,
//! a tenant id, an optional wall-clock deadline and a cancellation token
//! wired into the engines' existing cancel checkpoints.
//!
//! The serving contract:
//!
//! - **Admission control.** At most [`ServerConfig::max_in_flight`] sessions
//!   are admitted (queued + running). [`QueryServer::submit`] rejects past
//!   the high-water mark with [`AceError::Overloaded`];
//!   [`QueryServer::submit_blocking`] applies backpressure instead, blocking
//!   the producer until space frees up.
//! - **Streaming.** Answers are delivered over the session's channel while
//!   the or-tree is still being explored (the engines' [`AnswerSink`] hook).
//!   `max_answers` gives `take(n)` semantics: the sink's `Stop` verdict
//!   propagates into the engines as cooperative early termination.
//! - **Deadlines.** A watchdog thread cancels sessions (queued or running)
//!   whose wall deadline passes; the fleet thread is reclaimed at the next
//!   engine cancel checkpoint.
//! - **Isolation.** Each session runs under supervised `catch_unwind`: a panicking
//!   query degrades to a sequential replay (already-streamed answers are
//!   deduplicated so the client never sees an answer twice) and the fleet
//!   survives. Every session ends in exactly one [`SessionEnd`] state.
//! - **Observability.** With tracing enabled the server emits session
//!   lifecycle events (admit / reject / cancel / first-answer / drain) with
//!   a server-global causal sequence number, so the runtime
//!   [`TraceChecker`](ace_runtime::trace::TraceChecker) can prove that no
//!   answer was streamed after its session's cancel event.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ace_core::error::OVERLOAD_ERROR_PREFIX;
use ace_core::{Ace, AceError, Mode, RunReport};
use ace_runtime::fault::INJECTED_DEATH;
use ace_runtime::trace::{TraceConfig, TraceSink};
use ace_runtime::{
    supervised, AnswerSink, CancelToken, EngineConfig, EventKind, FaultAction, FaultInjector,
    FaultPlan, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, SinkVerdict, Trace,
};

// ---------------------------------------------------------------------------
// Public request / outcome types
// ---------------------------------------------------------------------------

/// Scheduling class of a session. Higher priorities are always dispatched
/// before lower ones; within a class dispatch is FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    High,
    Normal,
    Low,
}

impl Priority {
    fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// One query submission.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Which engine executes the query.
    pub mode: Mode,
    /// The query text.
    pub query: String,
    /// Base engine configuration. The server overlays the session's
    /// cancellation token, tenant id and streaming sink on top of it.
    pub cfg: EngineConfig,
    /// Tenant id: scopes memo-table insertions under per-tenant quotas.
    pub tenant: u32,
    /// Scheduling class.
    pub priority: Priority,
    /// Wall-clock deadline measured from admission. `None` falls back to
    /// [`ServerConfig::default_deadline`].
    pub deadline: Option<Duration>,
    /// Stop after this many streamed answers (`take(n)`). `None` runs the
    /// query to exhaustion (or its `max_solutions` bound).
    pub max_answers: Option<usize>,
}

impl QueryRequest {
    /// A normal-priority request with no deadline override.
    pub fn new(mode: Mode, query: impl Into<String>, cfg: EngineConfig) -> QueryRequest {
        QueryRequest {
            mode,
            query: query.into(),
            cfg,
            tenant: 0,
            priority: Priority::Normal,
            deadline: None,
            max_answers: None,
        }
    }

    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    pub fn take(mut self, n: usize) -> Self {
        self.max_answers = Some(n);
        self
    }
}

/// How a session ended. Every admitted session ends in exactly one of
/// these states; rejected submissions never become sessions (they fail
/// synchronously with [`AceError::Overloaded`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEnd {
    /// The query ran to completion (or to its `take(n)` bound).
    Completed,
    /// The wall-clock deadline passed; the watchdog cancelled the session.
    DeadlineCancelled,
    /// The client cancelled via [`SessionHandle::cancel`].
    ClientCancelled,
    /// The parallel run was killed by an infrastructure failure (worker
    /// death, injected fault, panic in the dispatch window) and the query
    /// was replayed on the sequential engine. Already-streamed answers
    /// were deduplicated; the recovery is recorded on the report.
    Degraded,
    /// The query itself failed (parse or program error), or the degraded
    /// replay failed too.
    Failed(AceError),
}

impl SessionEnd {
    fn name(&self) -> &'static str {
        match self {
            SessionEnd::Completed => "completed",
            SessionEnd::DeadlineCancelled => "deadline-cancelled",
            SessionEnd::ClientCancelled => "client-cancelled",
            SessionEnd::Degraded => "degraded",
            SessionEnd::Failed(_) => "failed",
        }
    }
}

/// Final state of a finished session.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    pub end: SessionEnd,
    /// The run report, when an engine run (or degraded replay) finished.
    /// Cancelled and failed sessions may have none.
    pub report: Option<RunReport>,
}

// ---------------------------------------------------------------------------
// Server configuration and stats
// ---------------------------------------------------------------------------

/// Server-level configuration (engine-level knobs ride on each request's
/// [`EngineConfig`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Serving threads: how many sessions run concurrently.
    pub fleet: usize,
    /// Admission high-water mark: maximum admitted (queued + running)
    /// sessions. `submit` rejects past it; `submit_blocking` blocks.
    pub max_in_flight: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Faults injected at serving-layer checkpoints (admission, the
    /// dispatch window, per-answer delivery). Engine-level faults belong
    /// on the request's `EngineConfig`.
    pub fault_plan: Option<FaultPlan>,
    /// Session lifecycle tracing (admit / cancel / stream / drain events).
    pub trace: TraceConfig,
    /// Live metrics registry. When set, the server publishes admission,
    /// latency and queue-depth families into it and overlays it on every
    /// session's engine config (engine/memo families accumulate there
    /// too). `None` (the default) disables scraping at one branch per
    /// site — the same contract as [`EngineConfig::with_metrics`].
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            fleet: 2,
            max_in_flight: 32,
            default_deadline: None,
            fault_plan: None,
            trace: TraceConfig::default(),
            metrics: None,
        }
    }
}

impl ServerConfig {
    pub fn with_fleet(mut self, fleet: usize) -> Self {
        self.fleet = fleet.max(1);
        self
    }

    pub fn with_max_in_flight(mut self, n: usize) -> Self {
        self.max_in_flight = n.max(1);
        self
    }

    pub fn with_default_deadline(mut self, d: Duration) -> Self {
        self.default_deadline = Some(d);
        self
    }

    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }
}

/// Monotonic serving counters (snapshot via [`QueryServer::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub submitted: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub deadline_cancelled: u64,
    pub client_cancelled: u64,
    pub degraded: u64,
    pub failed: u64,
    pub answers_streamed: u64,
}

#[derive(Default)]
struct AtomicStats {
    submitted: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    deadline_cancelled: AtomicU64,
    client_cancelled: AtomicU64,
    degraded: AtomicU64,
    failed: AtomicU64,
    answers_streamed: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            deadline_cancelled: self.deadline_cancelled.load(Ordering::Relaxed),
            client_cancelled: self.client_cancelled.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            answers_streamed: self.answers_streamed.load(Ordering::Relaxed),
        }
    }
}

/// Pre-resolved serving-layer metric handles. Gauges and latency
/// histograms are labeled by priority only (three handles each, resolved
/// once); the per-tenant admission counters carry a dynamic tenant label
/// and are resolved through the registry at each admission/rejection —
/// those paths already hold the queue lock, so the registry lookup is
/// never on an answer-streaming hot path.
struct ServerLive {
    registry: Arc<MetricsRegistry>,
    queue_depth: [Gauge; 3],
    in_flight: Gauge,
    first_answer_us: [Histogram; 3],
    completion_us: [Histogram; 3],
}

const PRIORITY_NAMES: [&str; 3] = ["high", "normal", "low"];

impl ServerLive {
    fn new(registry: Arc<MetricsRegistry>) -> ServerLive {
        registry.describe(
            "ace_server_sessions_admitted_total",
            "sessions admitted, by tenant and priority",
        );
        registry.describe(
            "ace_server_sessions_rejected_total",
            "submissions rejected by admission control, by tenant and priority",
        );
        registry.describe(
            "ace_server_deadline_misses_total",
            "sessions cancelled by the deadline watchdog, by tenant and priority",
        );
        registry.describe(
            "ace_server_queue_depth",
            "admitted sessions waiting for a fleet thread, by priority",
        );
        registry.describe(
            "ace_server_in_flight",
            "admitted sessions queued or running",
        );
        registry.describe(
            "ace_server_first_answer_latency_us",
            "microseconds from submission to first streamed answer, by priority",
        );
        registry.describe(
            "ace_server_completion_latency_us",
            "microseconds from submission to session end, by priority",
        );
        let queue_depth =
            PRIORITY_NAMES.map(|p| registry.gauge("ace_server_queue_depth", &[("priority", p)]));
        let first_answer_us = PRIORITY_NAMES
            .map(|p| registry.histogram("ace_server_first_answer_latency_us", &[("priority", p)]));
        let completion_us = PRIORITY_NAMES
            .map(|p| registry.histogram("ace_server_completion_latency_us", &[("priority", p)]));
        let in_flight = registry.gauge("ace_server_in_flight", &[]);
        ServerLive {
            registry,
            queue_depth,
            in_flight,
            first_answer_us,
            completion_us,
        }
    }

    fn admitted(&self, tenant: u32, priority: Priority) {
        self.registry
            .counter(
                "ace_server_sessions_admitted_total",
                &[
                    ("tenant", &tenant.to_string()),
                    ("priority", priority.name()),
                ],
            )
            .inc(0);
    }

    fn rejected(&self, tenant: u32, priority: Priority) {
        self.registry
            .counter(
                "ace_server_sessions_rejected_total",
                &[
                    ("tenant", &tenant.to_string()),
                    ("priority", priority.name()),
                ],
            )
            .inc(0);
    }

    fn deadline_miss(&self, tenant: u32, priority: Priority) {
        self.registry
            .counter(
                "ace_server_deadline_misses_total",
                &[
                    ("tenant", &tenant.to_string()),
                    ("priority", priority.name()),
                ],
            )
            .inc(0);
    }
}

// ---------------------------------------------------------------------------
// Session plumbing
// ---------------------------------------------------------------------------

/// Shared per-session control block. The `gate` mutex makes the pair
/// "check the cancel flag, then emit the answer event" atomic against the
/// pair "emit the cancel event, then set the cancel flag", which is what
/// lets the trace checker prove no answer was streamed after a cancel.
struct SessionCtl {
    id: u64,
    cancel: CancelToken,
    gate: Mutex<()>,
    finished: AtomicBool,
    client_cancelled: AtomicBool,
    /// Set by whichever cancel path emits the session's cancel trace
    /// event first, so repeated cancels (client + shutdown) stay
    /// single-event in the trace.
    cancel_emitted: AtomicBool,
}

struct SessionDone {
    outcome: SessionOutcome,
}

struct DoneCell {
    state: Mutex<Option<SessionDone>>,
    cv: Condvar,
}

struct Session {
    ctl: Arc<SessionCtl>,
    req: QueryRequest,
    tx: Sender<String>,
    done: Arc<DoneCell>,
    streamed: Arc<AtomicU64>,
    /// Stamped at the top of `submit`/`submit_blocking` — *before* any
    /// backpressure wait — so latency histograms measure what the client
    /// experienced, matching a client-side clock started at submission.
    born: Instant,
}

/// Client handle to one admitted session: a live answer stream plus
/// cancellation and completion.
pub struct SessionHandle {
    ctl: Arc<SessionCtl>,
    inner: Arc<Inner>,
    answers: Receiver<String>,
    done: Arc<DoneCell>,
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("id", &self.ctl.id)
            .finish_non_exhaustive()
    }
}

impl SessionHandle {
    pub fn id(&self) -> u64 {
        self.ctl.id
    }

    /// The live answer stream. The channel closes when the session ends,
    /// so iterating the receiver terminates.
    pub fn answers(&self) -> &Receiver<String> {
        &self.answers
    }

    /// Block for the next streamed answer; `None` once the session ended
    /// and the stream drained.
    pub fn next_answer(&self) -> Option<String> {
        self.answers.recv().ok()
    }

    /// Cancel the session. Idempotent; a session that already finished is
    /// unaffected.
    pub fn cancel(&self) {
        self.inner.cancel_session(&self.ctl);
    }

    /// Block until the session ends.
    pub fn wait(&self) -> SessionOutcome {
        let mut st = self.done.state.lock().unwrap();
        loop {
            if let Some(done) = st.as_ref() {
                return done.outcome.clone();
            }
            st = self.done.cv.wait(st).unwrap();
        }
    }

    /// Convenience: wait for the end of the session and collect every
    /// streamed answer.
    pub fn drain(&self) -> (Vec<String>, SessionOutcome) {
        let outcome = self.wait();
        let mut answers = Vec::new();
        while let Ok(a) = self.answers.try_recv() {
            answers.push(a);
        }
        (answers, outcome)
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

struct QueueState {
    queues: [std::collections::VecDeque<Session>; 3],
    in_flight: usize,
    shutdown: bool,
}

struct WatchEntry {
    at: Instant,
    ctl: Arc<SessionCtl>,
    inner_weak: std::sync::Weak<Inner>,
}

struct Watchdog {
    entries: Mutex<Vec<WatchEntry>>,
    cv: Condvar,
    shutdown: AtomicBool,
}

struct Inner {
    ace: Ace,
    cfg: ServerConfig,
    queue: Mutex<QueueState>,
    work_cv: Condvar,
    space_cv: Condvar,
    injector: Option<FaultInjector>,
    sink_events: Option<TraceSink>,
    seq: AtomicU64,
    next_id: AtomicU64,
    stats: AtomicStats,
    /// Every admitted, not-yet-finished session, so shutdown can cancel
    /// in-flight work instead of waiting forever on an infinite
    /// enumeration. Pruned of finished entries on each admission.
    live: Mutex<Vec<std::sync::Weak<SessionCtl>>>,
    /// Serving-layer metric handles (`None` unless `cfg.metrics` is set).
    metrics: Option<ServerLive>,
}

impl Inner {
    /// Emit a session lifecycle event stamped with the next value of the
    /// server-global sequence counter (causal order across sessions).
    fn emit(&self, kind: EventKind) {
        if let Some(sink) = &self.sink_events {
            let t = self.seq.fetch_add(1, Ordering::Relaxed);
            sink.emit(t, 0, kind);
        }
    }

    /// Cancel one session: flag it, emit its cancel event once (under the
    /// gate, so the no-answer-after-cancel trace invariant holds), and
    /// fire the token every engine root is parented under.
    fn cancel_session(&self, ctl: &SessionCtl) {
        ctl.client_cancelled.store(true, Ordering::Release);
        let _gate = ctl.gate.lock().unwrap();
        if !ctl.finished.load(Ordering::Acquire) && !ctl.cancel_emitted.swap(true, Ordering::AcqRel)
        {
            self.emit(EventKind::SessionCancel { session: ctl.id });
        }
        ctl.cancel.cancel();
    }
}

/// The multi-tenant query server. See the crate docs for the contract.
pub struct QueryServer {
    inner: Arc<Inner>,
    fleet: Vec<JoinHandle<()>>,
    watchdog: Arc<Watchdog>,
    watchdog_thread: Option<JoinHandle<()>>,
}

/// `Ace::serve(cfg)` — the facade entry point to the serving layer.
pub trait Serve {
    fn serve(&self, cfg: ServerConfig) -> QueryServer;
}

impl Serve for Ace {
    fn serve(&self, cfg: ServerConfig) -> QueryServer {
        QueryServer::new(self.clone(), cfg)
    }
}

impl QueryServer {
    pub fn new(ace: Ace, cfg: ServerConfig) -> QueryServer {
        let injector = cfg
            .fault_plan
            .as_ref()
            .map(|plan| FaultInjector::new(plan, cfg.fleet.max(1)));
        let sink_events = cfg.trace.enabled.then(TraceSink::default);
        let inner = Arc::new(Inner {
            ace,
            cfg: cfg.clone(),
            queue: Mutex::new(QueueState {
                queues: Default::default(),
                in_flight: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            injector,
            sink_events,
            seq: AtomicU64::new(1),
            next_id: AtomicU64::new(1),
            stats: AtomicStats::default(),
            live: Mutex::new(Vec::new()),
            metrics: cfg.metrics.clone().map(ServerLive::new),
        });
        let watchdog = Arc::new(Watchdog {
            entries: Mutex::new(Vec::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let fleet = (0..cfg.fleet.max(1))
            .map(|w| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("ace-serve-{w}"))
                    .spawn(move || fleet_loop(&inner, w))
                    .expect("spawn serving thread")
            })
            .collect();
        let watchdog_thread = {
            let wd = watchdog.clone();
            Some(
                std::thread::Builder::new()
                    .name("ace-serve-watchdog".into())
                    .spawn(move || watchdog_loop(&wd))
                    .expect("spawn watchdog thread"),
            )
        };
        QueryServer {
            inner,
            fleet,
            watchdog,
            watchdog_thread,
        }
    }

    /// Submit a query. Rejects with [`AceError::Overloaded`] when the
    /// admission high-water mark is reached (or an admission fault fires).
    pub fn submit(&self, req: QueryRequest) -> Result<SessionHandle, AceError> {
        let born = Instant::now();
        self.inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let injected_reject = self
            .inner
            .injector
            .as_ref()
            .is_some_and(|inj| inj.admit_rejects(0));
        let mut q = self.inner.queue.lock().unwrap();
        if q.shutdown {
            return self.reject(
                format!("{OVERLOAD_ERROR_PREFIX} server shutting down"),
                &req,
            );
        }
        if injected_reject {
            return self.reject(
                format!("{OVERLOAD_ERROR_PREFIX} admission brown-out (injected)"),
                &req,
            );
        }
        if q.in_flight >= self.inner.cfg.max_in_flight {
            return self.reject(
                format!(
                    "{OVERLOAD_ERROR_PREFIX} {} sessions in flight (limit {})",
                    q.in_flight, self.inner.cfg.max_in_flight
                ),
                &req,
            );
        }
        Ok(self.admit(&mut q, req, born))
    }

    /// Submit with backpressure: block until the admission controller has
    /// room instead of rejecting. Returns `Err` only during shutdown.
    pub fn submit_blocking(&self, req: QueryRequest) -> Result<SessionHandle, AceError> {
        let born = Instant::now();
        self.inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let mut q = self.inner.queue.lock().unwrap();
        while q.in_flight >= self.inner.cfg.max_in_flight && !q.shutdown {
            q = self.inner.space_cv.wait(q).unwrap();
        }
        if q.shutdown {
            return self.reject(
                format!("{OVERLOAD_ERROR_PREFIX} server shutting down"),
                &req,
            );
        }
        Ok(self.admit(&mut q, req, born))
    }

    fn reject(&self, msg: String, req: &QueryRequest) -> Result<SessionHandle, AceError> {
        self.inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.inner.metrics {
            m.rejected(req.tenant, req.priority);
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.inner.emit(EventKind::SessionReject { session: id });
        Err(AceError::Overloaded(msg))
    }

    fn admit(&self, q: &mut QueueState, req: QueryRequest, born: Instant) -> SessionHandle {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let ctl = Arc::new(SessionCtl {
            id,
            cancel: CancelToken::new(),
            gate: Mutex::new(()),
            finished: AtomicBool::new(false),
            client_cancelled: AtomicBool::new(false),
            cancel_emitted: AtomicBool::new(false),
        });
        {
            let mut live = self.inner.live.lock().unwrap();
            live.retain(|w| {
                w.upgrade()
                    .is_some_and(|c| !c.finished.load(Ordering::Acquire))
            });
            live.push(Arc::downgrade(&ctl));
        }
        let (tx, rx) = channel();
        let done = Arc::new(DoneCell {
            state: Mutex::new(None),
            cv: Condvar::new(),
        });
        self.inner.stats.admitted.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.inner.metrics {
            m.admitted(req.tenant, req.priority);
            m.queue_depth[req.priority.index()].inc();
            m.in_flight.inc();
        }
        self.inner.emit(EventKind::SessionAdmit { session: id });
        if let Some(deadline) = req.deadline.or(self.inner.cfg.default_deadline) {
            let mut entries = self.watchdog.entries.lock().unwrap();
            entries.push(WatchEntry {
                at: Instant::now() + deadline,
                ctl: ctl.clone(),
                inner_weak: Arc::downgrade(&self.inner),
            });
            self.watchdog.cv.notify_one();
        }
        let session = Session {
            ctl: ctl.clone(),
            req,
            tx,
            done: done.clone(),
            streamed: Arc::new(AtomicU64::new(0)),
            born,
        };
        q.in_flight += 1;
        q.queues[session.req.priority.index()].push_back(session);
        self.inner.work_cv.notify_one();
        SessionHandle {
            ctl,
            inner: self.inner.clone(),
            answers: rx,
            done,
        }
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats.snapshot()
    }

    /// Point-in-time snapshot of the attached metrics registry (empty
    /// when [`ServerConfig::metrics`] is unset). Includes the serving
    /// families plus whatever the engines folded in.
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.inner.metrics {
            Some(m) => m.registry.snapshot(),
            None => MetricsSnapshot::empty(),
        }
    }

    /// The current metrics snapshot in the Prometheus text exposition
    /// format (empty string when metrics are disabled).
    pub fn metrics_prometheus(&self) -> String {
        let snap = self.metrics();
        if snap.is_empty() {
            String::new()
        } else {
            snap.render_prometheus()
        }
    }

    /// Admitted sessions currently queued or running.
    pub fn in_flight(&self) -> usize {
        self.inner.queue.lock().unwrap().in_flight
    }

    /// Take the session lifecycle trace recorded so far (empty when
    /// tracing is disabled). Event timestamps are the server's causal
    /// sequence numbers, so the merged trace is checker-ready.
    pub fn take_trace(&self) -> Trace {
        let extra = self
            .inner
            .sink_events
            .as_ref()
            .map(TraceSink::drain)
            .unwrap_or_default();
        Trace::merge(Vec::new(), extra)
    }

    /// Stop the fleet and join every thread. New submissions are
    /// rejected, and every in-flight session (queued or running) is
    /// cancelled — a runaway enumeration cannot hang the shutdown. A
    /// session cancelled this way ends [`SessionEnd::ClientCancelled`]
    /// (the server's owner is its client). Drop performs the same
    /// sequence.
    pub fn shutdown(mut self) -> ServerStats {
        self.begin_shutdown();
        for h in self.fleet.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog_thread.take() {
            let _ = h.join();
        }
        self.inner.stats.snapshot()
    }

    fn begin_shutdown(&self) {
        {
            let mut q = self.inner.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        self.inner.space_cv.notify_all();
        self.watchdog.shutdown.store(true, Ordering::Release);
        self.watchdog.cv.notify_all();
        // Cancel every live session so the fleet joins below cannot block
        // on a session that would never finish on its own.
        let live: Vec<Arc<SessionCtl>> = {
            let reg = self.inner.live.lock().unwrap();
            reg.iter()
                .filter_map(std::sync::Weak::upgrade)
                .filter(|c| !c.finished.load(Ordering::Acquire))
                .collect()
        };
        for ctl in live {
            self.inner.cancel_session(&ctl);
        }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.begin_shutdown();
        for h in self.fleet.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog_thread.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet and watchdog loops
// ---------------------------------------------------------------------------

fn fleet_loop(inner: &Arc<Inner>, worker: usize) {
    loop {
        let session = {
            let mut q = inner.queue.lock().unwrap();
            loop {
                if let Some(s) = q.queues.iter_mut().find_map(|d| d.pop_front()) {
                    if let Some(m) = &inner.metrics {
                        m.queue_depth[s.req.priority.index()].dec();
                    }
                    break s;
                }
                if q.shutdown {
                    return;
                }
                q = inner.work_cv.wait(q).unwrap();
            }
        };
        serve_session(inner, worker, session);
        let mut q = inner.queue.lock().unwrap();
        q.in_flight -= 1;
        // Gauge updated under the queue lock: an `in_flight()` observer
        // that reads 0 is guaranteed to see the matching gauge value.
        if let Some(m) = &inner.metrics {
            m.in_flight.dec();
        }
        drop(q);
        inner.space_cv.notify_one();
    }
}

fn watchdog_loop(wd: &Watchdog) {
    let mut entries = wd.entries.lock().unwrap();
    loop {
        if wd.shutdown.load(Ordering::Acquire) {
            return;
        }
        entries.retain(|e| !e.ctl.finished.load(Ordering::Acquire));
        let next = entries.iter().map(|e| e.at).min();
        let now = Instant::now();
        match next {
            Some(at) if at <= now => {
                let mut fired = Vec::new();
                entries.retain(|e| {
                    if e.at <= now {
                        fired.push((e.ctl.clone(), e.inner_weak.clone()));
                        false
                    } else {
                        true
                    }
                });
                for (ctl, inner_weak) in fired {
                    // Emit-then-cancel under the session gate: any answer
                    // event sequenced after this one must observe the flag.
                    let _gate = ctl.gate.lock().unwrap();
                    if !ctl.finished.load(Ordering::Acquire) {
                        if let Some(inner) = inner_weak.upgrade() {
                            inner.emit(EventKind::SessionDeadlineCancel { session: ctl.id });
                        }
                    }
                    ctl.cancel.cancel();
                }
            }
            Some(at) => {
                let (g, _) = wd.cv.wait_timeout(entries, at - now).unwrap();
                entries = g;
            }
            None => {
                entries = wd.cv.wait(entries).unwrap();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Session execution
// ---------------------------------------------------------------------------

/// The streaming sink handed to the engines, plus the multiset record the
/// degraded replay uses to skip answers the client already received.
fn session_sink(
    inner: &Arc<Inner>,
    worker: usize,
    session: &Session,
    seen: Arc<Mutex<HashMap<String, u64>>>,
    replay: bool,
) -> AnswerSink {
    let inner = inner.clone();
    let ctl = session.ctl.clone();
    let tx = session.tx.clone();
    let streamed = session.streamed.clone();
    let max_answers = session.req.max_answers;
    let born = session.born;
    let priority_idx = session.req.priority.index();
    AnswerSink::new(move |answer: &str| {
        // Per-answer fault checkpoint (serving-layer plan only; never
        // armed on replay because injector events are consumed once).
        if !replay {
            if let Some(inj) = &inner.injector {
                match inj.poll(worker) {
                    Some(FaultAction::Die) => panic!("{INJECTED_DEATH}"),
                    Some(FaultAction::Stall(cost)) => {
                        std::thread::sleep(Duration::from_micros(cost.min(1000)));
                    }
                    Some(FaultAction::Cancel) => ctl.cancel.cancel(),
                    None => {}
                }
            }
        }
        let _gate = ctl.gate.lock().unwrap();
        if ctl.cancel.is_cancelled() {
            return SinkVerdict::Stop;
        }
        if replay {
            // Skip the prefix the client already received from the failed
            // parallel attempt (multiset semantics: one skip per copy).
            let mut seen = seen.lock().unwrap();
            if let Some(n) = seen.get_mut(answer) {
                if *n > 0 {
                    *n -= 1;
                    return SinkVerdict::Continue;
                }
            }
        } else {
            *seen.lock().unwrap().entry(answer.to_string()).or_insert(0) += 1;
        }
        let n = streamed.fetch_add(1, Ordering::Relaxed) + 1;
        inner.stats.answers_streamed.fetch_add(1, Ordering::Relaxed);
        if n == 1 {
            if let Some(m) = &inner.metrics {
                m.first_answer_us[priority_idx].observe(born.elapsed().as_micros() as u64);
            }
        }
        inner.emit(if n == 1 {
            EventKind::SessionFirstAnswer { session: ctl.id }
        } else {
            EventKind::AnswerStreamed { session: ctl.id }
        });
        let _ = tx.send(answer.to_string());
        if max_answers.is_some_and(|m| n as usize >= m) {
            SinkVerdict::Stop
        } else {
            SinkVerdict::Continue
        }
    })
}

fn serve_session(inner: &Arc<Inner>, worker: usize, session: Session) {
    // Dispatch-window fault checkpoint: a Die here panics on the serving
    // thread itself (inside catch_unwind below), a Stall delays dispatch,
    // a Cancel kills the session before the engine starts.
    let mut dispatch_panic = false;
    if let Some(inj) = &inner.injector {
        match inj.poll(worker) {
            Some(FaultAction::Die) => dispatch_panic = true,
            Some(FaultAction::Stall(cost)) => {
                std::thread::sleep(Duration::from_micros(cost.min(1000)));
            }
            Some(FaultAction::Cancel) => session.ctl.cancel.cancel(),
            None => {}
        }
    }

    // A session cancelled while queued never reaches an engine.
    if session.ctl.cancel.is_cancelled() {
        let end = cancelled_end(&session.ctl);
        finish(inner, &session, end, None);
        return;
    }

    let seen = Arc::new(Mutex::new(HashMap::new()));
    let sink = session_sink(inner, worker, &session, seen.clone(), false);
    let mut run_cfg = session
        .req
        .cfg
        .clone()
        .with_tenant(session.req.tenant)
        .with_cancel(session.ctl.cancel.clone())
        .with_answer_sink(sink);
    // Engine-level folds (virtual time, stats, per-tenant memo traffic)
    // land in the server's registry so one scrape covers the whole stack.
    if let Some(m) = &inner.metrics {
        run_cfg = run_cfg.with_metrics(m.registry.clone());
    }

    // `supervised` = catch_unwind without the default hook's stderr
    // backtrace: a contained session panic is supervision, not a crash.
    let attempt = supervised(|| {
        if dispatch_panic {
            panic!("{INJECTED_DEATH}");
        }
        inner
            .ace
            .run_strict(session.req.mode, &session.req.query, &run_cfg)
    });

    let (end, report) = match attempt {
        Ok(Ok(report)) => {
            if session.ctl.cancel.is_cancelled() {
                (cancelled_end(&session.ctl), Some(report))
            } else {
                (SessionEnd::Completed, Some(report))
            }
        }
        Ok(Err(err)) => {
            if session.ctl.cancel.is_cancelled() {
                (cancelled_end(&session.ctl), None)
            } else if err.is_recoverable() && session.req.mode != Mode::Sequential {
                degrade(inner, worker, &session, seen, &err.to_string())
            } else {
                (SessionEnd::Failed(err), None)
            }
        }
        Err(panic) => {
            // The fleet thread survives a panicking query. If the panic
            // raced a cancellation, the cancellation wins; otherwise the
            // session degrades to a sequential replay.
            let what = panic_text(panic.as_ref());
            if session.ctl.cancel.is_cancelled() {
                (cancelled_end(&session.ctl), None)
            } else {
                degrade(inner, worker, &session, seen, &format!("panic: {what}"))
            }
        }
    };
    finish(inner, &session, end, report);
}

/// Sequential replay of a session whose parallel attempt was killed by the
/// infrastructure. The replay streams through a deduplicating sink so the
/// client's answer stream stays a prefix of the sequential oracle.
fn degrade(
    inner: &Arc<Inner>,
    worker: usize,
    session: &Session,
    seen: Arc<Mutex<HashMap<String, u64>>>,
    cause: &str,
) -> (SessionEnd, Option<RunReport>) {
    let sink = session_sink(inner, worker, session, seen, true);
    let mut run_cfg = session
        .req
        .cfg
        .clone()
        .with_tenant(session.req.tenant)
        .with_cancel(session.ctl.cancel.clone())
        .with_answer_sink(sink);
    if let Some(m) = &inner.metrics {
        run_cfg = run_cfg.with_metrics(m.registry.clone());
    }
    match inner
        .ace
        .run_strict(Mode::Sequential, &session.req.query, &run_cfg)
    {
        Ok(mut report) => {
            report.recovery.push(format!(
                "session {} degraded ({cause}); recovered via sequential replay",
                session.ctl.id
            ));
            if session.ctl.cancel.is_cancelled() {
                (cancelled_end(&session.ctl), Some(report))
            } else {
                (SessionEnd::Degraded, Some(report))
            }
        }
        Err(_) if session.ctl.cancel.is_cancelled() => (cancelled_end(&session.ctl), None),
        Err(err) => (SessionEnd::Failed(err), None),
    }
}

fn cancelled_end(ctl: &SessionCtl) -> SessionEnd {
    if ctl.client_cancelled.load(Ordering::Acquire) {
        SessionEnd::ClientCancelled
    } else {
        // The watchdog's deadline — or an injected fault, which is neither
        // a client nor the watchdog and is accounted as a deadline-class
        // reclamation.
        SessionEnd::DeadlineCancelled
    }
}

fn finish(inner: &Arc<Inner>, session: &Session, end: SessionEnd, report: Option<RunReport>) {
    {
        let _gate = session.ctl.gate.lock().unwrap();
        session.ctl.finished.store(true, Ordering::Release);
        inner.emit(EventKind::SessionDrain {
            session: session.ctl.id,
            outcome: end.name(),
            answers: session.streamed.load(Ordering::Relaxed),
        });
    }
    let counter = match &end {
        SessionEnd::Completed => &inner.stats.completed,
        SessionEnd::DeadlineCancelled => &inner.stats.deadline_cancelled,
        SessionEnd::ClientCancelled => &inner.stats.client_cancelled,
        SessionEnd::Degraded => &inner.stats.degraded,
        SessionEnd::Failed(_) => &inner.stats.failed,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    if let Some(m) = &inner.metrics {
        m.completion_us[session.req.priority.index()]
            .observe(session.born.elapsed().as_micros() as u64);
        if end == SessionEnd::DeadlineCancelled {
            m.deadline_miss(session.req.tenant, session.req.priority);
        }
    }
    let mut st = session.done.state.lock().unwrap();
    *st = Some(SessionDone {
        outcome: SessionOutcome { end, report },
    });
    session.done.cv.notify_all();
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use ace_runtime::fault::FaultKind;
    use ace_runtime::trace::TraceChecker;
    use ace_runtime::OptFlags;

    const PROG: &str = r#"
        double(X, Y) :- Y is X * 2.
        p(1). p(2). p(3).
        pl([], []).
        pl([H|T], [H2|T2]) :- double(H, H2) & pl(T, T2).
        member(X, [X|_]).
        member(X, [_|T]) :- member(X, T).
        d(0). d(1). d(2). d(3). d(4).
        stream(X) :- d(X).
        stream(X) :- stream(X).
    "#;

    fn ace() -> Ace {
        Ace::load(PROG).unwrap()
    }

    fn engine_cfg() -> EngineConfig {
        EngineConfig::default()
            .with_workers(2)
            .with_opts(OptFlags::all())
            .all_solutions()
    }

    fn req(query: &str) -> QueryRequest {
        QueryRequest::new(Mode::Sequential, query, engine_cfg())
    }

    /// Wait (bounded) for every admitted session's slot to be released —
    /// the fleet thread frees it just after posting the outcome.
    fn wait_for_idle(server: &QueryServer) {
        for _ in 0..2000 {
            if server.in_flight() == 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("server never went idle: {} in flight", server.in_flight());
    }

    #[test]
    fn streams_answers_and_completes() {
        let server = ace().serve(ServerConfig::default());
        let h = server.submit(req("member(X, [1,2,3])")).unwrap();
        let (answers, outcome) = h.drain();
        assert_eq!(answers, vec!["X=1", "X=2", "X=3"]);
        assert_eq!(outcome.end, SessionEnd::Completed);
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.answers_streamed, 3);
    }

    #[test]
    fn take_n_terminates_an_infinite_enumeration() {
        let server = ace().serve(ServerConfig::default());
        let h = server.submit(req("stream(X)").take(3)).unwrap();
        let (answers, outcome) = h.drain();
        assert_eq!(answers.len(), 3);
        assert_eq!(answers[0], "X=0");
        assert_eq!(outcome.end, SessionEnd::Completed);
        server.shutdown();
    }

    #[test]
    fn shutdown_cancels_runaway_sessions_instead_of_hanging() {
        // Three infinite sessions saturate a two-thread fleet (one also
        // still queued); shutdown must cancel all of them and join.
        let server = ace().serve(ServerConfig::default().with_fleet(2).with_max_in_flight(8));
        let handles: Vec<_> = (0..3)
            .map(|_| server.submit(req("stream(X)")).unwrap())
            .collect();
        // Prove the running sessions are genuinely mid-stream.
        handles[0].next_answer().expect("live stream");
        handles[1].next_answer().expect("live stream");
        let stats = server.shutdown();
        for h in &handles {
            let (_, outcome) = h.drain();
            assert_eq!(outcome.end, SessionEnd::ClientCancelled);
        }
        assert_eq!(stats.client_cancelled, 3);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn drop_cancels_runaway_sessions_instead_of_hanging() {
        let server = ace().serve(ServerConfig::default().with_fleet(1));
        let h = server.submit(req("stream(X)")).unwrap();
        h.next_answer().expect("live stream");
        drop(server);
        let (_, outcome) = h.drain();
        assert_eq!(outcome.end, SessionEnd::ClientCancelled);
    }

    #[test]
    fn deadline_cancels_a_runaway_session() {
        // The request's own deadline, then the server's default applied to
        // a request that carries none.
        let deadline = Duration::from_millis(30);
        for (cfg, request) in [
            (
                ServerConfig::default(),
                req("stream(X)").with_deadline(deadline),
            ),
            (
                ServerConfig::default().with_default_deadline(deadline),
                req("stream(X)"),
            ),
        ] {
            let server = ace().serve(cfg);
            let outcome = server.submit(request).unwrap().wait();
            assert_eq!(outcome.end, SessionEnd::DeadlineCancelled);
            let stats = server.shutdown();
            assert_eq!(stats.deadline_cancelled, 1);
        }
    }

    #[test]
    fn client_cancel_mid_stream() {
        let server = ace().serve(ServerConfig::default());
        let h = server.submit(req("stream(X)")).unwrap();
        // Wait for proof the stream is live, then cancel.
        let first = h.next_answer().expect("one streamed answer");
        assert_eq!(first, "X=0");
        h.cancel();
        let outcome = h.wait();
        assert_eq!(outcome.end, SessionEnd::ClientCancelled);
        server.shutdown();
    }

    #[test]
    fn admission_rejects_past_high_water_then_recovers() {
        let server = ace().serve(ServerConfig::default().with_fleet(1).with_max_in_flight(1));
        let h = server.submit(req("stream(X)")).unwrap();
        let err = server
            .submit(req("member(X, [1])"))
            .expect_err("second session must be rejected at admission");
        assert!(matches!(err, AceError::Overloaded(_)), "{err:?}");
        h.cancel();
        h.wait();
        // Space freed: the next submission is admitted again. (The slot is
        // released by the fleet thread just after the outcome is posted.)
        wait_for_idle(&server);
        let h2 = server.submit(req("member(X, [1])")).unwrap();
        assert_eq!(h2.wait().end, SessionEnd::Completed);
        let stats = server.shutdown();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.admitted, 2);
    }

    #[test]
    fn submit_blocking_applies_backpressure() {
        let server =
            Arc::new(ace().serve(ServerConfig::default().with_fleet(1).with_max_in_flight(1)));
        let h = server.submit(req("stream(X)").take(5_000)).unwrap();
        let s2 = server.clone();
        let blocked = std::thread::spawn(move || {
            let h2 = s2.submit_blocking(req("member(X, [7])")).unwrap();
            h2.wait().end
        });
        // The first session eventually finishes its take(n) bound, space
        // frees up, and the blocked producer gets served.
        assert_eq!(h.wait().end, SessionEnd::Completed);
        assert_eq!(blocked.join().unwrap(), SessionEnd::Completed);
        Arc::try_unwrap(server).ok().map(QueryServer::shutdown);
    }

    #[test]
    fn injected_death_in_parallel_run_degrades_with_dedup() {
        // Engine-level Die: the and-engine's supervision contains it, the
        // server replays sequentially, and the client sees the oracle
        // exactly once.
        let a = ace();
        let oracle = a.sequential_solutions("pl([1,2,3], Out)").unwrap();
        let server = a.serve(ServerConfig::default());
        let cfg = engine_cfg().with_fault_plan(FaultPlan::new(0).with(0, 2, FaultKind::Die));
        let h = server
            .submit(QueryRequest::new(
                Mode::AndParallel,
                "pl([1,2,3], Out)",
                cfg,
            ))
            .unwrap();
        let (answers, outcome) = h.drain();
        assert_eq!(outcome.end, SessionEnd::Degraded);
        assert_eq!(answers, oracle);
        let report = outcome.report.expect("degraded replay produces a report");
        assert!(
            report
                .recovery
                .iter()
                .any(|l| l.contains("sequential replay")),
            "{:?}",
            report.recovery
        );
        server.shutdown();
    }

    #[test]
    fn dispatch_window_death_degrades_and_fleet_survives() {
        let server = ace().serve(
            ServerConfig::default()
                .with_fleet(1)
                .with_fault_plan(FaultPlan::new(0).with(0, 1, FaultKind::Die)),
        );
        let h = server
            .submit(QueryRequest::new(
                Mode::AndParallel,
                "pl([1,2], Out)",
                engine_cfg(),
            ))
            .unwrap();
        let (answers, outcome) = h.drain();
        assert_eq!(outcome.end, SessionEnd::Degraded);
        assert_eq!(answers, vec!["Out=[2,4]"]);
        // The single fleet thread survived the panic and serves again.
        let h2 = server.submit(req("member(X, [9])")).unwrap();
        assert_eq!(h2.drain().0, vec!["X=9"]);
        server.shutdown();
    }

    #[test]
    fn session_trace_passes_the_checker() {
        let server = ace().serve(
            ServerConfig::default()
                .with_max_in_flight(1)
                .with_fleet(1)
                .with_trace(TraceConfig {
                    enabled: true,
                    ..TraceConfig::default()
                }),
        );
        let h = server.submit(req("member(X, [1,2,3])")).unwrap();
        h.wait();
        // A live long-running session makes the next reject deterministic.
        wait_for_idle(&server);
        let h2 = server.submit(req("stream(X)")).unwrap();
        h2.next_answer().unwrap();
        let reject = server.submit(req("member(X, [1])"));
        assert!(reject.is_err(), "high-water reject while a session runs");
        h2.cancel();
        h2.wait();
        let trace = server.take_trace();
        let report = TraceChecker::check(&trace);
        assert!(report.is_ok(), "{report:?}");
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SessionDrain { .. })));
        server.shutdown();
    }

    #[test]
    fn tenant_quota_rides_the_session() {
        use ace_runtime::{AnswerStore, StoreConfig};
        let a = Ace::load(
            r#"
            append([], L, L).
            append([H|T], L, [H|R]) :- append(T, L, R).
            nrev([], []).
            nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
            "#,
        )
        .unwrap();
        let table = Arc::new(AnswerStore::new(
            &StoreConfig::default().with_tenant_quota(4),
        ));
        let server = a.serve(ServerConfig::default());
        let cfg = engine_cfg().with_store(table.clone()).with_memoization();
        let h = server
            .submit(
                QueryRequest::new(Mode::Sequential, "nrev([1,2,3,4,5,6], R)", cfg).with_tenant(7),
            )
            .unwrap();
        assert_eq!(h.wait().end, SessionEnd::Completed);
        assert!(table.tenant_len(7) > 0, "session memoized under its tenant");
        assert_eq!(
            table.tenant_len(0),
            0,
            "nothing leaked to the default tenant"
        );
        server.shutdown();
    }

    #[test]
    fn metrics_disabled_snapshot_is_empty() {
        let server = ace().serve(ServerConfig::default());
        let h = server.submit(req("member(X, [1,2])")).unwrap();
        h.drain();
        assert!(server.metrics().is_empty());
        assert_eq!(server.metrics_prometheus(), "");
        server.shutdown();
    }

    #[test]
    fn metrics_cover_admissions_rejections_and_latency() {
        let registry = MetricsRegistry::shared();
        let server = ace().serve(
            ServerConfig::default()
                .with_max_in_flight(1)
                .with_fleet(1)
                .with_metrics(registry.clone()),
        );
        // An infinite enumeration pins the only slot, so the second
        // submission is deterministically rejected; it is then cancelled
        // to make room for a session that completes normally.
        let pinned = server.submit(req("stream(X)").with_tenant(3)).unwrap();
        let rejected = server.submit(req("member(X, [1])").with_tenant(9));
        assert!(matches!(rejected, Err(AceError::Overloaded(_))));
        pinned.cancel();
        pinned.wait();
        wait_for_idle(&server);
        let h = server
            .submit(
                QueryRequest::new(Mode::OrParallel, "member(X, [1,2,3])", engine_cfg())
                    .with_tenant(3)
                    .with_priority(Priority::High),
            )
            .unwrap();
        let (answers, outcome) = h.drain();
        assert_eq!(answers.len(), 3);
        assert_eq!(outcome.end, SessionEnd::Completed);
        wait_for_idle(&server);

        let snap = server.metrics();
        assert_eq!(
            snap.counter_value(
                "ace_server_sessions_admitted_total",
                &[("tenant", "3"), ("priority", "high")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter_value(
                "ace_server_sessions_admitted_total",
                &[("tenant", "3"), ("priority", "normal")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter_value(
                "ace_server_sessions_rejected_total",
                &[("tenant", "9"), ("priority", "normal")]
            ),
            Some(1)
        );
        // First-answer and completion latency recorded under the session's
        // priority; the engine fold landed in the same registry.
        let first = snap
            .histogram(
                "ace_server_first_answer_latency_us",
                &[("priority", "high")],
            )
            .expect("first-answer histogram");
        assert_eq!(first.count, 1);
        let done = snap
            .histogram("ace_server_completion_latency_us", &[("priority", "high")])
            .expect("completion histogram");
        assert_eq!(done.count, 1);
        assert!(done.quantile(0.99) >= first.quantile(0.5));
        assert_eq!(
            snap.counter_value("ace_engine_runs_total", &[("engine", "or")]),
            Some(1)
        );
        // In-flight and queue gauges net to zero once the server is idle.
        assert_eq!(snap.gauge_value("ace_server_in_flight", &[]), Some(0));
        assert_eq!(
            snap.gauge_value("ace_server_queue_depth", &[("priority", "high")]),
            Some(0)
        );
        // The Prometheus rendering carries the serving families.
        let text = server.metrics_prometheus();
        assert!(
            text.contains("ace_server_sessions_admitted_total{"),
            "{text}"
        );
        assert!(
            text.contains("ace_server_first_answer_latency_us_bucket{"),
            "{text}"
        );
        server.shutdown();
    }
}
