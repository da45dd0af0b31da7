//! Virtual-time event tracing, and the event table every view of a run is
//! derived from.
//!
//! A scheduling fact is written once, as one row of the `events!` table:
//! its [`EventKind`] variant and payload, its name, the [`Stats`] counters
//! an occurrence bumps, the profiler [`Frame`] it closes, the
//! [`TraceClass`] that says which runs record it, and its live metric
//! series if it has one. A site hands the event by value to
//! [`crate::WorkerCore::note`]; payloads are plain data, so that
//! allocates nothing.
//!
//! Recording is always compiled, off by default: when
//! [`TraceConfig::enabled`] is false a [`Tracer`] is a `None` and
//! recording is one branch. When enabled, each worker records typed
//! [`TraceEvent`]s into a private fixed-capacity ring buffer
//! ([`TraceBuf`]) — no locks on the hot path, drop-oldest on overflow
//! with a `dropped` counter so truncation is never silent. At the end of
//! a run the engine merges the per-worker buffers (plus driver-side
//! events from a shared [`TraceSink`]) into a single [`Trace`] ordered by
//! virtual time, surfaced on the run report.
//!
//! Tracing charges **no** virtual cost: a traced run and an untraced run
//! of the same program report identical `virtual_time`.
//!
//! Consumers:
//! * [`Trace::to_chrome_json`] — Chrome `trace_event` JSON loadable in
//!   Perfetto / `chrome://tracing`, with virtual cost units as
//!   microseconds;
//! * [`Trace::timeline`] — a compact text timeline;
//! * [`Stats::fold`] — the counter sheet the trace implies;
//! * [`crate::Profile::from_trace`] — virtual cost per frame;
//! * [`TraceChecker`] — replays a finished trace and asserts scheduler
//!   invariants (claims follow publications, no alternative issued
//!   twice, pool pops bounded by pushes, fault injections matched by
//!   recovery records).

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use ace_logic::sym::Sym;
use parking_lot::Mutex;

use crate::metrics::{Counter, Gauge, MetricsRegistry};
use crate::stats::Stats;

/// Tracing knobs, threaded through `EngineConfig`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. Off by default; when off no ring buffers are
    /// allocated and every emission point is a single branch.
    pub enabled: bool,
    /// Per-worker ring-buffer capacity in events (drop-oldest beyond).
    pub capacity: usize,
    /// Also record high-volume lifecycle events (phase transitions,
    /// quantum start/end). Off by default so invariant-relevant events
    /// are not evicted by lifecycle noise on long runs.
    pub lifecycle: bool,
    /// Also record per-call clause dispatch events (`ClauseDispatch` /
    /// `ClauseRetry`). Off by default for the same eviction reason —
    /// every user call emits one.
    pub dispatch: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 1 << 16,
            lifecycle: false,
            dispatch: false,
        }
    }
}

impl TraceConfig {
    /// A config with tracing switched on (default capacity, no lifecycle).
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }

    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    pub fn with_lifecycle(mut self) -> Self {
        self.lifecycle = true;
        self
    }

    pub fn with_dispatch(mut self) -> Self {
        self.dispatch = true;
        self
    }
}

/// Which runs record an event: every traced run, or only those that ask
/// for its high-volume layer ([`TraceConfig::lifecycle`],
/// [`TraceConfig::dispatch`]). `Unrecorded` facts are counted and metered
/// but have no trace record of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClass {
    Always,
    Lifecycle,
    Dispatch,
    Unrecorded,
}

/// Where the profiler charges the interval an event ends (see
/// [`crate::profile`]): nowhere, to the predicate the worker is running
/// (`run;{pred}`, or `run;{pred};{sub}` when `sub` is non-empty), or to a
/// fixed `{a};{b}` scheduler frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    Skip,
    Run(&'static str),
    Fixed(&'static str, &'static str),
}

/// What an event's `pred` field names: the predicate whose clauses a node's
/// alternatives come from, or the variable an `ace-fd` split branches on.
/// Plain data, so noting an event allocates nothing; rendered (`member/2`,
/// `fd.v3`) only at export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    Pred(Sym, u32),
    FdVar(u32),
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Pred(name, arity) => write!(f, "{name}/{arity}"),
            Label::FdVar(var) => write!(f, "fd.v{var}"),
        }
    }
}

/// One payload field, in a render-agnostic form.
enum Arg {
    U(u64),
    S(String),
}

/// Payload field types the exporters know how to render.
trait AsArg {
    fn arg(&self) -> Arg;
}

macro_rules! payload_types {
    (numbers: $($n:ty),*; text: $($s:ty),*) => {
        $(impl AsArg for $n {
            fn arg(&self) -> Arg {
                Arg::U(*self as u64)
            }
        })*
        $(impl AsArg for $s {
            fn arg(&self) -> Arg {
                Arg::S(self.to_string())
            }
        })*
    };
}
payload_types!(numbers: u64, usize, bool; text: &'static str, String, Label);

/// A live series an event steps when a registry is attached.
trait Meter {
    fn step(&self, shard: usize, by: i64);
}

impl Meter for Counter {
    fn step(&self, shard: usize, by: i64) {
        self.add(shard, by as u64);
    }
}

impl Meter for Gauge {
    fn step(&self, _shard: usize, by: i64) {
        self.add(by);
    }
}

/// The event table: one row per scheduling fact, declaring everything the
/// four views of it need.
///
/// ```text
/// /// doc comment (becomes the variant's)
/// Variant { field: type, .. } = "kebab-name", TraceClass, Frame
///     , bumps { counter += amount, .. }     Stats counters every occurrence bumps
///     , tallies { counter += amount, .. }   the same, for an Unrecorded row
///     , live Counter: counter("series", "label" = "value") += step;
/// ```
///
/// From it come [`EventKind`] with `name`, `class`, `frame`, `apply` and
/// the exporters' `args` (the payload fields, in order, under their own
/// names), [`Stats::EVENT_BACKED`] (the `bumps` counters: every bump of
/// one goes through a recorded event, so `Stats::fold` reproduces it from
/// the trace) and [`LiveCounters`]. Amount and frame expressions see the
/// payload fields by reference.
macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $v:ident $({ $($f:ident: $t:ty),* })? = $name:literal, $class:ident, $frame:expr
        $(, bumps { $($ctr:ident += $amt:expr),* })?
        $(, tallies { $($tctr:ident += $tamt:expr),* })?
        $(, live $meter:ident: $reg:ident($series:literal $(, $lk:literal = $lv:literal)?) += $step:literal)?
    ;)*) => {
        /// What happened. Every variant corresponds to a mechanism the
        /// paper's argument (or our fault model) rests on; `Stats` holds
        /// the aggregate counts — the trace adds *when*, *where* and
        /// *interleaved with what*.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum EventKind {
            $( $(#[$doc])* $v $({ $($f: $t),* })?, )*
        }

        #[allow(unused_variables)]
        impl EventKind {
            /// Every event name, in table order.
            pub const NAMES: &'static [&'static str] = &[$($name),*];

            /// Stable kebab-case event name (Chrome-trace `name` field).
            pub fn name(&self) -> &'static str {
                match self { $( EventKind::$v { .. } => $name, )* }
            }

            #[inline(always)]
            pub fn class(&self) -> TraceClass {
                match self { $( EventKind::$v { .. } => TraceClass::$class, )* }
            }

            pub fn frame(&self) -> Frame {
                use Frame::{Fixed, Run, Skip};
                match self { $( EventKind::$v $({ $($f),* })? => $frame, )* }
            }

            /// Count one occurrence on `s`. Inlined into `note`, where the
            /// variant is known and the match folds to the row's bumps.
            #[inline(always)]
            pub fn apply(&self, s: &mut Stats) {
                match self {
                    $( EventKind::$v $({ $($f),* })? => {
                        $($( s.$ctr += $amt; )*)?
                        $($( s.$tctr += $tamt; )*)?
                    } )*
                }
            }

            fn args(&self) -> Vec<(&'static str, Arg)> {
                match self {
                    $( EventKind::$v $({ $($f),* })? => {
                        vec![$($( (stringify!($f), $f.arg()) ),*)?]
                    } )*
                }
            }
        }

        impl Stats {
            /// The counters a complete trace reproduces: `Stats::fold` of a
            /// run's trace equals the run's sheet on each of them.
            pub const EVENT_BACKED: &'static [&'static str] =
                &[$($($( stringify!($ctr), )*)?)*];
        }

        /// A worker's handles on the live series of the table, resolved
        /// once so that metering an event touches only atomics.
        #[allow(non_snake_case)]
        pub struct LiveCounters {
            $($( $v: $meter, )?)*
        }

        impl LiveCounters {
            fn resolve(m: &MetricsRegistry) -> Self {
                LiveCounters {
                    $($( $v: m.$reg($series, &[$(($lk, $lv))?]), )?)*
                }
            }

            /// Step the series of `ev`, if it has one, on `shard`.
            #[inline(always)]
            pub fn meter(&self, ev: &EventKind, shard: usize) {
                match ev {
                    $($( EventKind::$v { .. } => self.$v.step(shard, $step), )?)*
                    _ => {}
                }
            }
        }
    };
}

events! {
    // -- engine lifecycle --
    /// A worker entered the named driver phase (`busy`/`idle`).
    PhaseStart { phase: &'static str } = "phase-start", Lifecycle, Skip;
    /// A worker left the named driver phase.
    PhaseEnd { phase: &'static str } = "phase-end", Lifecycle, Skip;
    /// An engine began one execution quantum on its current machine.
    QuantumStart = "quantum-start", Lifecycle, Skip;
    /// The quantum ended, having charged `cost` units.
    QuantumEnd { cost: u64 } = "quantum-end", Lifecycle, Run("");

    // -- or-engine --
    /// A private choice point became public under `node` (epoch 0).
    /// `pred` labels where the node's alternatives come from — the cost
    /// profiler's frame anchor.
    Publish { node: u64, epoch: u64, alts: usize, pred: Label } = "publish", Always, Run("publish")
        , bumps { nodes_published += 1 }
        , live Counter: counter("ace_or_publishes_total", "kind" = "fresh") += 1;
    /// LAO: a drained node was reloaded in place at a bumped epoch.
    LaoReuse { node: u64, epoch: u64, alts: usize, pred: Label } = "lao-reuse", Always, Run("publish")
        , bumps { cp_reused_lao += 1 }
        , live Counter: counter("ace_or_publishes_total", "kind" = "lao") += 1;
    /// A node handle was enqueued into the shared alternative pool.
    PoolPush { node: u64 } = "pool-push", Always, Run("publish")
        , bumps { pool_pushes += 1 }
        , live Gauge: gauge("ace_or_pool_occupancy") += 1;
    /// A node handle was dequeued from the pool (inspected; a pop that
    /// finds the node drained claims nothing).
    PoolPop { node: u64 } = "pool-pop", Always, Fixed("steal", "hunt")
        , bumps { pool_pops += 1 }
        , live Gauge: gauge("ace_or_pool_occupancy") += -1;
    /// One alternative of `node` (at `epoch`) was claimed remotely.
    Claim { node: u64, epoch: u64, alt: usize } = "claim", Always, Fixed("steal", "install");
    /// A pool claim was served by the thief's own shard. Counted and
    /// metered on every such claim; `domain-steal` is the trace record of
    /// the claims that travelled.
    ClaimOwn = "claim-own", Unrecorded, Skip
        , tallies { steals_local_domain += 1 }
        , live Counter: counter("ace_or_claims_total", "scope" = "own") += 1;
    /// A pool claim was served by another shard of the thief's domain.
    ClaimDomain = "claim-domain", Unrecorded, Skip
        , tallies { steals_local_domain += 1 }
        , live Counter: counter("ace_or_claims_total", "scope" = "domain") += 1;
    /// A pool claim crossed a domain boundary, with `local_work` entries
    /// visible in the thief's own domain (eager when non-zero).
    ClaimCross { local_work: u64 } = "claim-cross", Unrecorded, Skip
        , tallies { steals_cross_domain += 1, steals_cross_eager += u64::from(*local_work > 0) }
        , live Counter: counter("ace_or_claims_total", "scope" = "cross") += 1;
    /// A claimed alternative's branch was dead on install; aborted.
    InstallAbort { node: u64 } = "install-abort", Always, Fixed("steal", "install");
    /// A claim was served by a recycled machine, not a fresh allocation.
    MachineRecycle = "machine-recycle", Always, Fixed("steal", "install")
        , bumps { machines_recycled += 1 };
    /// Publication stored only choice-point metadata; the expensive
    /// closure capture was procrastinated (paper schema 2).
    ClosureDefer { node: u64, epoch: u64 } = "closure-defer", Always, Run("publish");
    /// First remote demand arrived: the owner froze the deferred closure
    /// into an immutable arena of `cells` cells.
    ClosureMaterialize { node: u64, epoch: u64, cells: u64 } = "closure-materialize", Always, Run("materialize")
        , bumps { closures_materialized += 1 }
        , live Counter: counter("ace_or_closure_materializations_total") += 1;
    /// A claimant thawed `cells` cells of a frozen closure into its heap.
    ClosureThaw { node: u64, epoch: u64, cells: u64 } = "closure-thaw", Always, Fixed("steal", "install");

    // -- and-engine --
    /// A parcall frame was allocated with `slots` subgoal slots.
    FrameAlloc { slots: usize } = "frame-alloc", Always, Run("parcall")
        , bumps { parcall_frames += 1, parcall_slots += *slots as u64 };
    /// LPCO: a nested frame was elided, its slots merged into the parent.
    FrameElide { merged_slots: usize } = "frame-elide", Always, Run("parcall")
        , bumps { frames_elided_lpco += 1, slots_merged_lpco += *merged_slots as u64 };
    /// A parallel subgoal slot failed (triggers outside backtracking).
    SlotFail = "slot-fail", Always, Run("parcall")
        , bumps { slot_failures += 1 };
    /// SPO: the two markers of a deterministic subgoal were never allocated.
    MarkerElide = "marker-elide", Always, Run("parcall")
        , bumps { markers_elided_spo += 2 };
    /// PDO: adjacent same-worker slots merged into one computation.
    PdoMerge = "pdo-merge", Always, Run("parcall")
        , bumps { pdo_merges += 1 };
    /// A redo round re-ran slots during cross-product enumeration.
    RedoRound = "redo-round", Always, Run("parcall")
        , bumps { redo_rounds += 1 };

    // -- scheduler --
    /// A claim was served by a shard outside the thief's own (recorded
    /// under the hierarchical victim scan only). `scope` is `"domain"` for
    /// a same-domain victim, `"cross"` for a claim that crossed a topology
    /// domain boundary; `local_work` is the thief's own-domain pool
    /// occupancy observed when the entry was taken. The `TraceChecker`
    /// asserts `scope == "cross"` implies `local_work == 0` — a thief
    /// never crosses domains while local work is visible.
    DomainSteal { node: u64, scope: &'static str, local_work: u64 } = "domain-steal", Always, Fixed("steal", "hunt");
    /// A worker started hunting for work.
    StealAttempt = "steal-attempt", Always, Fixed("steal", "hunt");
    /// The hunt yielded a task/alternative from another worker.
    StealSuccess = "steal-success", Always, Fixed("steal", "install");
    /// The hunt came up empty.
    StealFail = "steal-fail", Always, Fixed("steal", "hunt");
    /// An idle probe charged `cost` units of idle time.
    IdleProbe { cost: u64 } = "idle-probe", Always, Fixed("idle", "probe")
        , bumps { idle_probes += 1, idle_cost += *cost };
    /// A contended lock acquisition charged `cost` units (residual wait
    /// behind the previous holder plus the topology's `contended_lock`
    /// premium). `what` names the lock ("pool", "answer"). Noted only
    /// under a topology that prices contention — the profiler's handle
    /// on serialization walls.
    LockWait { what: &'static str, cost: u64 } = "lock-wait", Always, Fixed("lock", what)
        , bumps { lock_wait_cost += *cost };

    // -- faults & recovery --
    /// The injector fired a fault of the named kind on this worker.
    FaultInjected { kind: &'static str } = "fault-injected", Always, Fixed("fault", "inject")
        , bumps { faults_injected += 1 };
    /// An injected stall charged `cost` units.
    FaultStall { cost: u64 } = "fault-stall", Always, Fixed("fault", "stall")
        , bumps { fault_stalls += 1 };
    /// A transiently failed operation (`steal`/`publish`) was retried.
    FaultRetry { what: &'static str } = "fault-retry", Always, Fixed("fault", "inject")
        , bumps { steal_retries += u64::from(*what == "steal"), publish_retries += u64::from(*what == "publish") };
    /// The run degraded to the sequential engine.
    Degraded { reason: String } = "degraded", Always, Run("");

    // -- memoization --
    /// A call was answered from the memo table. `key` is the canonical
    /// key hash, `epoch` the table epoch of the entry replayed.
    MemoHit { key: u64, epoch: u64 } = "memo-hit", Always, Run("memo")
        , bumps { memo_hits += 1 };
    /// A complete answer set was published into the memo table.
    MemoStore { key: u64, epoch: u64 } = "memo-store", Always, Run("memo")
        , bumps { memo_stores += 1 };
    /// The answer set under `key` was marked complete with `answers`
    /// stored answers (noted alongside the store that completed it).
    MemoComplete { key: u64, epoch: u64, answers: usize } = "memo-complete", Always, Run("memo");

    // -- tabling (SLG evaluation; `key` is the canonical key hash and
    //    `subgoal` the table space's globally monotone subgoal id) --
    /// A machine became the generator for a tabled subgoal new to the
    /// shared table space.
    TableNew { key: u64, subgoal: u64 } = "table-new", Always, Run("table");
    /// A new (non-duplicate) answer was inserted into the subgoal's
    /// answer list; `answers` is the list length after insertion.
    TableAnswer { key: u64, subgoal: u64, answers: usize } = "table-answer", Always, Run("table")
        , bumps { table_answers += 1 };
    /// A consumer drained the subgoal's answer list dry while it was
    /// still incomplete and suspended; `seen` is how many answers it
    /// had consumed.
    TableSuspend { key: u64, subgoal: u64, seen: usize } = "table-suspend", Always, Run("table")
        , bumps { table_suspends += 1 };
    /// A suspended consumer was resumed to consume answers past `seen`.
    TableResume { key: u64, subgoal: u64, seen: usize } = "table-resume", Always, Run("table")
        , bumps { table_resumes += 1 };
    /// The subgoal's SCC reached its fixpoint; the table was marked
    /// complete with `answers` answers.
    TableComplete { key: u64, subgoal: u64, answers: usize } = "table-complete", Always, Run("table")
        , bumps { table_completes += 1 };

    // -- driver --
    /// A worker exited (reason: completed/panicked/cancelled/deadline).
    WorkerExit { reason: String } = "worker-exit", Always, Run("");
    /// The driver aborted the run.
    Abort { reason: String } = "abort", Always, Run("");

    // -- serving (session lifecycle; recorded by the query server's sink,
    //    with `t` a server-global sequence number so cross-session order
    //    is causal, and `worker` the fleet lane that ran the session) --
    /// The admission controller accepted a session into the queue.
    SessionAdmit { session: u64 } = "session-admit", Always, Skip;
    /// The admission controller rejected a session (overloaded).
    SessionReject { session: u64 } = "session-reject", Always, Skip;
    /// A session was cancelled by its client.
    SessionCancel { session: u64 } = "session-cancel", Always, Skip;
    /// A session's deadline expired; the watchdog cancelled it.
    SessionDeadlineCancel { session: u64 } = "session-deadline-cancel", Always, Skip;
    /// The session's first answer left the server (time-to-first-answer).
    SessionFirstAnswer { session: u64 } = "session-first-answer", Always, Skip;
    /// One answer was streamed to the session's consumer.
    AnswerStreamed { session: u64 } = "answer-streamed", Always, Skip;
    /// The session finished and its resources were reclaimed; `outcome`
    /// is the terminal state label, `answers` the total streamed.
    SessionDrain { session: u64, outcome: &'static str, answers: u64 } = "session-drain", Always, Skip;

    // -- clause dispatch --
    /// A user-predicate call was dispatched through the switch-on-term
    /// index: `candidates` is the bucket chain length; `determinate`
    /// claims exactly one clause can match, so no choice point was made.
    ClauseDispatch { pred: Label, candidates: usize, determinate: bool } = "clause-dispatch", Dispatch, Run("dispatch");
    /// Backtracking re-entered a later clause of `pred` (second or
    /// subsequent clause of one call's chain).
    ClauseRetry { pred: Label } = "clause-retry", Dispatch, Run("dispatch");

    // -- outcomes --
    /// A solution was recorded.
    Solution = "solution", Always, Run("");
}

impl LiveCounters {
    /// Describe and resolve every live series of the table against `m`.
    pub fn new(m: &MetricsRegistry) -> LiveCounters {
        m.describe(
            "ace_or_publishes_total",
            "or-tree node publications by kind (fresh publish vs LAO refill)",
        );
        m.describe(
            "ace_or_claims_total",
            "alternatives claimed from the public tree, by steal scope",
        );
        m.describe(
            "ace_or_closure_materializations_total",
            "deferred state closures frozen on remote demand",
        );
        m.describe(
            "ace_or_pool_occupancy",
            "live node entries advertised in the alternative pool",
        );
        LiveCounters::resolve(m)
    }
}

impl Stats {
    /// The counter sheet a trace implies: every event applied once. Equal
    /// to the run's own sheet on [`Stats::EVENT_BACKED`] when the trace is
    /// complete (`dropped == 0`).
    pub fn fold(trace: &Trace) -> Stats {
        let mut s = Stats::new();
        for ev in &trace.events {
            ev.kind.apply(&mut s);
        }
        s
    }
}

/// One recorded event: what happened, on which worker, at which point of
/// that worker's virtual clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Worker-local virtual time (busy + idle cost units charged so far).
    pub t: u64,
    pub worker: usize,
    pub kind: EventKind,
}

/// A per-worker fixed-capacity ring buffer of events. Drop-oldest on
/// overflow; `dropped` counts evictions so truncation is visible.
#[derive(Debug)]
pub struct TraceBuf {
    pub worker: usize,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    pub dropped: u64,
}

impl TraceBuf {
    pub fn new(worker: usize, capacity: usize) -> Self {
        TraceBuf {
            worker,
            capacity: capacity.max(1),
            events: VecDeque::with_capacity(capacity.clamp(1, 1024)),
            dropped: 0,
        }
    }

    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A worker's recording handle. Disabled tracing is a `None`: no ring
/// buffer exists and [`Tracer::records`] is false for every class.
#[derive(Debug)]
pub struct Tracer {
    buf: Option<Box<TraceBuf>>,
    lifecycle: bool,
    dispatch: bool,
}

impl Tracer {
    /// A tracer for `worker` per `cfg` — bufferless when `cfg` says off.
    pub fn new(cfg: &TraceConfig, worker: usize) -> Tracer {
        Tracer {
            buf: (cfg.enabled).then(|| Box::new(TraceBuf::new(worker, cfg.capacity))),
            lifecycle: cfg.lifecycle,
            dispatch: cfg.dispatch,
        }
    }

    /// Does this run record events of `class`?
    #[inline(always)]
    pub fn records(&self, class: TraceClass) -> bool {
        self.buf.is_some()
            && match class {
                TraceClass::Always => true,
                TraceClass::Lifecycle => self.lifecycle,
                TraceClass::Dispatch => self.dispatch,
                TraceClass::Unrecorded => false,
            }
    }

    /// Record `kind` stamped at worker-virtual-time `t` (a no-op when
    /// disabled; the class filter is [`Tracer::records`]).
    pub fn record(&mut self, t: u64, kind: EventKind) {
        if let Some(buf) = self.buf.as_mut() {
            let worker = buf.worker;
            buf.push(TraceEvent { t, worker, kind });
        }
    }

    /// Detach the ring buffer (deposited into engine-shared storage when
    /// the worker completes).
    pub fn take(&mut self) -> Option<TraceBuf> {
        self.buf.take().map(|b| *b)
    }
}

/// A cloneable, locked event sink for contexts that outlive or sit
/// outside a single worker (the drivers: worker exits, aborts; the query
/// server's session events). Not on any engine hot path.
#[derive(Clone, Debug, Default)]
pub struct TraceSink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl TraceSink {
    pub fn emit(&self, t: u64, worker: usize, kind: EventKind) {
        self.events.lock().push(TraceEvent { t, worker, kind });
    }

    /// Take everything recorded so far.
    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock())
    }
}

/// The merged, virtual-time-ordered trace of one run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All events, sorted by `t` (stable: per-worker emission order is
    /// preserved among equal timestamps).
    pub events: Vec<TraceEvent>,
    /// Total events evicted from ring buffers across all workers.
    pub dropped: u64,
}

impl Trace {
    /// Merge per-worker ring buffers plus loose (driver-side) events into
    /// one virtual-time-ordered trace.
    pub fn merge(bufs: Vec<TraceBuf>, extra: Vec<TraceEvent>) -> Trace {
        let mut events =
            Vec::with_capacity(bufs.iter().map(TraceBuf::len).sum::<usize>() + extra.len());
        let mut dropped = 0;
        for buf in bufs {
            dropped += buf.dropped;
            events.extend(buf.events);
        }
        events.extend(extra);
        events.sort_by_key(|e| e.t); // stable sort: keeps per-worker order
        Trace { events, dropped }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Highest worker id seen, plus one (0 for an empty trace).
    pub fn workers(&self) -> usize {
        self.events.iter().map(|e| e.worker + 1).max().unwrap_or(0)
    }

    /// Chrome `trace_event` JSON (load in Perfetto or `chrome://tracing`).
    /// Virtual cost units are exported as microseconds; every event is a
    /// thread-scoped instant on `tid = worker`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut push_sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
        };
        let mut seen: Vec<usize> = self.events.iter().map(|e| e.worker).collect();
        seen.sort_unstable();
        seen.dedup();
        for w in seen {
            push_sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{w},\
                 \"args\":{{\"name\":\"worker {w}\"}}}}"
            ));
        }
        for ev in &self.events {
            push_sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{}",
                escape_json(ev.kind.name()),
                ev.t,
                ev.worker
            ));
            let args = ev.kind.args();
            if !args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (key, val)) in args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    match val {
                        Arg::U(n) => out.push_str(&format!("\"{key}\":{n}")),
                        Arg::S(s) => out.push_str(&format!("\"{key}\":\"{}\"", escape_json(s))),
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str(&format!("],\"droppedEvents\":{}}}", self.dropped));
        out
    }

    /// Compact one-event-per-line text timeline.
    pub fn timeline(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&format!("[{:>12}] w{} {}", ev.t, ev.worker, ev.kind.name()));
            for (key, val) in ev.kind.args() {
                match val {
                    Arg::U(n) => out.push_str(&format!(" {key}={n}")),
                    Arg::S(s) => out.push_str(&format!(" {key}={s:?}")),
                }
            }
            out.push('\n');
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "({} events dropped from ring buffers)\n",
                self.dropped
            ));
        }
        out
    }
}

/// Replays a finished [`Trace`] and asserts scheduler invariants. The
/// merged order is virtual-time order, which is *not* a causal order
/// across workers (two workers' clocks are independent), so every check
/// is set-based rather than sequential:
///
/// * **claims follow publication** — every `claim (node, epoch)` appears
///   in the set of `publish`/`lao-reuse` events for that node and epoch;
/// * **no double issue** — no `(node, epoch, alt)` is claimed twice;
/// * **pool conservation** — pool pops never exceed pushes plus steal
///   successes (in this engine every pop dequeues a pushed handle, so
///   the bound is slack but safe);
/// * **hunts are opened** — per worker, every `steal-success` /
///   `steal-fail` closes an open `steal-attempt` of its own (an attempt
///   is never stamped after its outcome);
/// * **faults are answered** — every `fault-injected` is matched by a
///   recovery record (`fault-retry`, `fault-stall`, `degraded`) or a
///   `worker-exit`/`abort`;
/// * **no install before materialization** — in a run that deferred any
///   closure capture (at least one `closure-defer` recorded), every
///   remote `claim` and every `closure-thaw` of a `(node, epoch)` must
///   match a `closure-materialize` for that same node epoch, and every
///   materialization must match a defer — a claimant can never install
///   an alternative whose closure was never frozen. (The rule is gated
///   on defers being present so synthetic traces from older layers stay
///   valid.)
/// * **no hit before its store** — every `memo-hit (key, epoch)` matches
///   a `memo-store` of the same key epoch recorded in this run, *or*
///   predates every store in the trace (table epochs are globally
///   monotone, so a hit at an epoch below the run's first store can only
///   come from a warm table carried in from a previous run).
/// * **no answer after cancel** — session events carry a server-global
///   sequence number in `t`, so within one session's stream `t` *is*
///   causal: no `answer-streamed`/`session-first-answer` may carry a `t`
///   greater than the session's first `session-cancel` /
///   `session-deadline-cancel` event, and a rejected session streams no
///   answers at all (nor may a session be both admitted and rejected).
///
/// When the trace reports dropped events, count- and set-based checks
/// that eviction could falsify are skipped and the result is the
/// explicit [`TraceVerdict::Incomplete`] rather than a hard pass/fail;
/// the double-issue check still runs (dropping events can hide a
/// duplicate, never create one).
pub struct TraceChecker;

/// Where an event sits in the merged stream — attached to every checker
/// message so a violation at 256 workers is a jump-to, not a search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EvRef {
    idx: usize,
    worker: usize,
    t: u64,
}

impl fmt::Display for EvRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event #{} (worker {}, t={})",
            self.idx, self.worker, self.t
        )
    }
}

#[derive(Debug, Clone, Copy)]
struct ClaimInfo {
    count: u64,
    first: EvRef,
    last: EvRef,
    /// Nearest preceding publish/lao-reuse of the claimed node (any
    /// epoch), captured when the claim was replayed.
    nearest_pub: Option<(u64, EvRef)>,
}

/// The outcome of replaying a trace through [`TraceChecker::verdict`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceVerdict {
    /// The stream is complete and every invariant held.
    Passed,
    /// Ring buffers evicted `dropped` events: drop-sensitive checks were
    /// skipped, so this is *not* a pass — the stream is unverifiable.
    /// `violations` lists what the surviving per-event checks still
    /// caught (dropping events can hide a violation, never forge one).
    Incomplete {
        dropped: u64,
        violations: Vec<String>,
    },
    /// The complete stream violated invariants.
    Failed(Vec<String>),
}

impl TraceChecker {
    /// Check all invariants; `Err` carries one message per violation.
    ///
    /// Compatibility wrapper over [`TraceChecker::verdict`]: an
    /// [`TraceVerdict::Incomplete`] trace with no surviving violations
    /// maps to `Ok` (the historical soft-pass); callers that must not
    /// treat truncation as success should match on `verdict` instead.
    pub fn check(trace: &Trace) -> Result<(), Vec<String>> {
        match Self::verdict(trace) {
            TraceVerdict::Passed => Ok(()),
            TraceVerdict::Incomplete { violations, .. } if violations.is_empty() => Ok(()),
            TraceVerdict::Incomplete { violations, .. } | TraceVerdict::Failed(violations) => {
                Err(violations)
            }
        }
    }

    /// Replay the trace and classify it: [`TraceVerdict::Passed`],
    /// [`TraceVerdict::Failed`], or — when ring buffers dropped events —
    /// the explicit [`TraceVerdict::Incomplete`] instead of a silent
    /// check of a truncated stream.
    pub fn verdict(trace: &Trace) -> TraceVerdict {
        let mut published: HashMap<(u64, u64), EvRef> = HashMap::new();
        // Latest publish/lao-reuse seen per node, any epoch — the
        // "nearest preceding related event" for claim diagnostics.
        let mut last_pub_by_node: HashMap<u64, (u64, EvRef)> = HashMap::new();
        let mut claimed: HashMap<(u64, u64, usize), ClaimInfo> = HashMap::new();
        let (mut pushes, mut pops, mut steals) = (0u64, 0u64, 0u64);
        let (mut injected, mut recovered) = (0u64, 0u64);
        let mut memo_stores: HashMap<(u64, u64), EvRef> = HashMap::new();
        let mut last_store_by_key: HashMap<u64, (u64, EvRef)> = HashMap::new();
        // (key, epoch, hit ref, nearest preceding store of key)
        #[allow(clippy::type_complexity)]
        let mut memo_hits: Vec<(u64, u64, EvRef, Option<(u64, EvRef)>)> = Vec::new();
        let mut deferred: HashMap<(u64, u64), EvRef> = HashMap::new();
        let mut materialized: HashMap<(u64, u64), EvRef> = HashMap::new();
        let mut thawed: Vec<(u64, u64, EvRef)> = Vec::new();
        let mut admitted: HashMap<u64, EvRef> = HashMap::new();
        let mut rejected: HashMap<u64, EvRef> = HashMap::new();
        let mut cancelled_at: HashMap<u64, (u64, EvRef)> = HashMap::new();
        let mut streamed: Vec<(u64, u64, EvRef)> = Vec::new(); // (session, t, ref)

        // Tabling is evaluated machine-locally (local scheduling), so the
        // rules are per (worker, subgoal): answers inserted so far, and
        // the point the worker completed the subgoal. Cross-worker
        // virtual times are not causal, so cross-worker rules would be
        // unsound here.
        let mut table_answers_seen: HashMap<(usize, u64), usize> = HashMap::new();
        let mut table_completed: HashMap<(usize, u64), EvRef> = HashMap::new();
        // Clause dispatch is also worker-local: a retry on a worker is
        // judged against the dispatches *that worker* made (a claimed
        // shared alternative retries on the thief, whose own dispatch
        // history for the predicate may be empty — that is fine).
        let mut clause_dispatched: HashMap<(usize, Label), EvRef> = HashMap::new();
        let mut clause_nondet: HashSet<(usize, Label)> = HashSet::new();
        let mut clause_retries: Vec<(usize, Label, EvRef)> = Vec::new();
        // Open steal-attempts per worker. A count, not a flag: the busy
        // cost of a failed hunt is not on the idle phase's clock, so the
        // next hunt's attempt can be stamped (and merged) ahead of the
        // previous hunt's outcome.
        let mut hunting: HashMap<usize, u64> = HashMap::new();
        // Order-sensitive, so checked inline; only reported when the
        // trace is complete (ring-buffer eviction can eat the answers
        // that justified a resume, or the attempt a steal closed).
        let mut ordered_violations: Vec<String> = Vec::new();
        let mut violations = Vec::new();

        for (idx, ev) in trace.events.iter().enumerate() {
            let at = EvRef {
                idx,
                worker: ev.worker,
                t: ev.t,
            };
            match &ev.kind {
                EventKind::Publish { node, epoch, .. }
                | EventKind::LaoReuse { node, epoch, .. } => {
                    published.insert((*node, *epoch), at);
                    last_pub_by_node.insert(*node, (*epoch, at));
                }
                EventKind::Claim { node, epoch, alt } => {
                    let nearest_pub = last_pub_by_node.get(node).copied();
                    claimed
                        .entry((*node, *epoch, *alt))
                        .and_modify(|c| {
                            c.count += 1;
                            c.last = at;
                        })
                        .or_insert(ClaimInfo {
                            count: 1,
                            first: at,
                            last: at,
                            nearest_pub,
                        });
                }
                EventKind::PoolPush { .. } => pushes += 1,
                EventKind::PoolPop { .. } => pops += 1,
                EventKind::StealAttempt => *hunting.entry(ev.worker).or_insert(0) += 1,
                EventKind::StealSuccess | EventKind::StealFail => {
                    steals += u64::from(ev.kind == EventKind::StealSuccess);
                    let open = hunting.entry(ev.worker).or_insert(0);
                    if *open > 0 {
                        *open -= 1;
                    } else {
                        ordered_violations.push(format!(
                            "{} on worker {} closes no open steal-attempt at {at}",
                            ev.kind.name(),
                            ev.worker
                        ));
                    }
                }
                EventKind::ClosureDefer { node, epoch } => {
                    deferred.insert((*node, *epoch), at);
                }
                EventKind::ClosureMaterialize { node, epoch, .. } => {
                    materialized.insert((*node, *epoch), at);
                }
                EventKind::ClosureThaw { node, epoch, .. } => thawed.push((*node, *epoch, at)),
                EventKind::MemoStore { key, epoch } => {
                    memo_stores.insert((*key, *epoch), at);
                    last_store_by_key.insert(*key, (*epoch, at));
                }
                EventKind::MemoHit { key, epoch } => {
                    let nearest = last_store_by_key.get(key).copied();
                    memo_hits.push((*key, *epoch, at, nearest));
                }
                EventKind::TableAnswer {
                    subgoal, answers, ..
                } => {
                    table_answers_seen.insert((ev.worker, *subgoal), *answers);
                    if let Some(done_at) = table_completed.get(&(ev.worker, *subgoal)) {
                        ordered_violations.push(format!(
                            "answer inserted into a completed table: subgoal={subgoal} \
                             at {at}; completed at {done_at}",
                        ));
                    }
                }
                EventKind::TableResume { subgoal, seen, .. } => {
                    let available = table_answers_seen
                        .get(&(ev.worker, *subgoal))
                        .copied()
                        .unwrap_or(0);
                    if *seen >= available {
                        ordered_violations.push(format!(
                            "table consumer resumed without a prior new answer: \
                             subgoal={subgoal} seen={seen} answers={available} at {at}",
                        ));
                    }
                }
                EventKind::TableComplete { subgoal, .. } => {
                    table_completed.entry((ev.worker, *subgoal)).or_insert(at);
                }
                EventKind::SessionAdmit { session } => {
                    admitted.entry(*session).or_insert(at);
                }
                EventKind::SessionReject { session } => {
                    rejected.entry(*session).or_insert(at);
                }
                EventKind::SessionCancel { session }
                | EventKind::SessionDeadlineCancel { session } => {
                    let entry = cancelled_at.entry(*session).or_insert((ev.t, at));
                    if ev.t < entry.0 {
                        *entry = (ev.t, at);
                    }
                }
                EventKind::SessionFirstAnswer { session }
                | EventKind::AnswerStreamed { session } => streamed.push((*session, ev.t, at)),
                // Hierarchical stealing: a thief never crosses a domain
                // boundary while work is visible in its own domain. The
                // event carries the occupancy snapshot taken at claim
                // time, so the rule is per-event and holds under
                // ring-buffer eviction.
                EventKind::DomainSteal {
                    node,
                    scope,
                    local_work,
                } if *scope == "cross" && *local_work > 0 => {
                    violations.push(format!(
                        "worker {} stole node={node} across domains with {local_work} \
                         local pool entries visible at {at}",
                        ev.worker
                    ));
                }
                EventKind::ClauseDispatch {
                    pred, determinate, ..
                } => {
                    clause_dispatched.entry((ev.worker, *pred)).or_insert(at);
                    if !determinate {
                        clause_nondet.insert((ev.worker, *pred));
                    }
                }
                EventKind::ClauseRetry { pred } => clause_retries.push((ev.worker, *pred, at)),
                EventKind::FaultInjected { .. } => injected += 1,
                EventKind::FaultRetry { .. }
                | EventKind::FaultStall { .. }
                | EventKind::Degraded { .. }
                | EventKind::WorkerExit { .. }
                | EventKind::Abort { .. } => recovered += 1,
                _ => {}
            }
        }

        for ((node, epoch, alt), c) in &claimed {
            if c.count > 1 {
                violations.push(format!(
                    "alternative claimed {} times: node={node} epoch={epoch} alt={alt} — \
                     duplicate at {}; first claim at {}",
                    c.count, c.last, c.first
                ));
            }
        }

        // Eviction can remove a publish whose claim survived (and skew
        // counts); only the complete trace supports the remaining checks.
        if trace.dropped == 0 {
            violations.extend(ordered_violations);
            // Determinacy claims are binding: if every dispatch of a
            // predicate on a worker reported exactly one candidate, a
            // backtrack into a second clause of it there is impossible.
            for (worker, pred, at) in &clause_retries {
                let k = (*worker, *pred);
                if let Some(first) = clause_dispatched.get(&k) {
                    if !clause_nondet.contains(&k) {
                        violations.push(format!(
                            "clause retry of {pred} on worker {worker} at {at}, but every \
                             dispatch of {pred} there claimed determinacy (first at {first})"
                        ));
                    }
                }
            }
            for ((node, epoch, alt), c) in &claimed {
                if !published.contains_key(&(*node, *epoch)) {
                    let context = match c.nearest_pub {
                        Some((pub_epoch, pub_at)) => format!(
                            "; nearest preceding publish of node {node} was epoch \
                             {pub_epoch} at {pub_at}"
                        ),
                        None => format!("; node {node} was never published in this trace"),
                    };
                    violations.push(format!(
                        "claim without publication: node={node} epoch={epoch} alt={alt} \
                         at {}{context}",
                        c.last
                    ));
                }
            }
            if pops > pushes + steals {
                violations.push(format!(
                    "pool pops ({pops}) exceed pushes ({pushes}) + steals ({steals})"
                ));
            }
            if injected > recovered {
                violations.push(format!(
                    "{injected} fault injection(s) but only {recovered} recovery/exit record(s)"
                ));
            }
            // Procrastinated capture: once any defer is recorded, remote
            // installs are only legal against materialized closures.
            if !deferred.is_empty() {
                for ((node, epoch), at) in &materialized {
                    if !deferred.contains_key(&(*node, *epoch)) {
                        violations.push(format!(
                            "closure materialized without a defer: node={node} epoch={epoch} \
                             at {at}"
                        ));
                    }
                }
                for (node, epoch, at) in &thawed {
                    if !materialized.contains_key(&(*node, *epoch)) {
                        let context = match deferred.get(&(*node, *epoch)) {
                            Some(d) => format!("; deferred at {d}"),
                            None => String::new(),
                        };
                        violations.push(format!(
                            "closure thawed before materialization: node={node} epoch={epoch} \
                             at {at}{context}"
                        ));
                    }
                }
                for ((node, epoch, alt), c) in &claimed {
                    if !materialized.contains_key(&(*node, *epoch)) {
                        let context = match deferred.get(&(*node, *epoch)) {
                            Some(d) => format!("; deferred at {d}"),
                            None => String::new(),
                        };
                        violations.push(format!(
                            "alternative installed before its node's closure was \
                             materialized: node={node} epoch={epoch} alt={alt} at {}{context}",
                            c.last
                        ));
                    }
                }
            }
            // Hits at or above the run's first stored epoch must match a
            // recorded store; hits below it are warm-table replays (table
            // epochs are globally monotone across runs).
            let min_store = memo_stores.keys().map(|&(_, e)| e).min();
            for (key, epoch, at, nearest) in &memo_hits {
                let warm = match min_store {
                    None => true,
                    Some(min) => *epoch < min,
                };
                if !warm && !memo_stores.contains_key(&(*key, *epoch)) {
                    let context = match nearest {
                        Some((store_epoch, store_at)) => format!(
                            "; nearest preceding store of key {key} was epoch \
                             {store_epoch} at {store_at}"
                        ),
                        None => format!("; key {key} was never stored in this trace"),
                    };
                    violations.push(format!(
                        "memo hit without a matching store: key={key} epoch={epoch} \
                         at {at}{context}"
                    ));
                }
            }
            // Session streams: answers stop at the cancel event, rejected
            // sessions never stream, and admit/reject are exclusive.
            for (s, admit_at) in &admitted {
                if let Some(reject_at) = rejected.get(s) {
                    violations.push(format!(
                        "session {s} both admitted and rejected \
                         (admitted at {admit_at}; rejected at {reject_at})"
                    ));
                }
            }
            for (session, t, at) in &streamed {
                if let Some(reject_at) = rejected.get(session) {
                    violations.push(format!(
                        "answer streamed for rejected session {session} at t={t} ({at}); \
                         rejected at {reject_at}"
                    ));
                }
                if let Some((cancel_t, cancel_at)) = cancelled_at.get(session) {
                    if t > cancel_t {
                        violations.push(format!(
                            "answer streamed after session cancel: session={session} \
                             answer t={t} ({at}) cancel t={cancel_t} ({cancel_at})"
                        ));
                    }
                }
            }
        }

        if trace.dropped > 0 {
            TraceVerdict::Incomplete {
                dropped: trace.dropped,
                violations,
            }
        } else if violations.is_empty() {
            TraceVerdict::Passed
        } else {
            TraceVerdict::Failed(violations)
        }
    }
}

/// Escape a string for inclusion inside a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_logic::sym::sym;

    fn ev(t: u64, worker: usize, kind: EventKind) -> TraceEvent {
        TraceEvent { t, worker, kind }
    }

    fn pred(name: &str, arity: u32) -> Label {
        Label::Pred(sym(name), arity)
    }

    #[test]
    fn disabled_tracer_has_no_buffer_and_records_no_class() {
        let mut tr = Tracer::new(&TraceConfig::default(), 0);
        assert!(!tr.records(TraceClass::Always));
        tr.record(10, EventKind::StealAttempt);
        assert!(tr.take().is_none());
    }

    #[test]
    fn classes_follow_the_trace_config() {
        let plain = Tracer::new(&TraceConfig::enabled(), 0);
        assert!(plain.records(TraceClass::Always));
        assert!(!plain.records(TraceClass::Lifecycle) && !plain.records(TraceClass::Dispatch));
        let full = Tracer::new(&TraceConfig::enabled().with_lifecycle().with_dispatch(), 0);
        assert!(full.records(TraceClass::Lifecycle) && full.records(TraceClass::Dispatch));
        assert!(!full.records(TraceClass::Unrecorded));
    }

    #[test]
    fn names_are_unique_kebab_case_and_cover_every_variant() {
        let mut seen = HashSet::new();
        for name in EventKind::NAMES {
            assert!(seen.insert(name), "{name} names two rows");
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{name}"
            );
        }
        assert_eq!(EventKind::StealFail.name(), "steal-fail");
        for counter in Stats::EVENT_BACKED {
            assert!(Stats::FIELD_NAMES.contains(counter), "{counter}");
        }
    }

    #[test]
    fn fold_applies_each_rows_bumps() {
        let trace = Trace::merge(
            vec![],
            vec![
                ev(1, 0, EventKind::FrameAlloc { slots: 3 }),
                ev(2, 0, EventKind::MarkerElide),
                ev(3, 1, EventKind::FaultRetry { what: "publish" }),
                ev(4, 1, EventKind::IdleProbe { cost: 12 }),
                ev(5, 1, EventKind::ClaimCross { local_work: 2 }),
                ev(6, 1, EventKind::StealFail),
            ],
        );
        let mut expect = Stats::new();
        expect.parcall_frames = 1;
        expect.parcall_slots = 3;
        expect.markers_elided_spo = 2;
        expect.publish_retries = 1;
        expect.idle_probes = 1;
        expect.idle_cost = 12;
        expect.steals_cross_domain = 1;
        expect.steals_cross_eager = 1;
        assert_eq!(Stats::fold(&trace), expect);
    }

    #[test]
    fn ring_buffer_wraparound_counts_drops() {
        let mut buf = TraceBuf::new(0, 4);
        for t in 0..10 {
            buf.push(ev(t, 0, EventKind::StealAttempt));
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.dropped, 6);
        // oldest events were evicted: the survivors are t = 6..10
        assert_eq!(buf.events.front().unwrap().t, 6);
        assert_eq!(buf.events.back().unwrap().t, 9);
    }

    #[test]
    fn merge_orders_by_virtual_time_across_workers() {
        let mut a = TraceBuf::new(0, 16);
        let mut b = TraceBuf::new(1, 16);
        for t in [5u64, 20, 40] {
            a.push(ev(t, 0, EventKind::StealAttempt));
        }
        for t in [1u64, 20, 30, 50] {
            b.push(ev(t, 1, EventKind::StealFail));
        }
        let trace = Trace::merge(
            vec![a, b],
            vec![ev(
                45,
                0,
                EventKind::WorkerExit {
                    reason: "completed".into(),
                },
            )],
        );
        let ts: Vec<u64> = trace.events.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![1, 5, 20, 20, 30, 40, 45, 50]);
        // per-worker order is monotone after the merge
        for w in 0..trace.workers() {
            let mut last = 0;
            for e in trace.events.iter().filter(|e| e.worker == w) {
                assert!(e.t >= last, "worker {w} went backwards");
                last = e.t;
            }
        }
        assert_eq!(trace.workers(), 2);
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn chrome_json_escapes_event_payload_strings() {
        let trace = Trace::merge(
            vec![],
            vec![ev(
                3,
                0,
                EventKind::WorkerExit {
                    reason: "panic: \"quoted\" \\ back\nslash\ttab\u{1}".into(),
                },
            )],
        );
        let json = trace.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains(r#"\"quoted\""#), "quotes escaped: {json}");
        assert!(json.contains(r"\\ back"), "backslash escaped: {json}");
        assert!(json.contains(r"\n"), "newline escaped: {json}");
        assert!(json.contains(r"\t"), "tab escaped: {json}");
        assert!(json.contains("\\u0001"), "control char escaped: {json}");
        assert!(!json.contains('\n'), "raw newline leaked into JSON");
    }

    #[test]
    fn timeline_renders_one_line_per_event() {
        let trace = Trace::merge(
            vec![],
            vec![
                ev(
                    1,
                    0,
                    EventKind::Publish {
                        node: 7,
                        epoch: 0,
                        alts: 3,
                        pred: pred("p", 1),
                    },
                ),
                ev(
                    2,
                    1,
                    EventKind::Claim {
                        node: 7,
                        epoch: 0,
                        alt: 1,
                    },
                ),
            ],
        );
        let text = trace.timeline();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("publish") && text.contains("node=7"));
    }

    #[test]
    fn checker_accepts_publish_claim_pairs() {
        let trace = Trace::merge(
            vec![],
            vec![
                ev(
                    1,
                    0,
                    EventKind::Publish {
                        node: 1,
                        epoch: 0,
                        alts: 2,
                        pred: pred("p", 1),
                    },
                ),
                ev(2, 0, EventKind::PoolPush { node: 1 }),
                ev(3, 1, EventKind::StealAttempt),
                ev(3, 1, EventKind::PoolPop { node: 1 }),
                ev(
                    4,
                    1,
                    EventKind::Claim {
                        node: 1,
                        epoch: 0,
                        alt: 0,
                    },
                ),
                ev(
                    5,
                    1,
                    EventKind::Claim {
                        node: 1,
                        epoch: 0,
                        alt: 1,
                    },
                ),
                ev(6, 1, EventKind::StealSuccess),
            ],
        );
        assert!(TraceChecker::check(&trace).is_ok());
    }

    #[test]
    fn checker_rejects_a_steal_outcome_with_no_open_attempt() {
        // The and-engine's old stream: the attempt came after the pop had
        // already succeeded, and a failed hunt had none at all.
        let bad = Trace::merge(
            vec![],
            vec![
                ev(1, 0, EventKind::StealFail),
                ev(2, 1, EventKind::StealAttempt),
                ev(3, 1, EventKind::StealSuccess),
                ev(4, 1, EventKind::StealSuccess),
            ],
        );
        let errs = TraceChecker::check(&bad).unwrap_err();
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0].contains("steal-fail on worker 0 closes no open steal-attempt"));
        assert!(errs[1].contains("steal-success on worker 1") && errs[1].contains("event #3"));
        // An attempt may stay open (the hunt found the worker's own task),
        // and one worker's attempt does not cover another's outcome.
        let open = Trace::merge(
            vec![],
            vec![
                ev(1, 0, EventKind::StealAttempt),
                ev(2, 0, EventKind::StealAttempt),
                ev(3, 0, EventKind::StealFail),
            ],
        );
        assert!(TraceChecker::check(&open).is_ok());
    }

    #[test]
    fn checker_domain_steal_rule() {
        // Same-domain steals and cross-domain steals with an empty local
        // domain are fine, whatever the local occupancy says for the
        // former.
        let ok = Trace::merge(
            vec![],
            vec![
                ev(
                    1,
                    1,
                    EventKind::DomainSteal {
                        node: 3,
                        scope: "domain",
                        local_work: 4,
                    },
                ),
                ev(
                    2,
                    2,
                    EventKind::DomainSteal {
                        node: 4,
                        scope: "cross",
                        local_work: 0,
                    },
                ),
            ],
        );
        assert!(TraceChecker::check(&ok).is_ok());

        // Crossing a domain while local work is visible is a violation.
        let bad = Trace::merge(
            vec![],
            vec![ev(
                1,
                2,
                EventKind::DomainSteal {
                    node: 5,
                    scope: "cross",
                    local_work: 3,
                },
            )],
        );
        let errs = TraceChecker::check(&bad).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("across domains")),
            "{errs:?}"
        );
    }

    #[test]
    fn checker_rejects_double_claim_and_orphan_claim() {
        let trace = Trace::merge(
            vec![],
            vec![
                ev(
                    1,
                    0,
                    EventKind::Publish {
                        node: 1,
                        epoch: 0,
                        alts: 1,
                        pred: pred("p", 1),
                    },
                ),
                ev(
                    2,
                    1,
                    EventKind::Claim {
                        node: 1,
                        epoch: 0,
                        alt: 0,
                    },
                ),
                ev(
                    3,
                    2,
                    EventKind::Claim {
                        node: 1,
                        epoch: 0,
                        alt: 0,
                    },
                ),
                ev(
                    4,
                    2,
                    EventKind::Claim {
                        node: 9,
                        epoch: 3,
                        alt: 0,
                    },
                ),
            ],
        );
        let violations = TraceChecker::check(&trace).unwrap_err();
        assert!(violations.iter().any(|v| v.contains("claimed 2 times")));
        assert!(violations.iter().any(|v| v.contains("without publication")));
    }

    #[test]
    fn checker_requires_fault_recovery_records() {
        let bad = Trace::merge(
            vec![],
            vec![ev(1, 0, EventKind::FaultInjected { kind: "steal-fail" })],
        );
        assert!(TraceChecker::check(&bad).is_err());

        let good = Trace::merge(
            vec![],
            vec![
                ev(1, 0, EventKind::FaultInjected { kind: "steal-fail" }),
                ev(2, 0, EventKind::FaultRetry { what: "steal" }),
            ],
        );
        assert!(TraceChecker::check(&good).is_ok());
    }

    #[test]
    fn checker_softens_on_dropped_events() {
        let mut buf = TraceBuf::new(0, 1);
        buf.push(ev(
            1,
            0,
            EventKind::Publish {
                node: 1,
                epoch: 0,
                alts: 1,
                pred: pred("p", 1),
            },
        ));
        buf.push(ev(
            2,
            0,
            EventKind::Claim {
                node: 1,
                epoch: 0,
                alt: 0,
            },
        ));
        let trace = Trace::merge(vec![buf], vec![]);
        assert_eq!(trace.dropped, 1);
        // the publish was evicted, but the checker must not false-positive
        assert!(TraceChecker::check(&trace).is_ok());
    }

    #[test]
    fn checker_accepts_defer_materialize_thaw_claim_chain() {
        let trace = Trace::merge(
            vec![],
            vec![
                ev(
                    1,
                    0,
                    EventKind::Publish {
                        node: 1,
                        epoch: 0,
                        alts: 2,
                        pred: pred("p", 1),
                    },
                ),
                ev(1, 0, EventKind::ClosureDefer { node: 1, epoch: 0 }),
                ev(
                    4,
                    0,
                    EventKind::ClosureMaterialize {
                        node: 1,
                        epoch: 0,
                        cells: 12,
                    },
                ),
                ev(
                    6,
                    1,
                    EventKind::ClosureThaw {
                        node: 1,
                        epoch: 0,
                        cells: 12,
                    },
                ),
                ev(
                    6,
                    1,
                    EventKind::Claim {
                        node: 1,
                        epoch: 0,
                        alt: 0,
                    },
                ),
            ],
        );
        assert!(TraceChecker::check(&trace).is_ok());
    }

    #[test]
    fn checker_rejects_install_before_materialization() {
        // A defer exists, so installs of un-materialized nodes are illegal.
        let claim_unmaterialized = Trace::merge(
            vec![],
            vec![
                ev(
                    1,
                    0,
                    EventKind::Publish {
                        node: 1,
                        epoch: 0,
                        alts: 1,
                        pred: pred("p", 1),
                    },
                ),
                ev(1, 0, EventKind::ClosureDefer { node: 1, epoch: 0 }),
                ev(
                    3,
                    1,
                    EventKind::Claim {
                        node: 1,
                        epoch: 0,
                        alt: 0,
                    },
                ),
            ],
        );
        let violations = TraceChecker::check(&claim_unmaterialized).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| v.contains("before its node's closure was")));

        let thaw_unmaterialized = Trace::merge(
            vec![],
            vec![
                ev(1, 0, EventKind::ClosureDefer { node: 2, epoch: 0 }),
                ev(
                    3,
                    1,
                    EventKind::ClosureThaw {
                        node: 2,
                        epoch: 0,
                        cells: 5,
                    },
                ),
            ],
        );
        let violations = TraceChecker::check(&thaw_unmaterialized).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| v.contains("thawed before materialization")));

        let materialize_undeferred = Trace::merge(
            vec![],
            vec![
                ev(1, 0, EventKind::ClosureDefer { node: 3, epoch: 0 }),
                ev(
                    2,
                    0,
                    EventKind::ClosureMaterialize {
                        node: 9,
                        epoch: 4,
                        cells: 1,
                    },
                ),
            ],
        );
        let violations = TraceChecker::check(&materialize_undeferred).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| v.contains("materialized without a defer")));
    }

    #[test]
    fn checker_gate_keeps_deferless_traces_valid() {
        // No closure-defer events at all: pre-procrastination synthetic
        // traces (claims with no closure lifecycle) must stay accepted.
        let trace = Trace::merge(
            vec![],
            vec![
                ev(
                    1,
                    0,
                    EventKind::Publish {
                        node: 1,
                        epoch: 0,
                        alts: 1,
                        pred: pred("p", 1),
                    },
                ),
                ev(
                    2,
                    1,
                    EventKind::Claim {
                        node: 1,
                        epoch: 0,
                        alt: 0,
                    },
                ),
            ],
        );
        assert!(TraceChecker::check(&trace).is_ok());
    }

    #[test]
    fn checker_accepts_memo_hit_after_store() {
        let trace = Trace::merge(
            vec![],
            vec![
                ev(1, 0, EventKind::MemoStore { key: 42, epoch: 3 }),
                ev(
                    1,
                    0,
                    EventKind::MemoComplete {
                        key: 42,
                        epoch: 3,
                        answers: 1,
                    },
                ),
                ev(5, 1, EventKind::MemoHit { key: 42, epoch: 3 }),
            ],
        );
        assert!(TraceChecker::check(&trace).is_ok());
    }

    #[test]
    fn checker_rejects_retry_after_determinate_dispatch() {
        let trace = Trace::merge(
            vec![],
            vec![
                ev(
                    1,
                    0,
                    EventKind::ClauseDispatch {
                        pred: pred("p", 1),
                        candidates: 1,
                        determinate: true,
                    },
                ),
                ev(9, 0, EventKind::ClauseRetry { pred: pred("p", 1) }),
            ],
        );
        let errs = TraceChecker::check(&trace).unwrap_err();
        assert!(errs[0].contains("claimed determinacy"), "{errs:?}");
    }

    #[test]
    fn checker_allows_retry_after_nondeterminate_dispatch() {
        let trace = Trace::merge(
            vec![],
            vec![
                ev(
                    1,
                    0,
                    EventKind::ClauseDispatch {
                        pred: pred("member", 2),
                        candidates: 2,
                        determinate: false,
                    },
                ),
                ev(
                    9,
                    0,
                    EventKind::ClauseRetry {
                        pred: pred("member", 2),
                    },
                ),
            ],
        );
        assert!(TraceChecker::check(&trace).is_ok());
    }

    #[test]
    fn checker_scopes_dispatch_determinacy_per_worker() {
        // Worker 0 dispatched determinately; the retry happens on worker 1
        // (a claimed shared alternative), whose own history is empty.
        let trace = Trace::merge(
            vec![],
            vec![
                ev(
                    1,
                    0,
                    EventKind::ClauseDispatch {
                        pred: pred("p", 1),
                        candidates: 1,
                        determinate: true,
                    },
                ),
                ev(9, 1, EventKind::ClauseRetry { pred: pred("p", 1) }),
            ],
        );
        assert!(TraceChecker::check(&trace).is_ok());
    }

    #[test]
    fn checker_rejects_memo_hit_without_store() {
        let trace = Trace::merge(
            vec![],
            vec![
                ev(1, 0, EventKind::MemoStore { key: 42, epoch: 3 }),
                // epoch 7 >= first stored epoch but was never stored
                ev(5, 1, EventKind::MemoHit { key: 9, epoch: 7 }),
            ],
        );
        let violations = TraceChecker::check(&trace).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| v.contains("memo hit without a matching store")));
    }

    #[test]
    fn checker_allows_warm_table_memo_hits() {
        // A hit with no stores at all: table warmed by a previous run.
        let only_hit = Trace::merge(
            vec![],
            vec![ev(2, 0, EventKind::MemoHit { key: 9, epoch: 1 })],
        );
        assert!(TraceChecker::check(&only_hit).is_ok());
        // A hit below the run's first stored epoch: also warm (epochs
        // are globally monotone across runs sharing a table).
        let old_epoch = Trace::merge(
            vec![],
            vec![
                ev(1, 0, EventKind::MemoStore { key: 42, epoch: 5 }),
                ev(2, 1, EventKind::MemoHit { key: 9, epoch: 2 }),
            ],
        );
        assert!(TraceChecker::check(&old_epoch).is_ok());
    }

    #[test]
    fn checker_accepts_well_formed_tabling_protocol() {
        let trace = Trace::merge(
            vec![],
            vec![
                ev(1, 0, EventKind::TableNew { key: 7, subgoal: 1 }),
                ev(
                    2,
                    0,
                    EventKind::TableSuspend {
                        key: 7,
                        subgoal: 1,
                        seen: 0,
                    },
                ),
                ev(
                    3,
                    0,
                    EventKind::TableAnswer {
                        key: 7,
                        subgoal: 1,
                        answers: 1,
                    },
                ),
                ev(
                    4,
                    0,
                    EventKind::TableResume {
                        key: 7,
                        subgoal: 1,
                        seen: 0,
                    },
                ),
                ev(
                    5,
                    0,
                    EventKind::TableComplete {
                        key: 7,
                        subgoal: 1,
                        answers: 1,
                    },
                ),
                // another worker shadow-evaluating the same subgoal keeps
                // its own answer ledger — its resume is justified locally
                ev(
                    2,
                    1,
                    EventKind::TableAnswer {
                        key: 7,
                        subgoal: 1,
                        answers: 1,
                    },
                ),
                ev(
                    3,
                    1,
                    EventKind::TableResume {
                        key: 7,
                        subgoal: 1,
                        seen: 0,
                    },
                ),
            ],
        );
        assert!(TraceChecker::check(&trace).is_ok());
    }

    #[test]
    fn checker_rejects_resume_without_new_answer() {
        let trace = Trace::merge(
            vec![],
            vec![
                ev(1, 0, EventKind::TableNew { key: 7, subgoal: 1 }),
                ev(
                    2,
                    0,
                    EventKind::TableAnswer {
                        key: 7,
                        subgoal: 1,
                        answers: 1,
                    },
                ),
                // resumed at seen=1 with only 1 answer inserted: nothing
                // new to feed the consumer
                ev(
                    3,
                    0,
                    EventKind::TableResume {
                        key: 7,
                        subgoal: 1,
                        seen: 1,
                    },
                ),
            ],
        );
        let violations = TraceChecker::check(&trace).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| v.contains("resumed without a prior new answer")));
    }

    #[test]
    fn checker_rejects_answer_into_completed_table() {
        let trace = Trace::merge(
            vec![],
            vec![
                ev(
                    1,
                    0,
                    EventKind::TableComplete {
                        key: 7,
                        subgoal: 3,
                        answers: 2,
                    },
                ),
                ev(
                    2,
                    0,
                    EventKind::TableAnswer {
                        key: 7,
                        subgoal: 3,
                        answers: 3,
                    },
                ),
            ],
        );
        let violations = TraceChecker::check(&trace).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| v.contains("answer inserted into a completed table")));
        // ...but another worker completing the same subgoal later is fine
        // (shadow evaluation) — the rule is per-worker
        let cross = Trace::merge(
            vec![],
            vec![
                ev(
                    1,
                    0,
                    EventKind::TableComplete {
                        key: 7,
                        subgoal: 3,
                        answers: 2,
                    },
                ),
                ev(
                    5,
                    1,
                    EventKind::TableAnswer {
                        key: 7,
                        subgoal: 3,
                        answers: 1,
                    },
                ),
            ],
        );
        assert!(TraceChecker::check(&cross).is_ok());
    }

    #[test]
    fn checker_accepts_well_formed_session_stream() {
        let trace = Trace::merge(
            vec![],
            vec![
                ev(1, 0, EventKind::SessionAdmit { session: 7 }),
                ev(2, 0, EventKind::SessionFirstAnswer { session: 7 }),
                ev(2, 0, EventKind::AnswerStreamed { session: 7 }),
                ev(3, 0, EventKind::AnswerStreamed { session: 7 }),
                ev(4, 0, EventKind::SessionCancel { session: 7 }),
                ev(
                    5,
                    0,
                    EventKind::SessionDrain {
                        session: 7,
                        outcome: "cancelled",
                        answers: 2,
                    },
                ),
                ev(6, 1, EventKind::SessionReject { session: 8 }),
            ],
        );
        assert!(TraceChecker::check(&trace).is_ok());
    }

    #[test]
    fn checker_rejects_answer_after_session_cancel() {
        let trace = Trace::merge(
            vec![],
            vec![
                ev(1, 0, EventKind::SessionAdmit { session: 3 }),
                ev(2, 0, EventKind::SessionDeadlineCancel { session: 3 }),
                ev(5, 0, EventKind::AnswerStreamed { session: 3 }),
            ],
        );
        let violations = TraceChecker::check(&trace).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| v.contains("answer streamed after session cancel")));
    }

    #[test]
    fn checker_rejects_stream_from_rejected_session() {
        let trace = Trace::merge(
            vec![],
            vec![
                ev(1, 0, EventKind::SessionReject { session: 9 }),
                ev(2, 0, EventKind::AnswerStreamed { session: 9 }),
            ],
        );
        let violations = TraceChecker::check(&trace).unwrap_err();
        assert!(violations.iter().any(|v| v.contains("rejected session 9")));

        let both = Trace::merge(
            vec![],
            vec![
                ev(1, 0, EventKind::SessionAdmit { session: 4 }),
                ev(2, 0, EventKind::SessionReject { session: 4 }),
            ],
        );
        let violations = TraceChecker::check(&both).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| v.contains("both admitted and rejected")));
    }

    #[test]
    fn verdict_distinguishes_incomplete_from_passed_and_failed() {
        // Complete, clean trace: Passed.
        let clean = Trace::merge(vec![], vec![ev(1, 0, EventKind::StealAttempt)]);
        assert_eq!(TraceChecker::verdict(&clean), TraceVerdict::Passed);

        // Complete trace with a violation: Failed.
        let bad = Trace::merge(
            vec![],
            vec![ev(1, 0, EventKind::FaultInjected { kind: "die" })],
        );
        assert!(matches!(
            TraceChecker::verdict(&bad),
            TraceVerdict::Failed(_)
        ));

        // Truncated trace: Incomplete, never a silent pass — even though
        // check() still soft-passes for compatibility.
        let mut buf = TraceBuf::new(0, 1);
        buf.push(ev(1, 0, EventKind::StealAttempt));
        buf.push(ev(2, 0, EventKind::StealFail));
        let truncated = Trace::merge(vec![buf], vec![]);
        match TraceChecker::verdict(&truncated) {
            TraceVerdict::Incomplete {
                dropped,
                violations,
            } => {
                assert_eq!(dropped, 1);
                assert!(violations.is_empty());
            }
            v => panic!("expected Incomplete, got {v:?}"),
        }
        assert!(TraceChecker::check(&truncated).is_ok());

        // Truncated trace with a drop-proof violation: Incomplete carries
        // it, and check() still errors.
        let mut buf = TraceBuf::new(0, 2);
        buf.push(ev(1, 0, EventKind::StealAttempt));
        buf.push(ev(2, 0, EventKind::StealAttempt));
        buf.push(ev(3, 0, EventKind::StealAttempt));
        let double = Trace::merge(
            vec![buf],
            vec![
                ev(
                    4,
                    1,
                    EventKind::Claim {
                        node: 1,
                        epoch: 0,
                        alt: 0,
                    },
                ),
                ev(
                    5,
                    2,
                    EventKind::Claim {
                        node: 1,
                        epoch: 0,
                        alt: 0,
                    },
                ),
            ],
        );
        match TraceChecker::verdict(&double) {
            TraceVerdict::Incomplete {
                dropped,
                violations,
            } => {
                assert_eq!(dropped, 1);
                assert!(violations.iter().any(|v| v.contains("claimed 2 times")));
            }
            v => panic!("expected Incomplete, got {v:?}"),
        }
        assert!(TraceChecker::check(&double).is_err());
    }

    #[test]
    fn checker_messages_locate_the_offending_event() {
        let trace = Trace::merge(
            vec![],
            vec![
                ev(
                    10,
                    0,
                    EventKind::Publish {
                        node: 1,
                        epoch: 0,
                        alts: 1,
                        pred: pred("p", 1),
                    },
                ),
                ev(
                    20,
                    1,
                    EventKind::Claim {
                        node: 1,
                        epoch: 0,
                        alt: 0,
                    },
                ),
                ev(
                    30,
                    2,
                    EventKind::Claim {
                        node: 1,
                        epoch: 0,
                        alt: 0,
                    },
                ),
                // Claimed epoch never published; node published at epoch 0.
                ev(
                    40,
                    3,
                    EventKind::Claim {
                        node: 1,
                        epoch: 9,
                        alt: 0,
                    },
                ),
            ],
        );
        let errs = TraceChecker::check(&trace).unwrap_err();
        let double = errs
            .iter()
            .find(|e| e.contains("claimed 2 times"))
            .expect("double-claim violation");
        // Offending (duplicate) event and the nearest related (first
        // claim) are both pinpointed: index, worker, virtual time.
        assert!(
            double.contains("duplicate at event #2 (worker 2, t=30)"),
            "{double}"
        );
        assert!(
            double.contains("first claim at event #1 (worker 1, t=20)"),
            "{double}"
        );
        let orphan = errs
            .iter()
            .find(|e| e.contains("without publication"))
            .expect("orphan-claim violation");
        assert!(orphan.contains("at event #3 (worker 3, t=40)"), "{orphan}");
        assert!(
            orphan.contains("nearest preceding publish of node 1 was epoch 0 at event #0"),
            "{orphan}"
        );
    }

    #[test]
    fn sink_collects_and_drains() {
        let sink = TraceSink::default();
        let clone = sink.clone();
        clone.emit(
            9,
            2,
            EventKind::Abort {
                reason: "livelock".into(),
            },
        );
        let events = sink.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].worker, 2);
        assert!(sink.drain().is_empty());
    }
}
