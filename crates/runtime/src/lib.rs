//! # ace-runtime — parallel runtime substrate
//!
//! Configuration, cost accounting and execution drivers shared by the
//! and-parallel and or-parallel engines.
//!
//! ## The Sequent Symmetry substitution
//!
//! The paper's evaluation ran on a 10-processor Sequent Symmetry. This
//! reproduction instead measures on a **deterministic virtual-time
//! multiprocessor**: every engine operation charges units from a
//! [`cost::CostModel`] to its worker's virtual clock, and the
//! [`driver::SimDriver`] advances the worker whose clock is smallest, so
//! N-worker interleavings are simulated faithfully (including busy-wait
//! idling while looking for work) on any host — results are exact,
//! repeatable, and independent of host core count.
//!
//! The same engines also run under [`driver::ThreadsDriver`] on real OS
//! threads (std scoped threads + parking_lot); tests use it to validate
//! that engine logic is correct under true concurrency, and on multicore
//! hosts it reports wall-clock times.
//!
//! The virtual machine need not be flat: a [`topology::Topology`] on
//! the config groups workers into NUMA-style domains with per-edge-class
//! costs (intra- vs cross-domain steals, observed lock contention via
//! [`topology::LockClock`]), so 64–512-worker fleets are simulated with
//! locality effects the paper's 10-CPU Sequent never exposed.
//!
//! ## Fault model
//!
//! The [`fault`] module provides seeded, deterministic fault injection
//! ([`fault::FaultPlan`] / [`fault::FaultInjector`]), and both drivers
//! supervise their workers: panics become structured
//! [`driver::WorkerExit::Panicked`] entries on the [`driver::RunOutcome`]
//! instead of crashing the process, and the threads driver enforces an
//! optional wall-clock deadline.
//!
//! ## Observability
//!
//! The [`trace`] module holds the one event table every view of a run
//! is derived from: a scheduling fact is a typed event
//! ([`trace::EventKind`]) that a worker hands to
//! [`chassis::WorkerCore::note`], which bumps the [`stats::Stats`]
//! counters its row declares, records it (always compiled, off by
//! default) into a fixed-capacity ring buffer stamped with the worker's
//! virtual clock, and steps its live series. Engines merge the buffers
//! into a virtual-time-ordered [`trace::Trace`]; consumers export Chrome
//! `trace_event` JSON, fold it back into counters ([`Stats::fold`]) or
//! replay it through [`trace::TraceChecker`] to assert scheduler
//! invariants. Disabled tracing costs one branch per event and zero
//! virtual time.
//!
//! The [`metrics`] module adds the *live* counterpart: a lock-free
//! [`metrics::MetricsRegistry`] of sharded counters, gauges and
//! log-bucketed histograms attached via
//! [`config::EngineConfig::with_metrics`], scraped as a
//! [`metrics::MetricsSnapshot`] and rendered in the Prometheus text
//! format — same always-compiled/off-by-default/zero-virtual-cost
//! contract as the tracer. The [`profile`] module folds a finished
//! run's trace into a [`profile::Profile`]: virtual cost attributed to
//! predicate/activity frames, exported as a top-N table or an
//! `inferno`-compatible collapsed-stack flamegraph.
//!
//! ## Answer store
//!
//! One [`AnswerStore`] (from [`ace_table`]) holds every reusable answer
//! set of a run, and two switches on the config say what the machines use
//! it for. [`config::EngineConfig::with_memoization`] watches determinate
//! calls: their complete answer sets are published once and replayed by
//! any worker. [`config::EngineConfig::with_tabling`] honours
//! `:- table(p/n).` declarations on *non-determinate* predicates: the
//! machine runs SLG-style generator/consumer evaluation with suspension,
//! answer dedup, and leader-based SCC completion, and publishes completed
//! answer sets into the same store so later calls on any worker are pure
//! lookups. Both are off by default and zero-cost when off — no store is
//! allocated and every consultation point is a single branch.

pub mod cancel;
pub mod chassis;
pub mod config;
pub mod cost;
pub mod driver;
pub mod fault;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod stats;
pub mod topology;
pub mod trace;

pub use ace_table::{
    AnswerEntry, AnswerStore, PublishOutcome, RegisterOutcome, StoreConfig, StoreCounters,
};
pub use cancel::CancelToken;
pub use chassis::{Control, Engine, Finished, Step, WorkerCore, QUANTUM};
pub use config::{ClauseExec, DriverKind, EngineConfig, OptFlags, OrScheduler};
pub use cost::CostModel;
pub use driver::{supervised, Agent, Phase, RunOutcome, SimDriver, ThreadsDriver, WorkerExit};
pub use fault::{FaultAction, FaultEvent, FaultInjector, FaultKind, FaultPlan};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, Sample,
    SampleValue,
};
pub use profile::Profile;
pub use sink::{AnswerSink, SinkVerdict};
pub use stats::Stats;
pub use topology::{LockClock, Topology};
pub use trace::{
    EventKind, Frame, Label, LiveCounters, Trace, TraceBuf, TraceChecker, TraceClass, TraceConfig,
    TraceEvent, TraceSink, TraceVerdict, Tracer,
};

/// Benchmark-pinned names of the one store and its config: `benchmark/`
/// (which a PR may not edit) imports all four from this crate. Nothing
/// else uses them.
pub type MemoTable = AnswerStore;
/// Benchmark-pinned, see [`MemoTable`].
pub type TableSpace = AnswerStore;
/// Benchmark-pinned, see [`MemoTable`].
pub type MemoConfig = StoreConfig;
/// Benchmark-pinned, see [`MemoTable`].
pub type TableConfig = StoreConfig;
