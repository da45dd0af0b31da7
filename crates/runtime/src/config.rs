//! Engine configuration: worker count, optimization toggles, driver choice.

use std::sync::Arc;
use std::time::Duration;

use ace_table::{AnswerStore, StoreConfig};

use crate::cancel::CancelToken;
use crate::cost::CostModel;
use crate::fault::FaultPlan;
use crate::metrics::MetricsRegistry;
use crate::sink::AnswerSink;
use crate::topology::Topology;
use crate::trace::TraceConfig;

/// Which optimizations from the paper are enabled.
///
/// Each flag corresponds to one concrete optimization derived from the
/// three schemas (§3–§4 of the paper):
///
/// | flag  | optimization                      | schema             |
/// |-------|-----------------------------------|--------------------|
/// | `lpco`| Last Parallel Call Optimization   | flattening         |
/// | `lao` | Last Alternative Optimization     | flattening         |
/// | `spo` | Shallow Parallelism Optimization  | procrastination    |
/// | `pdo` | Processor Determinacy Optimization| sequentialization  |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptFlags {
    pub lpco: bool,
    pub lao: bool,
    pub spo: bool,
    pub pdo: bool,
}

impl OptFlags {
    /// The unoptimized baseline engine.
    pub fn none() -> Self {
        OptFlags::default()
    }

    /// All four optimizations on (the fully optimized ACE engine).
    pub fn all() -> Self {
        OptFlags {
            lpco: true,
            lao: true,
            spo: true,
            pdo: true,
        }
    }

    pub fn lpco_only() -> Self {
        OptFlags {
            lpco: true,
            ..Default::default()
        }
    }

    pub fn lao_only() -> Self {
        OptFlags {
            lao: true,
            ..Default::default()
        }
    }

    pub fn spo_only() -> Self {
        OptFlags {
            spo: true,
            ..Default::default()
        }
    }

    pub fn pdo_only() -> Self {
        OptFlags {
            pdo: true,
            ..Default::default()
        }
    }

    /// All 16 combinations, for exhaustive equivalence testing.
    pub fn all_combinations() -> Vec<OptFlags> {
        (0..16)
            .map(|m| OptFlags {
                lpco: m & 1 != 0,
                lao: m & 2 != 0,
                spo: m & 4 != 0,
                pdo: m & 8 != 0,
            })
            .collect()
    }

    /// Short label like `"lpco+spo"` (or `"none"`).
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.lpco {
            parts.push("lpco");
        }
        if self.lao {
            parts.push("lao");
        }
        if self.spo {
            parts.push("spo");
        }
        if self.pdo {
            parts.push("pdo");
        }
        if parts.is_empty() {
            "none".to_owned()
        } else {
            parts.join("+")
        }
    }
}

/// How idle or-engine workers locate unclaimed alternatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrScheduler {
    /// Sharded alternative pool: publication enqueues a node handle,
    /// stealing pops one — amortized O(1) per claim regardless of
    /// public-tree size.
    #[default]
    Pool,
    /// Full tree traversal from the root on every steal attempt (the
    /// original scheduler). O(tree size) per claim; kept as the oracle
    /// the pool scheduler is validated against.
    Traversal,
}

/// How user-predicate clauses are resolved against calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClauseExec {
    /// WAM-style register code compiled at load time, dispatched through
    /// the switch-on-term first-argument chains — heads match without
    /// copying the clause arena, and only bucket clauses are visited.
    #[default]
    Compiled,
    /// The original tree-walking interpreter: linear first-argument scan
    /// over the raw clause list, block-copy instantiation, general
    /// unification of the copied head. Kept as the validation oracle the
    /// compiled path is checked bit-identical against.
    Interpreted,
}

/// Which execution driver to run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriverKind {
    /// Deterministic virtual-time simulation (used for all paper
    /// reproductions; see crate docs).
    #[default]
    Sim,
    /// Real OS threads (correctness validation; wall-clock on multicore).
    Threads,
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of workers ("agents"/"processors" in the paper's tables).
    pub workers: usize,
    pub opts: OptFlags,
    pub driver: DriverKind,
    /// Cost-unit prices (virtual time).
    pub costs: CostModel,
    /// Worker placement and per-edge-class steal/contention costs (see
    /// [`crate::topology`]). Flat by default — one domain, zero steal
    /// premiums — which reproduces the pre-topology cost accounting.
    pub topology: Topology,
    /// Stop after this many solutions of the root query (`None` = all).
    pub max_solutions: Option<usize>,
    /// Or-parallel work-finding mechanism (pool vs full traversal).
    pub or_scheduler: OrScheduler,
    /// Clause execution mechanism (compiled code vs interpreter oracle).
    pub clause_exec: ClauseExec,
    /// Safety valve: abort if total virtual time exceeds this bound
    /// (catches engine livelocks in tests). `None` = unbounded.
    pub virtual_time_limit: Option<u64>,
    /// Wall-clock budget for a [`DriverKind::Threads`] run. When it
    /// expires the driver raises its stop flag and cancels the engine's
    /// root token; the run ends with `aborted` set and per-worker
    /// `DeadlineExceeded` exits instead of hanging. `None` = no watchdog.
    pub threads_deadline: Option<Duration>,
    /// Deterministic fault schedule injected into the run (testing and
    /// robustness validation; see [`crate::fault`]). `None` = no faults.
    pub fault_plan: Option<FaultPlan>,
    /// Event tracing (see [`crate::trace`]). Off by default; when enabled
    /// the run's merged [`crate::trace::Trace`] is surfaced on the report.
    /// Tracing charges no virtual time.
    pub trace: TraceConfig,
    /// Watch determinate calls and memoize their answers in the answer
    /// store (see [`ace_table`]). Off by default; with both store
    /// behaviours off no store is allocated and every consultation point
    /// is one branch, so reports stay bit-identical to a store-free build.
    pub memoize: bool,
    /// Honour `:- table(p/n).` declarations: SLG evaluation of tabled
    /// predicates, completed answer sets shared through the same answer
    /// store. Off by default, same zero-cost-when-off contract.
    pub tabling: bool,
    /// Sizing of the store a run allocates for itself.
    pub store_config: StoreConfig,
    /// An externally owned answer store to reuse across runs (REPL
    /// sessions, server fleets, warm-store tests). `None` = the engine
    /// allocates a fresh store per run when a store behaviour is on.
    pub store: Option<Arc<AnswerStore>>,
    /// Tenant id charged for this run's store insertions — memoized
    /// answers and tabled completions alike (per-tenant quota accounting
    /// when a store is shared across queries; see
    /// [`StoreConfig::tenant_quota`]) — and labelling its metrics.
    /// Tenant 0 is the default single-tenant owner.
    pub tenant: u32,
    /// Live metrics registry (see [`crate::metrics`]). `None` (the
    /// default) disables metric recording entirely: every emission point
    /// is one branch, nothing is charged to virtual time, and runs stay
    /// bit-identical to a metrics-free build. Share one registry across
    /// runs/sessions to accumulate fleet-wide series.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Streamed answer delivery (see [`crate::sink`]). `None` = answers
    /// are only collected on the final report, exactly as before.
    pub sink: Option<AnswerSink>,
    /// External cancellation parent. When set, the engine's root token is
    /// created as a child of this one, so an outside supervisor (a query
    /// server session, a deadline watchdog) can cancel the run through
    /// the engines' existing cooperative checkpoints. The engine's own
    /// internal cancellations never propagate *up* into this token.
    pub cancel: Option<CancelToken>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            opts: OptFlags::none(),
            driver: DriverKind::Sim,
            costs: CostModel::default(),
            topology: Topology::flat(),
            max_solutions: Some(1),
            or_scheduler: OrScheduler::default(),
            clause_exec: ClauseExec::default(),
            virtual_time_limit: Some(200_000_000_000),
            threads_deadline: Some(Duration::from_secs(60)),
            fault_plan: None,
            trace: TraceConfig::default(),
            memoize: false,
            tabling: false,
            store_config: StoreConfig::default(),
            store: None,
            tenant: 0,
            metrics: None,
            sink: None,
            cancel: None,
        }
    }
}

impl EngineConfig {
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    pub fn with_opts(mut self, opts: OptFlags) -> Self {
        self.opts = opts;
        self
    }

    pub fn with_driver(mut self, driver: DriverKind) -> Self {
        self.driver = driver;
        self
    }

    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    pub fn all_solutions(mut self) -> Self {
        self.max_solutions = None;
        self
    }

    pub fn first_solution(mut self) -> Self {
        self.max_solutions = Some(1);
        self
    }

    pub fn with_or_scheduler(mut self, sched: OrScheduler) -> Self {
        self.or_scheduler = sched;
        self
    }

    pub fn with_clause_exec(mut self, exec: ClauseExec) -> Self {
        self.clause_exec = exec;
        self
    }

    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    pub fn with_threads_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.threads_deadline = deadline;
        self
    }

    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Record live metrics into `registry` (see [`crate::metrics`]).
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Memoize the answers of determinate calls.
    pub fn with_memoization(mut self) -> Self {
        self.memoize = true;
        self
    }

    /// Evaluate `:- table` predicates by SLG resolution.
    pub fn with_tabling(mut self) -> Self {
        self.tabling = true;
        self
    }

    /// Size the store a run allocates for itself.
    pub fn with_store_config(mut self, store_config: StoreConfig) -> Self {
        self.store_config = store_config;
        self
    }

    /// Reuse an existing answer store (for whichever store behaviours
    /// are switched on).
    pub fn with_store(mut self, store: Arc<AnswerStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Charge this run's store insertions to `tenant` (quota accounting on
    /// shared stores).
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Benchmark-pinned: `with_store(store).with_memoization()`.
    pub fn with_memo_table(self, store: Arc<AnswerStore>) -> Self {
        self.with_store(store).with_memoization()
    }

    /// Benchmark-pinned: `with_store_config(store_config).with_tabling()`.
    pub fn with_table(self, store_config: StoreConfig) -> Self {
        self.with_store_config(store_config).with_tabling()
    }

    /// Benchmark-pinned: `with_store(store).with_tabling()`.
    pub fn with_table_space(self, store: Arc<AnswerStore>) -> Self {
        self.with_store(store).with_tabling()
    }

    /// Stream each root solution through `sink` as it is found.
    pub fn with_answer_sink(mut self, sink: AnswerSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Parent the engine's root cancellation token under `token`.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The root cancellation token for a run under this config: a child
    /// of the external parent when one is set, a fresh root otherwise.
    pub fn root_cancel(&self) -> CancelToken {
        match &self.cancel {
            Some(parent) => parent.child(),
            None => CancelToken::new(),
        }
    }

    /// The answer store this run should share among its machines: the
    /// externally provided one, or a freshly allocated private store;
    /// `None` when neither memoization nor tabling is on.
    pub fn resolve_store(&self) -> Option<Arc<AnswerStore>> {
        if !(self.memoize || self.tabling) {
            return None;
        }
        Some(self.store.clone().unwrap_or_else(|| {
            // A fresh per-run store is sized to the fleet: the default 16
            // shards serialize lookups once more than ~16 workers hammer
            // the store, so scale the shard count up to the worker count
            // (next power of two keeps the modulo distribution even).
            // Externally supplied stores are reused as-is — their owner
            // chose their geometry.
            let mut sizing = self.store_config.clone();
            sizing.shards = sizing.shards.max(self.workers.next_power_of_two());
            Arc::new(AnswerStore::new(&sizing))
        }))
    }

    /// Benchmark-pinned: [`EngineConfig::resolve_store`] when memoization
    /// is on.
    pub fn resolve_memo_table(&self) -> Option<Arc<AnswerStore>> {
        self.memoize.then(|| self.resolve_store()).flatten()
    }

    /// Benchmark-pinned: [`EngineConfig::resolve_store`] when tabling is
    /// on.
    pub fn resolve_table_space(&self) -> Option<Arc<AnswerStore>> {
        self.tabling.then(|| self.resolve_store()).flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(OptFlags::none().label(), "none");
        assert_eq!(OptFlags::all().label(), "lpco+lao+spo+pdo");
        assert_eq!(OptFlags::lpco_only().label(), "lpco");
    }

    #[test]
    fn sixteen_combinations_unique() {
        let all = OptFlags::all_combinations();
        assert_eq!(all.len(), 16);
        let labels: std::collections::HashSet<String> = all.iter().map(|o| o.label()).collect();
        assert_eq!(labels.len(), 16);
    }

    #[test]
    fn builder_chains() {
        let c = EngineConfig::default()
            .with_workers(10)
            .with_opts(OptFlags::all())
            .all_solutions();
        assert_eq!(c.workers, 10);
        assert!(c.opts.pdo);
        assert_eq!(c.max_solutions, None);
    }

    #[test]
    fn root_cancel_parents_under_external_token() {
        // no external parent: fresh root, independent of everything
        let free = EngineConfig::default().root_cancel();
        assert!(!free.is_cancelled());

        // external parent: cancelling it cancels the run's root...
        let session = CancelToken::new();
        let cfg = EngineConfig::default().with_cancel(session.clone());
        let root = cfg.root_cancel();
        assert!(!root.is_cancelled());
        session.cancel();
        assert!(root.is_cancelled());

        // ...but an engine-internal cancel never propagates upward
        let session = CancelToken::new();
        let root = EngineConfig::default()
            .with_cancel(session.clone())
            .root_cancel();
        root.cancel();
        assert!(!session.is_cancelled());
    }

    #[test]
    fn store_resolution() {
        // off by default: no store, zero-cost opt-out — and sizing or an
        // external handle alone switches nothing on
        assert!(EngineConfig::default().resolve_store().is_none());
        let shared = Arc::new(AnswerStore::new(&StoreConfig::default()));
        let c = EngineConfig::default()
            .with_store_config(StoreConfig::default().with_shards(4))
            .with_store(shared.clone());
        assert!(c.resolve_store().is_none());
        // either behaviour without an external store: fresh private store
        assert!(EngineConfig::default()
            .with_memoization()
            .resolve_store()
            .is_some());
        assert!(EngineConfig::default()
            .with_tabling()
            .resolve_store()
            .is_some());
        // an external store is reused identically, for both behaviours
        let c = c.with_memoization().with_tabling();
        assert!(Arc::ptr_eq(&c.resolve_store().unwrap(), &shared));
    }

    #[test]
    fn benchmark_pinned_builders_switch_one_behaviour_each() {
        let shared = Arc::new(AnswerStore::new(&StoreConfig::enabled()));
        let c = EngineConfig::default().with_memo_table(shared.clone());
        assert!(c.memoize && !c.tabling);
        assert!(Arc::ptr_eq(&c.resolve_memo_table().unwrap(), &shared));
        assert!(c.resolve_table_space().is_none());
        let c = EngineConfig::default().with_table_space(shared.clone());
        assert!(c.tabling && !c.memoize);
        assert!(Arc::ptr_eq(&c.resolve_table_space().unwrap(), &shared));
        assert!(c.resolve_memo_table().is_none());
        let c = EngineConfig::default().with_table(StoreConfig::enabled().with_shards(2));
        assert!(c.tabling && !c.memoize);
        assert_eq!(c.resolve_table_space().unwrap().shard_count(), 2);
    }

    #[test]
    fn store_shards_scale_to_the_fleet() {
        // Small fleets keep the configured default geometry...
        let c = EngineConfig::default().with_workers(8).with_memoization();
        assert_eq!(c.resolve_store().unwrap().shard_count(), 16);
        // ...big fleets get one shard per worker (power-of-two rounded).
        let c = EngineConfig::default().with_workers(100).with_tabling();
        assert_eq!(c.resolve_store().unwrap().shard_count(), 128);
        // External stores are never resized behind their owner's back.
        let shared = Arc::new(AnswerStore::new(&StoreConfig::default()));
        let c = EngineConfig::default()
            .with_workers(512)
            .with_store(shared.clone())
            .with_tabling();
        assert_eq!(c.resolve_store().unwrap().shard_count(), 16);
    }

    #[test]
    fn topology_defaults_flat() {
        let c = EngineConfig::default();
        assert_eq!(c.topology, Topology::flat());
        let c = c.with_topology(Topology::numa(4));
        assert_eq!(c.topology.domains, 4);
    }
}
