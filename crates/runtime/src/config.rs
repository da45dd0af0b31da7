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
/// | `lazy`| Lazy parcall frames               | procrastination    |
///
/// `lazy` is this reproduction's own: the procrastination schema applied
/// to the parcall frame itself. It is off in every paper table
/// ([`OptFlags::paper`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptFlags {
    pub lpco: bool,
    pub lao: bool,
    pub spo: bool,
    pub pdo: bool,
    /// A parallel conjunction that meets no idle worker runs as a
    /// sequential one under a light record, promoted to a parcall frame
    /// only when a worker goes idle while some of its goals are unstarted.
    pub lazy: bool,
}

impl OptFlags {
    /// The unoptimized baseline engine.
    pub fn none() -> Self {
        OptFlags::default()
    }

    /// The paper's four optimizations on (the fully optimized ACE engine
    /// of its tables).
    pub fn paper() -> Self {
        OptFlags {
            lpco: true,
            lao: true,
            spo: true,
            pdo: true,
            lazy: false,
        }
    }

    /// Every optimization on: the paper's four and lazy frames.
    pub fn all() -> Self {
        OptFlags {
            lazy: true,
            ..OptFlags::paper()
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

    pub fn lazy_only() -> Self {
        OptFlags {
            lazy: true,
            ..Default::default()
        }
    }

    /// All 32 combinations, for exhaustive equivalence testing.
    pub fn all_combinations() -> Vec<OptFlags> {
        (0..32)
            .map(|m| OptFlags {
                lpco: m & 1 != 0,
                lao: m & 2 != 0,
                spo: m & 4 != 0,
                pdo: m & 8 != 0,
                lazy: m & 16 != 0,
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
        if self.lazy {
            parts.push("lazy");
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

/// Full engine configuration, grouped into blocks by who sets them
/// (DESIGN.md §4 "Configuration" lists every field, its setter and its
/// default). Two fields stay top-level because `benchmark/` reads them as
/// fields.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Cost-unit prices (virtual time).
    pub costs: CostModel,
    /// Stop after this many solutions of the root query (`None` = all).
    pub max_solutions: Option<usize>,
    /// What the paper's experiments vary, and the machine they run on.
    pub run: RunBlock,
    /// The answer store: what a run uses it for, and whose it is.
    pub store: StoreBlock,
    /// Tracing and live metrics.
    pub observe: ObserveBlock,
    /// Hooks a supervisor attaches to one run (a server session, a test).
    pub session: SessionBlock,
    /// The validation-oracle arms.
    pub oracle: OracleBlock,
}

/// Worker count, schemas, driver and simulated machine.
#[derive(Debug, Clone)]
pub struct RunBlock {
    /// Number of workers ("agents"/"processors" in the paper's tables).
    pub workers: usize,
    pub opts: OptFlags,
    pub driver: DriverKind,
    /// Worker placement and per-edge-class steal/contention costs (see
    /// [`crate::topology`]). Flat by default — one domain, zero steal
    /// premiums — which reproduces the pre-topology cost accounting.
    pub topology: Topology,
    /// Wall-clock budget for a [`DriverKind::Threads`] run; only the
    /// threads driver reads it. When it expires the driver raises its stop
    /// flag and cancels the engine's root token; the run ends with
    /// `aborted` set and per-worker `DeadlineExceeded` exits instead of
    /// hanging. `None` = no watchdog.
    pub threads_deadline: Option<Duration>,
}

impl Default for RunBlock {
    fn default() -> Self {
        RunBlock {
            workers: 1,
            opts: OptFlags::none(),
            driver: DriverKind::Sim,
            topology: Topology::flat(),
            threads_deadline: Some(Duration::from_secs(60)),
        }
    }
}

/// The one answer store (see [`ace_table`]). With both behaviours off no
/// store is allocated and every consultation point is one branch, so
/// reports stay bit-identical to a store-free build.
#[derive(Debug, Clone, Default)]
pub struct StoreBlock {
    /// Watch determinate calls and memoize their answers.
    pub memoize: bool,
    /// Honour `:- table(p/n).` declarations: SLG evaluation of tabled
    /// predicates, completed answer sets shared through the same store.
    pub tabling: bool,
    /// Sizing of the store a run allocates for itself.
    pub store_config: StoreConfig,
    /// An externally owned store to reuse across runs (REPL sessions,
    /// server fleets, warm-store tests). `None` = the engine allocates a
    /// fresh store per run when a store behaviour is on.
    pub shared: Option<Arc<AnswerStore>>,
    /// Tenant id charged for this run's store insertions — memoized
    /// answers and tabled completions alike (per-tenant quota accounting
    /// when a store is shared across queries; see
    /// [`StoreConfig::tenant_quota`]) — and labelling its metrics.
    /// Tenant 0 is the default single-tenant owner.
    pub tenant: u32,
}

/// Tracing and live metrics. Both are off by default, charge no virtual
/// time, and cost one branch per emission point when off.
#[derive(Debug, Clone, Default)]
pub struct ObserveBlock {
    /// Event tracing (see [`crate::trace`]); when enabled the run's merged
    /// [`crate::trace::Trace`] is surfaced on the report.
    pub trace: TraceConfig,
    /// Live metrics registry (see [`crate::metrics`]). Share one registry
    /// across runs/sessions to accumulate fleet-wide series.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

/// Hooks attached to one run by whoever supervises it.
#[derive(Debug, Clone, Default)]
pub struct SessionBlock {
    /// Streamed answer delivery (see [`crate::sink`]). `None` = answers
    /// are only collected on the final report.
    pub sink: Option<AnswerSink>,
    /// External cancellation parent. When set, the engine's root token is
    /// created as a child of this one, so an outside supervisor (a query
    /// server session, a deadline watchdog) can cancel the run through
    /// the engines' existing cooperative checkpoints. The engine's own
    /// internal cancellations never propagate *up* into this token.
    pub cancel: Option<CancelToken>,
    /// Deterministic fault schedule injected into the run (testing and
    /// robustness validation; see [`crate::fault`]). `None` = no faults.
    pub fault_plan: Option<FaultPlan>,
}

/// The validation-only arms: the slow original mechanisms the fast ones
/// are checked against (`table3` is pinned to the traversal scheduler).
#[derive(Debug, Clone, Default)]
pub struct OracleBlock {
    /// Or-parallel work-finding mechanism (pool vs full traversal).
    pub or_scheduler: OrScheduler,
    /// Clause execution mechanism (compiled code vs interpreter oracle).
    pub clause_exec: ClauseExec,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            costs: CostModel::default(),
            max_solutions: Some(1),
            run: RunBlock::default(),
            store: StoreBlock::default(),
            observe: ObserveBlock::default(),
            session: SessionBlock::default(),
            oracle: OracleBlock::default(),
        }
    }
}

/// The builders `benchmark/` calls, kept as forwards; everything else is
/// set on its block directly.
impl EngineConfig {
    /// Benchmark-pinned: sets `run.workers`.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.run.workers = n;
        self
    }

    /// Benchmark-pinned: sets `run.opts`.
    pub fn with_opts(mut self, opts: OptFlags) -> Self {
        self.run.opts = opts;
        self
    }

    /// Benchmark-pinned: sets `run.driver`.
    pub fn with_driver(mut self, driver: DriverKind) -> Self {
        self.run.driver = driver;
        self
    }

    /// Benchmark-pinned: sets `observe.trace`.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.observe.trace = trace;
        self
    }

    /// Benchmark-pinned: sets `observe.metrics`.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.observe.metrics = Some(registry);
        self
    }

    /// Benchmark-pinned: sets `oracle.clause_exec`.
    pub fn with_clause_exec(mut self, exec: ClauseExec) -> Self {
        self.oracle.clause_exec = exec;
        self
    }

    /// Benchmark-pinned: sets `max_solutions` to `None`.
    pub fn all_solutions(mut self) -> Self {
        self.max_solutions = None;
        self
    }

    /// Benchmark-pinned: sets `store.shared` and `store.memoize`.
    pub fn with_memo_table(mut self, store: Arc<AnswerStore>) -> Self {
        self.store.shared = Some(store);
        self.store.memoize = true;
        self
    }

    /// Benchmark-pinned: sets `store.store_config` and `store.tabling`.
    pub fn with_table(mut self, store_config: StoreConfig) -> Self {
        self.store.store_config = store_config;
        self.store.tabling = true;
        self
    }

    /// Benchmark-pinned: sets `store.shared` and `store.tabling`.
    pub fn with_table_space(mut self, store: Arc<AnswerStore>) -> Self {
        self.store.shared = Some(store);
        self.store.tabling = true;
        self
    }

    /// The root cancellation token for a run under this config: a child
    /// of the external parent when one is set, a fresh root otherwise.
    pub fn root_cancel(&self) -> CancelToken {
        match &self.session.cancel {
            Some(parent) => parent.child(),
            None => CancelToken::new(),
        }
    }

    /// The answer store this run should share among its machines: the
    /// externally provided one, or a freshly allocated private store;
    /// `None` when neither memoization nor tabling is on.
    pub fn resolve_store(&self) -> Option<Arc<AnswerStore>> {
        if !(self.store.memoize || self.store.tabling) {
            return None;
        }
        Some(self.store.shared.clone().unwrap_or_else(|| {
            // A fresh per-run store is sized to the fleet: the default 16
            // shards serialize lookups once more than ~16 workers hammer
            // the store, so scale the shard count up to the worker count
            // (next power of two keeps the modulo distribution even).
            // Externally supplied stores are reused as-is — their owner
            // chose their geometry.
            let mut sizing = self.store.store_config.clone();
            sizing.shards = sizing.shards.max(self.run.workers.next_power_of_two());
            Arc::new(AnswerStore::new(&sizing))
        }))
    }

    /// Benchmark-pinned: [`EngineConfig::resolve_store`] when memoization
    /// is on.
    pub fn resolve_memo_table(&self) -> Option<Arc<AnswerStore>> {
        self.store.memoize.then(|| self.resolve_store()).flatten()
    }

    /// Benchmark-pinned: [`EngineConfig::resolve_store`] when tabling is
    /// on.
    pub fn resolve_table_space(&self) -> Option<Arc<AnswerStore>> {
        self.store.tabling.then(|| self.resolve_store()).flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(OptFlags::none().label(), "none");
        assert_eq!(OptFlags::paper().label(), "lpco+lao+spo+pdo");
        assert_eq!(OptFlags::all().label(), "lpco+lao+spo+pdo+lazy");
        assert_eq!(OptFlags::lpco_only().label(), "lpco");
    }

    #[test]
    fn thirty_two_combinations_unique() {
        let all = OptFlags::all_combinations();
        assert_eq!(all.len(), 32);
        let labels: std::collections::HashSet<String> = all.iter().map(|o| o.label()).collect();
        assert_eq!(labels.len(), 32);
    }

    #[test]
    fn builder_chains() {
        let c = EngineConfig::default()
            .with_workers(10)
            .with_opts(OptFlags::all())
            .all_solutions();
        assert_eq!(c.run.workers, 10);
        assert!(c.run.opts.pdo);
        assert_eq!(c.max_solutions, None);
    }

    #[test]
    fn root_cancel_parents_under_external_token() {
        // no external parent: fresh root, independent of everything
        let free = EngineConfig::default().root_cancel();
        assert!(!free.is_cancelled());

        // external parent: cancelling it cancels the run's root...
        let session = CancelToken::new();
        let mut cfg = EngineConfig::default();
        cfg.session.cancel = Some(session.clone());
        let root = cfg.root_cancel();
        assert!(!root.is_cancelled());
        session.cancel();
        assert!(root.is_cancelled());

        // ...but an engine-internal cancel never propagates upward
        let session = CancelToken::new();
        cfg.session.cancel = Some(session.clone());
        cfg.root_cancel().cancel();
        assert!(!session.is_cancelled());
    }

    #[test]
    fn store_resolution() {
        // off by default: no store, zero-cost opt-out — and sizing or an
        // external handle alone switches nothing on
        assert!(EngineConfig::default().resolve_store().is_none());
        let shared = Arc::new(AnswerStore::new(&StoreConfig::default()));
        let mut c = EngineConfig::default();
        c.store.store_config = StoreConfig::default().with_shards(4);
        c.store.shared = Some(shared.clone());
        assert!(c.resolve_store().is_none());
        // either behaviour without an external store: fresh private store
        for memoize in [true, false] {
            let mut fresh = EngineConfig::default();
            fresh.store.memoize = memoize;
            fresh.store.tabling = !memoize;
            assert!(fresh.resolve_store().is_some());
        }
        // an external store is reused identically, for both behaviours
        c.store.memoize = true;
        c.store.tabling = true;
        assert!(Arc::ptr_eq(&c.resolve_store().unwrap(), &shared));
    }

    #[test]
    fn benchmark_pinned_builders_switch_one_behaviour_each() {
        // Each forward equals the default with the field it names assigned
        // by hand; the three store aliases name a handle (or sizing) and
        // the behaviour that uses it.
        let shared = Arc::new(AnswerStore::new(&StoreConfig::enabled()));
        let registry = MetricsRegistry::shared();
        let sized = StoreConfig::enabled().with_shards(2);
        let d = EngineConfig::default;
        let same = |forward: EngineConfig, set: &dyn Fn(&mut EngineConfig)| {
            let mut by_hand = d();
            set(&mut by_hand);
            let forward = format!("{forward:?}");
            assert_ne!(forward, format!("{:?}", d()));
            assert_eq!(forward, format!("{by_hand:?}"));
        };
        same(d().with_workers(7), &|c| c.run.workers = 7);
        same(d().with_opts(OptFlags::all()), &|c| {
            c.run.opts = OptFlags::all()
        });
        same(d().with_driver(DriverKind::Threads), &|c| {
            c.run.driver = DriverKind::Threads
        });
        same(d().with_trace(TraceConfig::enabled()), &|c| {
            c.observe.trace = TraceConfig::enabled()
        });
        same(d().with_metrics(registry.clone()), &|c| {
            c.observe.metrics = Some(registry.clone())
        });
        let interpreted = ClauseExec::Interpreted;
        same(d().with_clause_exec(interpreted), &|c| {
            c.oracle.clause_exec = interpreted
        });
        same(d().all_solutions(), &|c| c.max_solutions = None);
        same(d().with_memo_table(shared.clone()), &|c| {
            c.store.shared = Some(shared.clone());
            c.store.memoize = true;
        });
        same(d().with_table(sized.clone()), &|c| {
            c.store.store_config = sized.clone();
            c.store.tabling = true;
        });
        same(d().with_table_space(shared.clone()), &|c| {
            c.store.shared = Some(shared.clone());
            c.store.tabling = true;
        });

        let c = d().with_memo_table(shared.clone());
        assert!(Arc::ptr_eq(&c.resolve_memo_table().unwrap(), &shared));
        assert!(c.resolve_table_space().is_none());
        let c = d().with_table_space(shared.clone());
        assert!(Arc::ptr_eq(&c.resolve_table_space().unwrap(), &shared));
        assert!(c.resolve_memo_table().is_none());
        let c = d().with_table(sized);
        assert_eq!(c.resolve_table_space().unwrap().shard_count(), 2);
    }

    #[test]
    fn store_shards_scale_to_the_fleet() {
        // Small fleets keep the configured default geometry...
        let mut c = EngineConfig::default().with_workers(8);
        c.store.memoize = true;
        assert_eq!(c.resolve_store().unwrap().shard_count(), 16);
        // ...big fleets get one shard per worker (power-of-two rounded).
        let c = EngineConfig::default()
            .with_workers(100)
            .with_table(StoreConfig::default());
        assert_eq!(c.resolve_store().unwrap().shard_count(), 128);
        // External stores are never resized behind their owner's back.
        let shared = Arc::new(AnswerStore::new(&StoreConfig::default()));
        let c = EngineConfig::default()
            .with_workers(512)
            .with_table_space(shared);
        assert_eq!(c.resolve_store().unwrap().shard_count(), 16);
    }

    #[test]
    fn topology_defaults_flat() {
        assert_eq!(EngineConfig::default().run.topology, Topology::flat());
    }
}
