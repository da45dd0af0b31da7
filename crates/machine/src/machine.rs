//! The solver machine: a steppable resolution engine with full
//! backtracking, cut, and the parallel-frame protocol the engines build on.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ace_logic::db::{Clause, Database, IndexKey, Predicate, ARG_INDEX_MIN_CLAUSES};
use ace_logic::sym::wk;
use ace_logic::term::{view, TermView};
use ace_logic::unify::unify;
use ace_logic::{
    builtin, run_head, Addr, BodyStep, Builtin, CanonKey, CanonScratch, Cell, ClauseId,
    CompiledBody, CompiledCode, Heap, PredId, StepKind, StepTemplate, Sym, TermArena, TestOp,
    TrailMark,
};

use crate::arith;
use ace_runtime::{
    CancelToken, ClauseExec, CostModel, EngineConfig, EventKind, Label, Stats, TraceClass,
    WorkerCore,
};
use ace_table::{AnswerEntry, AnswerStore, PublishOutcome, RegisterOutcome};

use crate::cont::{closure_sym, BodyAt, Callable, Cont, ContMark, ContStack, Env, Goal};
use crate::frames::{
    Alts, ChoicePoint, CtrlFrame, Marker, MarkerKind, ParRecord, ParcallFrame, SharedChoice,
};
use crate::solve::{binding_order, render_bindings};

/// Machine execution status, returned by [`Machine::step`] / [`Machine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// More work to do; call `step`/`run` again.
    Running,
    /// The goal list is exhausted: current bindings are a solution.
    /// Call [`Machine::backtrack`] to search for the next one.
    Solution,
    /// The (sub)computation is exhausted: no (more) solutions.
    Failed,
    /// A parallel conjunction was reached; a fresh [`ParcallFrame`] is on
    /// top of the control stack awaiting the and-engine.
    Parcall,
    /// Backtracking reached a [`ParcallFrame`] from outside (a later goal
    /// failed); the and-engine must produce the next cross-product
    /// solution or declare the frame exhausted.
    ParcallRedo,
    /// The inline (owner-executed) branch of the parallel call with this
    /// frame id arrived at its barrier — either for the first time (join)
    /// or again after local backtracking produced a new solution for it
    /// (the and-engine must then re-integrate its siblings).
    InlineBarrier(u64),
    /// Backtracking crossed a PDO fence: the owner-executed subgoal `slot`
    /// of the parallel call with this frame id is exhausted (inside
    /// failure).
    FenceHit(u64, u32),
    /// Execution was cancelled (sibling failure killed this computation).
    Cancelled,
    /// `halt/0` was executed.
    Halted,
    /// An execution error (undefined predicate, arithmetic fault…).
    Error(String),
}

/// Result of attempting one compiled body step inline (see
/// [`inline_step`]).
enum StepOutcome {
    /// Step executed; move to the next conjunct.
    Ok,
    /// A deterministic test failed — the body fails here, and nothing
    /// after this conjunct was ever materialized.
    Fail,
    /// Hand this step (and the rest) to the generic machinery.
    NotInline,
}

static PARCALL_IDS: AtomicU64 = AtomicU64::new(1);

/// Heap cells a body frame is charged at its push: what its four-cell
/// heap marker cost when body frames were heap terms, so virtual time and
/// the cell counts are unchanged.
const BODY_FRAME_CELLS: u64 = 4;

/// The frame of body step `st`, whose goal `g` was just materialized: a
/// linked call if the link pass resolved its predicate, else a goal term.
#[inline]
fn step_goal(st: &BodyStep, g: Cell) -> Goal {
    match (st.callee.get(), g) {
        (Some(pred), Cell::Str(h)) => Goal::Call {
            goal: Callable::Str(h),
            pred,
        },
        (Some(pred), Cell::Atom(s)) => Goal::Call {
            goal: Callable::Atom(s),
            pred,
        },
        _ => Goal::Term(g),
    }
}

/// A call's answer-store key and its variables in key order, taken
/// before the call runs: what a derivation of it publishes its answer
/// under, as the bindings of those variables.
#[derive(Debug)]
pub struct MemoCall {
    key: CanonKey,
    vars: Box<[Cell]>,
}

/// The functor of a stored answer's tuple, `'$subst'(B1, …, Bn)`, the
/// bindings of the call's key variables; also what a frame keeps of a
/// call's variables (see [`Machine::subst_cell`]).
fn subst_sym() -> Sym {
    static S: std::sync::OnceLock<Sym> = std::sync::OnceLock::new();
    *S.get_or_init(|| ace_logic::sym("$subst"))
}

/// The variables a [`Machine::subst_cell`] keeps, as cells of `heap`.
#[inline]
fn subst_vars(heap: &Heap, subst: Cell) -> &[Cell] {
    match subst {
        Cell::Str(hdr) => {
            let n = heap.functor_at(hdr).1 as usize;
            &heap.cells()[hdr.idx() + 1..][..n]
        }
        _ => &[],
    }
}

/// A call being watched for answer memoization: a [`Goal::MemoStore`]
/// frame planted right after the call in the continuation reaches this
/// record when (a derivation of) the call completes. The snapshots decide
/// whether that derivation was *unique* — nothing nondeterministic or
/// effectful happened in between — in which case its single answer is the
/// call's complete answer set and can be published.
struct MemoWatch {
    /// The call's key and variables (bound by the time its frame arrives).
    call: MemoCall,
    /// Generation tag; a frame whose generation mismatches is stale (its
    /// slot was reclaimed after backtracking discarded the frame — a
    /// suspended tabled consumer may still hold a frozen copy).
    gen: u32,
    /// Continuation-stack height just after the frame was pushed: a stack
    /// truncated below it has dropped the frame, so the watch is dead.
    cont_tide: usize,
    ctrl_len: usize,
    choice_points: u64,
    parcalls_raised: u64,
    markers: u64,
    output_len: usize,
    answers_len: usize,
}

/// A tabled consumer whose answer cursor ran dry while its subgoal was
/// still incomplete: the goal and continuation are frozen (same closure
/// form as or-parallel state copying) until the leader's fixpoint loop
/// thaws them after new answers land.
struct SuspendedConsumer {
    /// The frozen goal and continuation.
    closure: StateClosure,
    /// Answers already consumed before suspension (resume cursor).
    next: usize,
}

/// Machine-local evaluation state of one tabled subgoal (an SLG frame).
/// Lives for the whole query — consumer cursors index into `answers`, so
/// frames are never reclaimed before [`Machine::reset`].
struct LocalSubgoal {
    /// Canonical (variant-normalized) subgoal key.
    key: CanonKey,
    /// Store-wide subgoal id (trace correlation across workers).
    shared_id: u64,
    /// This machine's registration created the store's pending slot (it
    /// is the generator, not a shadow): the slot is owed a publication,
    /// or an `abandon` if the query stops first.
    fresh: bool,
    /// The answer list, in derivation order (frozen: machine-independent).
    answers: Vec<TermArena>,
    /// Canonical answer keys already inserted (duplicate elimination).
    dedup: HashSet<Vec<u8>>,
    /// Consumers parked until new answers land or the subgoal completes.
    suspended: Vec<SuspendedConsumer>,
    /// Fixpoint reached: `answers` is the complete answer set.
    complete: bool,
    /// Depth-first number (creation order) and the smallest dfn this
    /// subgoal's subtree links back to — Tarjan-style SCC detection for
    /// leader-based completion.
    dfn: u32,
    minlink: u32,
}

/// A published-choice-point state closure: everything a remote worker needs
/// to continue an alternative (or-parallel state copying).
///
/// The state is the goal and continuation as a *frozen* `$closure(Goal,
/// F1, …, Fn)` tuple: the arguments [`ContStack::freeze`] writes, frozen
/// jointly into an immutable relocatable [`TermArena`], beside the
/// continuation's frames, which read the thawed tuple back by position:
/// freezing happens at most once per published node (on first remote
/// demand — see the or-engine's procrastinated capture), and every claim
/// thaws straight from the arena into the claimant's heap with no
/// intermediate clone.
#[derive(Debug)]
pub struct StateClosure {
    /// Frozen snapshot of the `$closure(Goal, F1, …, Fn)` tuple; its length
    /// is the cells frozen (cost accounting at materialization).
    pub arena: TermArena,
    /// The continuation's frames, nearest first: frame `i` reads its cells
    /// from tuple argument `i + 1`.
    pub frames: Box<[Goal]>,
}

/// The or-engine publishes its choice points with this closure.
impl ace_runtime::ortree::Closure for StateClosure {
    fn cells(&self) -> u64 {
        self.arena.len() as u64
    }
}

/// Lazy frames: the frame LPCO would merge a trailing `&` into, given
/// to the machine with [`Machine::defer_parcalls`]. Such a `&` is raised
/// even while parallel calls are deferred, so a list recursion keeps
/// growing one frame instead of nesting a record per element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Spine {
    /// None: every deferred `&` pushes a record.
    None,
    /// A slot machine: a `&` with an empty continuation and only markers
    /// on the control stack merges into the slot's frame.
    Slot,
    /// The inline branch of frame `id` on this machine: a `&` whose
    /// continuation is that frame's barrier, with only markers above the
    /// frame, merges into it.
    Inline(u64),
}

/// The solver machine. See the crate docs for the role it plays.
pub struct Machine {
    pub heap: Heap,
    db: Arc<Database>,
    /// The running continuation, a handle into `conts`.
    pub(crate) cont: Cont,
    /// Continuation nodes; what may hold a handle into them, and when they
    /// are dropped, is the liveness rule of [`crate::cont`].
    conts: ContStack,
    pub(crate) ctrl: Vec<CtrlFrame>,
    pub(crate) status: Status,
    /// Whether `&`/2 raises [`Status::Parcall`] (parallel engines) or is
    /// executed as `,`/2 (pure sequential baseline).
    par_enabled: bool,
    /// Lazy frames: `&`/2 pushes a [`ParRecord`] and runs as `,`/2 instead
    /// of raising [`Status::Parcall`] (set by the engine each quantum: no
    /// idle worker is asking for work).
    defer_parcalls: bool,
    /// ... except a `&` that LPCO would merge into a frame that already
    /// exists: a record there would break the frame's spine.
    spine: Spine,
    pub stats: Stats,
    pub(crate) costs: Arc<CostModel>,
    /// Captured output of `write/1`, `nl/0`, `writeln/1`.
    pub output: String,
    /// Solutions captured by the internal `$answer/1` goal (or-parallel
    /// engines append it to the query so solutions survive state copying).
    pub answers: Vec<String>,
    /// Steps since the last cancellation check.
    cancel_check_countdown: u32,
    /// SPO: an input marker whose allocation has been procrastinated; it is
    /// materialized just below the first choice point created, or never.
    pending_marker: Option<(u64, u32)>,
    /// Cost already surfaced to a driver clock (see
    /// [`Machine::take_unsurfaced_cost`]).
    surfaced_cost: u64,
    /// The shared answer store. `None` (the default) leaves both switches
    /// below off and every store consultation point a single branch: no
    /// charges, no events — a store-off run is bit-identical to a
    /// store-free build.
    store: Option<Arc<AnswerStore>>,
    /// Watch determinate calls and memoize their answers in `store`.
    memoize: bool,
    /// Evaluate `:- table` predicates by SLG resolution, completed answer
    /// sets shared through `store`.
    tabling: bool,
    /// Buffer the store's events (memo and table) for the worker's
    /// tracer (tracing only).
    store_trace: bool,
    /// Tenant charged for this machine's store insertions (quota
    /// accounting on shared stores; 0 = the single-tenant default).
    tenant: u32,
    /// Events awaiting [`Machine::surface`], each with the cost this
    /// machine had charged since the last surfacing when it happened.
    events: Vec<(u64, EventKind)>,
    /// In-flight watches on calls whose answer may be publishable.
    memo_watches: Vec<Option<MemoWatch>>,
    /// Free slots in `memo_watches`.
    memo_free: Vec<usize>,
    /// Generation counter for watch slots (stale-frame detection).
    memo_gen: u32,
    /// Monotone count of parallel conjunctions raised (memo determinacy
    /// validation: a derivation that crossed a parcall is never tabled).
    parcalls_raised: u64,
    /// Machine-local SLG frames of tabled subgoals (indexed by cursors).
    table_subgoals: Vec<LocalSubgoal>,
    /// Canonical key bytes → index into `table_subgoals`.
    table_index: HashMap<Vec<u8>, usize>,
    /// In-flight generators, outermost first: (subgoal index, control
    /// index of the generator choice point). Drives dfn/minlink SCC
    /// completion and the or-engine's publication floor.
    table_gen_stack: Vec<(usize, usize)>,
    /// Execute clause heads through the compiled register code cache
    /// (default) or through the tree-walking interpreter oracle
    /// (instantiate + general unify, linear clause scan).
    compiled: bool,
    /// Buffer [`EventKind::ClauseDispatch`]/[`EventKind::ClauseRetry`]
    /// events too (off unless the trace config asks).
    dispatch_trace: bool,
    /// Reusable register file for compiled head execution (cleared and
    /// resized per clause; kept across calls to avoid reallocation).
    code_slots: Vec<Cell>,
    /// Working memory of call keys and answer keys; after a call key, the
    /// call's variables in key order.
    canon: CanonScratch,
}

/// A machine dropped mid-query (the run stopped at its solution bound, was
/// cancelled, or its worker died) gives its unfinished registrations back.
impl Drop for Machine {
    fn drop(&mut self) {
        self.abandon_pending();
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("status", &self.status)
            .field("ctrl_len", &self.ctrl.len())
            .field("cont_len", &self.conts.len(self.cont))
            .field("heap_len", &self.heap.len())
            .finish()
    }
}

impl Machine {
    pub fn new(db: Arc<Database>, costs: Arc<CostModel>) -> Self {
        Machine {
            heap: Heap::new(),
            db,
            cont: Cont::NONE,
            conts: ContStack::new(),
            ctrl: Vec::with_capacity(64),
            status: Status::Failed,
            par_enabled: false,
            defer_parcalls: false,
            spine: Spine::None,
            stats: Stats::new(),
            costs,
            output: String::new(),
            answers: Vec::new(),
            cancel_check_countdown: 0,
            pending_marker: None,
            surfaced_cost: 0,
            store: None,
            memoize: false,
            tabling: false,
            store_trace: false,
            tenant: 0,
            events: Vec::new(),
            memo_watches: Vec::new(),
            memo_free: Vec::new(),
            memo_gen: 0,
            parcalls_raised: 0,
            table_subgoals: Vec::new(),
            table_index: HashMap::new(),
            table_gen_stack: Vec::new(),
            compiled: true,
            dispatch_trace: false,
            code_slots: Vec::new(),
            canon: CanonScratch::default(),
        }
    }

    /// Adopt a run's configuration: its answer store and what the store
    /// is used for, the clause execution mode, and which events to buffer
    /// for the worker's tracer. Survives [`Machine::reset`].
    pub fn configure(&mut self, cfg: &EngineConfig, store: Option<Arc<AnswerStore>>) {
        self.set_store(store, cfg, cfg.observe.trace.enabled);
        self.set_clause_exec(cfg.oracle.clause_exec);
        self.set_dispatch_trace(cfg.observe.trace.enabled && cfg.observe.trace.dispatch);
    }

    /// Select compiled (default) or interpreted clause execution. The
    /// interpreter is the validation oracle: linear clause scan, arena
    /// block-copy instantiation, general head unification — the exact
    /// pre-compilation execution path.
    pub fn set_clause_exec(&mut self, mode: ClauseExec) {
        self.compiled = matches!(mode, ClauseExec::Compiled);
    }

    pub fn clause_exec(&self) -> ClauseExec {
        if self.compiled {
            ClauseExec::Compiled
        } else {
            ClauseExec::Interpreted
        }
    }

    /// Buffer per-call [`EventKind::ClauseDispatch`] and per-retry
    /// [`EventKind::ClauseRetry`] events (drained with the store's).
    pub fn set_dispatch_trace(&mut self, on: bool) {
        self.dispatch_trace = on;
    }

    /// Cost charged by this machine since the last call (engines surface
    /// this into their worker's phase cost so *every* machine operation —
    /// including those performed between `run` calls, like marker pushes
    /// or `fail_parcall` — reaches the virtual-time clock exactly once).
    pub fn take_unsurfaced_cost(&mut self) -> u64 {
        let delta = self.stats.cost - self.surfaced_cost;
        self.surfaced_cost = self.stats.cost;
        delta
    }

    /// Put what this machine did since the last call on `w`'s clock and
    /// tracer: each buffered event is stamped where it happened inside
    /// the stretch of cost being surfaced, then the cost itself lands on
    /// the worker's phase.
    pub fn surface(&mut self, w: &mut WorkerCore) {
        let base = w.now();
        for (offset, ev) in self.events.drain(..) {
            w.tracer.record(base + offset, ev);
        }
        w.phase_cost += self.take_unsurfaced_cost();
    }

    /// A fact about this machine's own execution happened: count it on
    /// the machine's sheet (harvested by the worker with the rest of it)
    /// and buffer it for the worker's tracer if this run records its
    /// class.
    #[inline(always)]
    fn note(&mut self, ev: EventKind) {
        ev.apply(&mut self.stats);
        let record = match ev.class() {
            TraceClass::Dispatch => self.dispatch_trace,
            _ => self.store_trace,
        };
        if record {
            self.events.push((self.stats.cost - self.surfaced_cost, ev));
        }
    }

    /// Enable the parallel-conjunction protocol (used by the engines; the
    /// sequential baseline leaves it off so `&` degrades to `,`).
    pub fn enable_parallel(&mut self, on: bool) {
        self.par_enabled = on;
    }

    /// Lazy frames: whether the next `&`/2 reached pushes a record and runs
    /// as a sequential conjunction (`true`: nobody would take its goals)
    /// or raises [`Status::Parcall`] for a frame (`false`, the default).
    /// A `&` that ends `spine` is raised either way.
    pub fn defer_parcalls(&mut self, on: bool, spine: Spine) {
        self.defer_parcalls = on;
        self.spine = spine;
    }

    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    pub fn costs(&self) -> &Arc<CostModel> {
        &self.costs
    }

    pub fn status(&self) -> &Status {
        &self.status
    }

    /// Begin solving `goal` (a term in this machine's heap).
    pub fn set_query(&mut self, goal: Cell) {
        self.cont = self.conts.push(Cont::NONE, Goal::Term(goal), 0);
        self.status = Status::Running;
    }

    /// Parse `text` as a query, returning its named variables in the order
    /// an answer line names them ([`binding_order`]).
    pub fn load_query_text(
        &mut self,
        text: &str,
    ) -> Result<Vec<(String, Cell)>, ace_logic::ReadError> {
        let (goal, mut vars) = ace_logic::parse_term(&mut self.heap, text)?;
        vars.sort_by(|a, b| binding_order(&a.0, &b.0));
        self.set_query(goal);
        Ok(vars)
    }

    /// The answer line `X=1, Y=f(a)` of a query's named variables (as
    /// [`Machine::load_query_text`] returned them) under the bindings of
    /// this moment.
    pub fn answer_line(&self, vars: &[(String, Cell)]) -> String {
        render_bindings(&self.heap, vars.iter().map(|(n, c)| (n.as_str(), *c)))
    }

    /// Reset for reuse from a machine pool. Harvest [`Machine::stats`]
    /// before calling — they are zeroed here.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.cont = Cont::NONE;
        self.conts.clear();
        self.ctrl.clear();
        self.defer_parcalls = false;
        self.status = Status::Failed;
        self.output.clear();
        self.answers.clear();
        self.pending_marker = None;
        self.stats = Stats::new();
        self.surfaced_cost = 0;
        // The store handle survives reset — pooled machines keep serving
        // the same store; per-run state does not.
        self.events.clear();
        self.memo_watches.clear();
        self.memo_free.clear();
        self.parcalls_raised = 0;
        // Local SLG state is per-query; registrations it leaves
        // unfinished go back to the store.
        self.abandon_pending();
        self.table_subgoals.clear();
        self.table_index.clear();
        self.table_gen_stack.clear();
        // The clause-execution mode survives reset (pooled machines keep
        // the engine's configured mode); the register file is scratch.
        self.code_slots.clear();
    }

    // ------------------------------------------------------------------
    // The answer store: memoization of determinate calls
    // ------------------------------------------------------------------

    /// Attach (or detach) the answer store. `cfg` says what it is used for
    /// (`memoize` watches determinate calls, `tabling` honours `:- table`
    /// declarations) and which tenant its insertions are charged to (see
    /// [`ace_table::StoreConfig::tenant_quota`]). `trace` buffers the
    /// store's events ([`EventKind::MemoHit`], [`EventKind::TableNew`] and
    /// friends) for [`Machine::take_events`].
    pub fn set_store(&mut self, store: Option<Arc<AnswerStore>>, cfg: &EngineConfig, trace: bool) {
        self.memoize = cfg.store.memoize && store.is_some();
        self.tabling = cfg.store.tabling && store.is_some();
        self.tenant = cfg.store.tenant;
        self.store_trace = trace && store.is_some();
        self.store = store;
    }

    /// Benchmark-pinned: switch memoization on over `store`; `None`
    /// changes nothing.
    pub fn set_memo(&mut self, store: Option<Arc<AnswerStore>>, trace: bool) {
        if store.is_some() {
            (self.store, self.memoize, self.store_trace) = (store, true, trace);
        }
    }

    /// Benchmark-pinned: switch tabling on over `store`; `None` changes
    /// nothing.
    pub fn set_table(&mut self, store: Option<Arc<AnswerStore>>, trace: bool) {
        if store.is_some() {
            (self.store, self.tabling, self.store_trace) = (store, true, trace);
        }
    }

    pub fn memo_enabled(&self) -> bool {
        self.memoize
    }

    pub fn table_enabled(&self) -> bool {
        self.tabling
    }

    /// Drain the buffered store and dispatch events without a worker to
    /// surface them onto. Allocation-free when empty.
    pub fn take_events(&mut self) -> Vec<EventKind> {
        self.events.drain(..).map(|(_, ev)| ev).collect()
    }

    /// Canonical memo key of a call term in this machine's heap.
    pub fn memo_key(&mut self, goal: Cell) -> CanonKey {
        CanonKey::of_in(&mut self.canon, &self.heap, goal)
    }

    /// The key and the variables of a call term in this machine's heap,
    /// taken before the call runs: what [`Machine::memo_publish_answer`]
    /// publishes a derivation's answer under.
    pub fn memo_call(&mut self, goal: Cell) -> MemoCall {
        let key = CanonKey::of_in(&mut self.canon, &self.heap, goal);
        MemoCall {
            key,
            vars: self.canon.vars().into(),
        }
    }

    /// Charge for and publish the complete answer set of `key` — the one
    /// write path of memoized answers and tabled completions alike.
    fn store_publish(&mut self, key: &CanonKey, answers: Vec<TermArena>) -> PublishOutcome {
        self.charge(self.costs.memo_store);
        let store = self.store.as_ref().expect("publish without a store");
        store.publish_as(self.tenant, key, answers)
    }

    /// Engine-side publication: freeze the bindings of `call`'s variables
    /// as the single complete answer of its key. Returns true if this
    /// publication stored.
    pub fn memo_publish_answer(&mut self, call: &MemoCall) -> bool {
        if !self.memoize {
            return false;
        }
        let arena = TermArena::freeze_tuple(&self.heap, subst_sym(), &call.vars);
        let key = &call.key;
        match self.store_publish(key, vec![arena]) {
            PublishOutcome::Stored { epoch, evicted } => {
                self.stats.memo_evictions += evicted;
                let key = key.hash;
                self.note(EventKind::MemoStore { key, epoch });
                self.note(EventKind::MemoComplete {
                    key,
                    epoch,
                    answers: 1,
                });
                true
            }
            PublishOutcome::Present { .. } => false,
        }
    }

    /// Consult the answer store for `goal`. `Some(status)` short-circuits
    /// the call (hit: answers replayed); `None` falls through to normal
    /// resolution with a watch planted to capture the answer. Out of line:
    /// the store-off path of `call_user` carries none of it.
    #[inline(never)]
    fn memo_consult(&mut self, db: &Database, goal: Cell) -> Option<Status> {
        self.charge(self.costs.memo_lookup);
        let key = CanonKey::of_in(&mut self.canon, &self.heap, goal);
        let store = self.store.as_ref().expect("memo_consult without a store");
        if let Some(entry) = store.lookup(&key) {
            self.note(EventKind::MemoHit {
                key: key.hash,
                epoch: entry.epoch,
            });
            return Some(self.replay(db, entry));
        }
        self.stats.memo_misses += 1;
        // Watch this call: a `MemoStore` frame planted before the clause
        // body publishes the answer when the derivation completes without
        // creating nondeterminism.
        let gen = self.memo_gen;
        self.memo_gen = self.memo_gen.wrapping_add(1);
        let slot = match self.memo_free.pop() {
            Some(i) => i,
            None => {
                self.memo_watches.push(None);
                self.memo_watches.len() - 1
            }
        };
        let frame = Goal::MemoStore {
            slot: slot as u32,
            gen,
        };
        self.cont = self.conts.push(self.cont, frame, self.ctrl.len() as u32);
        let vars = self.canon.vars().into();
        self.memo_watches[slot] = Some(MemoWatch {
            call: MemoCall { key, vars },
            gen,
            cont_tide: self.conts.height(),
            ctrl_len: self.ctrl.len(),
            choice_points: self.stats.choice_points,
            parcalls_raised: self.parcalls_raised,
            markers: self.stats.markers_allocated,
            output_len: self.output.len(),
            answers_len: self.answers.len(),
        });
        None
    }

    /// Replay a complete answer set for the call just keyed (a memo hit,
    /// or a tabled subgoal someone already completed): its variables are
    /// the key's ([`CanonScratch::vars`]).
    fn replay(&mut self, db: &Database, entry: Arc<AnswerEntry>) -> Status {
        if entry.answers.is_empty() {
            // complete with zero answers: the call is known to fail
            return self.backtrack_in(db);
        }
        if entry.answers.len() > 1 {
            let subst = self.subst_cell();
            let alts = Alts::Replay {
                entry: entry.clone(),
                next: 1,
            };
            self.push_choice(subst, alts, self.cont, self.ctrl.len() as u32);
        }
        let vars = self.canon.vars();
        Self::bind_answer(
            &mut self.heap,
            &mut self.stats,
            &self.costs,
            &entry.answers[0],
            |_, i| vars[i],
        );
        self.status = Status::Running;
        Status::Running
    }

    /// What a frame keeps of the variables of the call just keyed
    /// ([`CanonScratch::vars`]), for [`subst_vars`] to read back: the atom
    /// `'$subst'` for none, else `'$subst'(V1, …, Vn)` built here.
    fn subst_cell(&mut self) -> Cell {
        let n = self.canon.vars().len();
        if n == 0 {
            return Cell::Atom(subst_sym());
        }
        let cell = self.heap.new_struct(subst_sym(), self.canon.vars());
        self.charge_cells(n as u64 + 1);
        cell
    }

    /// Bind a call's variables (`var(heap, i)` the `i`-th in key order) to
    /// one stored answer's substitution: the cells under its roots are
    /// spliced in once, and each variable is one binding step. A variant
    /// call's variables are unbound, so this cannot fail. Takes the
    /// machine by its fields so the answer can stay borrowed where it is
    /// stored — in a choice point's [`Alts::Replay`] entry or a local SLG
    /// frame. Out of line, so the retry loop holds a call, not the binding.
    #[inline(never)]
    fn bind_answer(
        heap: &mut Heap,
        stats: &mut Stats,
        costs: &CostModel,
        arena: &TermArena,
        var: impl Fn(&Heap, usize) -> Cell,
    ) {
        let (cells, steps) = arena.bind_roots(heap, var);
        stats.heap_cells += cells as u64;
        stats.unify_steps += steps as u64;
        stats.charge(cells as u64 * costs.heap_cell + steps as u64 * costs.unify_step);
    }

    /// A `MemoStore` frame was reached: a derivation of the watched call
    /// completed. Publish its answer if the derivation was provably unique
    /// and effect-free; otherwise do nothing (re-running the goal stays the
    /// source of truth).
    fn memo_store_arrival(&mut self, idx: usize, gen: u32) -> Status {
        self.status = Status::Running;
        let Some(slot) = self.memo_watches.get_mut(idx) else {
            return Status::Running;
        };
        if slot.as_ref().is_none_or(|w| w.gen != gen) {
            return Status::Running; // stale frame from a reclaimed slot
        }
        let w = slot.take().expect("checked above");
        self.memo_free.push(idx);
        let unique = self.ctrl.len() == w.ctrl_len
            && self.stats.choice_points == w.choice_points
            && self.parcalls_raised == w.parcalls_raised
            && self.stats.markers_allocated == w.markers
            && self.output.len() == w.output_len
            && self.answers.len() == w.answers_len;
        if unique {
            self.memo_publish_answer(&w.call);
        }
        Status::Running
    }

    /// Drop watches whose `MemoStore` frame was dropped by continuation
    /// stack truncation (backtracking below the watched call).
    fn memo_prune_watches(&mut self) {
        let height = self.conts.height();
        for (i, slot) in self.memo_watches.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(|w| w.cont_tide > height) {
                *slot = None;
                self.memo_free.push(i);
            }
        }
    }

    // ------------------------------------------------------------------
    // Tabling (SLG evaluation of non-determinate tabled predicates)
    // ------------------------------------------------------------------

    /// Control index of the outermost tabled-generator choice point, or
    /// `usize::MAX` when no tabled evaluation is in flight. The or-engine
    /// must not publish choice points at or above this floor: frames of
    /// an active SLG evaluation (consumer cursors, `TableAnswer` frames in
    /// continuations, the generators themselves) index machine-local
    /// state and are meaningless on another worker.
    pub fn table_publish_floor(&self) -> usize {
        self.table_gen_stack
            .first()
            .map_or(usize::MAX, |&(_, ctrl_idx)| ctrl_idx)
    }

    /// Give every registration this machine made and did not complete
    /// back to the store: the query stopped before the subgoal's fixpoint
    /// (first-solution bound, deadline, cancel, cut over the generator,
    /// worker death), and a slot left pending would stay pinned in a
    /// shared store forever. Nothing is charged.
    fn abandon_pending(&self) {
        if let Some(store) = &self.store {
            for f in self
                .table_subgoals
                .iter()
                .filter(|f| f.fresh && !f.complete)
            {
                store.abandon(&f.key);
            }
        }
    }

    /// SLG call of a tabled predicate: classify as consumer of a subgoal
    /// this machine is already evaluating, replayer of a completed shared
    /// table, or a fresh generator driving the failure-loop derivation.
    /// Out of line, as [`Machine::memo_consult`].
    #[inline(never)]
    fn table_call(
        &mut self,
        db: &Database,
        goal: Cell,
        pred: Option<PredId>,
        name: Sym,
        arity: u32,
        hdr: Option<Addr>,
    ) -> Status {
        self.charge(self.costs.memo_lookup);
        let key = CanonKey::of_in(&mut self.canon, &self.heap, goal);

        // Variant of a subgoal already framed on this machine: become a
        // consumer of its (growing or complete) answer list. A link to an
        // incomplete frame means the running generators up to that frame
        // form one SCC — fold the dfn into the innermost generator's
        // minlink so completion is deferred to the common leader.
        if let Some(&idx) = self.table_index.get(&key.bytes) {
            if !self.table_subgoals[idx].complete {
                if let Some(&(top, _)) = self.table_gen_stack.last() {
                    let dfn = self.table_subgoals[idx].dfn;
                    let m = &mut self.table_subgoals[top].minlink;
                    *m = (*m).min(dfn);
                }
            }
            let cursor = Alts::TableConsumer {
                subgoal: idx,
                next: 0,
            };
            let subst = self.subst_cell();
            self.push_choice(subst, cursor, self.cont, self.ctrl.len() as u32);
            // The cursor choice point drains answers (and suspends when
            // dry) through the ordinary backtracking path.
            return self.backtrack_in(db);
        }

        let store = self.store.as_ref().expect("table_call without a store");
        let (subgoal_id, fresh) = match store.register(self.tenant, &key) {
            // Someone already completed this subgoal: a pure lookup.
            RegisterOutcome::Complete(entry) => {
                self.stats.table_hits += 1;
                return self.replay(db, entry);
            }
            RegisterOutcome::Fresh { subgoal_id } => {
                self.note(EventKind::TableNew {
                    key: key.hash,
                    subgoal: subgoal_id,
                });
                (subgoal_id, true)
            }
            // A foreign worker is the registered generator. Stacks are
            // private, so cross-machine suspension is impossible: evaluate
            // the subgoal privately (shadow evaluation). Publication at
            // completion is first-writer-wins, so the race is confluent.
            RegisterOutcome::InProgress { subgoal_id } => (subgoal_id, false),
        };
        self.stats.table_subgoals += 1;
        let frame = LocalSubgoal {
            key,
            shared_id: subgoal_id,
            fresh,
            answers: Vec::new(),
            dedup: HashSet::new(),
            suspended: Vec::new(),
            complete: false,
            dfn: 0,
            minlink: 0,
        };
        self.table_generate(db, goal, pred, (name, arity), hdr, frame)
    }

    /// Install a fresh generator for `frame`: a caller-consumer cursor below
    /// a generator choice point whose alternatives are the predicate's
    /// clauses, each run with a continuation of exactly one `TableAnswer`
    /// frame — derivations insert answers and fail back into the clause
    /// loop, never into the caller. The caller drains the answer list
    /// through the cursor once the generator's SCC completes (local
    /// scheduling). The call was just keyed: the cursor and the answer
    /// frame keep its variables ([`Machine::subst_cell`]).
    fn table_generate(
        &mut self,
        db: &Database,
        goal: Cell,
        pred: Option<PredId>,
        (name, arity): (Sym, u32),
        hdr: Option<Addr>,
        mut frame: LocalSubgoal,
    ) -> Status {
        let Some(pid) = pred else {
            return self.undefined(name, arity);
        };
        let pred = db.pred(pid);
        let (arg, ikey) = self.dispatch_key(pred, hdr);
        let idx = self.table_subgoals.len();
        self.table_index.insert(frame.key.bytes.clone(), idx);
        frame.dfn = idx as u32;
        frame.minlink = idx as u32;
        self.table_subgoals.push(frame);

        let Some(first) = self.pred_next(pred, arg, ikey, 0) else {
            // No clause can match: the subgoal completes empty here.
            self.table_complete_frame(idx);
            return self.backtrack_in(db);
        };

        // The caller's cursor sits below the generator so it survives the
        // generator's exhaustion and drains the completed answer list.
        let subst = self.subst_cell();
        let cursor = Alts::TableConsumer {
            subgoal: idx,
            next: 0,
        };
        self.push_choice(subst, cursor, self.cont, self.ctrl.len() as u32);

        let answer = Goal::TableAnswer {
            subgoal: idx as u32,
            vars: Callable::of(&self.heap, subst).expect("a variables cell is callable"),
        };
        let gen_ctrl = self.ctrl.len();
        let gen_cont = self.conts.push(Cont::NONE, answer, gen_ctrl as u32);
        let clauses = Alts::TableGen {
            subgoal: idx as u32,
            pred: pid,
            arg,
            key: ikey,
            next: first + 1,
        };
        self.push_choice(goal, clauses, gen_cont, gen_ctrl as u32);
        self.table_gen_stack.push((idx, gen_ctrl));
        self.cont = gen_cont;
        // Cut inside a tabled clause is local to that clause: it must
        // never discard the generator choice point.
        let body_barrier = self.ctrl.len() as u32;
        if self.try_clause(pred, first, goal, body_barrier) {
            Status::Running
        } else {
            self.backtrack_in(db)
        }
    }

    /// A derivation of a tabled subgoal reached its `TableAnswer` frame:
    /// insert the answer — the bindings of the call's variables, which
    /// `subst` keeps — if new, then fail back into the clause loop — the
    /// failure-driven core of SLG answer generation. The answer is keyed
    /// in the scratch and tested there: a duplicate allocates nothing, a
    /// new answer its key and its arena.
    fn table_answer_arrival(&mut self, db: &Database, idx: usize, subst: Cell) -> Status {
        self.charge(self.costs.memo_store);
        let bindings = subst_vars(&self.heap, subst);
        let key = self.canon.encode_roots(&self.heap, bindings);
        if !self.table_subgoals[idx].dedup.contains(key) {
            let key = key.to_vec();
            self.table_subgoals[idx].dedup.insert(key);
            let arena = TermArena::freeze_tuple(&self.heap, subst_sym(), bindings);
            self.table_subgoals[idx].answers.push(arena);
            let f = &self.table_subgoals[idx];
            self.note(EventKind::TableAnswer {
                key: f.key.hash,
                subgoal: f.shared_id,
                answers: f.answers.len(),
            });
        } else {
            self.stats.table_dups += 1;
        }
        self.backtrack_in(db)
    }

    /// Freeze a dry consumer's variables (`subst`) + continuation and park
    /// it on the subgoal frame. Called from the backtracking loop with
    /// machine state already restored to the cursor's choice point (so the
    /// frozen terms are in their call-time state); the cursor CP itself
    /// must still be on top of the control stack and is popped here.
    fn table_suspend(&mut self, subgoal: usize, next: usize, subst: Cell) {
        self.ctrl.pop();
        let closure = self.freeze_state(subst, self.cont, |_| true);
        self.charge(closure.arena.len() as u64 * self.costs.heap_cell);
        let f = &self.table_subgoals[subgoal];
        self.note(EventKind::TableSuspend {
            key: f.key.hash,
            subgoal: f.shared_id,
            seen: next,
        });
        self.table_subgoals[subgoal]
            .suspended
            .push(SuspendedConsumer { closure, next });
    }

    /// The generator's clause pool ran dry: the SLG completion check.
    /// Leader (minlink == dfn): resume any suspended consumer in the SCC
    /// that still has unconsumed answers; when none remain the SCC is at
    /// its fixpoint — complete every member, publish the answer sets, and
    /// dissolve the generators so backtracking reaches the caller-consumer
    /// cursors below. Non-leader: fold the minlink outward and dissolve.
    ///
    /// Always followed by another turn of the backtracking loop: a resume
    /// pushes a fresh cursor CP for the loop to drain (no recursion, so
    /// deep fixpoint chains cannot overflow the host stack); the other
    /// outcomes pop the generator CP. `top` is its control index.
    fn table_gen_exhausted(&mut self, subgoal: usize, top: usize) {
        debug_assert_eq!(
            self.table_gen_stack.last().map(|&(s, _)| s),
            Some(subgoal),
            "generator exhaustion out of stack order"
        );
        let dfn = self.table_subgoals[subgoal].dfn;
        let minlink = self.table_subgoals[subgoal].minlink;
        if minlink < dfn {
            // Non-leader: this subgoal's fate is its leader's.
            self.table_gen_stack.pop();
            if let Some(&(outer, _)) = self.table_gen_stack.last() {
                let m = &mut self.table_subgoals[outer].minlink;
                *m = (*m).min(minlink);
            }
            self.ctrl.pop(); // the generator choice point
            return;
        }
        // Leader: fixpoint loop. Incomplete frames with dfn >= the
        // leader's are exactly the SCC members (generators stack, and
        // independent sub-evaluations completed themselves already).
        let mut pick = None;
        'scan: for (i, f) in self.table_subgoals.iter().enumerate() {
            if f.complete || f.dfn < dfn {
                continue;
            }
            for (j, s) in f.suspended.iter().enumerate() {
                if s.next < f.answers.len() {
                    pick = Some((i, j));
                    break 'scan;
                }
            }
        }
        if let Some((i, j)) = pick {
            let susp = self.table_subgoals[i].suspended.swap_remove(j);
            self.table_resume(i, susp, top);
            return;
        }
        // Fixpoint: every member's answer list is saturated. Suspended
        // consumers are provably drained (the scan found none pending).
        for i in 0..self.table_subgoals.len() {
            if self.table_subgoals[i].complete || self.table_subgoals[i].dfn < dfn {
                continue;
            }
            self.table_complete_frame(i);
        }
        while self
            .table_gen_stack
            .last()
            .is_some_and(|&(s, _)| self.table_subgoals[s].dfn >= dfn)
        {
            self.table_gen_stack.pop();
        }
        self.ctrl.pop(); // the leader's generator choice point
    }

    /// Mark frame `idx` complete, publish its answer set to the store
    /// (first-writer-wins across racing shadow evaluations), and drop its
    /// (drained) suspensions.
    fn table_complete_frame(&mut self, idx: usize) {
        self.table_subgoals[idx].complete = true;
        self.table_subgoals[idx].suspended.clear();
        let f = &self.table_subgoals[idx];
        self.note(EventKind::TableComplete {
            key: f.key.hash,
            subgoal: f.shared_id,
            answers: f.answers.len(),
        });
        let key = self.table_subgoals[idx].key.clone();
        let answers = self.table_subgoals[idx].answers.clone();
        self.store_publish(&key, answers);
    }

    /// Thaw a suspended consumer and park its fresh cursor CP just above
    /// the leader's generator choice point (at control index `top`); the
    /// enclosing backtracking loop drains it on its next turn.
    fn table_resume(&mut self, subgoal: usize, susp: SuspendedConsumer, top: usize) {
        let f = &self.table_subgoals[subgoal];
        self.note(EventKind::TableResume {
            key: f.key.hash,
            subgoal: f.shared_id,
            seen: susp.next,
        });
        // Barriers clamp to the resumption floor: a cut in the resumed
        // continuation may discard the cursor but never the generator.
        let floor = (top + 1) as u32;
        let (subst, cont, cells) = self.thaw_state(&susp.closure, floor);
        self.stats.heap_cells += cells as u64;
        self.charge(self.costs.closure_thaw);
        let cursor = Alts::TableConsumer {
            subgoal,
            next: susp.next,
        };
        self.push_choice(subst, cursor, cont, floor);
    }

    /// Choice frames are being discarded outside the backtracking loop
    /// (cut, parcall failure, rollback): keep the generator stack in sync.
    /// A generator discarded this way leaves its subgoal incomplete —
    /// later variant calls degrade to draining whatever answers exist
    /// (sound: tabling never invents answers), mirroring how cuts over
    /// tabled calls are restricted in real SLG systems.
    fn table_note_discarded(&mut self, alts: &Alts) {
        if self.table_gen_stack.is_empty() {
            return;
        }
        if let Alts::TableGen { subgoal, .. } = alts {
            self.table_gen_stack
                .retain(|&(s, _)| s != *subgoal as usize);
        }
    }

    // ------------------------------------------------------------------
    // Cost & stats helpers (crate-visible for builtins)
    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn charge(&mut self, units: u64) {
        self.stats.charge(units);
    }

    /// `cells` heap cells written, or priced as if they were: counted and
    /// charged.
    #[inline]
    fn charge_cells(&mut self, cells: u64) {
        self.stats.heap_cells += cells;
        self.charge(cells * self.costs.heap_cell);
    }

    /// Undo the bindings trailed since `mark`: counted and charged.
    fn untrail(&mut self, mark: TrailMark) {
        let undone = self.heap.undo_to(mark) as u64;
        self.stats.trail_undos += undone;
        self.charge(undone * self.costs.trail_undo);
    }

    // ------------------------------------------------------------------
    // Control-stack access for the parallel engines
    // ------------------------------------------------------------------

    pub fn ctrl_len(&self) -> usize {
        self.ctrl.len()
    }

    /// Nodes currently on the continuation stack, live or stranded by a
    /// cut and not yet trimmed (diagnostics: the continuation-space tests
    /// read their high-water marks through this).
    pub fn cont_stack_len(&self) -> usize {
        self.conts.height()
    }

    /// Environment cells on the continuation stack, headers included, live
    /// or left by finished activations and not yet trimmed (diagnostics, as
    /// [`Machine::cont_stack_len`]).
    pub fn env_stack_len(&self) -> usize {
        self.conts.env_height()
    }

    /// Continuation-stack height the top control frame protects (0 with no
    /// frame): nothing below it may be dropped.
    #[inline]
    fn cont_floor(&self) -> ContMark {
        self.ctrl
            .last()
            .map_or(ContMark::ZERO, CtrlFrame::cont_mark)
    }

    /// Read-only view of the control stack (engines use it for refined
    /// determinacy analysis and publication scans).
    pub fn ctrl_frames(&self) -> &[CtrlFrame] {
        &self.ctrl
    }

    /// Is the control range `range` determinate — can backtracking into it
    /// resume nothing? Markers (fences included) and records pass, a choice
    /// point fails, and a parcall frame passes when `frame_det`, the
    /// engine's verdict on the frame, says it can give no further solution.
    /// A range starting past the top is empty. The runtime determinacy test
    /// behind SPO, PDO and LPCO.
    pub fn determinate(
        &self,
        range: impl std::ops::RangeBounds<usize>,
        frame_det: impl Fn(&ParcallFrame) -> bool,
    ) -> bool {
        let range = (range.start_bound().cloned(), range.end_bound().cloned());
        self.ctrl.get(range).is_none_or(|frames| {
            frames.iter().all(|f| match f {
                CtrlFrame::Marker(_) | CtrlFrame::Record(_) => true,
                CtrlFrame::Choice(_) => false,
                CtrlFrame::Parcall(pf) => frame_det(pf),
            })
        })
    }

    /// The parcall frame on top of the control stack (present when status
    /// is [`Status::Parcall`] or [`Status::ParcallRedo`]).
    pub fn top_parcall(&self) -> Option<&ParcallFrame> {
        match self.ctrl.last() {
            Some(CtrlFrame::Parcall(pf)) => Some(pf),
            _ => None,
        }
    }

    /// Control index of the parcall frame `id`, if it is on the stack.
    pub fn parcall_index(&self, id: u64) -> Option<usize> {
        self.ctrl
            .iter()
            .rposition(|f| matches!(f, CtrlFrame::Parcall(pf) if pf.id == id))
    }

    /// The parcall frame at control index `idx` (a frame just raised or
    /// just promoted, for the and-engine to attach its state to).
    pub fn parcall_at_mut(&mut self, idx: usize) -> &mut ParcallFrame {
        match &mut self.ctrl[idx] {
            CtrlFrame::Parcall(pf) => pf,
            other => panic!("parcall_at_mut: not a parcall frame: {other:?}"),
        }
    }

    /// Lazy frames: the oldest record with a goal not yet started and
    /// nothing but records above it — the one whose promotion would hand
    /// the most work to an idle worker. Its goals so far were determinate:
    /// no choice point is above it. Its running goal has not finished
    /// before (see [`ParRecord::reached`]), so it can start over as a slot.
    pub fn promotable_record(&self) -> Option<usize> {
        let mut oldest = None;
        for (i, f) in self.ctrl.iter().enumerate().rev() {
            match f {
                CtrlFrame::Record(r) if r.running + 1 < r.len && r.reached == r.running => {
                    oldest = Some(i)
                }
                CtrlFrame::Record(_) => {}
                _ => break,
            }
        }
        oldest
    }

    /// Lazy frames: replace the record at control index `idx` (see
    /// [`Machine::promotable_record`]) by the parcall frame the `&` would
    /// have raised, with the record's marks and continuation. Returns the
    /// goal running now and the trail and heap marks at its start: goals
    /// before it are finished, goals after it unstarted. From now on the
    /// node after the running goal reports [`Status::InlineBarrier`].
    pub fn promote_record(
        &mut self,
        idx: usize,
    ) -> (usize, (TrailMark, ace_logic::heap::HeapMark)) {
        let CtrlFrame::Record(r) = &self.ctrl[idx] else {
            panic!("promote_record: not a record");
        };
        let pf = ParcallFrame {
            id: PARCALL_IDS.fetch_add(1, Ordering::Relaxed),
            branches: conjuncts(&self.heap, r.goal),
            cont: r.cont,
            trail: r.trail,
            heap: r.heap,
            conts: r.conts,
            barrier: r.barrier,
            ext: None,
        };
        let running = (r.running as usize, r.running_at);
        self.ctrl[idx] = CtrlFrame::Parcall(pf);
        running
    }

    /// Resume with an explicit continuation (integration of a parcall frame
    /// that is no longer on top — inline-execution chains stack several
    /// frames on one control stack). The frame must still be on the control
    /// stack: that is what has kept `cont`'s nodes from being dropped since
    /// the handle was taken (the liveness rule of [`crate::cont`]).
    pub fn resume_with_cont(&mut self, cont: Cont) {
        assert!(
            self.cont_floor().protects(cont),
            "resume_with_cont: {cont:?} is protected by no control frame"
        );
        self.cont = cont;
        self.status = Status::Running;
    }

    /// Inline execution (&ACE-style): run `goal` — the last branch of the
    /// just-raised parallel call — directly on this machine, on top of the
    /// parcall frame. The locally executed subgoal needs no input marker
    /// ("the parcall frame marks its beginning", paper Figure 2); the
    /// `InlineBarrier` frame planted after it plays the end marker's role:
    /// every (re)arrival there hands control back to the and-engine for
    /// (re)integration of the sibling slots.
    pub fn run_inline_branch(&mut self, goal: Cell, frame_id: u64) {
        let barrier = self.ctrl.len() as u32;
        let end = Goal::InlineBarrier { frame: frame_id };
        let end = self.conts.push(Cont::NONE, end, barrier);
        self.cont = self.conts.push(end, Goal::Term(goal), barrier);
        self.status = Status::Running;
    }

    /// Fail the parallel call whose machine-level frame has `frame_id`,
    /// discarding everything above it on the control stack (deeper inline
    /// frames, markers, choice points — all part of the doomed branch),
    /// then continue backtracking below it.
    pub fn fail_parcall_until(&mut self, frame_id: u64) -> Status {
        let pf = loop {
            match self.ctrl.pop() {
                None => panic!("fail_parcall_until: frame {frame_id} not on ctrl"),
                Some(CtrlFrame::Choice(cp)) => {
                    self.table_note_discarded(&cp.alts);
                    if let Some(shared) = cp.shared {
                        shared.owner_detached();
                    }
                    self.charge(self.costs.frame_traverse);
                }
                Some(CtrlFrame::Marker(_) | CtrlFrame::Record(_)) => {
                    self.charge(self.costs.frame_traverse);
                }
                Some(CtrlFrame::Parcall(pf)) => {
                    self.charge(self.costs.frame_traverse);
                    self.stats.frame_traversals += 1;
                    if pf.id == frame_id {
                        break pf;
                    }
                }
            }
        };
        self.untrail(pf.trail);
        self.heap.truncate_to(pf.heap);
        self.backtrack()
    }

    /// Is the top parcall frame's continuation empty except for the
    /// `InlineBarrier` end frame of frame `frame_id`? That is the
    /// inline-chain form of LPCO's "the parallel call is the last goal of
    /// the clause" condition (the real continuation is parked in the
    /// enclosing frame).
    pub fn top_parcall_cont_is_barrier_of(&self, frame_id: u64) -> bool {
        let Some(pf) = self.top_parcall() else {
            return false;
        };
        match self.conts.node(pf.cont) {
            Some(node) if node.next.is_none() => {
                node.goal == Goal::InlineBarrier { frame: frame_id }
            }
            _ => false,
        }
    }

    /// LPCO in inline chains: has this machine been determinate since the
    /// parcall frame `id` — is the range between it and the top frame (the
    /// call just raised) [`Machine::determinate`] under `frame_det`? The
    /// frame merged into must be `id` itself, not merely the nearest frame:
    /// a choice point below a nested frame is still below the merge.
    pub fn deterministic_since_parcall(
        &self,
        id: u64,
        frame_det: impl Fn(&ParcallFrame) -> bool,
    ) -> bool {
        let top = self.ctrl.len().saturating_sub(1);
        self.parcall_index(id)
            .is_some_and(|idx| idx < top && self.determinate(idx + 1..top, frame_det))
    }

    /// The top parcall frame is exhausted (inside failure on first
    /// execution, or cross-product enumeration done): pop it, restore state
    /// to before the parallel call, and continue backtracking.
    pub fn fail_parcall(&mut self) -> Status {
        let Some(CtrlFrame::Parcall(pf)) = self.ctrl.pop() else {
            panic!("fail_parcall: no parcall on top");
        };
        self.untrail(pf.trail);
        self.heap.truncate_to(pf.heap);
        self.charge(self.costs.frame_traverse);
        self.backtrack()
    }

    /// The top parcall frame had no alternative to give (every group
    /// determinate): pop it without restoring anything, as a choice point
    /// with none left is passed, and continue backtracking. Bindings made
    /// since — by goals the owner ran itself — stay for the next frame
    /// below that redoes; a choice point below restores its own marks.
    pub fn pass_parcall(&mut self) -> Status {
        let Some(CtrlFrame::Parcall(_)) = self.ctrl.pop() else {
            panic!("pass_parcall: no parcall on top");
        };
        self.charge(self.costs.frame_traverse);
        self.backtrack()
    }

    /// LPCO support: pop the just-raised top parcall frame and resume the
    /// machine *past* it (its branches will be re-parented into an ancestor
    /// frame by the and-engine). The machine behaves as if the clause body
    /// ended before the parallel call.
    pub fn merge_out_parcall(&mut self) -> ParcallFrame {
        let Some(CtrlFrame::Parcall(pf)) = self.ctrl.pop() else {
            panic!("merge_out_parcall: no parcall on top");
        };
        self.cont = pf.cont;
        self.status = Status::Running;
        pf
    }

    /// Push an input or end marker delimiting a subgoal stack section
    /// (allocated by the and-engine when a worker picks up a parcall
    /// subgoal; elided under SPO/PDO).
    pub fn push_marker(&mut self, kind: MarkerKind, parcall_id: u64, slot: u32) {
        self.stats.markers_allocated += 1;
        self.charge(self.costs.marker_alloc);
        let m = Marker {
            kind,
            parcall_id,
            slot,
            trail: self.heap.trail_mark(),
            heap: self.heap.heap_mark(),
            conts: self.conts.mark(),
        };
        self.ctrl.push(CtrlFrame::Marker(m));
    }

    /// PDO support: continue this machine (currently at a [`Status::Solution`])
    /// with another goal, as one contiguous computation — no markers, no
    /// new machine; `(a & b)` executed here becomes `(a, b)`.
    pub fn continue_with(&mut self, goal: Cell) {
        debug_assert_eq!(self.status, Status::Solution);
        self.cont = self.conts.push(Cont::NONE, Goal::Term(goal), 0);
        self.status = Status::Running;
    }

    /// SPO: procrastinate this subgoal's input-marker allocation. The
    /// marker is materialized below the first choice point created, or —
    /// if the subgoal completes deterministically — never.
    pub fn procrastinate_input_marker(&mut self, parcall_id: u64, slot: u32) {
        self.pending_marker = Some((parcall_id, slot));
    }

    /// Clear any procrastinated marker (slot finished deterministically).
    pub fn clear_pending_marker(&mut self) {
        self.pending_marker = None;
    }

    /// Does the control stack contain any parcall frame? Used to classify
    /// a finished subgoal: such a machine cannot be kept as a plain
    /// sequential generator (its redos would need the full frame protocol),
    /// so further solutions are obtained by recomputation instead.
    pub fn has_parcall_frames(&self) -> bool {
        self.ctrl.iter().any(|f| f.is_parcall())
    }

    /// LPCO condition (i)+(ii): no choice point survives below the top
    /// parcall frame — the computation up to the trailing parallel call was
    /// determinate.
    pub fn deterministic_before_top_parcall(&self) -> bool {
        if self.ctrl.is_empty() {
            return true;
        }
        self.ctrl[..self.ctrl.len() - 1]
            .iter()
            .all(|f| f.is_marker())
    }

    /// Plant a PDO fence at the current control height; returns its index
    /// so a successful owner execution can disarm it.
    pub fn push_fence(&mut self, parcall_id: u64, slot: u32) -> usize {
        let idx = self.ctrl.len();
        self.ctrl.push(CtrlFrame::Marker(Marker {
            kind: MarkerKind::Fence,
            parcall_id,
            slot,
            trail: self.heap.trail_mark(),
            heap: self.heap.heap_mark(),
            conts: self.conts.mark(),
        }));
        idx
    }

    /// Disarm the fence at `idx` (owner execution committed): it becomes a
    /// transparent end marker, so later backtracking flows through.
    pub fn disarm_fence(&mut self, idx: usize) {
        if let Some(CtrlFrame::Marker(m)) = self.ctrl.get_mut(idx) {
            debug_assert_eq!(m.kind, MarkerKind::Fence);
            m.kind = MarkerKind::End;
        }
    }

    /// Roll a speculative owner execution back: drop every control frame at
    /// `ctrl_len` and above, undo the trail and truncate the heap to the
    /// given marks.
    pub fn rollback_to(
        &mut self,
        ctrl_len: usize,
        trail: TrailMark,
        heap: ace_logic::heap::HeapMark,
    ) {
        while self.ctrl.len() > ctrl_len {
            if let Some(CtrlFrame::Choice(cp)) = self.ctrl.pop() {
                self.table_note_discarded(&cp.alts);
                if let Some(shared) = cp.shared {
                    shared.owner_detached();
                }
            }
        }
        self.untrail(trail);
        self.heap.truncate_to(heap);
    }

    /// Indices of private (unpublished) choice points, oldest first
    /// (or-engine publication scan).
    pub fn private_choice_indices(&self) -> Vec<usize> {
        self.ctrl
            .iter()
            .enumerate()
            .filter_map(|(i, f)| match f {
                CtrlFrame::Choice(cp) if cp.shared.is_none() => Some(i),
                _ => None,
            })
            .collect()
    }

    /// Inspect a choice point (or-engine publication).
    pub fn choice_at(&self, idx: usize) -> Option<&ChoicePoint> {
        match self.ctrl.get(idx) {
            Some(CtrlFrame::Choice(cp)) => Some(cp),
            _ => None,
        }
    }

    /// Install a shared-alternatives pool on the choice point at `idx`.
    /// From now on the owner claims alternatives from the pool too.
    pub fn share_choice(&mut self, idx: usize, shared: Arc<dyn SharedChoice>) {
        match self.ctrl.get_mut(idx) {
            Some(CtrlFrame::Choice(cp)) => cp.shared = Some(shared),
            other => panic!("share_choice: not a choice point: {other:?}"),
        }
    }

    /// Find the control index of the shared choice point published under
    /// `node_id` at `epoch`, if it is still on this machine's stack
    /// (deferred-closure materialization: the or-engine records the node,
    /// not the index, because the stack may shift between publish and
    /// first remote demand).
    pub fn shared_choice_index(&self, node_id: u64, epoch: u64) -> Option<usize> {
        self.ctrl.iter().enumerate().find_map(|(i, f)| match f {
            CtrlFrame::Choice(cp) => match &cp.shared {
                Some(sh) if sh.node_id() == node_id && sh.epoch() == epoch => Some(i),
                _ => None,
            },
            _ => None,
        })
    }

    /// Freeze the state of the choice point at `idx` so a remote worker
    /// can run one of its alternatives: temporarily unwind the trail to the
    /// choice point, freeze the goal and continuation into an immutable
    /// arena, rewind.
    pub fn choice_closure(&mut self, idx: usize) -> StateClosure {
        let Some(CtrlFrame::Choice(cp)) = self.ctrl.get(idx) else {
            panic!("choice_closure: not a choice point");
        };
        let (goal, cont, trail) = (cp.goal, cp.cont, cp.trail);
        let section = self.heap.unwind_section(trail);
        // `MemoStore` frames are machine-local bookkeeping (they index
        // this machine's watch table); to a remote worker they mean
        // `true`, so they are dropped from the shipped continuation.
        let local = |g: &Goal| matches!(g, Goal::MemoStore { .. });
        let closure = self.freeze_state(goal, cont, |g| !local(g));
        self.heap.rewind_section(section);

        self.stats.cells_copied_publish += closure.arena.len() as u64;
        closure
    }

    /// Freeze `goal` and the frames of `cont` that `keep` accepts jointly
    /// (one tuple, so shared variables stay shared); the frame terms
    /// written to do so are reclaimed at once.
    fn freeze_state(
        &mut self,
        goal: Cell,
        cont: Cont,
        keep: impl Fn(&Goal) -> bool,
    ) -> StateClosure {
        let mark = self.heap.heap_mark();
        let (args, frames) = self.conts.freeze(&mut self.heap, goal, cont, keep);
        let arena = TermArena::freeze_tuple(&self.heap, closure_sym(), &args);
        self.heap.truncate_to(mark);
        StateClosure {
            arena,
            frames: frames.into(),
        }
    }

    /// Freeze `goals`, terms of this machine's heap, jointly into one
    /// arena (so variables they share stay shared): how the and-engine
    /// ships goals and returns solutions.
    pub fn freeze_goals(&self, goals: &[Cell]) -> TermArena {
        static BUNDLE: std::sync::OnceLock<Sym> = std::sync::OnceLock::new();
        let f = *BUNDLE.get_or_init(|| ace_logic::sym("$bundle"));
        TermArena::freeze_tuple(&self.heap, f, goals)
    }

    /// Thaw a closure into this heap (one block splice — no clone, no
    /// structural re-copy; variable sharing is preserved by the arena) and
    /// rebuild its continuation with every cut barrier at `barrier`.
    /// Returns the goal, the continuation and the cells thawed.
    fn thaw_state(&mut self, closure: &StateClosure, barrier: u32) -> (Cell, Cont, usize) {
        let (root, cells) = closure.arena.thaw(&mut self.heap);
        let Cell::Str(tuple) = root else {
            unreachable!("a closure arena's root is its tuple")
        };
        let goal = self.heap.str_arg(tuple, 0);
        let cont = self.conts.thaw(&self.heap, tuple, &closure.frames, barrier);
        (goal, cont, cells)
    }

    /// Install a published alternative on this (fresh) machine: thaw the
    /// closure (barriers clamp to this machine's floor) and start executing
    /// `clause_idx` of the goal's predicate. Returns `false` when the head
    /// unification already fails.
    pub fn install_closure(
        &mut self,
        closure: &StateClosure,
        name: Sym,
        arity: u32,
        clause_idx: usize,
    ) -> bool {
        debug_assert!(self.ctrl.is_empty() && self.cont.is_none());
        let (goal, cont, cells) = self.thaw_state(closure, 0);
        self.stats.cells_copied_claim += cells as u64;
        // Flat price: the thaw is a block copy plus relocation, not a
        // per-cell structural walk (see `CostModel::closure_thaw`).
        self.charge(self.costs.closure_thaw);
        self.cont = cont;
        self.status = Status::Running;

        let db = Arc::clone(&self.db);
        let pred = db.predicate(name, arity).expect("a published predicate");
        let ok = self.try_clause(pred, clause_idx, goal, 0);
        if !ok {
            self.status = Status::Failed;
        }
        ok
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Run until a non-`Running` status, the quantum is exhausted, or
    /// cancellation. Returns the current status ([`Status::Running`] means
    /// "quantum expired, call again").
    ///
    /// The program is borrowed once here for the whole quantum: below this
    /// point clauses and code are plain references into `db`, and the
    /// resolution path performs no reference-count operation — the count
    /// is a cache line every machine of the run shares.
    pub fn run(&mut self, quantum: u64, cancel: Option<&CancelToken>) -> Status {
        let db = Arc::clone(&self.db);
        self.run_on(&db, quantum, cancel)
    }

    /// [`Machine::run`] against `db`, this machine's program borrowed by
    /// the caller (an engine's machine pool holds it), so a quantum costs
    /// no reference count at all.
    pub fn run_on(&mut self, db: &Database, quantum: u64, cancel: Option<&CancelToken>) -> Status {
        debug_assert!(std::ptr::eq(db, Arc::as_ptr(&self.db)));
        let start = self.stats.cost;
        loop {
            if let Some(tok) = cancel {
                if self.cancel_check_countdown == 0 {
                    self.cancel_check_countdown = 32;
                    if tok.is_cancelled() {
                        self.status = Status::Cancelled;
                        return Status::Cancelled;
                    }
                }
                self.cancel_check_countdown -= 1;
            }
            let s = self.step_in(db);
            if s != Status::Running {
                return s;
            }
            if self.stats.cost - start >= quantum {
                return Status::Running;
            }
        }
    }

    /// Run to the next definitive outcome with no quantum (sequential use).
    pub fn run_to_completion(&mut self) -> Status {
        let db = Arc::clone(&self.db);
        self.complete_in(&db)
    }

    fn complete_in(&mut self, db: &Database) -> Status {
        loop {
            let s = self.step_in(db);
            if s != Status::Running {
                return s;
            }
        }
    }

    /// The next definitive outcome of a sequential enumeration: backtrack
    /// first if the last outcome was a solution (`retry`), then run,
    /// polling `cancel` if there is one. `db` is this machine's program,
    /// borrowed by the caller, so a solution costs no reference count.
    pub(crate) fn next_outcome(
        &mut self,
        db: &Database,
        retry: bool,
        cancel: Option<&CancelToken>,
    ) -> Status {
        debug_assert!(std::ptr::eq(db, Arc::as_ptr(&self.db)));
        if retry && self.backtrack_in(db) == Status::Failed {
            return Status::Failed;
        }
        match cancel {
            Some(_) => self.run_on(db, u64::MAX, cancel),
            None => self.complete_in(db),
        }
    }

    /// Perform one resolution step.
    pub fn step(&mut self) -> Status {
        let db = Arc::clone(&self.db);
        self.step_in(&db)
    }

    /// One resolution step against the borrowed program: pop the first
    /// frame of the continuation, trim the continuation stack to what a
    /// control frame or the remaining continuation still names, run the
    /// frame. Running a frame is charged one `call_dispatch`, whatever it
    /// holds.
    fn step_in(&mut self, db: &Database) -> Status {
        if self.status != Status::Running {
            return self.status.clone();
        }
        let Some(node) = self.conts.node(self.cont) else {
            self.status = Status::Solution;
            self.stats.solutions += 1;
            return Status::Solution;
        };
        self.cont = node.next;
        let floor = self.cont_floor();
        self.conts.trim(floor, node.next);
        if let Goal::ParNext { rec, next } = node.goal {
            return self.par_next(rec as usize, next);
        }
        self.charge(self.costs.call_dispatch);
        match node.goal {
            Goal::Term(goal) => self.dispatch(db, goal, node.barrier),
            Goal::Call { goal, pred } => self.call_linked(db, goal, pred),
            Goal::Body { clause, at, env } => {
                self.compiled_body_step(db, clause, at, env, node.barrier, floor)
            }
            Goal::IteThen { cut_to } => {
                self.cut_to(cut_to);
                Status::Running
            }
            Goal::MemoStore { slot, gen } => self.memo_store_arrival(slot as usize, gen),
            Goal::TableAnswer { subgoal, vars } => {
                self.table_answer_arrival(db, subgoal as usize, vars.cell())
            }
            Goal::InlineBarrier { frame } => {
                self.status = Status::InlineBarrier(frame);
                self.status.clone()
            }
            Goal::ParNext { .. } => unreachable!("dispatched above"),
        }
    }

    /// Run the goal term `goal` by its principal functor: a control
    /// construct or builtin of the one builtin table, else a user
    /// predicate found by name.
    fn dispatch(&mut self, db: &Database, goal: Cell, barrier: u32) -> Status {
        match view(&self.heap, goal) {
            TermView::Var(_) => self.error("unbound goal (instantiation error)"),
            TermView::Int(_) | TermView::Nil | TermView::List(_) => {
                self.error("type error: callable expected")
            }
            TermView::Atom(s) => match builtin(s, 0) {
                Some(Builtin::True) => {
                    self.status = Status::Running;
                    Status::Running
                }
                Some(Builtin::Fail) => self.backtrack_in(db),
                Some(Builtin::Cut) => {
                    self.cut_to(barrier);
                    Status::Running
                }
                Some(Builtin::Nl) => {
                    self.output.push('\n');
                    Status::Running
                }
                Some(Builtin::Halt) => {
                    self.status = Status::Halted;
                    Status::Halted
                }
                _ => self.call_user(db, goal, db.pred_id(s, 0), s, 0, None),
            },
            TermView::Struct(f, n, hdr) => match builtin(f, n) {
                Some(Builtin::Conj) => self.conjunction(hdr, barrier),
                // Inside a tabled generator `&` degrades to `,`: the
                // derivation's continuation carries machine-local
                // `TableAnswer` frames that must not be handed to the
                // and-engine's slot protocol (sound — parallel conjunction
                // and sequential conjunction agree on answer sets).
                Some(Builtin::Par) if self.par_enabled && self.table_gen_stack.is_empty() => {
                    if self.defer_parcalls && !self.ends_spine() {
                        self.push_record(goal, barrier)
                    } else {
                        self.raise_parcall(goal, barrier)
                    }
                }
                // sequential fallback: `&` behaves as `,`
                Some(Builtin::Par) => self.conjunction(hdr, barrier),
                Some(Builtin::Disj) => self.disjunction(hdr, barrier),
                Some(Builtin::IfThen) => {
                    // bare C -> T  ==  (C -> T ; fail)
                    let c = self.heap.str_arg(hdr, 0);
                    let t = self.heap.str_arg(hdr, 1);
                    self.if_then_else(c, t, Cell::Atom(wk().fail), barrier)
                }
                Some(Builtin::Not) => {
                    let g = self.heap.str_arg(hdr, 0);
                    let w = wk();
                    self.if_then_else(g, Cell::Atom(w.fail), Cell::Atom(w.true_), barrier)
                }
                Some(Builtin::Call) => self.call_n(hdr, n),
                Some(b) => crate::builtins::run(self, db, b, f, hdr),
                None => self.call_user(db, goal, db.pred_id(f, n), f, n, Some(hdr)),
            },
        }
    }

    /// Lazy frames: does a `&` reached now end [`Machine::spine`] — is it
    /// the last goal of a determinate computation that LPCO merges into a
    /// frame? Only markers may lie above that frame, so the scan is short.
    fn ends_spine(&self) -> bool {
        let floor = match self.spine {
            Spine::None => return false,
            Spine::Slot if self.cont.is_none() => 0,
            Spine::Slot => return false,
            Spine::Inline(id) => {
                let barrier = self.conts.node(self.cont).is_some_and(|node| {
                    node.next.is_none() && node.goal == Goal::InlineBarrier { frame: id }
                });
                match self.parcall_index(id) {
                    Some(idx) if barrier => idx + 1,
                    _ => return false,
                }
            }
        };
        self.ctrl[floor..].iter().all(CtrlFrame::is_marker)
    }

    /// `A, B`: run `A`, then `B`, under the same cut barrier.
    fn conjunction(&mut self, hdr: Addr, barrier: u32) -> Status {
        let a = self.heap.str_arg(hdr, 0);
        let b = self.heap.str_arg(hdr, 1);
        self.cont = self.conts.push(self.cont, Goal::Term(b), barrier);
        self.cont = self.conts.push(self.cont, Goal::Term(a), barrier);
        Status::Running
    }

    fn raise_parcall(&mut self, goal: Cell, barrier: u32) -> Status {
        // Frame-allocation cost and count are charged by the and-engine,
        // which decides whether this frame is kept or merged away (LPCO).
        self.parcalls_raised += 1;
        let pf = ParcallFrame {
            id: PARCALL_IDS.fetch_add(1, Ordering::Relaxed),
            branches: conjuncts(&self.heap, goal),
            cont: self.cont,
            trail: self.heap.trail_mark(),
            heap: self.heap.heap_mark(),
            conts: self.conts.mark(),
            barrier,
            ext: None,
        };
        self.ctrl.push(CtrlFrame::Parcall(pf));
        self.status = Status::Parcall;
        Status::Parcall
    }

    /// Lazy frames: run `g0 & … & gn-1` as `g0, …, gn-1` under a
    /// [`ParRecord`], charged the SPO price of a procrastinated structure.
    /// Each goal's cut barrier is the control height at its start, as in a
    /// frame's branch. Counted as a raised parallel call, so a derivation
    /// through it is never memoized, as one through a frame is not.
    fn push_record(&mut self, goal: Cell, barrier: u32) -> Status {
        self.parcalls_raised += 1;
        self.charge(self.costs.spo_track);
        let rec = self.ctrl.len() as u32;
        let at = (self.heap.trail_mark(), self.heap.heap_mark());
        self.ctrl.push(CtrlFrame::Record(ParRecord {
            goal,
            len: conjunct_count(&self.heap, goal),
            cont: self.cont,
            trail: at.0,
            heap: at.1,
            conts: self.conts.mark(),
            barrier,
            running: 0,
            running_at: at,
            reached: 0,
        }));
        let next = self
            .conts
            .push(self.cont, Goal::ParNext { rec, next: 1 }, 0);
        let first = conjunct(&self.heap, goal, 0);
        self.cont = self.conts.push(next, Goal::Term(first), rec + 1);
        Status::Running
    }

    /// The node after goal `next - 1` of the conjunction recorded at
    /// control index `rec` ran. Once promoted, it is the end of the goal
    /// the owner was running. Otherwise start goal `next` in front of a
    /// node like this one, noting it in the record while nothing but
    /// records lie above it; after the last goal, pop the record if it is
    /// on top (else a choice point above still needs it). Unpromoted, the
    /// node is the record's own bookkeeping: priced once, by the record's
    /// `spo_track`, it charges no dispatch. As a frame's barrier it is
    /// charged what an `InlineBarrier` node is.
    fn par_next(&mut self, rec: usize, next: u32) -> Status {
        let height = self.ctrl.len();
        let open = self.ctrl[rec + 1..].iter().all(CtrlFrame::is_record);
        let at = (self.heap.trail_mark(), self.heap.heap_mark());
        let (len, conj) = match &mut self.ctrl[rec] {
            CtrlFrame::Record(r) => {
                if open && next < r.len {
                    r.running = next;
                    r.running_at = at;
                    r.reached = next;
                } else {
                    r.reached = r.reached.max(next);
                }
                (r.len, r.goal)
            }
            CtrlFrame::Parcall(pf) => {
                self.status = Status::InlineBarrier(pf.id);
                self.charge(self.costs.call_dispatch);
                return self.status.clone();
            }
            other => panic!("parallel conjunction node over {other:?}"),
        };
        if next == len {
            if rec + 1 == height {
                self.ctrl.pop();
            }
            return Status::Running;
        }
        let goal = conjunct(&self.heap, conj, next);
        let after = self.conts.push(
            self.cont,
            Goal::ParNext {
                rec: rec as u32,
                next: next + 1,
            },
            0,
        );
        self.cont = self.conts.push(after, Goal::Term(goal), height as u32);
        Status::Running
    }

    fn disjunction(&mut self, hdr: Addr, barrier: u32) -> Status {
        let lhs = self.heap.str_arg(hdr, 0);
        let rhs = self.heap.str_arg(hdr, 1);
        // if-then-else?
        if let TermView::Struct(f, 2, ite_hdr) = view(&self.heap, lhs) {
            if f == wk().arrow {
                let c = self.heap.str_arg(ite_hdr, 0);
                let t = self.heap.str_arg(ite_hdr, 1);
                return self.if_then_else(c, t, rhs, barrier);
            }
        }
        self.push_choice(lhs, Alts::Disj { rhs }, self.cont, barrier);
        self.cont = self.conts.push(self.cont, Goal::Term(lhs), barrier);
        Status::Running
    }

    fn if_then_else(&mut self, c: Cell, t: Cell, e: Cell, barrier: u32) -> Status {
        let cut_to = self.ctrl.len() as u32;
        self.push_choice(c, Alts::Disj { rhs: e }, self.cont, barrier);
        // run C, then cut the else-branch's choice point, then T; C's own
        // cuts are local to it.
        self.cont = self.conts.push(self.cont, Goal::Term(t), barrier);
        self.cont = self
            .conts
            .push(self.cont, Goal::IteThen { cut_to }, barrier);
        let cond_barrier = self.ctrl.len() as u32; // cut inside C is local
        self.cont = self.conts.push(self.cont, Goal::Term(c), cond_barrier);
        Status::Running
    }

    fn call_n(&mut self, hdr: Addr, n: u32) -> Status {
        self.charge(self.costs.builtin);
        let target = self.heap.str_arg(hdr, 0);
        let goal = if n == 1 {
            target
        } else {
            // call(F, A1..Ak): append args to F
            match view(&self.heap, target) {
                TermView::Atom(f) => {
                    let extra: Vec<Cell> = (1..n).map(|i| self.heap.str_arg(hdr, i)).collect();
                    self.heap.new_struct(f, &extra)
                }
                TermView::Struct(f, m, ghdr) => {
                    let mut args: Vec<Cell> = (0..m).map(|i| self.heap.str_arg(ghdr, i)).collect();
                    args.extend((1..n).map(|i| self.heap.str_arg(hdr, i)));
                    self.heap.new_struct(f, &args)
                }
                _ => return self.error("call/N: callable expected"),
            }
        };
        // cut inside call/N is local: fresh barrier at current height
        let barrier = self.ctrl.len() as u32;
        self.cont = self.conts.push(self.cont, Goal::Term(goal), barrier);
        Status::Running
    }

    /// Call a goal whose user predicate the link pass resolved.
    fn call_linked(&mut self, db: &Database, goal: Callable, pid: PredId) -> Status {
        let pred = db.pred(pid);
        let hdr = match goal {
            Callable::Str(h) => Some(h),
            Callable::Atom(_) => None,
        };
        self.call_user(db, goal.cell(), Some(pid), pred.name, pred.arity, hdr)
    }

    /// Call the user predicate `name/arity` — `pred`, or undefined — with
    /// the goal `goal` (argument block at `hdr`): through the answer store
    /// when it is on, else by the argument index [`Machine::dispatch_key`]
    /// picks.
    fn call_user(
        &mut self,
        db: &Database,
        goal: Cell,
        pred: Option<PredId>,
        name: Sym,
        arity: u32,
        hdr: Option<Addr>,
    ) -> Status {
        self.stats.calls += 1;
        self.charge(self.costs.index_lookup);
        if self.tabling
            && pred.map_or_else(|| db.is_tabled(name, arity), |p| db.pred(p).is_tabled())
        {
            return self.table_call(db, goal, pred, name, arity, hdr);
        }
        if self.memoize {
            if let Some(status) = self.memo_consult(db, goal) {
                return status;
            }
        }
        let Some(pid) = pred else {
            return self.undefined(name, arity);
        };
        let pred = db.pred(pid);
        let (arg, key) = self.dispatch_key(pred, hdr);
        // Switch-on-term dispatch: one bucket fetch serves the candidate
        // count and the first two alternatives; clauses outside the chain
        // are never visited at all. (The interpreter oracle instead pays a
        // charged linear scan through `pred_next`.)
        let (first, second) = if self.compiled {
            let chain = pred.matching_chain(arg, key);
            let candidates = chain.len();
            self.stats.clauses_skipped_by_index += (pred.clauses.len() - candidates) as u64;
            if candidates == 1 {
                self.stats.index_determinate_calls += 1;
            }
            self.note(EventKind::ClauseDispatch {
                pred: Label::Pred(name, arity),
                candidates,
                determinate: candidates == 1,
            });
            let Some(&first) = chain.first() else {
                return self.backtrack_in(db);
            };
            (first as usize, chain.get(1).map(|&o| o as usize))
        } else {
            let Some(first) = self.pred_next(pred, arg, key, 0) else {
                return self.backtrack_in(db);
            };
            (first, self.pred_next(pred, arg, key, first + 1))
        };
        let barrier_at_call = self.ctrl.len() as u32;
        if let Some(next) = second {
            let rest = Alts::Clauses {
                pred: pid,
                arg,
                key,
                next,
            };
            self.push_choice(goal, rest, self.cont, barrier_at_call);
        }
        if self.try_clause(pred, first, goal, barrier_at_call) {
            Status::Running
        } else {
            self.backtrack_in(db)
        }
    }

    /// No clause defines `name/arity`.
    fn undefined(&mut self, name: Sym, arity: u32) -> Status {
        self.error(format!("undefined predicate {}/{arity}", name.name()))
    }

    /// The one dispatch decision of a call on `pred` with its argument
    /// block at `hdr`: the argument (0-based) whose chain the call, its
    /// retries and its published alternatives enumerate, and that
    /// argument's key. A bound first argument is dispatched on as it
    /// always was. An unbound one, on a predicate of at least
    /// [`ARG_INDEX_MIN_CLAUSES`] clauses, hands the call to its leftmost
    /// bound argument — compiled mode only: the interpreter oracle keeps
    /// the first-argument scan it is charged for.
    ///
    /// Always inlined, with [`IndexKey::of`]: the key stays in registers.
    /// Returned through memory, a callee's piecewise stores of it are read
    /// back whole, a store-forwarding stall on every call.
    #[inline(always)]
    fn dispatch_key(&self, pred: &Predicate, hdr: Option<Addr>) -> (u32, IndexKey) {
        let Some(h) = hdr.filter(|_| pred.arity > 0) else {
            return (0, IndexKey::Any);
        };
        let first = IndexKey::of(&self.heap, self.heap.str_arg(h, 0));
        if first != IndexKey::Any || !self.compiled || pred.clauses.len() < ARG_INDEX_MIN_CLAUSES {
            return (0, first);
        }
        self.leftmost_bound(pred.arity, h)
    }

    /// The leftmost bound argument after the first of the argument block
    /// at `hdr`, and its key; `(0, Any)` when every one is unbound. Out of
    /// line, so the first-argument path of `call_user` is what it was.
    #[inline(never)]
    fn leftmost_bound(&self, arity: u32, hdr: Addr) -> (u32, IndexKey) {
        (1..arity)
            .map(|i| (i, IndexKey::of(&self.heap, self.heap.str_arg(hdr, i))))
            .find(|&(_, key)| key != IndexKey::Any)
            .unwrap_or((0, IndexKey::Any))
    }

    /// Mode-aware clause lookup: the compiled path binary-searches the
    /// switch-on-term bucket chain of argument `arg` (no per-clause work);
    /// the interpreter oracle runs the pre-indexing linear scan of the
    /// first argument and pays `index_scan` per clause visited. On the
    /// first argument both return the *same* ordinal sequence — the chains
    /// are built to mirror the scan exactly.
    fn pred_next(
        &mut self,
        pred: &Predicate,
        arg: u32,
        key: IndexKey,
        from: usize,
    ) -> Option<usize> {
        if self.compiled {
            pred.next_matching(arg, key, from)
        } else {
            debug_assert_eq!(arg, 0, "the interpreter dispatches on the first argument");
            let found = pred.next_matching_scan(key, from);
            let visited = match found {
                Some(f) => (f - from + 1) as u64,
                None => pred.clauses.len().saturating_sub(from) as u64,
            };
            self.charge(visited * self.costs.index_scan);
            found
        }
    }

    /// Run clause `idx` of `pred` against `goal`; on success push the
    /// body. Returns success. On failure the partial bindings are undone
    /// (heap garbage is reclaimed by the next choice-point restore).
    /// Dispatches to the compiled register code by default, or to the
    /// tree-walking interpreter oracle under [`ClauseExec::Interpreted`].
    fn try_clause(&mut self, pred: &Predicate, idx: usize, goal: Cell, body_barrier: u32) -> bool {
        let clause = &pred.clauses[idx];
        if self.compiled {
            return self.try_clause_compiled(clause, goal, body_barrier);
        }
        let pre_trail = self.heap.trail_mark();
        let (head, body) = clause.instantiate(&mut self.heap);
        self.charge_cells(clause.arena_len() as u64);
        match unify(&mut self.heap, goal, head) {
            Some(steps) => {
                self.stats.unify_steps += steps as u64;
                self.charge(steps as u64 * self.costs.unify_step);
                self.cont = self.conts.push(self.cont, Goal::Term(body), body_barrier);
                self.status = Status::Running;
                true
            }
            None => {
                self.untrail(pre_trail);
                false
            }
        }
    }

    /// Compiled clause execution: run the head's register code against
    /// the goal's argument cells (matching in place — no clause-arena
    /// copy), then run the body *neck* inline — tests, `is`, and `=`
    /// execute straight off the step templates and slot registers,
    /// materializing nothing. A failing guard costs only the head match.
    /// An if-then-else on a test picks its branch here with no choice
    /// point. Only the first non-inlinable goal is built on the
    /// heap; any steps after it wait in a body frame and are materialized
    /// one at a time as the resolvent reaches them.
    fn try_clause_compiled(&mut self, clause: &Clause, goal: Cell, body_barrier: u32) -> bool {
        let code = clause.code();
        let hdr = match self.heap.deref(goal) {
            Cell::Str(h) => Some(h),
            _ => None,
        };
        let pre_trail = self.heap.trail_mark();
        let mut slots = std::mem::take(&mut self.code_slots);
        let (ok, cost) = run_head(&mut self.heap, code, hdr, &mut slots);
        self.stats.code_cache_hits += 1;
        self.stats.heap_cells += cost.cells;
        self.stats.unify_steps += cost.unify_steps;
        self.charge(
            cost.instrs * self.costs.instr
                + cost.cells * self.costs.heap_cell
                + cost.unify_steps * self.costs.unify_step,
        );
        let ok = if ok {
            match code.body() {
                CompiledBody::Fact => {
                    self.status = Status::Running;
                    true
                }
                CompiledBody::Steps(_) => {
                    self.run_body_neck(clause, 0, &mut slots, body_barrier, pre_trail)
                }
                CompiledBody::IfThenElse { cond, cond_op, .. } => {
                    // Decide the branch now, with no choice point: the
                    // test is deterministic and binds nothing, so the
                    // generic machinery would cut the else-alternative
                    // immediately anyway.
                    match eval_test(&self.heap, *cond_op, cond, &slots) {
                        Some((taken, ops)) => {
                            self.charge(self.costs.instr + ops * self.costs.arith_op);
                            let branch = if taken { 1 } else { 2 };
                            self.run_body_neck(clause, branch, &mut slots, body_barrier, pre_trail)
                        }
                        None => {
                            // An operand the test cannot read off the
                            // registers: rebuild the whole if-then-else and
                            // let the generic control machinery raise the
                            // interpreter's exact error (or run the test as
                            // the builtin).
                            let (body, cells) = code.instantiate_body(&mut self.heap, &mut slots);
                            self.charge_cells(cells as u64);
                            self.cont = self.conts.push(self.cont, Goal::Term(body), body_barrier);
                            self.status = Status::Running;
                            true
                        }
                    }
                }
            }
        } else {
            self.untrail(pre_trail);
            false
        };
        self.code_slots = slots;
        self.code_slots.clear();
        ok
    }

    /// Execute the leading inline-able steps of `branch` directly off the
    /// templates (the clause "neck") over the register file `slots`, then
    /// push the first real goal and — only if more than one goal remains —
    /// the activation's environment and a body frame over it. Returns false
    /// (after undoing head bindings) if an inline guard fails.
    fn run_body_neck(
        &mut self,
        clause: &Clause,
        branch: u8,
        slots: &mut [Cell],
        barrier: u32,
        pre_trail: TrailMark,
    ) -> bool {
        let code = clause.code();
        let steps = code.steps(branch);
        let (heap, stats) = (&mut self.heap, &mut self.stats);
        let Some(k) = inline_steps(heap, stats, &self.costs, code, steps, 0, slots) else {
            self.untrail(pre_trail);
            return false;
        };
        if k < steps.len() {
            let cells = code.init_fresh_slots(&mut self.heap, slots);
            self.charge_cells(cells as u64);
            if k + 1 < steps.len() {
                let env = self.push_env(slots);
                let clause = clause.id().expect("a clause with a body is a rule");
                self.push_body(clause, BodyAt::new(branch, k + 1), env, barrier);
            }
            let (g, cells) = steps[k].tpl.instantiate(&mut self.heap, slots);
            self.charge_cells(cells as u64);
            self.cont = self.conts.push(self.cont, step_goal(&steps[k], g), barrier);
        }
        self.status = Status::Running;
        true
    }

    /// Push an activation's environment, its register file with every slot
    /// set, charged the `nslots + 1` heap cells its `$slots` term cost when
    /// environments were heap terms, so virtual time and `heap_cells` are
    /// unchanged. A clause without variables has none.
    fn push_env(&mut self, slots: &[Cell]) -> Env {
        if slots.is_empty() {
            return Env::NONE;
        }
        self.charge_cells(slots.len() as u64 + 1);
        self.conts.push_env(slots)
    }

    /// Push a body frame: steps `at..` of `clause` wait behind the goal
    /// about to run.
    fn push_body(&mut self, clause: ClauseId, at: BodyAt, env: Env, barrier: u32) {
        self.charge_cells(BODY_FRAME_CELLS);
        self.cont = self
            .conts
            .push(self.cont, Goal::Body { clause, at, env }, barrier);
    }

    /// A body frame reached the front of the resolvent: run any inline-able
    /// steps over the activation's environment, read in place, then
    /// materialize and run the next real goal (re-pushing a frame for
    /// whatever still remains). The environments the activation's finished
    /// callees left go, and after its last step its own: whatever `floor`,
    /// the top control frame's mark, does not protect
    /// ([`ContStack::trim_envs`]). Backtracking into the middle of a body
    /// needs no special case: the choice point snapshotted the continuation
    /// *before* the frame existed, so retry starts from the clause head as
    /// usual.
    fn compiled_body_step(
        &mut self,
        db: &Database,
        clause: ClauseId,
        at: BodyAt,
        env: Env,
        barrier: u32,
        floor: ContMark,
    ) -> Status {
        let code = db.rule(clause).code();
        let steps = code.steps(at.branch());
        let slots = self.conts.env_slots_mut(env, code.nslots());
        let (heap, stats) = (&mut self.heap, &mut self.stats);
        let Some(k) = inline_steps(heap, stats, &self.costs, code, steps, at.step(), slots) else {
            return self.backtrack_in(db);
        };
        let Some(step) = steps.get(k) else {
            self.conts.trim_envs(floor, env, true);
            self.status = Status::Running;
            return Status::Running;
        };
        let (g, cells) = step.tpl.instantiate(&mut self.heap, slots);
        self.charge_cells(cells as u64);
        let last = k + 1 == steps.len();
        self.conts.trim_envs(floor, env, last);
        if !last {
            self.push_body(clause, BodyAt::new(at.branch(), k + 1), env, barrier);
        }
        // Run the goal directly instead of pushing it and returning: saves
        // a continuation node push and pop per body goal. Recursion is
        // bounded — a user goal lands in `try_clause`, which pushes and
        // returns.
        self.charge(self.costs.call_dispatch);
        match step_goal(step, g) {
            Goal::Call { goal, pred } => self.call_linked(db, goal, pred),
            _ => self.dispatch(db, g, barrier),
        }
    }

    /// Push a private choice point for `goal`, to be retried with
    /// continuation `cont` and cut barrier `barrier`: the heap, trail and
    /// continuation-stack marks of the restore point are taken here.
    pub(crate) fn push_choice(&mut self, goal: Cell, alts: Alts, cont: Cont, barrier: u32) {
        self.stats.choice_points += 1;
        self.charge(self.costs.choice_point_alloc);
        self.ctrl.push(CtrlFrame::Choice(ChoicePoint {
            goal,
            alts,
            cont,
            trail: self.heap.trail_mark(),
            heap: self.heap.heap_mark(),
            conts: self.conts.mark(),
            barrier,
            shared: None,
        }));
    }

    /// SPO: materialize the procrastinated input marker now (the subgoal
    /// turned out nondeterministic — a surviving choice point needs the
    /// section delimited). The and-engine calls this at slot completion;
    /// choice points that were created and then cut or exhausted during
    /// the subgoal never force the marker (the paper's shallow-backtracking
    /// reference \[4\] plays the same role in &ACE).
    pub fn materialize_pending_marker(&mut self) {
        if let Some((parcall_id, slot)) = self.pending_marker.take() {
            self.push_marker(MarkerKind::Input, parcall_id, slot);
        }
    }

    /// Cut: discard all control frames at height >= `height` (bindings are
    /// kept — cut never untrails).
    pub(crate) fn cut_to(&mut self, height: u32) {
        while self.ctrl.len() > height as usize {
            match self.ctrl.pop().unwrap() {
                CtrlFrame::Choice(cp) => {
                    self.table_note_discarded(&cp.alts);
                    if let Some(shared) = cp.shared {
                        shared.owner_detached();
                    }
                }
                // Cutting across a parcall frame commits to its first
                // solution; its ext (slot generators) is dropped here.
                CtrlFrame::Parcall(_) | CtrlFrame::Marker(_) | CtrlFrame::Record(_) => {}
            }
        }
    }

    /// Backtrack to the most recent choice point and take the next
    /// alternative. Public so solution iteration can resume the search.
    pub fn backtrack(&mut self) -> Status {
        let db = Arc::clone(&self.db);
        self.backtrack_in(&db)
    }

    /// The untried alternatives of the choice point at control index `idx`
    /// (retry advances its cursor in place).
    fn alts_mut(&mut self, idx: usize) -> &mut Alts {
        match &mut self.ctrl[idx] {
            CtrlFrame::Choice(cp) => &mut cp.alts,
            other => unreachable!("not a choice point: {other:?}"),
        }
    }

    /// [`Machine::backtrack`] against the borrowed program. A retry copies
    /// the scalars it needs out of the frame; what the frame shares — a
    /// published node's pool, a replayed answer set — is used through a
    /// borrow, never counted.
    pub(crate) fn backtrack_in(&mut self, db: &Database) -> Status {
        self.stats.backtracks += 1;
        loop {
            let Some(top_frame) = self.ctrl.last() else {
                self.status = Status::Failed;
                return Status::Failed;
            };
            match top_frame {
                CtrlFrame::Marker(m) => {
                    // Input/end section boundaries are transparent to local
                    // backtracking; a PDO fence is not — it reports the
                    // owner-executed subgoal above it as exhausted.
                    let fence = if m.kind == MarkerKind::Fence {
                        Some((m.parcall_id, m.slot))
                    } else {
                        None
                    };
                    self.charge(self.costs.frame_traverse);
                    self.stats.frame_traversals += 1;
                    self.ctrl.pop();
                    if let Some((fid, slot)) = fence {
                        self.status = Status::FenceHit(fid, slot);
                        return self.status.clone();
                    }
                }
                CtrlFrame::Record(_) => {
                    // An unpromoted conjunction is a sequential one: pass
                    // through, as through an input marker.
                    self.charge(self.costs.frame_traverse);
                    self.stats.frame_traversals += 1;
                    self.ctrl.pop();
                }
                CtrlFrame::Parcall(_) => {
                    // Outside backtracking into a parallel call: hand over
                    // to the and-engine.
                    self.status = Status::ParcallRedo;
                    return Status::ParcallRedo;
                }
                CtrlFrame::Choice(cp) => {
                    // Restore machine state to the choice point.
                    let top = self.ctrl.len() - 1;
                    let (goal, barrier) = (cp.goal, cp.barrier);
                    let (trail, heap_mark, cont, conts) = (cp.trail, cp.heap, cp.cont, cp.conts);

                    self.charge(self.costs.choice_point_retry);
                    self.untrail(trail);
                    self.heap.truncate_to(heap_mark);
                    self.cont = cont;
                    self.conts.truncate_to(conts);
                    if !self.memo_watches.is_empty() {
                        self.memo_prune_watches();
                    }

                    let CtrlFrame::Choice(cp) = &mut self.ctrl[top] else {
                        unreachable!("the top frame was a choice point")
                    };

                    // Published choice point: alternatives come from the
                    // shared pool, competed for with remote workers.
                    if let Some(shared) = cp.shared.as_deref() {
                        let Alts::Clauses { pred, .. } = cp.alts else {
                            panic!("shared non-clause choice point");
                        };
                        match shared.claim_next() {
                            Some(idx) => {
                                self.stats.alternatives_claimed += 1;
                                self.charge(self.costs.claim_alternative);
                                let pred = db.pred(pred);
                                self.note(EventKind::ClauseRetry {
                                    pred: Label::Pred(pred.name, pred.arity),
                                });
                                if self.try_clause(pred, idx, goal, barrier) {
                                    self.status = Status::Running;
                                    return Status::Running;
                                }
                                continue; // head failed: claim another
                            }
                            None => {
                                shared.owner_detached();
                                self.ctrl.pop();
                                continue;
                            }
                        }
                    }

                    match &mut cp.alts {
                        &mut Alts::Clauses {
                            pred,
                            arg,
                            key,
                            next: idx,
                        } => {
                            let pred = db.pred(pred);
                            self.note(EventKind::ClauseRetry {
                                pred: Label::Pred(pred.name, pred.arity),
                            });
                            match self.pred_next(pred, arg, key, idx + 1) {
                                Some(f) => {
                                    if let Alts::Clauses { next, .. } = self.alts_mut(top) {
                                        *next = f;
                                    }
                                }
                                None => {
                                    // last alternative: pop ("trust")
                                    self.ctrl.pop();
                                }
                            }
                            if self.try_clause(pred, idx, goal, barrier) {
                                self.status = Status::Running;
                                return Status::Running;
                            }
                            continue;
                        }
                        &mut Alts::Disj { rhs } => {
                            self.ctrl.pop();
                            self.cont = self.conts.push(self.cont, Goal::Term(rhs), barrier);
                            self.status = Status::Running;
                            return Status::Running;
                        }
                        Alts::Between { var, next, hi } => {
                            let (var, value) = (*var, *next);
                            if value >= *hi {
                                self.ctrl.pop();
                            } else {
                                *next = value + 1;
                            }
                            let Cell::Ref(a) = self.heap.deref(var) else {
                                panic!("between var became bound across retry")
                            };
                            self.heap.bind(a, Cell::Int(value));
                            self.status = Status::Running;
                            return Status::Running;
                        }
                        Alts::Replay { entry, next } => {
                            // `goal` keeps the call's variables.
                            let answer = *next;
                            *next += 1;
                            let last = answer + 1 >= entry.answers.len();
                            self.stats.charge(self.costs.memo_lookup);
                            Self::bind_answer(
                                &mut self.heap,
                                &mut self.stats,
                                &self.costs,
                                &entry.answers[answer],
                                |heap, i| subst_vars(heap, goal)[i],
                            );
                            if last {
                                self.ctrl.pop(); // last stored answer
                            }
                            self.status = Status::Running;
                            return Status::Running;
                        }
                        Alts::TableConsumer { subgoal, next } => {
                            let (subgoal, answer) = (*subgoal, *next);
                            let frame = &self.table_subgoals[subgoal];
                            if answer < frame.answers.len() {
                                // Advance the cursor in place — the frame
                                // may still grow, so the CP stays.
                                *next = answer + 1;
                                self.stats.charge(self.costs.memo_lookup);
                                Self::bind_answer(
                                    &mut self.heap,
                                    &mut self.stats,
                                    &self.costs,
                                    &frame.answers[answer],
                                    |heap, i| subst_vars(heap, goal)[i],
                                );
                                self.status = Status::Running;
                                return Status::Running;
                            }
                            if frame.complete {
                                self.ctrl.pop(); // answer set closed: spent
                                continue;
                            }
                            // Dry but incomplete: park until the leader's
                            // fixpoint loop lands new answers.
                            self.table_suspend(subgoal, answer, goal);
                            continue;
                        }
                        &mut Alts::TableGen {
                            subgoal,
                            pred,
                            arg,
                            key,
                            next,
                        } => {
                            let pred = db.pred(pred);
                            match self.pred_next(pred, arg, key, next) {
                                Some(f) => {
                                    if let Alts::TableGen { next, .. } = self.alts_mut(top) {
                                        *next = f + 1;
                                    }
                                    // Clause bodies barrier above the
                                    // generator CP (cut stays local).
                                    let barrier = (top + 1) as u32;
                                    if self.try_clause(pred, f, goal, barrier) {
                                        self.status = Status::Running;
                                        return Status::Running;
                                    }
                                    continue;
                                }
                                None => {
                                    // Clause pool dry: completion check
                                    // (resume, complete, or fold outward).
                                    self.table_gen_exhausted(subgoal as usize, top);
                                    continue;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn error(&mut self, msg: impl Into<String>) -> Status {
        let s = Status::Error(msg.into());
        self.status = s.clone();
        s
    }
}

/// The number of conjuncts of `a & b & c` (`&` is `xfy`: `a & (b & c)`).
fn conjunct_count(heap: &Heap, goal: Cell) -> u32 {
    let mut n = 1;
    let mut cur = goal;
    while let TermView::Struct(f, 2, hdr) = view(heap, cur) {
        if f != wk().amp {
            break;
        }
        n += 1;
        cur = heap.str_arg(hdr, 1);
    }
    n
}

/// Conjunct `i` of `a & b & c`.
fn conjunct(heap: &Heap, goal: Cell, i: u32) -> Cell {
    let mut cur = goal;
    for _ in 0..i {
        match view(heap, cur) {
            TermView::Struct(f, 2, hdr) if f == wk().amp => cur = heap.str_arg(hdr, 1),
            _ => unreachable!("conjunct {i} of a shorter conjunction"),
        }
    }
    match view(heap, cur) {
        TermView::Struct(f, 2, hdr) if f == wk().amp => heap.str_arg(hdr, 0),
        _ => cur,
    }
}

/// The conjuncts of `a & b & c`, in order.
fn conjuncts(heap: &Heap, goal: Cell) -> Vec<Cell> {
    (0..conjunct_count(heap, goal))
        .map(|i| conjunct(heap, goal, i))
        .collect()
}

/// Run the inline-able steps of `steps` from `k` on over `slots` — the
/// register file at clause entry, an environment after — on the machine
/// parts they touch. Returns the first step the generic machinery must
/// run (`steps.len()` when none is left), or `None` when a deterministic
/// test failed: the body fails there, and nothing after that conjunct was
/// ever materialized. Inlined into both callers, the clause neck and the
/// body step.
#[inline]
fn inline_steps(
    heap: &mut Heap,
    stats: &mut Stats,
    costs: &CostModel,
    code: &CompiledCode,
    steps: &[BodyStep],
    mut k: usize,
    slots: &mut [Cell],
) -> Option<usize> {
    while let Some(st) = steps.get(k) {
        match inline_step(heap, stats, costs, code, st, slots) {
            StepOutcome::Ok => k += 1,
            StepOutcome::Fail => return None,
            StepOutcome::NotInline => break,
        }
    }
    Some(k)
}

/// Decide the test `op` of `tpl` (`op(A, B)` or `op(A)`) off the template
/// and the registers `slots`, materializing nothing: its verdict and the
/// arithmetic operations it applied. `None` bails to the materialized
/// builtin: an arithmetic operand that is unbound or no number, or a term
/// operand [`StepTemplate::operand`] cannot read.
#[inline]
fn eval_test(heap: &Heap, op: TestOp, tpl: &StepTemplate, slots: &[Cell]) -> Option<(bool, u64)> {
    match op {
        TestOp::Arith(cmp) => {
            let (a, o1) = arith::eval_template(&tpl.cells, tpl.arg(0), slots, heap)?;
            let (b, o2) = arith::eval_template(&tpl.cells, tpl.arg(1), slots, heap)?;
            Some((arith::cmp_apply(cmp, a, b)?, o1 + o2 + 1))
        }
        TestOp::Term(t) => {
            let a = tpl.operand(tpl.arg(0), slots)?;
            let b = match t.arity() {
                2 => tpl.operand(tpl.arg(1), slots)?,
                _ => a,
            };
            Some((t.holds(heap, a, b), 0))
        }
    }
}

/// Try to run one body step without materializing it. `NotInline` means
/// the step needs the generic machinery (a user goal, or an operand shape
/// the inline evaluator bails on — the materialized form then reproduces
/// interpreter errors exactly). Only an `is` into a slot that is still
/// unset writes `slots`, and an environment has none.
fn inline_step(
    heap: &mut Heap,
    stats: &mut Stats,
    costs: &CostModel,
    code: &CompiledCode,
    st: &BodyStep,
    slots: &mut [Cell],
) -> StepOutcome {
    use ace_logic::code::{SLOT_BASE, UNSET_SLOT};
    let unified = |stats: &mut Stats, steps: Option<usize>| match steps {
        Some(steps) => {
            stats.unify_steps += steps as u64;
            stats.charge(steps as u64 * costs.unify_step);
            StepOutcome::Ok
        }
        None => StepOutcome::Fail,
    };
    match st.kind {
        StepKind::Goal => StepOutcome::NotInline,
        StepKind::Test(op) => match eval_test(heap, op, &st.tpl, slots) {
            Some((holds, ops)) => {
                stats.charge(costs.instr + ops * costs.arith_op);
                if holds {
                    StepOutcome::Ok
                } else {
                    StepOutcome::Fail
                }
            }
            None => StepOutcome::NotInline,
        },
        StepKind::Is => {
            let h = match st.tpl.root {
                Cell::Str(h) => h.0 as usize,
                _ => return StepOutcome::NotInline,
            };
            let Some((v, ops)) =
                arith::eval_template(&st.tpl.cells, st.tpl.cells[h + 2], slots, heap)
            else {
                return StepOutcome::NotInline;
            };
            stats.charge(costs.instr + ops * costs.arith_op);
            match st.tpl.cells[h + 1] {
                Cell::Ref(a) if a.0 >= SLOT_BASE && a.0 != u32::MAX => {
                    let s = (a.0 - SLOT_BASE) as usize;
                    if slots[s] == UNSET_SLOT {
                        // First binding of a body-fresh variable: the
                        // value lives in the register alone — no heap
                        // cell, no trail entry, nothing to undo.
                        slots[s] = Cell::Int(v);
                        StepOutcome::Ok
                    } else {
                        unified(stats, unify(heap, slots[s], Cell::Int(v)))
                    }
                }
                // Single-occurrence result variable: value discarded.
                Cell::Ref(_) => StepOutcome::Ok,
                Cell::Int(i) if i == v => StepOutcome::Ok,
                Cell::Int(_) => StepOutcome::Fail,
                _ => StepOutcome::NotInline,
            }
        }
        StepKind::Unify => {
            // Materialize the operands, then unify in place — skips the
            // dispatch round and the builtin table lookup.
            let cells = code.init_fresh_slots(heap, slots);
            stats.heap_cells += cells as u64;
            stats.charge(cells as u64 * costs.heap_cell);
            let (g, n) = st.tpl.instantiate(heap, slots);
            stats.heap_cells += n as u64;
            stats.charge(n as u64 * costs.heap_cell + costs.instr);
            let Cell::Str(gh) = heap.deref(g) else {
                return StepOutcome::NotInline;
            };
            let (a, b) = (heap.str_arg(gh, 0), heap.str_arg(gh, 1));
            unified(stats, unify(heap, a, b))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_logic::heap::HeapMark;

    const MARKS: (TrailMark, HeapMark, ContMark) = (TrailMark(0), HeapMark(0), ContMark::ZERO);

    fn marker(kind: MarkerKind) -> CtrlFrame {
        let (trail, heap, conts) = MARKS;
        CtrlFrame::Marker(Marker {
            kind,
            parcall_id: 1,
            slot: 0,
            trail,
            heap,
            conts,
        })
    }

    fn record() -> CtrlFrame {
        let (trail, heap, conts) = MARKS;
        CtrlFrame::Record(ParRecord {
            goal: Cell::Nil,
            len: 2,
            cont: Cont::NONE,
            trail,
            heap,
            conts,
            barrier: 0,
            running: 0,
            running_at: (trail, heap),
            reached: 0,
        })
    }

    fn choice() -> CtrlFrame {
        let (trail, heap, conts) = MARKS;
        CtrlFrame::Choice(ChoicePoint {
            goal: Cell::Nil,
            alts: Alts::Disj { rhs: Cell::Nil },
            cont: Cont::NONE,
            trail,
            heap,
            conts,
            barrier: 0,
            shared: None,
        })
    }

    fn parcall(id: u64) -> CtrlFrame {
        let (trail, heap, conts) = MARKS;
        CtrlFrame::Parcall(ParcallFrame {
            id,
            branches: Vec::new(),
            cont: Cont::NONE,
            trail,
            heap,
            conts,
            barrier: 0,
            ext: None,
        })
    }

    /// `determinate` over every kind of control frame: markers, fences and
    /// records pass, a choice point fails, a parcall frame takes the
    /// engine's verdict; empty ranges pass.
    #[test]
    fn determinate_reads_each_frame_kind() {
        let db = Arc::new(Database::load("").unwrap());
        let mut m = Machine::new(db, Arc::new(CostModel::default()));
        assert!(m.determinate(.., |_| false), "an empty stack");
        // 0 input marker, 1 fence, 2 record, 3 determinate frame,
        // 4 choice point, 5 nondeterminate frame, 6 end marker.
        m.ctrl = vec![
            marker(MarkerKind::Input),
            marker(MarkerKind::Fence),
            record(),
            parcall(7),
            choice(),
            parcall(9),
            marker(MarkerKind::End),
        ];
        let verdict = |pf: &ParcallFrame| pf.id == 7;
        assert!(m.determinate(0..3, verdict), "markers, a fence, a record");
        assert!(m.determinate(..4, verdict), "a determinate frame passes");
        assert!(!m.determinate(3..4, |_| false), "the verdict decides");
        assert!(!m.determinate(..5, verdict), "a choice point fails");
        assert!(!m.determinate(4..5, |_| true));
        assert!(!m.determinate(5.., verdict), "a nondeterminate frame");
        assert!(m.determinate(6.., verdict));
        for empty in [4..4, 7..7, 9..12] {
            assert!(m.determinate(empty.clone(), |_| false), "{empty:?}");
        }
        assert!(
            !m.determinate(.., |_| true),
            "the full range holds the choice point"
        );
        m.ctrl.remove(4);
        assert!(m.determinate(.., |_| true), "without it only the verdicts");
        assert!(!m.determinate(.., verdict));
        // Since frame 7 (below the raised call on top, here the end marker):
        // the range between them holds frame 9.
        assert!(!m.deterministic_since_parcall(7, verdict));
        assert!(m.deterministic_since_parcall(7, |_| true));
        assert!(
            m.deterministic_since_parcall(9, |_| false),
            "nothing between"
        );
        assert!(!m.deterministic_since_parcall(8, |_| true), "no frame 8");
    }
}
