//! Clause database with argument indexing: a first-argument index built at
//! load time, and an index of every further argument built the first time
//! a call is dispatched on it.
//!
//! Each clause is kept as a **self-contained heap arena**: the reader
//! builds the clause in a scratch heap it reuses and copies it out into an
//! allocation of exactly the clause's length ([`Heap::from_cells`]); the
//! database keeps those cells as they come ([`Heap::into_cells`]) and none
//! of what a heap needs to bind or grow.
//! Calling a clause instantiates it by a single block copy with address
//! relocation — variables in the arena are self-referential `Ref` cells,
//! so relocation automatically renames them apart (the classic
//! "copy-based" clause representation). Loading a clause allocates what
//! the database keeps of it — the arena, the compiled code, the `Arc` —
//! and nothing else: the compiler works in buffers the database owns.
//!
//! Indexing matters here beyond raw speed: the engines detect
//! **determinacy at runtime** by asking how many clauses *can still match*
//! a call. The paper's optimizations (LPCO condition (i), LAO, shallow
//! parallelism) key off exactly this runtime-determinacy information, which
//! "is completely known at runtime" unlike compile-time approximations
//! (paper §1). A call is dispatched on its first argument when that is
//! bound; when it is not and the predicate has at least
//! [`ARG_INDEX_MIN_CLAUSES`] clauses, on its leftmost bound argument.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use crate::builtin::builtin;
use crate::code::{CompileScratch, CompiledCode, StepKind};
use crate::fxhash::FxHashMap;
use crate::heap::{Cell, Heap};
use crate::read::{parse_program, ReadClause, ReadError};
use crate::sym::{sym, wk, Sym};
use crate::term::{view, TermView};

/// A call whose first argument is unbound is dispatched on its leftmost
/// bound argument when its predicate has at least this many clauses.
/// Below it a scan costs at most seven failed head matches, and no index
/// beyond the first argument is ever built.
pub const ARG_INDEX_MIN_CLAUSES: usize = 8;

/// Argument index key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IndexKey {
    /// Clause head's first argument is a variable (matches anything), or
    /// the predicate has arity 0.
    Any,
    Atom(Sym),
    Int(i64),
    Struct(Sym, u32),
    /// A list pair `[_|_]`.
    List,
    Nil,
}

impl IndexKey {
    /// Compute the key of a term (used both for clause heads at load time
    /// and call arguments at runtime). Inlined, so a call's dispatch
    /// decision holds the key in registers rather than in a stack slot the
    /// callee wrote.
    #[inline]
    pub fn of(heap: &Heap, t: Cell) -> IndexKey {
        match view(heap, t) {
            TermView::Var(_) => IndexKey::Any,
            TermView::Atom(s) => IndexKey::Atom(s),
            TermView::Int(i) => IndexKey::Int(i),
            TermView::Struct(f, n, _) => IndexKey::Struct(f, n),
            TermView::List(_) => IndexKey::List,
            TermView::Nil => IndexKey::Nil,
        }
    }

    /// Could a clause with key `self` match a call with key `call`?
    #[inline]
    pub fn may_match(self, call: IndexKey) -> bool {
        self == IndexKey::Any || call == IndexKey::Any || self == call
    }
}

impl std::fmt::Display for IndexKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexKey::Any => write!(f, "var"),
            IndexKey::Atom(s) => f.write_str(s.name()),
            IndexKey::Int(i) => write!(f, "{i}"),
            IndexKey::Struct(s, n) => write!(f, "{}/{n}", s.name()),
            IndexKey::List => write!(f, "[_|_]"),
            IndexKey::Nil => write!(f, "[]"),
        }
    }
}

/// Dense id of a predicate in its [`Database`]: what a linked call step
/// and a clause choice point name instead of `name/arity`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PredId(pub u32);

/// Dense id of a clause with a body (a *rule*) in its [`Database`]: what a
/// continuation frame names to resume a compiled body. Facts have none.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClauseId(pub u32);

impl ClauseId {
    /// The id of every fact.
    const NONE: ClauseId = ClauseId(u32::MAX);
}

/// One program clause in relocatable form.
#[derive(Debug)]
pub struct Clause {
    /// Self-contained cell arena holding head and body: the cells alone,
    /// a stored clause neither binds nor grows.
    arena: Box<[Cell]>,
    /// Head term (arena-relative).
    head: Cell,
    /// Body term (arena-relative); the atom `true` for facts.
    body: Cell,
    /// First-argument index key of the head.
    pub key: IndexKey,
    /// Source position (clause number within its predicate), for tracing.
    pub ordinal: usize,
    /// Register-based compiled form (head code + body template), built
    /// once at load time and cached here.
    code: CompiledCode,
    /// Its rule id once a database holds it; [`ClauseId::NONE`] for facts.
    id: ClauseId,
}

impl Clause {
    /// Build from a parsed clause term (`Head`, or `Head :- Body`). The
    /// clause keeps the cells of the reader's arena as they are.
    pub fn from_read(
        rc: ReadClause,
        ordinal: usize,
        scratch: &mut CompileScratch,
    ) -> Result<Clause, String> {
        let ReadClause { arena, root } = rc;
        let (head, body) = match view(&arena, root) {
            TermView::Struct(f, 2, hdr) if f == wk().clause_neck => {
                (arena.str_arg(hdr, 0), arena.str_arg(hdr, 1))
            }
            _ => (root, Cell::Atom(wk().true_)),
        };
        let key = match view(&arena, head) {
            TermView::Atom(_) => IndexKey::Any,
            TermView::Struct(_, _, hdr) => IndexKey::of(&arena, arena.str_arg(hdr, 0)),
            other => {
                return Err(format!("invalid clause head: {other:?}"));
            }
        };
        let code = CompiledCode::compile(&arena, head, body, scratch);
        Ok(Clause {
            arena: arena.into_cells(),
            head,
            body,
            key,
            ordinal,
            code,
            id: ClauseId::NONE,
        })
    }

    /// The compiled form of this clause.
    pub fn code(&self) -> &CompiledCode {
        &self.code
    }

    /// The rule id of a clause with a body ([`Database::rule`] reads it
    /// back); `None` for a fact.
    pub fn id(&self) -> Option<ClauseId> {
        (self.id != ClauseId::NONE).then_some(self.id)
    }

    /// Head functor name and arity.
    pub fn head_functor(&self) -> (Sym, u32) {
        match self.head {
            Cell::Atom(s) => (s, 0),
            Cell::Str(hdr) => match self.arena[hdr.idx()] {
                Cell::Functor(f, n) => (f, n),
                _ => unreachable!("a Str cell points at its header"),
            },
            _ => unreachable!("validated in from_read"),
        }
    }

    /// The index key of head argument `arg` (0-based; the first is
    /// [`Clause::key`]), read from the arena. A stored clause binds
    /// nothing, so an argument `Ref` is a variable.
    pub fn arg_key(&self, arg: u32) -> IndexKey {
        let Cell::Str(hdr) = self.head else {
            return IndexKey::Any;
        };
        match self.arena[hdr.idx() + 1 + arg as usize] {
            Cell::Ref(_) => IndexKey::Any,
            Cell::Atom(s) => IndexKey::Atom(s),
            Cell::Int(i) => IndexKey::Int(i),
            Cell::Str(a) => match self.arena[a.idx()] {
                Cell::Functor(f, n) => IndexKey::Struct(f, n),
                _ => unreachable!("a Str cell points at its header"),
            },
            Cell::Lst(_) => IndexKey::List,
            Cell::Nil => IndexKey::Nil,
            Cell::Functor(..) => unreachable!("a Functor header is not an argument"),
        }
    }

    /// Number of arena cells (instantiation cost metric).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Instantiate this clause on `heap`: block-copy the arena with
    /// relocation and return the (head, body) cells valid in `heap`.
    ///
    /// Cost is one `memcpy`-like pass over the arena; every self-referential
    /// `Ref` cell becomes a fresh unbound variable automatically.
    pub fn instantiate(&self, heap: &mut Heap) -> (Cell, Cell) {
        let base = heap.len() as u32;
        heap.extend_relocated(&self.arena, base);
        (self.head.relocated(base), self.body.relocated(base))
    }
}

/// Switch-on-term dispatch table of one argument position: for every
/// concrete key seen at that position among the clause heads, the ordinals
/// of the clauses that may match a call with that key — the key's own
/// clauses *merged in source order* with the clauses whose argument there
/// is a variable. Built incrementally as clauses are added; chains are
/// ascending, so stepping to "the next matching clause after `i`" is a
/// binary search, and the match count of a call is one `len()`.
#[derive(Debug, Default)]
struct PredIndex {
    /// Ordinals of clauses whose key is `Any` (a variable argument).
    var_chain: Vec<u32>,
    /// Per concrete key: merged chain of that key's clauses + `Any` clauses.
    buckets: FxHashMap<IndexKey, Vec<u32>>,
}

impl PredIndex {
    fn add(&mut self, ordinal: u32, key: IndexKey) {
        match key {
            IndexKey::Any => {
                // A catch-all clause extends every chain.
                self.var_chain.push(ordinal);
                for chain in self.buckets.values_mut() {
                    chain.push(ordinal);
                }
            }
            k => {
                self.buckets
                    .entry(k)
                    .or_insert_with(|| self.var_chain.clone())
                    .push(ordinal);
            }
        }
    }

    /// The index of head argument `arg` over `clauses`, as if each had
    /// been added in turn.
    #[cold]
    #[inline(never)]
    fn build(clauses: &[Arc<Clause>], arg: u32) -> PredIndex {
        let mut index = PredIndex::default();
        for (ordinal, clause) in clauses.iter().enumerate() {
            index.add(ordinal as u32, clause.arg_key(arg));
        }
        index
    }

    /// The chain of a concrete key.
    #[inline]
    fn chain(&self, call: IndexKey) -> &[u32] {
        self.buckets.get(&call).map_or(&self.var_chain, |v| &v[..])
    }

    /// This table for diagnostics.
    fn table(&self) -> DispatchTable {
        let mut out: Vec<(String, Vec<u32>)> = self
            .buckets
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        out.sort();
        out.push(("var (fallback)".into(), self.var_chain.clone()));
        out
    }
}

/// One argument's dispatch table for diagnostics: `(key, chain)` pairs
/// sorted by key text, followed by the var fallback chain.
pub type DispatchTable = Vec<(String, Vec<u32>)>;

/// All clauses of one `name/arity` predicate.
#[derive(Debug)]
pub struct Predicate {
    pub name: Sym,
    pub arity: u32,
    pub clauses: Vec<Arc<Clause>>,
    /// All clause ordinals (the chain served to `Any` calls).
    all: Vec<u32>,
    /// The first-argument index, kept from load time on.
    index: PredIndex,
    /// The indexes of arguments 2 to the arity (slot `i` indexes 0-based
    /// argument `i + 1`), each built the first time a call is dispatched
    /// on its argument. Building one is load work: shared machines race
    /// to it through the `OnceLock`, and every one reads the same chains.
    arg_indexes: Box<[OnceLock<PredIndex>]>,
    /// Declared `:- table` (calls go through SLG evaluation).
    tabled: bool,
}

impl Predicate {
    fn new(name: Sym, arity: u32, tabled: bool) -> Predicate {
        Predicate {
            name,
            arity,
            clauses: Vec::new(),
            all: Vec::new(),
            index: PredIndex::default(),
            arg_indexes: (1..arity).map(|_| OnceLock::new()).collect(),
            tabled,
        }
    }

    /// Was this predicate declared tabled?
    #[inline]
    pub fn is_tabled(&self) -> bool {
        self.tabled
    }

    /// Append a clause, keeping the dispatch chains in sync: the
    /// first-argument index and every argument index already built.
    pub fn push(&mut self, clause: Arc<Clause>) {
        let ordinal = self.clauses.len() as u32;
        debug_assert_eq!(clause.ordinal, ordinal as usize);
        self.all.push(ordinal);
        self.index.add(ordinal, clause.key);
        for (slot, built) in self.arg_indexes.iter_mut().enumerate() {
            if let Some(index) = built.get_mut() {
                index.add(ordinal, clause.arg_key(slot as u32 + 1));
            }
        }
        self.clauses.push(clause);
    }

    /// The chain of clause ordinals a call dispatched on argument `arg`
    /// (0-based) with key `call` must try, in source order. Non-matching
    /// clauses are simply absent. The first call dispatched on an argument
    /// other than the first builds that argument's index.
    pub fn matching_chain(&self, arg: u32, call: IndexKey) -> &[u32] {
        if let IndexKey::Any = call {
            return &self.all;
        }
        // One bucket fetch for every argument: it stays inlined here.
        let index = if arg == 0 {
            &self.index
        } else {
            self.arg_index(arg)
        };
        index.chain(call)
    }

    /// The index of argument `arg` (`1..arity`), built on first use.
    #[inline(never)]
    fn arg_index(&self, arg: u32) -> &PredIndex {
        self.arg_indexes[arg as usize - 1].get_or_init(|| PredIndex::build(&self.clauses, arg))
    }

    /// Indices of clauses whose argument `arg` may match `call`, starting
    /// from clause `from`. Returns the first such index, or `None`. Served
    /// from the dispatch chains: a binary search, not a scan — and not
    /// even that on a chain as long as the clause list, which names every
    /// clause (an `Any` call, or a predicate whose arguments there are all
    /// variables): a retry over the whole predicate steps by one.
    pub fn next_matching(&self, arg: u32, call: IndexKey, from: usize) -> Option<usize> {
        let chain = self.matching_chain(arg, call);
        if chain.len() == self.clauses.len() {
            return (from < chain.len()).then_some(from);
        }
        let at = chain.partition_point(|&o| (o as usize) < from);
        chain.get(at).map(|&o| o as usize)
    }

    /// The interpreter oracle's linear scan over the raw clause list on
    /// the first argument — exactly what `next_matching` did before the
    /// dispatch chains. Kept for the interpreted execution mode (whose
    /// cost model charges the scan) and as a property-test oracle for the
    /// chains.
    pub fn next_matching_scan(&self, call: IndexKey, from: usize) -> Option<usize> {
        (from..self.clauses.len()).find(|&i| self.clauses[i].key.may_match(call))
    }

    /// The dispatch tables for diagnostics (`:listing`): the first
    /// argument's, then those of the other arguments whose index has been
    /// built, each with its 0-based position.
    pub fn index_buckets(&self) -> Vec<(u32, DispatchTable)> {
        let built = self.arg_indexes.iter().enumerate();
        let built = built.filter_map(|(slot, i)| Some((slot as u32 + 1, i.get()?.table())));
        std::iter::once((0, self.index.table()))
            .chain(built)
            .collect()
    }
}

/// Errors produced while loading a program into a database.
#[derive(Debug)]
pub enum LoadError {
    Read(ReadError),
    BadClause(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Read(e) => write!(f, "{e}"),
            LoadError::BadClause(m) => write!(f, "bad clause: {m}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<ReadError> for LoadError {
    fn from(e: ReadError) -> Self {
        LoadError::Read(e)
    }
}

/// The program database: immutable once loaded, shared by all machines via
/// `Arc<Database>`.
///
/// Predicates have dense ids ([`PredId`]) and so do clauses with a body
/// ([`ClauseId`]): the machine names both by id, so a linked call, a
/// clause retry and a body step find their code without hashing a name.
/// At the end of every [`Database::consult`] a *link pass* resolves each
/// body call step that names a user predicate to its id — a callee a later
/// consult defines is resolved then. Steps naming a builtin or control
/// construct (the [`mod@crate::builtin`] table `dispatch` reads too), a
/// variable goal or an undefined predicate stay unresolved and are
/// dispatched by functor at run time.
#[derive(Debug, Default)]
pub struct Database {
    /// `name/arity` -> id: the one hash of a predicate name, paid by calls
    /// built at run time (`call/1`, `findall/3`, queries).
    ids: FxHashMap<(Sym, u32), PredId>,
    preds: Vec<Predicate>,
    /// Every clause with a body, by [`ClauseId`].
    rules: Vec<Arc<Clause>>,
    /// Rules with a call step the link pass has not resolved and a later
    /// consult might: it names no builtin and no predicate defined yet.
    unlinked: Vec<ClauseId>,
    /// `?- Goal` / `:- Goal` directives in source order, each as its own
    /// arena (same relocatable representation as clause bodies).
    directives: Vec<Arc<Clause>>,
    /// Predicates declared tabled via `:- table(name/arity).`; the
    /// machine routes calls on these through SLG evaluation instead of
    /// plain clause resolution.
    tabled: HashSet<(Sym, u32)>,
    /// The clause compiler's buffers, reused from clause to clause.
    scratch: CompileScratch,
}

impl Database {
    pub fn new() -> Self {
        Database::default()
    }

    /// Parse and load a program text.
    pub fn load(src: &str) -> Result<Database, LoadError> {
        let mut db = Database::new();
        db.consult(src)?;
        Ok(db)
    }

    /// Add the clauses of `src` to this database, then run the link pass
    /// (see the type docs) over every rule still pending.
    pub fn consult(&mut self, src: &str) -> Result<(), LoadError> {
        for rc in parse_program(src)? {
            // Directive?
            if let TermView::Struct(f, 1, hdr) = view(&rc.arena, rc.root) {
                if f == wk().query_neck || f == wk().clause_neck {
                    let goal = rc.arena.str_arg(hdr, 0);
                    // `:- table(p/2, q/3).` declares tabled predicates;
                    // it is consumed at load time, not run as a goal.
                    if self.try_table_directive(&rc.arena, goal)? {
                        continue;
                    }
                    let head = Cell::Atom(wk().true_);
                    let code = CompiledCode::compile(&rc.arena, head, goal, &mut self.scratch);
                    self.directives.push(Arc::new(Clause {
                        arena: rc.arena.into_cells(),
                        head,
                        body: goal,
                        key: IndexKey::Any,
                        ordinal: self.directives.len(),
                        code,
                        id: ClauseId::NONE,
                    }));
                    continue;
                }
            }
            self.add_clause(rc).map_err(LoadError::BadClause)?;
        }
        self.link();
        Ok(())
    }

    /// Add one parsed clause. Its call steps stay unresolved until the
    /// next consult's link pass.
    pub fn add_clause(&mut self, rc: ReadClause) -> Result<(), String> {
        let mut clause = Clause::from_read(rc, 0, &mut self.scratch)?;
        let (name, arity) = clause.head_functor();
        let id = match self.ids.get(&(name, arity)) {
            Some(&id) => id,
            None => {
                let id = PredId(self.preds.len() as u32);
                let tabled = self.tabled.contains(&(name, arity));
                self.preds.push(Predicate::new(name, arity, tabled));
                self.ids.insert((name, arity), id);
                id
            }
        };
        let pred = &mut self.preds[id.0 as usize];
        clause.ordinal = pred.clauses.len();
        if clause.code.is_fact() {
            pred.push(Arc::new(clause));
            return Ok(());
        }
        clause.id = ClauseId(self.rules.len() as u32);
        let calls = clause.code.steps_all().any(|st| st.kind == StepKind::Goal);
        let clause = Arc::new(clause);
        if calls {
            self.unlinked.push(clause.id);
        }
        self.rules.push(Arc::clone(&clause));
        pred.push(clause);
        Ok(())
    }

    /// The link pass: resolve every pending call step that names a user
    /// predicate (and no builtin) to the predicate's id. Only rules are
    /// visited — a fact has no steps — and a rule stays pending while one
    /// of its call steps names a predicate nobody has defined yet.
    fn link(&mut self) {
        let Database {
            ids,
            rules,
            unlinked,
            ..
        } = self;
        unlinked.retain(|&id| {
            let mut pending = false;
            for st in rules[id.0 as usize].code.steps_all() {
                if st.kind != StepKind::Goal || st.callee.get().is_some() {
                    continue;
                }
                let Some((name, arity)) = st.functor() else {
                    continue; // a variable goal: dispatched by its value
                };
                if builtin(name, arity).is_some() {
                    continue;
                }
                match ids.get(&(name, arity)) {
                    Some(&pred) => st.callee.set(pred),
                    None => pending = true,
                }
            }
            pending
        });
    }

    /// If `goal` is a `table(Spec)` directive body, record its specs and
    /// return `Ok(true)`. Specs are `name/arity` terms, possibly joined
    /// by `,` — e.g. `:- table(path/2).` or `:- table(p/1, q/2).`.
    fn try_table_directive(&mut self, arena: &Heap, goal: Cell) -> Result<bool, LoadError> {
        let TermView::Struct(f, _, hdr) = view(arena, goal) else {
            return Ok(false);
        };
        if f != sym("table") {
            return Ok(false);
        }
        let TermView::Struct(_, n, _) = view(arena, goal) else {
            unreachable!()
        };
        let mut specs = Vec::new();
        for i in 0..n {
            self.collect_table_specs(arena, arena.str_arg(hdr, i), &mut specs)?;
        }
        for (name, arity) in specs {
            self.declare_tabled(name, arity);
        }
        Ok(true)
    }

    /// Walk a (possibly `,`-joined) table spec term, collecting
    /// `name/arity` pairs.
    fn collect_table_specs(
        &self,
        arena: &Heap,
        spec: Cell,
        out: &mut Vec<(Sym, u32)>,
    ) -> Result<(), LoadError> {
        match view(arena, spec) {
            TermView::Struct(f, 2, hdr) if f == wk().comma => {
                self.collect_table_specs(arena, arena.str_arg(hdr, 0), out)?;
                self.collect_table_specs(arena, arena.str_arg(hdr, 1), out)
            }
            TermView::Struct(f, 2, hdr) if f == wk().slash => {
                let name = view(arena, arena.str_arg(hdr, 0));
                let arity = view(arena, arena.str_arg(hdr, 1));
                match (name, arity) {
                    (TermView::Atom(s), TermView::Int(a)) if a >= 0 => {
                        out.push((s, a as u32));
                        Ok(())
                    }
                    _ => Err(LoadError::BadClause(
                        "table/1 expects name/arity specs".into(),
                    )),
                }
            }
            _ => Err(LoadError::BadClause(
                "table/1 expects name/arity specs".into(),
            )),
        }
    }

    /// Declare `name/arity` tabled programmatically (tests, embedding).
    pub fn declare_tabled(&mut self, name: Sym, arity: u32) {
        self.tabled.insert((name, arity));
        if let Some(&id) = self.ids.get(&(name, arity)) {
            self.preds[id.0 as usize].tabled = true;
        }
    }

    /// Was `name/arity` declared tabled?
    pub fn is_tabled(&self, name: Sym, arity: u32) -> bool {
        self.tabled.contains(&(name, arity))
    }

    /// Any tabled declarations at all? (Engines use this to skip tabled
    /// bookkeeping entirely on untabled programs.)
    pub fn has_tabled(&self) -> bool {
        !self.tabled.is_empty()
    }

    /// Look up a predicate.
    pub fn predicate(&self, name: Sym, arity: u32) -> Option<&Predicate> {
        self.pred_id(name, arity).map(|id| self.pred(id))
    }

    /// The id of `name/arity`, if it has clauses.
    #[inline]
    pub fn pred_id(&self, name: Sym, arity: u32) -> Option<PredId> {
        self.ids.get(&(name, arity)).copied()
    }

    /// The predicate with id `id` (an id this database handed out).
    #[inline]
    pub fn pred(&self, id: PredId) -> &Predicate {
        &self.preds[id.0 as usize]
    }

    /// The rule with id `id` (an id this database handed out).
    #[inline]
    pub fn rule(&self, id: ClauseId) -> &Clause {
        &self.rules[id.0 as usize]
    }

    /// The `?-`/`:-` directives found while loading, in order.
    pub fn directives(&self) -> &[Arc<Clause>] {
        &self.directives
    }

    /// Iterate all `(name, arity)` pairs defined, in order of definition
    /// (diagnostics).
    pub fn predicates(&self) -> impl Iterator<Item = (Sym, u32)> + '_ {
        self.preds.iter().map(|p| (p.name, p.arity))
    }

    /// Total clause count (diagnostics).
    pub fn clause_count(&self) -> usize {
        self.preds.iter().map(|p| p.clauses.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::sym;
    use crate::term::proper_list;
    use crate::unify::unify;

    const MEMBER: &str = r#"
        member(X, [X|_]).
        member(X, [_|T]) :- member(X, T).
    "#;

    #[test]
    fn load_and_lookup() {
        let db = Database::load(MEMBER).unwrap();
        let p = db.predicate(sym("member"), 2).unwrap();
        assert_eq!(p.clauses.len(), 2);
        assert_eq!(db.clause_count(), 2);
    }

    #[test]
    fn index_keys() {
        let db = Database::load(
            "p(a). p(b). p(42). p([H|T]) :- q(H, T). p([]). p(f(X)) :- r(X). p(Y) :- s(Y).",
        )
        .unwrap();
        let p = db.predicate(sym("p"), 1).unwrap();
        assert_eq!(p.clauses[0].key, IndexKey::Atom(sym("a")));
        assert_eq!(p.clauses[2].key, IndexKey::Int(42));
        assert_eq!(p.clauses[3].key, IndexKey::List);
        assert_eq!(p.clauses[4].key, IndexKey::Nil);
        assert_eq!(p.clauses[5].key, IndexKey::Struct(sym("f"), 1));
        assert_eq!(p.clauses[6].key, IndexKey::Any);

        // call p(a): matches clause 0 and the catch-all clause 6
        assert_eq!(p.matching_chain(0, IndexKey::Atom(sym("a"))).len(), 2);
        // call p(X): matches everything
        assert_eq!(p.matching_chain(0, IndexKey::Any).len(), 7);
        // call p(g(1)): only the catch-all
        assert_eq!(p.matching_chain(0, IndexKey::Struct(sym("g"), 1)).len(), 1);
        // determinacy: p(99) matches... Int(42) doesn't match 99
        assert_eq!(p.matching_chain(0, IndexKey::Int(99)).len(), 1);
    }

    #[test]
    fn next_matching_scans() {
        let db = Database::load("q(a). q(b). q(a).").unwrap();
        let p = db.predicate(sym("q"), 1).unwrap();
        let key = IndexKey::Atom(sym("a"));
        assert_eq!(p.next_matching(0, key, 0), Some(0));
        assert_eq!(p.next_matching(0, key, 1), Some(2));
        assert_eq!(p.next_matching(0, key, 3), None);
    }

    #[test]
    fn chain_dispatch_equals_linear_scan() {
        let db = Database::load(
            "p(a). p(b). p(42). p([H|T]) :- q(H, T). p([]). p(f(X)) :- r(X). p(Y) :- s(Y). p(a).",
        )
        .unwrap();
        let p = db.predicate(sym("p"), 1).unwrap();
        let keys = [
            IndexKey::Any,
            IndexKey::Atom(sym("a")),
            IndexKey::Atom(sym("zz")),
            IndexKey::Int(42),
            IndexKey::Int(7),
            IndexKey::List,
            IndexKey::Nil,
            IndexKey::Struct(sym("f"), 1),
            IndexKey::Struct(sym("f"), 2),
        ];
        for key in keys {
            for from in 0..=p.clauses.len() {
                assert_eq!(
                    p.next_matching(0, key, from),
                    p.next_matching_scan(key, from),
                    "key {key} from {from}"
                );
            }
        }
    }

    #[test]
    fn match_count_served_from_buckets() {
        // Regression for the O(clauses) determinacy probe: a call's match
        // count is its chain's len(). Include a catch-all added *after* concrete
        // clauses and concrete clauses added after the catch-all, so the
        // incremental merge is exercised in both directions.
        let db = Database::load("m(a). m(b). m(X) :- x(X). m(a). m(c).").unwrap();
        let p = db.predicate(sym("m"), 1).unwrap();
        assert_eq!(p.matching_chain(0, IndexKey::Atom(sym("a"))).len(), 3); // 0, 2, 3
        assert_eq!(p.matching_chain(0, IndexKey::Atom(sym("b"))).len(), 2); // 1, 2
        assert_eq!(p.matching_chain(0, IndexKey::Atom(sym("c"))).len(), 2); // 2, 4
        assert_eq!(p.matching_chain(0, IndexKey::Atom(sym("z"))).len(), 1); // 2 only
        assert_eq!(p.matching_chain(0, IndexKey::Any).len(), 5);
        assert_eq!(p.matching_chain(0, IndexKey::Atom(sym("a"))), &[0, 2, 3]);
        assert_eq!(p.matching_chain(0, IndexKey::Int(9)), &[2]);
    }

    #[test]
    fn index_buckets_are_reportable() {
        let db = Database::load("p(a). p(f(X)) :- q(X). p(Y) :- r(Y).").unwrap();
        let p = db.predicate(sym("p"), 1).unwrap();
        let indexes = p.index_buckets();
        assert_eq!(indexes.len(), 1, "no argument index is built at load");
        let (arg, buckets) = &indexes[0];
        assert_eq!(*arg, 0);
        assert!(buckets.iter().any(|(k, v)| k == "a" && v == &[0, 2]));
        assert!(buckets.iter().any(|(k, v)| k == "f/1" && v == &[1, 2]));
        assert!(buckets
            .iter()
            .any(|(k, v)| k.starts_with("var") && v == &[2]));
    }

    #[test]
    fn argument_index_is_built_on_demand_and_kept_in_step() {
        let mut db = Database::load("e(a, x). e(b, y). e(c, x). e(d, Z) :- z(Z).").unwrap();
        let x = IndexKey::Atom(sym("x"));
        let p = db.predicate(sym("e"), 2).unwrap();
        assert_eq!(p.index_buckets().len(), 1);
        assert_eq!(p.matching_chain(1, x), &[0, 2, 3]);
        assert_eq!(p.matching_chain(1, IndexKey::Int(1)), &[3]);
        assert_eq!(p.next_matching(1, x, 1), Some(2));
        assert_eq!(p.index_buckets().len(), 2, "argument 2's index is built");
        // Clauses added later extend the built index in step.
        db.consult("e(f, x). e(g, w).").unwrap();
        let p = db.predicate(sym("e"), 2).unwrap();
        assert_eq!(p.matching_chain(1, x), &[0, 2, 3, 4]);
        assert_eq!(p.matching_chain(1, IndexKey::Atom(sym("w"))), &[3, 5]);
        let (arg, buckets) = &p.index_buckets()[1];
        assert_eq!(*arg, 1);
        assert!(buckets.iter().any(|(k, v)| k == "y" && v == &[1, 3]));
    }

    #[test]
    fn instantiate_renames_variables() {
        let db = Database::load(MEMBER).unwrap();
        let p = db.predicate(sym("member"), 2).unwrap();
        let mut heap = Heap::new();
        let (h1, _) = p.clauses[0].instantiate(&mut heap);
        let (h2, _) = p.clauses[0].instantiate(&mut heap);
        // two instantiations have distinct variables: unifying them binds
        // fresh-to-fresh without clashing
        assert!(unify(&mut heap, h1, h2).is_some());
    }

    #[test]
    fn instantiated_clause_unifies_with_call() {
        let db = Database::load(MEMBER).unwrap();
        let p = db.predicate(sym("member"), 2).unwrap();
        let mut heap = Heap::new();
        // call: member(E, [1,2])
        let e = heap.new_var();
        let l = heap.list(&[Cell::Int(1), Cell::Int(2)]);
        let call = heap.new_struct(sym("member"), &[e, l]);
        let (head, body) = p.clauses[0].instantiate(&mut heap);
        assert!(unify(&mut heap, call, head).is_some());
        assert_eq!(heap.deref(e), Cell::Int(1));
        assert_eq!(heap.deref(body), Cell::Atom(wk().true_));
    }

    #[test]
    fn facts_have_true_body() {
        let db = Database::load("f(1).").unwrap();
        let p = db.predicate(sym("f"), 1).unwrap();
        let mut heap = Heap::default();
        let (_, body) = p.clauses[0].instantiate(&mut heap);
        assert_eq!(heap.deref(body), Cell::Atom(wk().true_));
    }

    #[test]
    fn directives_collected() {
        let db = Database::load("p(1). ?- p(X). :- p(1).").unwrap();
        assert_eq!(db.directives().len(), 2);
    }

    #[test]
    fn table_directive_declares_predicates() {
        let db = Database::load(
            ":- table(path/2).\n\
             path(X, Y) :- path(X, Z), edge(Z, Y).\n\
             path(X, Y) :- edge(X, Y).\n\
             edge(a, b).",
        )
        .unwrap();
        assert!(db.is_tabled(sym("path"), 2));
        assert!(!db.is_tabled(sym("edge"), 2));
        assert!(db.has_tabled());
        // the directive is consumed, not kept as a runnable goal
        assert_eq!(db.directives().len(), 0);
    }

    #[test]
    fn table_directive_accepts_comma_lists_and_multiple_args() {
        let db = Database::load(":- table(p/1, (q/2, r/0)). p(1). q(1,2). r.").unwrap();
        assert!(db.is_tabled(sym("p"), 1));
        assert!(db.is_tabled(sym("q"), 2));
        assert!(db.is_tabled(sym("r"), 0));
    }

    #[test]
    fn malformed_table_directive_is_rejected() {
        assert!(Database::load(":- table(p).").is_err());
        assert!(Database::load(":- table(p/x).").is_err());
    }

    #[test]
    fn declare_tabled_programmatically() {
        let mut db = Database::load("p(1).").unwrap();
        assert!(!db.has_tabled());
        db.declare_tabled(sym("p"), 1);
        assert!(db.is_tabled(sym("p"), 1));
    }

    #[test]
    fn zero_arity_predicates() {
        let db = Database::load("go :- step. step.").unwrap();
        assert!(db.predicate(sym("go"), 0).is_some());
        assert!(db.predicate(sym("step"), 0).is_some());
    }

    #[test]
    fn bad_head_rejected() {
        assert!(Database::load("42 :- q.").is_err());
        assert!(Database::load("[a] :- q.").is_err());
    }

    #[test]
    fn clause_arena_is_self_contained() {
        let db = Database::load("p([H|T], f(H)) :- q(T).").unwrap();
        let p = db.predicate(sym("p"), 2).unwrap();
        let c = &p.clauses[0];
        // every relocatable cell points within the arena
        for cell in c.arena.iter() {
            if let Cell::Ref(a) | Cell::Str(a) | Cell::Lst(a) = cell {
                assert!((a.idx()) < c.arena_len());
            }
        }
    }

    #[test]
    fn instantiate_list_heads() {
        let db = Database::load("first([H|_], H).").unwrap();
        let p = db.predicate(sym("first"), 2).unwrap();
        let mut heap = Heap::new();
        let x = heap.new_var();
        let l = heap.list(&[Cell::Int(7), Cell::Int(8)]);
        let call = heap.new_struct(sym("first"), &[l, x]);
        let (head, _) = p.clauses[0].instantiate(&mut heap);
        assert!(unify(&mut heap, call, head).is_some());
        assert_eq!(heap.deref(x), Cell::Int(7));
        let items = proper_list(&heap, l).unwrap();
        assert_eq!(items.len(), 2);
    }
}
