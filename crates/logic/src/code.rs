//! Clause compilation to a register-based code cache.
//!
//! The interpreter executes a call by block-copying the whole clause arena
//! into the runtime heap and then general-unifying the copied head against
//! the call (`Clause::instantiate` + `unify`). That pays for every arena
//! cell — including body cells that a failing head match never needed — and
//! runs the full unification machinery even when the head is a pattern that
//! could be matched by a handful of specialized comparisons.
//!
//! This module compiles each clause, once at load time, into:
//!
//! * **head code** — a flat sequence of WAM-flavored [`Instr`]s
//!   (`get_*`/`unify_*`) that matches the call's argument registers
//!   directly against the head pattern, binding call variables in place.
//!   Nested compounds are flattened through temporary *slots* (the WAM's
//!   X registers), so execution is a single non-recursive scan;
//! * **body steps** — the body's top-level conjunction flattened into
//!   per-conjunct templates (cells pre-relocated, variable occurrences
//!   either slot references or fresh self-references). Arithmetic tests
//!   (`<`, `=<`, …), `is/2` and `=/2` conjuncts are tagged for *inline*
//!   execution: the machine evaluates them straight off the template and
//!   the slot registers, so a failing guard never materializes the rest
//!   of the body, and an `( ArithTest -> Then ; Else )` body selects its
//!   branch at clause entry without allocating a choice point. Remaining
//!   goals materialize one at a time as the machine's body frame reaches
//!   them; a goal naming a user predicate carries that predicate's id once
//!   the database's link pass has run ([`BodyStep::callee`]), so calling it
//!   needs no lookup by name. Facts skip body work entirely.
//!
//! The executor ([`run_head`]) is read/write-mode WAM matching: against a
//! bound compound it walks the existing cells (read mode); against an
//! unbound variable it builds the pattern on the heap and binds (write
//! mode). Slot cells always denote heap terms — `UnifyVar` in write mode
//! allocates a real heap variable — so there is no unsafe-value problem.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::db::PredId;
use crate::heap::{Addr, Cell, Heap};
use crate::sym::{wk, Sym};
use crate::term::{view, TermView};
use crate::unify::unify;

/// Body-template addresses `>= SLOT_BASE` denote slot indices rather than
/// template-relative cells (`Ref(SLOT_BASE + s)` reads slot `s`).
pub const SLOT_BASE: u32 = 0x8000_0000;

/// Sentinel for a slot no instruction has written yet. `Addr(u32::MAX)`
/// can never be a real heap address (heaps are bounded well below it), so
/// the executor can distinguish "unset" from any captured cell — including
/// a captured `[]`.
pub const UNSET_SLOT: Cell = Cell::Ref(Addr(u32::MAX));

/// One compiled head instruction.
///
/// `Get*` instructions match an argument register of the call; `Slot*`
/// instructions match a deferred nested compound captured earlier into a
/// slot; `Unify*` instructions handle the subterms of the most recent
/// `Get*`/`Slot*` compound, in read or write mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Instr {
    /// First occurrence of a variable at argument `arg`: capture the raw
    /// argument cell into `slot`.
    GetVar { slot: u16, arg: u16 },
    /// Later occurrence: general-unify `slot` with argument `arg`.
    GetVal { slot: u16, arg: u16 },
    /// Argument `arg` must be the constant `what` (or an unbound variable,
    /// which is bound to it).
    GetConst { what: Cell, arg: u16 },
    /// Argument `arg` must be a structure `f/n` (read mode) or an unbound
    /// variable (write mode: build and bind). The next `n` instructions
    /// are `Unify*` forms handling the arguments.
    GetStruct { f: Sym, n: u32, arg: u16 },
    /// Argument `arg` must be a list pair; the next 2 instructions handle
    /// head and tail.
    GetList { arg: u16 },
    /// Like `GetStruct`, but matched against the term captured in `slot`
    /// (a flattened nested compound).
    SlotStruct { f: Sym, n: u32, slot: u16 },
    /// Like `GetList`, against `slot`.
    SlotList { slot: u16 },
    /// Subterm: first occurrence of a variable — capture (read) or
    /// allocate a fresh heap variable (write) into `slot`.
    UnifyVar { slot: u16 },
    /// Subterm: later occurrence — general-unify with `slot` (read) or
    /// push the slot's term (write).
    UnifyVal { slot: u16 },
    /// Subterm: the constant `what`.
    UnifyConst { what: Cell },
    /// Subterm: a variable that occurs nowhere else in the clause.
    UnifyVoid,
}

/// One conjunct's pre-relocated cell arena: slot references are encoded as
/// `Ref(SLOT_BASE + slot)`, internal addresses are template-relative.
#[derive(Debug, Clone)]
pub struct StepTemplate {
    pub cells: Vec<Cell>,
    pub root: Cell,
}

impl StepTemplate {
    /// Copy the template onto `heap`, resolving slot references. Returns
    /// the instantiated term and the number of cells written.
    #[inline]
    pub fn instantiate(&self, heap: &mut Heap, slots: &[Cell]) -> (Cell, usize) {
        let base = heap.len() as u32;
        heap.extend_mapped(&self.cells, |c| resolve(c, base, slots));
        (resolve(self.root, base, slots), self.cells.len())
    }
}

/// How the executor may run one body conjunct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Materialize the template and dispatch through the continuation.
    Goal,
    /// `A op B` arithmetic test — evaluable straight off the template and
    /// the slot registers, materializing nothing. Bails to
    /// [`StepKind::Goal`] treatment on anything non-arithmetic.
    Compare(Sym),
    /// `V is Expr` — template-evaluated; the result lands in `V`'s slot
    /// (or binds its heap variable) without building the goal term.
    Is,
    /// `A = B` — materialize the operands, then unify in place (skips the
    /// dispatch round-trip and the builtin lookup).
    Unify,
}

/// One conjunct of a compiled clause body.
#[derive(Debug, Clone)]
pub struct BodyStep {
    pub tpl: StepTemplate,
    pub kind: StepKind,
    /// The user predicate a [`StepKind::Goal`] step calls, once linked.
    pub callee: Callee,
}

impl BodyStep {
    /// Name and arity of the goal this step builds; `None` when its
    /// principal functor is only known at run time (a variable goal) or
    /// it is no callable term.
    pub fn functor(&self) -> Option<(Sym, u32)> {
        match self.tpl.root {
            Cell::Atom(s) => Some((s, 0)),
            Cell::Str(h) => match self.tpl.cells[h.idx()] {
                Cell::Functor(f, n) => Some((f, n)),
                _ => None,
            },
            _ => None,
        }
    }
}

/// The resolved callee of a call step. The database's link pass writes it
/// while it holds the database exclusively (`consult`); machines read it
/// only after the database has been shared, and whatever shares it (an
/// `Arc` handed to another thread) orders the write before their reads,
/// so `Relaxed` suffices. It is atomic because the database holds each
/// rule twice (in its predicate and in its rule table), so linking writes
/// through a shared reference; a read is a plain load.
pub struct Callee(AtomicU32);

impl Default for Callee {
    fn default() -> Self {
        Callee(AtomicU32::new(Self::UNSET))
    }
}

impl Callee {
    const UNSET: u32 = u32::MAX;

    /// The predicate this step calls, if linked.
    #[inline]
    pub fn get(&self) -> Option<PredId> {
        match self.0.load(Ordering::Relaxed) {
            Self::UNSET => None,
            id => Some(PredId(id)),
        }
    }

    pub(crate) fn set(&self, pred: PredId) {
        self.0.store(pred.0, Ordering::Relaxed);
    }
}

impl Clone for Callee {
    fn clone(&self) -> Self {
        Callee(AtomicU32::new(self.0.load(Ordering::Relaxed)))
    }
}

impl std::fmt::Debug for Callee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// Compiled body shape.
#[derive(Debug, Clone)]
pub enum CompiledBody {
    /// `true` — nothing to run ("proceed").
    Fact,
    /// Top-level conjunction, flattened into steps executed left to right.
    Steps(Vec<BodyStep>),
    /// `( Cond -> Then ; Else )` whose condition is an arithmetic test:
    /// decided at clause entry with **no choice point** (the test is
    /// deterministic, binds nothing, and the generic machinery would cut
    /// the else-alternative immediately anyway). Branches are step lists
    /// (branch 1 = then, branch 2 = else). If the test bails — an operand
    /// turns out unbound or non-numeric — the whole if-then-else is
    /// rebuilt and handed to the generic control machinery so errors
    /// surface identically to the interpreter.
    IfThenElse {
        cond_op: Sym,
        cond: StepTemplate,
        then_steps: Vec<BodyStep>,
        else_steps: Vec<BodyStep>,
    },
}

/// Compiled form of one clause, cached on the clause DB at load time.
#[derive(Debug, Clone)]
pub struct CompiledCode {
    nslots: u16,
    head: Vec<Instr>,
    body: CompiledBody,
    /// Slots first bound by the body (not touched by head code): any of
    /// these still [`UNSET_SLOT`] when a template is about to be copied
    /// get fresh heap variables (see [`CompiledCode::init_fresh_slots`]).
    body_fresh_slots: Vec<u16>,
}

/// Work metered by [`run_head`] / [`CompiledCode::instantiate_body`] so the
/// machine can charge its refined cost model (per instruction executed,
/// per heap cell written, per general-unification step).
#[derive(Clone, Copy, Default, Debug)]
pub struct ExecCost {
    pub instrs: u64,
    pub cells: u64,
    pub unify_steps: u64,
}

impl CompiledCode {
    /// Compile `head :- body` from its clause arena. `head` must be an
    /// atom or structure (validated by `Clause::from_read`). Works in
    /// `scratch`; what it allocates is what the compiled clause keeps.
    pub fn compile(
        arena: &Heap,
        head: Cell,
        body: Cell,
        scratch: &mut CompileScratch,
    ) -> CompiledCode {
        // A compile that panicked (slot overflow) may have left anything.
        scratch.vars.clear();
        scratch.vars.resize(arena.len(), VarUse::default());
        scratch.stack.clear();
        scratch.code.clear();
        scratch.work.clear();
        let mut c = Compiler {
            arena,
            s: scratch,
            nslots: 0,
        };
        c.count_vars(head);
        c.count_vars(body);
        if let TermView::Struct(_, n, hdr) = view(arena, head) {
            for i in 0..n {
                c.emit_arg(arena.str_arg(hdr, i), i as u16);
            }
            while let Some((slot, t)) = c.s.work.pop_front() {
                c.emit_deferred(slot, t);
            }
        }
        let head = c.s.code.as_slice().into();
        let mut fresh = Vec::new();
        let body = c.compile_body(body, &mut fresh);
        CompiledCode {
            nslots: c.nslots,
            head,
            body,
            body_fresh_slots: fresh,
        }
    }

    /// Number of variable/temporary slots the executor needs.
    pub fn nslots(&self) -> usize {
        self.nslots as usize
    }

    /// The head instruction sequence.
    pub fn head_code(&self) -> &[Instr] {
        &self.head
    }

    /// The compiled body shape.
    pub fn body(&self) -> &CompiledBody {
        &self.body
    }

    /// Total template cells across the body (instantiation cost metric).
    pub fn body_len(&self) -> usize {
        match &self.body {
            CompiledBody::Fact => 0,
            CompiledBody::Steps(steps) => steps.iter().map(|s| s.tpl.cells.len()).sum(),
            CompiledBody::IfThenElse {
                cond,
                then_steps,
                else_steps,
                ..
            } => {
                cond.cells.len()
                    + then_steps.iter().map(|s| s.tpl.cells.len()).sum::<usize>()
                    + else_steps.iter().map(|s| s.tpl.cells.len()).sum::<usize>()
            }
        }
    }

    /// Is the body the atom `true`? Facts skip body instantiation and
    /// body dispatch entirely.
    pub fn is_fact(&self) -> bool {
        matches!(self.body, CompiledBody::Fact)
    }

    /// Every body step, of every branch (the link pass walks these).
    pub fn steps_all(&self) -> impl Iterator<Item = &BodyStep> {
        let (a, b): (&[BodyStep], &[BodyStep]) = match &self.body {
            CompiledBody::Fact => (&[], &[]),
            CompiledBody::Steps(s) => (s, &[]),
            CompiledBody::IfThenElse {
                then_steps,
                else_steps,
                ..
            } => (then_steps, else_steps),
        };
        a.iter().chain(b)
    }

    /// The step list of `branch` (0 = plain conjunction, 1 = then,
    /// 2 = else).
    pub fn steps(&self, branch: u8) -> &[BodyStep] {
        match (&self.body, branch) {
            (CompiledBody::Steps(s), 0) => s,
            (CompiledBody::IfThenElse { then_steps, .. }, 1) => then_steps,
            (CompiledBody::IfThenElse { else_steps, .. }, 2) => else_steps,
            (b, n) => unreachable!("no branch {n} in {b:?}"),
        }
    }

    /// Fill every still-[`UNSET_SLOT`] body-first slot with a fresh heap
    /// variable (slots an inline `is` already scratch-set keep their
    /// integer — no heap cell is ever allocated for them). Must run
    /// before any body template is copied. Returns cells written.
    pub fn init_fresh_slots(&self, heap: &mut Heap, slots: &mut [Cell]) -> usize {
        let mut cells = 0;
        for &s in &self.body_fresh_slots {
            if slots[s as usize] == UNSET_SLOT {
                slots[s as usize] = heap.new_var();
                cells += 1;
            }
        }
        cells
    }

    /// Materialize steps `from..` of `branch` as one (right-nested)
    /// conjunction term. Returns the term and the cells written.
    pub fn materialize_steps(
        &self,
        heap: &mut Heap,
        slots: &[Cell],
        branch: u8,
        from: usize,
    ) -> (Cell, usize) {
        let steps = self.steps(branch);
        let mut cells = 0;
        let mut goals = Vec::with_capacity(steps.len() - from);
        for st in &steps[from..] {
            let (g, n) = st.tpl.instantiate(heap, slots);
            goals.push(g);
            cells += n;
        }
        let comma = wk().comma;
        let mut t = goals.pop().expect("empty step list");
        for g in goals.into_iter().rev() {
            t = heap.new_struct(comma, &[g, t]);
            cells += 3;
        }
        (t, cells)
    }

    /// Instantiate the whole body on `heap` as a single term — the
    /// interpreter-equivalent form, used when inline execution bails and
    /// by tooling. Initializes fresh slots first. Returns the body term
    /// and the heap cells written.
    pub fn instantiate_body(&self, heap: &mut Heap, slots: &mut [Cell]) -> (Cell, usize) {
        let mut cells = self.init_fresh_slots(heap, slots);
        let w = wk();
        match &self.body {
            CompiledBody::Fact => (Cell::Atom(w.true_), cells),
            CompiledBody::Steps(_) => {
                let (t, n) = self.materialize_steps(heap, slots, 0, 0);
                (t, cells + n)
            }
            CompiledBody::IfThenElse { cond, .. } => {
                let (c, n1) = cond.instantiate(heap, slots);
                let (t, n2) = self.materialize_steps(heap, slots, 1, 0);
                let (e, n3) = self.materialize_steps(heap, slots, 2, 0);
                let ite = heap.new_struct(w.arrow, &[c, t]);
                let whole = heap.new_struct(w.semicolon, &[ite, e]);
                cells += n1 + n2 + n3 + 6;
                (whole, cells)
            }
        }
    }

    /// Human-readable disassembly (repl `:listing`, examples, tests).
    pub fn disassemble(&self) -> Vec<String> {
        let cst = |c: &Cell| match *c {
            Cell::Atom(s) => s.name().to_owned(),
            Cell::Int(i) => i.to_string(),
            Cell::Nil => "[]".into(),
            other => format!("{other:?}"),
        };
        let mut out = Vec::with_capacity(self.head.len() + 1);
        for ins in &self.head {
            out.push(match *ins {
                Instr::GetVar { slot, arg } => format!("get_var       X{slot}, A{arg}"),
                Instr::GetVal { slot, arg } => format!("get_val       X{slot}, A{arg}"),
                Instr::GetConst { ref what, arg } => {
                    format!("get_const     {}, A{arg}", cst(what))
                }
                Instr::GetStruct { f, n, arg } => {
                    format!("get_struct    {}/{n}, A{arg}", f.name())
                }
                Instr::GetList { arg } => format!("get_list      A{arg}"),
                Instr::SlotStruct { f, n, slot } => {
                    format!("slot_struct   {}/{n}, X{slot}", f.name())
                }
                Instr::SlotList { slot } => format!("slot_list     X{slot}"),
                Instr::UnifyVar { slot } => format!("unify_var     X{slot}"),
                Instr::UnifyVal { slot } => format!("unify_val     X{slot}"),
                Instr::UnifyConst { ref what } => format!("unify_const   {}", cst(what)),
                Instr::UnifyVoid => "unify_void".into(),
            });
        }
        let step_line = |st: &BodyStep, indent: &str| match st.kind {
            StepKind::Goal => format!(
                "{indent}body_goal     % {} template cells",
                st.tpl.cells.len()
            ),
            StepKind::Compare(op) => format!("{indent}test          {}/2 % inline", op.name()),
            StepKind::Is => format!("{indent}eval_is       % inline, slot result"),
            StepKind::Unify => format!("{indent}get_value     % inline =/2"),
        };
        match &self.body {
            CompiledBody::Fact => out.push("proceed       % fact".into()),
            CompiledBody::Steps(steps) => {
                for st in steps {
                    out.push(step_line(st, ""));
                }
            }
            CompiledBody::IfThenElse {
                cond_op,
                then_steps,
                else_steps,
                ..
            } => {
                out.push(format!(
                    "switch_test   {}/2 % if-then-else, no choice point",
                    cond_op.name()
                ));
                for st in then_steps {
                    out.push(step_line(st, "  then: "));
                }
                for st in else_steps {
                    out.push(step_line(st, "  else: "));
                }
            }
        }
        if !self.is_fact() {
            out.push(format!(
                "% {} body template cells, {} fresh vars",
                self.body_len(),
                self.body_fresh_slots.len()
            ));
        }
        out
    }
}

#[inline]
fn resolve(c: Cell, base: u32, slots: &[Cell]) -> Cell {
    match c {
        Cell::Ref(a) if a.0 >= SLOT_BASE => slots[(a.0 - SLOT_BASE) as usize],
        other => other.relocated(base),
    }
}

/// What the compiler knows of the variable at one arena address.
#[derive(Clone, Copy, Debug, Default)]
struct VarUse {
    /// Occurrences in head and body.
    count: u32,
    /// Its slot, once it has one.
    slot: Option<u16>,
}

/// The buffers [`CompiledCode::compile`] works in. A caller that compiles
/// many clauses (the database) keeps one, so that the buffers' capacity
/// is reused and a compile allocates only what the compiled clause keeps.
#[derive(Debug, Default)]
pub struct CompileScratch {
    /// One entry per arena cell, indexed by variable address.
    vars: Vec<VarUse>,
    /// Term traversal (counting), the arguments of every template compound
    /// still open (innermost on top), and the conjuncts of a step list.
    stack: Vec<Cell>,
    /// Head code under construction.
    code: Vec<Instr>,
    /// Nested compounds deferred to keep each compound's `Unify*` group
    /// contiguous: `(slot holding the subterm, arena term)`, FIFO.
    work: VecDeque<(u16, Cell)>,
    /// The template of the step under construction.
    tpl: Vec<Cell>,
}

struct Compiler<'a> {
    arena: &'a Heap,
    s: &'a mut CompileScratch,
    nslots: u16,
}

impl<'a> Compiler<'a> {
    /// Add the variable occurrences in `t` to `vars`.
    fn count_vars(&mut self, t: Cell) {
        self.s.stack.push(t);
        while let Some(c) = self.s.stack.pop() {
            match view(self.arena, c) {
                TermView::Var(a) => self.s.vars[a.idx()].count += 1,
                TermView::Struct(_, n, hdr) => {
                    for i in 0..n {
                        self.s.stack.push(self.arena.str_arg(hdr, i));
                    }
                }
                TermView::List(p) => {
                    self.s.stack.push(self.arena.lst_head(p));
                    self.s.stack.push(self.arena.lst_tail(p));
                }
                _ => {}
            }
        }
    }

    fn occurs_once(&self, a: Addr) -> bool {
        self.s.vars[a.idx()].count == 1
    }

    /// Slot for variable `a`; the bool is `true` on first allocation.
    fn slot_of(&mut self, a: Addr) -> (u16, bool) {
        if let Some(s) = self.s.vars[a.idx()].slot {
            return (s, false);
        }
        let s = self.fresh_slot();
        self.s.vars[a.idx()].slot = Some(s);
        (s, true)
    }

    fn fresh_slot(&mut self) -> u16 {
        let s = self.nslots;
        self.nslots = self.nslots.checked_add(1).expect("clause slot overflow");
        s
    }

    fn emit_arg(&mut self, t: Cell, arg: u16) {
        match view(self.arena, t) {
            TermView::Var(a) => {
                if self.occurs_once(a) {
                    return; // single-occurrence argument: matches anything
                }
                let (slot, new) = self.slot_of(a);
                self.s.code.push(if new {
                    Instr::GetVar { slot, arg }
                } else {
                    Instr::GetVal { slot, arg }
                });
            }
            TermView::Atom(s) => self.s.code.push(Instr::GetConst {
                what: Cell::Atom(s),
                arg,
            }),
            TermView::Int(i) => self.s.code.push(Instr::GetConst {
                what: Cell::Int(i),
                arg,
            }),
            TermView::Nil => self.s.code.push(Instr::GetConst {
                what: Cell::Nil,
                arg,
            }),
            TermView::Struct(f, n, hdr) => {
                self.s.code.push(Instr::GetStruct { f, n, arg });
                for i in 0..n {
                    self.emit_child(self.arena.str_arg(hdr, i));
                }
            }
            TermView::List(p) => {
                self.s.code.push(Instr::GetList { arg });
                self.emit_child(self.arena.lst_head(p));
                self.emit_child(self.arena.lst_tail(p));
            }
        }
    }

    fn emit_child(&mut self, t: Cell) {
        match view(self.arena, t) {
            TermView::Var(a) => {
                if self.occurs_once(a) {
                    self.s.code.push(Instr::UnifyVoid);
                    return;
                }
                let (slot, new) = self.slot_of(a);
                self.s.code.push(if new {
                    Instr::UnifyVar { slot }
                } else {
                    Instr::UnifyVal { slot }
                });
            }
            TermView::Atom(s) => self.s.code.push(Instr::UnifyConst {
                what: Cell::Atom(s),
            }),
            TermView::Int(i) => self.s.code.push(Instr::UnifyConst { what: Cell::Int(i) }),
            TermView::Nil => self.s.code.push(Instr::UnifyConst { what: Cell::Nil }),
            TermView::Struct(..) | TermView::List(_) => {
                let tmp = self.fresh_slot();
                self.s.code.push(Instr::UnifyVar { slot: tmp });
                self.s.work.push_back((tmp, t));
            }
        }
    }

    fn emit_deferred(&mut self, slot: u16, t: Cell) {
        match view(self.arena, t) {
            TermView::Struct(f, n, hdr) => {
                self.s.code.push(Instr::SlotStruct { f, n, slot });
                for i in 0..n {
                    self.emit_child(self.arena.str_arg(hdr, i));
                }
            }
            TermView::List(p) => {
                self.s.code.push(Instr::SlotList { slot });
                self.emit_child(self.arena.lst_head(p));
                self.emit_child(self.arena.lst_tail(p));
            }
            _ => unreachable!("only compounds are deferred"),
        }
    }

    /// Compile the clause body. A top-level `,`-chain flattens into
    /// steps; `( ArithTest -> Then ; Else )` compiles to the inline
    /// if-then-else form; anything else is a single generic step.
    fn compile_body(&mut self, body: Cell, fresh: &mut Vec<u16>) -> CompiledBody {
        let w = wk();
        if let TermView::Atom(s) = view(self.arena, body) {
            if s == w.true_ {
                return CompiledBody::Fact;
            }
        }
        if let TermView::Struct(f, 2, hdr) = view(self.arena, body) {
            if f == w.semicolon {
                let lhs = self.arena.str_arg(hdr, 0);
                let els = self.arena.str_arg(hdr, 1);
                if let TermView::Struct(g, 2, ihdr) = view(self.arena, lhs) {
                    if g == w.arrow {
                        let cnd = self.arena.str_arg(ihdr, 0);
                        let thn = self.arena.str_arg(ihdr, 1);
                        if let Some(op) = self.arith_test_op(cnd) {
                            // Compile order fixes slot numbering; at run
                            // time only one branch executes, and
                            // `init_fresh_slots` covers whichever body
                            // variables that branch actually needs.
                            let cond = self.step_template(cnd, fresh);
                            let then_steps = self.compile_steps(thn, fresh);
                            let else_steps = self.compile_steps(els, fresh);
                            return CompiledBody::IfThenElse {
                                cond_op: op,
                                cond,
                                then_steps,
                                else_steps,
                            };
                        }
                    }
                }
            }
        }
        CompiledBody::Steps(self.compile_steps(body, fresh))
    }

    /// Is `t` an arithmetic comparison `A op B`?
    fn arith_test_op(&self, t: Cell) -> Option<Sym> {
        let w = wk();
        if let TermView::Struct(f, 2, _) = view(self.arena, t) {
            if f == w.lt
                || f == w.gt
                || f == w.le
                || f == w.ge
                || f == w.arith_eq
                || f == w.arith_ne
            {
                return Some(f);
            }
        }
        None
    }

    /// Flatten a top-level `,`-chain into one step per conjunct.
    fn compile_steps(&mut self, t: Cell, fresh: &mut Vec<u16>) -> Vec<BodyStep> {
        let w = wk();
        let mut cur = t;
        loop {
            match view(self.arena, cur) {
                TermView::Struct(f, 2, hdr) if f == w.comma => {
                    self.s.stack.push(self.arena.str_arg(hdr, 0));
                    cur = self.arena.str_arg(hdr, 1);
                }
                _ => {
                    self.s.stack.push(cur);
                    break;
                }
            }
        }
        // Templates build on the stack above the conjuncts, and clean up.
        let n = self.s.stack.len();
        let steps = (0..n)
            .map(|i| self.compile_step(self.s.stack[i], fresh))
            .collect();
        self.s.stack.clear();
        steps
    }

    fn compile_step(&mut self, g: Cell, fresh: &mut Vec<u16>) -> BodyStep {
        let w = wk();
        let kind = if let Some(op) = self.arith_test_op(g) {
            StepKind::Compare(op)
        } else {
            match view(self.arena, g) {
                TermView::Struct(f, 2, _) if f == w.is => StepKind::Is,
                TermView::Struct(f, 2, _) if f == w.unify => StepKind::Unify,
                _ => StepKind::Goal,
            }
        };
        BodyStep {
            tpl: self.step_template(g, fresh),
            kind,
            callee: Callee::default(),
        }
    }

    fn step_template(&mut self, t: Cell, fresh: &mut Vec<u16>) -> StepTemplate {
        self.s.tpl.clear();
        let root = self.build_template(t, fresh);
        StepTemplate {
            cells: self.s.tpl.clone(),
            root,
        }
    }

    fn build_template(&mut self, t: Cell, fresh: &mut Vec<u16>) -> Cell {
        match view(self.arena, t) {
            TermView::Var(a) => {
                if self.occurs_once(a) {
                    // Single occurrence: a template-relative self-reference
                    // becomes a fresh unbound variable on copy.
                    let p = Addr(self.s.tpl.len() as u32);
                    self.s.tpl.push(Cell::Ref(p));
                    Cell::Ref(p)
                } else {
                    let (slot, new) = self.slot_of(a);
                    if new {
                        fresh.push(slot);
                    }
                    Cell::Ref(Addr(SLOT_BASE + slot as u32))
                }
            }
            TermView::Atom(s) => Cell::Atom(s),
            TermView::Int(i) => Cell::Int(i),
            TermView::Nil => Cell::Nil,
            TermView::Struct(f, n, hdr) => {
                let mine = self.s.stack.len();
                for i in 0..n {
                    let sub = self.build_template(self.arena.str_arg(hdr, i), fresh);
                    self.s.stack.push(sub);
                }
                let h = Addr(self.s.tpl.len() as u32);
                self.s.tpl.push(Cell::Functor(f, n));
                self.s.tpl.extend_from_slice(&self.s.stack[mine..]);
                self.s.stack.truncate(mine);
                Cell::Str(h)
            }
            TermView::List(p) => {
                let hd = self.build_template(self.arena.lst_head(p), fresh);
                let tl = self.build_template(self.arena.lst_tail(p), fresh);
                let a = Addr(self.s.tpl.len() as u32);
                self.s.tpl.push(hd);
                self.s.tpl.push(tl);
                Cell::Lst(a)
            }
        }
    }
}

// ----------------------------------------------------------------------
// Executor
// ----------------------------------------------------------------------

enum GroupMode {
    /// Walking an existing compound: next subterm cell address.
    Read(Addr),
    /// Building the compound on the heap: each subterm pushes one cell.
    Write,
}

/// Execute compiled head code against the call whose structure header is
/// `goal_hdr` (`None` for arity 0). `slots` is caller-owned scratch,
/// resized internally. On failure the caller must undo the trail to its
/// pre-call mark; cost is reported either way.
pub fn run_head(
    heap: &mut Heap,
    code: &CompiledCode,
    goal_hdr: Option<Addr>,
    slots: &mut Vec<Cell>,
) -> (bool, ExecCost) {
    let mut cost = ExecCost::default();
    slots.clear();
    slots.resize(code.nslots as usize, UNSET_SLOT);
    let instrs = &code.head;
    let mut i = 0;
    while i < instrs.len() {
        cost.instrs += 1;
        let arg_cell = |heap: &Heap, arg: u16| {
            let hdr = goal_hdr.expect("head code on arity-0 call");
            heap.str_arg(hdr, arg as u32)
        };
        match instrs[i] {
            Instr::GetVar { slot, arg } => {
                slots[slot as usize] = arg_cell(heap, arg);
            }
            Instr::GetVal { slot, arg } => {
                let a = arg_cell(heap, arg);
                let s = slots[slot as usize];
                match unify(heap, s, a) {
                    Some(steps) => cost.unify_steps += steps as u64,
                    None => return (false, cost),
                }
            }
            Instr::GetConst { what, arg } => {
                let a = arg_cell(heap, arg);
                if !match_const(heap, a, what) {
                    return (false, cost);
                }
            }
            Instr::GetStruct { f, n, arg } => {
                let a = arg_cell(heap, arg);
                let Some(mode) = enter_struct(heap, a, f, n, &mut cost) else {
                    return (false, cost);
                };
                if !run_group(heap, instrs, &mut i, n as usize, mode, slots, &mut cost) {
                    return (false, cost);
                }
            }
            Instr::GetList { arg } => {
                let a = arg_cell(heap, arg);
                let Some(mode) = enter_list(heap, a, &mut cost) else {
                    return (false, cost);
                };
                if !run_group(heap, instrs, &mut i, 2, mode, slots, &mut cost) {
                    return (false, cost);
                }
            }
            Instr::SlotStruct { f, n, slot } => {
                let s = slots[slot as usize];
                let Some(mode) = enter_struct(heap, s, f, n, &mut cost) else {
                    return (false, cost);
                };
                if !run_group(heap, instrs, &mut i, n as usize, mode, slots, &mut cost) {
                    return (false, cost);
                }
            }
            Instr::SlotList { slot } => {
                let s = slots[slot as usize];
                let Some(mode) = enter_list(heap, s, &mut cost) else {
                    return (false, cost);
                };
                if !run_group(heap, instrs, &mut i, 2, mode, slots, &mut cost) {
                    return (false, cost);
                }
            }
            Instr::UnifyVar { .. }
            | Instr::UnifyVal { .. }
            | Instr::UnifyConst { .. }
            | Instr::UnifyVoid => {
                unreachable!("Unify* outside a compound group")
            }
        }
        i += 1;
    }
    (true, cost)
}

/// Match a (possibly unbound) term against the constant `what`.
#[inline]
fn match_const(heap: &mut Heap, t: Cell, what: Cell) -> bool {
    match heap.deref(t) {
        Cell::Ref(a) => {
            heap.bind(a, what);
            true
        }
        v => v == what,
    }
}

/// Match `t` against a structure `f/n`: read mode over an existing match,
/// write mode (build + bind) against an unbound variable.
#[inline]
fn enter_struct(
    heap: &mut Heap,
    t: Cell,
    f: Sym,
    n: u32,
    cost: &mut ExecCost,
) -> Option<GroupMode> {
    match heap.deref(t) {
        Cell::Str(h) if heap.functor_at(h) == (f, n) => Some(GroupMode::Read(h.offset(1))),
        Cell::Ref(a) => {
            let hdr = heap.push(Cell::Functor(f, n));
            cost.cells += 1;
            heap.bind(a, Cell::Str(hdr));
            Some(GroupMode::Write)
        }
        _ => None,
    }
}

#[inline]
fn enter_list(heap: &mut Heap, t: Cell, _cost: &mut ExecCost) -> Option<GroupMode> {
    match heap.deref(t) {
        Cell::Lst(p) => Some(GroupMode::Read(p)),
        Cell::Ref(a) => {
            let pair = Addr(heap.len() as u32);
            heap.bind(a, Cell::Lst(pair));
            Some(GroupMode::Write)
        }
        _ => None,
    }
}

/// Run the `n` `Unify*` instructions following `*i` in `mode`. Advances
/// `*i` past the group. In write mode each subterm instruction pushes
/// exactly one cell, so the compound's argument cells end up contiguous.
fn run_group(
    heap: &mut Heap,
    instrs: &[Instr],
    i: &mut usize,
    n: usize,
    mode: GroupMode,
    slots: &mut [Cell],
    cost: &mut ExecCost,
) -> bool {
    let mut s = match mode {
        GroupMode::Read(a) => Some(a),
        GroupMode::Write => None,
    };
    for _ in 0..n {
        *i += 1;
        cost.instrs += 1;
        let sub = s.map(|a| heap.cell(a));
        match (instrs[*i], sub) {
            // Read mode: `sub` is the existing cell at the cursor.
            (Instr::UnifyVar { slot }, Some(c)) => slots[slot as usize] = c,
            (Instr::UnifyVal { slot }, Some(c)) => match unify(heap, slots[slot as usize], c) {
                Some(steps) => cost.unify_steps += steps as u64,
                None => return false,
            },
            (Instr::UnifyConst { what }, Some(c)) => {
                if !match_const(heap, c, what) {
                    return false;
                }
            }
            (Instr::UnifyVoid, Some(_)) => {}
            // Write mode: push one cell per subterm.
            (Instr::UnifyVar { slot }, None) => {
                slots[slot as usize] = heap.new_var();
                cost.cells += 1;
            }
            (Instr::UnifyVal { slot }, None) => {
                heap.push(slots[slot as usize]);
                cost.cells += 1;
            }
            (Instr::UnifyConst { what }, None) => {
                heap.push(what);
                cost.cells += 1;
            }
            (Instr::UnifyVoid, None) => {
                heap.new_var();
                cost.cells += 1;
            }
            (other, _) => unreachable!("non-Unify instruction {other:?} inside a group"),
        }
        s = s.map(|a| a.offset(1));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::sym::sym;
    use crate::term::proper_list;
    use crate::write::term_to_string;

    fn clause_code(
        src: &str,
        name: &str,
        arity: u32,
        idx: usize,
    ) -> std::sync::Arc<crate::db::Clause> {
        let db = Database::load(src).unwrap();
        db.predicate(sym(name), arity).unwrap().clauses[idx].clone()
    }

    fn exec(clause: &crate::db::Clause, heap: &mut Heap, goal: Cell) -> (bool, Vec<Cell>) {
        let mut slots = Vec::new();
        let hdr = match heap.deref(goal) {
            Cell::Str(h) => Some(h),
            _ => None,
        };
        let (ok, _) = run_head(heap, clause.code(), hdr, &mut slots);
        (ok, slots)
    }

    #[test]
    fn fact_head_matches_and_binds() {
        let c = clause_code("p(a, f(1, X), X).", "p", 3, 0);
        let mut h = Heap::new();
        let v1 = h.new_var();
        let goal = h.new_struct(sym("p"), &[Cell::Atom(sym("a")), v1, Cell::Int(9)]);
        let (ok, _) = exec(&c, &mut h, goal);
        assert!(ok);
        // v1 was built in write mode as f(1, X) with X shared with arg 2
        assert_eq!(term_to_string(&h, v1), "f(1,9)");
    }

    #[test]
    fn head_mismatch_fails() {
        let c = clause_code("p(a).", "p", 1, 0);
        let mut h = Heap::new();
        let goal = h.new_struct(sym("p"), &[Cell::Atom(sym("b"))]);
        let (ok, _) = exec(&c, &mut h, goal);
        assert!(!ok);
    }

    #[test]
    fn compiled_equals_interpreted_on_member_head() {
        let src = "member(X, [X|_]). member(X, [_|T]) :- member(X, T).";
        let c0 = clause_code(src, "member", 2, 0);
        let c1 = clause_code(src, "member", 2, 1);

        // member(E, [1,2]) against clause 0: binds E = 1.
        let mut h = Heap::new();
        let e = h.new_var();
        let l = h.list(&[Cell::Int(1), Cell::Int(2)]);
        let goal = h.new_struct(sym("member"), &[e, l]);
        let (ok, _) = exec(&c0, &mut h, goal);
        assert!(ok);
        assert_eq!(h.deref(e), Cell::Int(1));

        // clause 1: head matches, body is member(E, [2]).
        let mut h = Heap::new();
        let e = h.new_var();
        let l = h.list(&[Cell::Int(1), Cell::Int(2)]);
        let goal = h.new_struct(sym("member"), &[e, l]);
        let mut slots = Vec::new();
        let Cell::Str(hdr) = h.deref(goal) else {
            unreachable!()
        };
        let (ok, _) = run_head(&mut h, c1.code(), Some(hdr), &mut slots);
        assert!(ok);
        assert!(h.is_unbound(h.deref(e)));
        let (body, _) = c1.code().instantiate_body(&mut h, &mut slots);
        let s = term_to_string(&h, body);
        assert!(s.starts_with("member(") && s.ends_with(",[2])"), "{s}");
    }

    #[test]
    fn facts_skip_body_template() {
        let c = clause_code("p(a).", "p", 1, 0);
        assert!(c.code().is_fact());
        assert_eq!(c.code().body_len(), 0);
    }

    #[test]
    fn nested_structs_flatten_without_recursion() {
        let c = clause_code("p(f(g(h(1)), X), X).", "p", 2, 0);
        let code = c.code();
        // flattened: get_struct f, unify_var tmp(g), unify_var X,
        // get_val X(A1 handled as get_var/get_val), slot_struct g, ...
        assert!(code
            .head_code()
            .iter()
            .any(|i| matches!(i, Instr::SlotStruct { .. })));

        // read-mode match against a fully bound call
        let mut h = Heap::new();
        let one = h.new_struct(sym("h"), &[Cell::Int(1)]);
        let g = h.new_struct(sym("g"), &[one]);
        let f = h.new_struct(sym("f"), &[g, Cell::Int(7)]);
        let goal = h.new_struct(sym("p"), &[f, Cell::Int(7)]);
        let (ok, _) = exec(&c, &mut h, goal);
        assert!(ok);

        // and failure when the shared variable disagrees
        let mut h = Heap::new();
        let one = h.new_struct(sym("h"), &[Cell::Int(1)]);
        let g = h.new_struct(sym("g"), &[one]);
        let f = h.new_struct(sym("f"), &[g, Cell::Int(7)]);
        let goal = h.new_struct(sym("p"), &[f, Cell::Int(8)]);
        let (ok, _) = exec(&c, &mut h, goal);
        assert!(!ok);
    }

    #[test]
    fn write_mode_builds_ground_pattern() {
        let c = clause_code("p([a, f(B), B]).", "p", 1, 0);
        let mut h = Heap::new();
        let v = h.new_var();
        let goal = h.new_struct(sym("p"), &[v]);
        let (ok, _) = exec(&c, &mut h, goal);
        assert!(ok);
        let items = proper_list(&h, h.deref(v)).unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(h.deref(items[0]), Cell::Atom(sym("a")));
    }

    #[test]
    fn trail_undo_restores_failed_match() {
        // p(a, b): first arg binds, second fails — undo must release both.
        let c = clause_code("p(a, b).", "p", 2, 0);
        let mut h = Heap::new();
        let v = h.new_var();
        let goal = h.new_struct(sym("p"), &[v, Cell::Atom(sym("c"))]);
        let mark = h.trail_mark();
        let (ok, _) = exec(&c, &mut h, goal);
        assert!(!ok);
        h.undo_to(mark);
        assert!(h.is_unbound(h.deref(v)));
    }

    #[test]
    fn body_template_shares_head_variables() {
        let c = clause_code("q(X, Y) :- r(Y, X, Z), s(Z).", "q", 2, 0);
        let mut h = Heap::new();
        let goal = h.new_struct(sym("q"), &[Cell::Int(1), Cell::Int(2)]);
        let mut slots = Vec::new();
        let Cell::Str(hdr) = h.deref(goal) else {
            unreachable!()
        };
        let (ok, _) = run_head(&mut h, c.code(), Some(hdr), &mut slots);
        assert!(ok);
        let (body, _) = c.code().instantiate_body(&mut h, &mut slots);
        let s = term_to_string(&h, body);
        assert!(s.starts_with("r(2,1,"), "{s}");
    }

    #[test]
    fn zero_arity_heads_have_no_code() {
        let c = clause_code("go :- step. step.", "go", 0, 0);
        assert!(c.code().head_code().is_empty());
        assert!(!c.code().is_fact());
    }

    #[test]
    fn disassembly_mentions_instructions() {
        let c = clause_code("member(X, [X|_]).", "member", 2, 0);
        let lines = c.code().disassemble().join("\n");
        assert!(lines.contains("get_list"), "{lines}");
        assert!(lines.contains("proceed"), "{lines}");
    }

    #[test]
    fn exec_cost_reports_work() {
        let c = clause_code("p(f(1, 2, 3)).", "p", 1, 0);
        let mut h = Heap::new();
        let v = h.new_var();
        let goal = h.new_struct(sym("p"), &[v]);
        let mut slots = Vec::new();
        let Cell::Str(hdr) = h.deref(goal) else {
            unreachable!()
        };
        let (ok, cost) = run_head(&mut h, c.code(), Some(hdr), &mut slots);
        assert!(ok);
        assert!(cost.instrs >= 4, "{cost:?}");
        assert!(cost.cells >= 4, "{cost:?}"); // functor + 3 args
    }
}
