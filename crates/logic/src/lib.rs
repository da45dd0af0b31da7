//! # ace-logic — logic-programming substrate
//!
//! The term, unification and program representation layer underneath the
//! ACE-style parallel engines in this workspace. It is a self-contained,
//! dependency-free reconstruction of the parts of a WAM-like Prolog runtime
//! that the IPPS'97 optimization schemas act upon:
//!
//! * a **flat cell heap** ([`heap::Heap`]) with dereferencing, binding and a
//!   **trail** supporting exact state restoration on backtracking — the
//!   substrate nondeterministic systems need to "restore the computation to
//!   every point where a choice was made" (paper §2);
//! * **iterative unification** ([`unify`]), without occurs check;
//! * **term copying** ([`copy`]) between independent heaps — the basis of
//!   goal shipping for independent and-parallelism and of MUSE-style state
//!   copying for or-parallelism;
//! * a **reader** ([`read`]) for a practical Prolog subset including the
//!   `&` parallel-conjunction operator used by &ACE program annotations;
//! * a **writer** ([`mod@write`]) producing canonical or operator-aware text;
//! * a **clause database** ([`db`]) with first-argument indexing, storing
//!   clauses as relocatable cell arenas so that clause instantiation is a
//!   single block copy with address relocation, and body calls linked to
//!   their predicates at load time;
//! * the **builtin table** ([`mod@builtin`]): which goals a user predicate
//!   can never define.
//!
//! Everything here is engine-agnostic: the sequential machine
//! (`ace-machine`), the and-parallel engine (`ace-and`) and the or-parallel
//! engine (`ace-or`) are all built on these types.

pub mod builtin;
pub mod canon;
pub mod code;
pub mod copy;
pub mod db;
pub mod fxhash;
pub mod heap;
pub mod read;
pub mod sym;
pub mod term;
pub mod unify;
pub mod write;

pub use builtin::{builtin, Builtin};
pub use canon::{CanonKey, CanonScratch, TermArena};
pub use code::{
    run_head, BodyStep, Callee, CompiledBody, CompiledCode, ExecCost, Instr, StepKind,
    StepTemplate, TermTest, TestOp,
};
pub use db::{Clause, ClauseId, Database, IndexKey, PredId, Predicate};
pub use heap::{Addr, Cell, Heap, TrailMark};
pub use read::{parse_program, parse_term, ReadError};
pub use sym::{sym, Sym};
pub use term::TermView;
