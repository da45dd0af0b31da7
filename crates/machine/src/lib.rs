//! # ace-machine — the sequential nondeterministic solver machine
//!
//! A steppable, resumable interpreter for the logic programs represented by
//! `ace-logic`. One [`Machine`] is one *computing agent's* view of a
//! (sub)computation: a goal continuation, a control stack of choice points
//! / parcall frames / markers, a heap and a trail.
//!
//! Design points that matter for the paper reproduction:
//!
//! * **Steppable**: [`Machine::run`] executes at most a quantum of virtual
//!   cost and returns a [`Status`]. Parallel engines drive many machines
//!   cooperatively (virtual-time simulation) or from real threads; nothing
//!   in here blocks.
//! * **The control stack is real.** Choice points, parcall frames, and
//!   input/end markers are actual frames ([`frames`]) pushed, traversed and
//!   popped — so the cost of allocating and walking them (what the paper's
//!   optimizations eliminate) is charged where it occurs.
//! * **Resumable nondeterminism**: after a [`Status::Solution`], calling
//!   [`Machine::backtrack`] resumes the search; a machine is a solution
//!   generator, which is exactly what the and-parallel engine keeps per
//!   nondeterministic slot for outside backtracking.
//! * **Runtime determinacy is observable**:
//!   [`Machine::is_deterministic_above`] answers "did any choice point
//!   survive since this control height?" — the trigger condition for the
//!   shallow-parallelism and last-parallel-call optimizations.

pub mod arith;
pub mod builtins;
pub mod cont;
pub mod frames;
#[allow(clippy::module_inception)]
pub mod machine;
pub mod pool;
pub mod solve;

pub use cont::{Cont, ContMark, ContNode, ContStack};
pub use frames::{Alts, ChoicePoint, CtrlFrame, Marker, MarkerKind, ParcallFrame};
pub use machine::{Machine, Status};
pub use pool::MachinePool;
pub use solve::{binding_order, Solution, Solver};
