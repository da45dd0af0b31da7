//! # ace-and — the independent and-parallel engine (&ACE model)
//!
//! Executes programs annotated with the `&` parallel conjunction in the
//! style of the &ACE system the paper uses as its testbed (§2.3):
//!
//! * reaching a parallel conjunction allocates a **parcall frame** with one
//!   slot per subgoal and publishes the subgoals for pickup by idle
//!   workers (goal shipping — goals are *independent*, so each subgoal is
//!   copied into the executing worker's machine and its solved instance
//!   copied back and unified at integration time);
//! * a worker picking up a remote subgoal allocates an **input marker**,
//!   and an **end marker** on completion, delimiting the subgoal's stack
//!   section exactly as in Figure 2 of the paper;
//! * **inside backtracking**: a subgoal with no solution fails the whole
//!   parallel call in its sibling-cancellation sweep;
//! * **outside backtracking**: when a later goal fails back into the
//!   parcall frame, the rightmost nondeterministic subgoal (kept alive as a
//!   resumable generator machine) produces its next solution; subgoals to
//!   its right are re-executed — standard cross-product order.
//!
//! On top of this baseline the three paper schemas are implemented as
//! toggleable optimizations:
//!
//! * **LPCO** (`flattening`): a determinate, rightmost subgoal whose clause
//!   ends in a parallel call *reuses the enclosing parcall frame* — its new
//!   subgoals become additional slots instead of a nested frame, so
//!   `process_list/2`-style recursion flattens into one wide frame
//!   (paper Figure 4) and failure/redo scan one slot vector instead of a
//!   frame chain.
//! * **SPO** (`procrastination`): marker allocation is delayed until a
//!   choice point is created inside the subgoal; deterministic subgoals
//!   never allocate markers — only their trail section is noted.
//! * **PDO** (`sequentialization`): when the scheduler hands a worker the
//!   subgoal that sequentially follows the one it just finished, the two
//!   run as one contiguous computation on the same machine with no markers
//!   in between — `(a & b & c)` degrades to `((a, b) & c)`.

pub mod engine;
pub mod frame;
pub mod sched;
pub mod worker;

pub use engine::{AndEngine, AndReport};
pub use frame::{FrameStage, FrameState, Local};
