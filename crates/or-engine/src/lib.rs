//! # ace-or — the or-parallel engine (MUSE/Aurora model) with LAO
//!
//! Explores the alternatives of nondeterministic calls in parallel. The
//! design follows the systems the paper cites as instances of its
//! *sequentialization* schema (§4 — Muse, Aurora):
//!
//! * the search tree is split into a **private** part (each worker executes
//!   plain sequential backtracking on its own machine — "when a processor
//!   is in the private part of the search tree, execution is exactly as in
//!   a sequential Prolog system") and a **public** part — the shared
//!   **or-tree** of published choice points ([`ace_runtime::ortree`], the
//!   tree `ace-fd`'s labeling search runs on too);
//! * a choice point is **published** on demand, when idle workers exist:
//!   its untried clause alternatives move into the node's shared pool, and
//!   the machine state needed to run them is frozen only when a remote
//!   worker first asks for it (MUSE-style state copying, procrastinated,
//!   via [`ace_machine::Machine::choice_closure`]);
//! * an **idle worker finds work in O(1)** through the sharded
//!   [`ace_runtime::ortree::AltPool`]: publication enqueues a handle to the
//!   published node, an idle worker dequeues one and claims from it
//!   directly. The original full-tree traversal
//!   ([`ace_runtime::OrScheduler::Traversal`]) is kept as the oracle the
//!   pool is validated against — under it every node visited is charged,
//!   so deep chains of single-alternative choice points (the `member/2`
//!   pattern of Figure 6) make work-finding expensive, which is the cost
//!   the paper's *flattening* schema attacks;
//! * **LAO** (Last Alternative Optimization, §3.2): when the last
//!   alternative of node `B1` is taken and the continuing computation
//!   immediately publishes its next choice point, the engine *reuses*
//!   `B1` in place — new alternatives and closure are installed into the
//!   same node (Figure 7), keeping the public tree shallow and work-finding
//!   cheap.
//!
//! This crate keeps what is Prolog's: which machine choice point to
//! publish (table floor, memo-complete check, clause indexing), installing
//! a claimed clause on a machine, and answer buffering.
//!
//! Restrictions (documented, standard for or-parallel Prologs): programs
//! must not cut across a published choice point, and only clause-selection
//! choice points are published (`;`/`between` alternatives stay private).

pub mod engine;

pub use engine::{OrEngine, OrReport};
