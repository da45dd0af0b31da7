//! # ace-fd — the optimization schemas on a second nondeterministic system
//!
//! The paper closes by claiming its schemas "can be readily applied to
//! other nondeterministic systems such as parallel theorem proving
//! systems, parallel rule based and AI systems, and parallel
//! implementations of constraint and concurrent constraint languages",
//! and its reference \[6\] applies LAO to a parallel CLP(FD). This crate
//! substantiates that claim inside this reproduction: a small but real
//! **finite-domain constraint solver** (bit-set domains, propagation to
//! fixpoint, first-fail labeling) whose or-parallel labeling search runs
//! on the Prolog or-engine's own public or-tree ([`ace_runtime::ortree`]):
//! the same node, alternative pool, deferred capture, work finding and
//! **Last Alternative Optimization**, instantiated with a domain snapshot
//! as the closure a claimant installs.
//!
//! * a labeling step is a choice point (variable × remaining values);
//! * publishing one moves its untried values into a shared node and
//!   copies nothing: the domain state is frozen once, when a remote
//!   worker first asks for it (procrastinated capture — domains are plain
//!   bit vectors, so the snapshot is cheap and exact);
//! * idle workers find work through the tree's alternative pool in O(1),
//!   or by walking the tree under the traversal oracle
//!   (`cfg.oracle.or_scheduler`), over the run's `cfg.run.topology`;
//! * **LAO**: taking the last value of node `B1` and immediately creating
//!   the next labeling choice point reuses `B1` in place, keeping the
//!   public tree shallow.
//!
//! What is fd's own: first-fail labeling, propagation, and freezing and
//! thawing the domain vector.
//!
//! ```
//! use ace_fd::{queens, Fd};
//! use ace_runtime::{EngineConfig, OptFlags};
//!
//! let problem = queens(6);
//! let cfg = EngineConfig::default()
//!     .with_workers(4)
//!     .with_opts(OptFlags::lao_only())
//!     .all_solutions();
//! let report = Fd::new(problem).solve_all(&cfg);
//! assert_eq!(report.solutions.len(), 4);
//! ```

pub mod domain;
pub mod problem;
pub mod propagate;
pub mod search;

pub use domain::BitDomain;
pub use problem::{queens, Constraint, Problem};
pub use propagate::propagate;
pub use search::{Fd, FdReport};
