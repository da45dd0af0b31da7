//! The public or-tree every or-parallel search shares: the Prolog
//! or-engine (`ace-or`) and the finite-domain labeling search (`ace-fd`)
//! are instances of this one module, differing only in the [`Closure`]
//! a claimant installs. [`tree`] holds the published node and the owner's
//! claim, [`pool`] the alternative pool, [`worker`] the protocol every
//! claimant runs: publication with LAO, the deferred-capture sweep and
//! work finding. An engine keeps its search: which choice point to
//! publish, how to freeze one into its closure, and how to install a
//! claimed alternative (DESIGN.md §4c).

pub mod pool;
pub mod tree;
pub mod worker;

pub use pool::{AltPool, StealScope};
pub use tree::{Closure, OrNode, OwnerClaim};
pub use worker::{Claimed, Lineage, OrTree, TreeWorker};
