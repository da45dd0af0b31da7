//! The virtual-time cost model.
//!
//! Each field is the price, in abstract cost units, of one engine
//! operation. The defaults are calibrated to the *relative* magnitudes the
//! paper describes rather than to any concrete hardware:
//!
//! * state-saving data structures (choice points, parcall frames, markers)
//!   are **expensive** — "these extra data-structures can be quite heavy,
//!   and can add considerable overhead to execution" (§2); markers in
//!   particular "store various information" (§4.1);
//! * elementary resolution work (unification steps, heap cells) is cheap;
//! * scheduler interactions (stealing, publication, idle probing) carry a
//!   synchronization premium.
//!
//! Every constant lives here so ablation benches can vary one knob at a
//! time (`bench/ablation_costs.rs`).

/// Cost-unit prices for every chargeable engine operation.
#[derive(Debug, Clone)]
pub struct CostModel {
    // -- sequential resolution --------------------------------------------
    /// Dispatch of one goal (procedure call overhead).
    pub call_dispatch: u64,
    /// One elementary unification step (per node visited).
    pub unify_step: u64,
    /// One heap cell written (clause instantiation, term building, copy).
    pub heap_cell: u64,
    /// One trail entry undone on backtracking.
    pub trail_undo: u64,
    /// Clause-index lookup for a call (switch-on-term bucket dispatch:
    /// flat, independent of predicate size).
    pub index_lookup: u64,
    /// One clause key-tested by the interpreter oracle's *linear* scan of
    /// the clause list (charged per clause visited; the compiled path
    /// never pays it).
    pub index_scan: u64,
    /// One compiled head/body instruction executed (register-code
    /// dispatch; general unification inside `get_val`/`unify_val` adds
    /// `unify_step` per node as usual).
    pub instr: u64,
    /// One builtin evaluation (plus per-step arithmetic below).
    pub builtin: u64,
    /// One arithmetic operator application.
    pub arith_op: u64,

    // -- nondeterminism ----------------------------------------------------
    /// Allocating a choice point.
    pub choice_point_alloc: u64,
    /// Restoring a choice point on backtracking (minus trail costs).
    pub choice_point_retry: u64,
    /// LAO applicability check performed at choice-point allocation.
    pub lao_check: u64,
    /// In-place reuse of a choice point under LAO (vs a fresh allocation).
    pub lao_reuse: u64,

    // -- and-parallelism ----------------------------------------------------
    /// Allocating a parcall frame (base price).
    pub parcall_frame_alloc: u64,
    /// Per-slot price within a parcall frame.
    pub parcall_slot: u64,
    /// LPCO applicability check at a nested parallel call.
    pub lpco_check: u64,
    /// Merging slots into an ancestor frame under LPCO (per slot).
    pub lpco_merge_slot: u64,
    /// Allocating an input or end marker.
    pub marker_alloc: u64,
    /// SPO procrastination bookkeeping when a marker is *not* allocated.
    pub spo_track: u64,
    /// PDO adjacency check on scheduler exit.
    pub pdo_check: u64,
    /// Traversing one level of nested parcall frames during failure
    /// propagation or backtracking.
    pub frame_traverse: u64,
    /// Joining/synchronizing on a finished slot.
    pub slot_join: u64,

    // -- or-parallelism ------------------------------------------------------
    /// Publishing a choice point into the shared or-tree (base price;
    /// copied state adds `heap_cell` per cell).
    pub publish_node: u64,
    /// Visiting one or-tree node while hunting for work.
    pub tree_visit: u64,
    /// Taking an alternative from a shared node (claim + bookkeeping).
    pub claim_alternative: u64,
    /// Reconstructing machine state from a published closure (base price;
    /// copied state adds `heap_cell` per cell).
    pub install_state: u64,
    /// Aborting an install whose head unification fails immediately: the
    /// branch dies before any machine state is set up, so the kill path is
    /// much cheaper than a completed `install_state`.
    pub install_abort: u64,
    /// Freezing a deferred closure into an immutable arena snapshot on
    /// first remote demand (base price; the structural copy adds
    /// `heap_cell` per cell). Paid at most once per published node.
    pub closure_freeze: u64,
    /// Thawing a frozen closure arena into a claimant's heap. The splice
    /// is a block copy plus pointer relocation — bandwidth-bound, not a
    /// per-cell structural walk — so the price is flat in closure size.
    pub closure_thaw: u64,

    // -- memoization ---------------------------------------------------------
    /// One answer-store read: a call's consultation (its key and a sharded
    /// lookup or registration, at a memoized or tabled call, an and-engine
    /// slot's memo key, an or-engine publication check), and also each
    /// answer a stored-answer cursor advances to (a replay or
    /// tabled-consumer retry). A replayed answer adds `unify_step` per
    /// variable it binds and `heap_cell` per cell it copies.
    pub memo_lookup: u64,
    /// Publishing one complete answer set into the table (freeze + insert).
    pub memo_store: u64,

    // -- scheduling / synchronization ---------------------------------------
    /// Pushing or popping the shared work pool.
    pub queue_op: u64,
    /// Stealing a task from another worker.
    pub steal: u64,
    /// One idle probe (busy-wait iteration) while looking for work.
    pub idle_probe: u64,
    /// Acquiring a contended lock (uncontended costs are folded into the
    /// operation prices above).
    pub lock: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            call_dispatch: 3,
            unify_step: 1,
            heap_cell: 1,
            trail_undo: 1,
            index_lookup: 2,
            index_scan: 1,
            instr: 1,
            builtin: 3,
            arith_op: 1,

            choice_point_alloc: 18,
            choice_point_retry: 6,
            lao_check: 2,
            lao_reuse: 6,

            parcall_frame_alloc: 40,
            parcall_slot: 8,
            lpco_check: 2,
            lpco_merge_slot: 4,
            marker_alloc: 30,
            spo_track: 2,
            pdo_check: 2,
            frame_traverse: 48,
            slot_join: 6,

            publish_node: 35,
            tree_visit: 8,
            claim_alternative: 10,
            install_state: 20,
            install_abort: 5,
            closure_freeze: 12,
            closure_thaw: 6,

            memo_lookup: 8,
            memo_store: 12,

            queue_op: 6,
            steal: 30,
            idle_probe: 12,
            lock: 5,
        }
    }
}

impl CostModel {
    /// A model where every operation costs one unit — useful for pure
    /// operation-count comparisons in tests.
    pub fn unit() -> Self {
        CostModel {
            call_dispatch: 1,
            unify_step: 1,
            heap_cell: 1,
            trail_undo: 1,
            index_lookup: 1,
            index_scan: 1,
            instr: 1,
            builtin: 1,
            arith_op: 1,
            choice_point_alloc: 1,
            choice_point_retry: 1,
            lao_check: 1,
            lao_reuse: 1,
            parcall_frame_alloc: 1,
            parcall_slot: 1,
            lpco_check: 1,
            lpco_merge_slot: 1,
            marker_alloc: 1,
            spo_track: 1,
            pdo_check: 1,
            frame_traverse: 1,
            slot_join: 1,
            publish_node: 1,
            tree_visit: 1,
            claim_alternative: 1,
            install_state: 1,
            install_abort: 1,
            closure_freeze: 1,
            closure_thaw: 1,
            memo_lookup: 1,
            memo_store: 1,
            queue_op: 1,
            steal: 1,
            idle_probe: 1,
            lock: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reflect_paper_magnitudes() {
        let m = CostModel::default();
        // markers and frames dominate elementary steps
        assert!(m.marker_alloc > 10 * m.unify_step);
        assert!(m.parcall_frame_alloc > m.choice_point_alloc);
        // procrastination bookkeeping is much cheaper than the marker it
        // replaces — otherwise SPO could not pay off
        assert!(m.spo_track * 10 <= m.marker_alloc);
        // LPCO's runtime check is "limited to very simple runtime checks"
        assert!(m.lpco_check <= 4);
        // a branch killed at head unification never pays full state setup
        assert!(m.install_abort < m.install_state);
        // thawing a frozen arena is a flat block splice, cheaper than the
        // full install bookkeeping around it, and freezing undercuts the
        // publish base price — procrastination must not invert the curve
        assert!(m.closure_thaw < m.install_state);
        assert!(m.closure_freeze < m.publish_node);
        // a memo hit must undercut even one choice point of re-execution,
        // or the table could never pay off
        assert!(m.memo_lookup < m.choice_point_alloc);
        assert!(m.memo_store < m.parcall_frame_alloc);
        // compiled instructions are elementary work, priced like unify
        // steps; bucket dispatch must not cost more than a few scanned
        // clauses or switch-on-term could not pay off
        assert!(m.instr <= m.unify_step);
        assert!(m.index_lookup <= 4 * m.index_scan);
    }

    #[test]
    fn unit_model_is_all_ones() {
        let m = CostModel::unit();
        assert_eq!(m.marker_alloc, 1);
        assert_eq!(m.steal, 1);
    }

    #[test]
    fn debug_formatting_names_fields() {
        let m = CostModel::default();
        let d = format!("{m:?}");
        assert!(d.contains("marker_alloc"));
        assert!(d.contains("tree_visit"));
    }
}
