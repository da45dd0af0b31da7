//! Per-worker execution statistics.
//!
//! Every counter corresponds to an observable the paper's argument rests
//! on: how many heavy structures were allocated vs elided, how much tree
//! traversal backtracking and work-finding performed, and how much was
//! copied. The `tables` harness prints these next to the virtual times so
//! the *mechanism* of each improvement is visible, not just the outcome.
//!
//! The struct, its `AddAssign`, and the field-name list are all generated
//! by one macro invocation so adding a counter cannot silently skip the
//! merge (the historic hand-written `AddAssign` dropped any field it
//! forgot to mention). Counters listed in [`Stats::EVENT_BACKED`] are
//! bumped only by the events of [`crate::trace`]'s table; the rest are
//! direct field increments at their sites.

use std::ops::AddAssign;

/// Defines the counter sheet once: struct fields, `AddAssign`, the
/// `FIELD_NAMES` list, and uniform accessors all come from the same
/// field list, so they can never drift apart.
macro_rules! stats_sheet {
    (
        $(#[$struct_meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                pub $field:ident: u64,
            )+
        }
    ) => {
        $(#[$struct_meta])*
        pub struct $name {
            $(
                $(#[$field_meta])*
                pub $field: u64,
            )+
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, o: $name) {
                $( self.$field += o.$field; )+
            }
        }

        impl $name {
            /// Every counter's name, in declaration order.
            pub const FIELD_NAMES: &'static [&'static str] = &[
                $( stringify!($field), )+
            ];

            /// `(name, value)` snapshot of every counter, in declaration
            /// order — generic render/merge tests go through this instead
            /// of naming fields one by one.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![ $( (stringify!($field), self.$field), )+ ]
            }

            /// Mutable references to every counter, in declaration order.
            pub fn fields_mut(&mut self) -> Vec<(&'static str, &mut u64)> {
                vec![ $( (stringify!($field), &mut self.$field), )+ ]
            }
        }
    };
}

stats_sheet! {
    /// Flat counter sheet. All counts are per-worker and merged with `+=`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Stats {
        /// Virtual cost units charged (the worker's busy time).
        pub cost: u64,
        /// Cost units spent idle-probing for work.
        pub idle_cost: u64,

        // resolution
        pub calls: u64,
        pub unify_steps: u64,
        pub heap_cells: u64,
        pub backtracks: u64,
        pub trail_undos: u64,

        // clause indexing & compiled execution
        /// Clauses the switch-on-term chains never visited (raw clause
        /// count minus the call's bucket chain length, summed per call).
        pub clauses_skipped_by_index: u64,
        /// User-predicate calls whose bucket chain held exactly one
        /// clause — determinate at dispatch, no choice point created.
        pub index_determinate_calls: u64,
        /// Clause resolutions executed from the compiled code cache
        /// (head-code runs, successful or failing) instead of the
        /// instantiate-and-unify interpreter.
        pub code_cache_hits: u64,

        // nondeterminism structures
        pub choice_points: u64,
        pub cp_reused_lao: u64,

        // and-parallelism structures
        pub parcall_frames: u64,
        pub parcall_slots: u64,
        pub slots_merged_lpco: u64,
        pub frames_elided_lpco: u64,
        pub markers_allocated: u64,
        pub markers_elided_spo: u64,
        pub pdo_merges: u64,
        pub frame_traversals: u64,
        pub slot_failures: u64,
        pub redo_rounds: u64,

        // or-parallelism
        pub nodes_published: u64,
        pub alternatives_claimed: u64,
        pub tree_visits: u64,
        /// Node handles enqueued into the shared alternative pool.
        pub pool_pushes: u64,
        /// Node handles dequeued from the shared alternative pool (inspected;
        /// a pop that finds the node drained claims nothing).
        pub pool_pops: u64,
        /// Claims served by a reset machine from the recycling pool instead of
        /// a fresh heap allocation.
        pub machines_recycled: u64,

        // scheduling
        pub tasks_stolen: u64,
        pub idle_probes: u64,
        pub cells_copied: u64,
        /// Alternatives claimed from a shard inside the thief's own
        /// topology domain (own shard included).
        pub steals_local_domain: u64,
        /// Alternatives claimed across a domain boundary (including
        /// overflow-tier entries that originated in another domain).
        pub steals_cross_domain: u64,
        /// Cross-domain claims taken while the thief's own domain still
        /// had visible pool entries — the hierarchical victim scan keeps
        /// this at zero; a flat scan crosses eagerly.
        pub steals_cross_eager: u64,
        /// Lock acquisitions the virtual-time contention model observed
        /// as contended (landing inside a prior holder's interval).
        pub lock_contended: u64,
        /// Virtual time lost to contended locks: residual waits behind
        /// prior holders plus the topology's per-event contention cost.
        pub lock_wait_cost: u64,

        // procrastinated closure capture (or-engine publish/claim path)
        /// Cells frozen on the publish side of the or-tree: paid only when
        /// a deferred closure is actually materialized on remote demand.
        pub cells_copied_publish: u64,
        /// Cells thawed into a claimant's heap when installing a shared
        /// alternative (block splice, charged flat — see `closure_thaw`).
        pub cells_copied_claim: u64,
        /// Published nodes whose closure capture was never needed: every
        /// alternative was claimed by the owner's own backtracking.
        pub closures_elided: u64,
        /// Deferred closures actually frozen on first remote demand.
        pub closures_materialized: u64,

        // fault injection & recovery
        /// Injected fault events absorbed by this worker.
        pub faults_injected: u64,
        /// Virtual time lost to injected stalls.
        pub fault_stalls: u64,
        /// Steal attempts that failed transiently and were retried.
        pub steal_retries: u64,
        /// Publications deferred by a transient failure and retried.
        pub publish_retries: u64,

        // memoization
        /// Calls answered from the memo table instead of re-execution.
        pub memo_hits: u64,
        /// Memo consultations that found no complete answer set.
        pub memo_misses: u64,
        /// Complete answer sets published into the memo table.
        pub memo_stores: u64,
        /// Entries LRU-evicted to keep shards within capacity.
        pub memo_evictions: u64,

        // tabling (SLG evaluation of declared tabled predicates)
        /// Tabled calls answered from an already-complete table.
        pub table_hits: u64,
        /// Tabled subgoals this worker evaluated as generator (fresh or
        /// shadow of another machine's in-progress subgoal).
        pub table_subgoals: u64,
        /// Answers inserted into local answer lists (post-dedup).
        pub table_answers: u64,
        /// Derived answers discarded as duplicates of a tabled answer.
        pub table_dups: u64,
        /// Consumers suspended on a dry, incomplete answer list.
        pub table_suspends: u64,
        /// Suspended consumers resumed after new answers landed.
        pub table_resumes: u64,
        /// Subgoals completed (fixpoint reached, table published).
        pub table_completes: u64,

        // serving
        /// Root solutions handed to a streaming `AnswerSink` while the
        /// search was still running.
        pub answers_streamed: u64,
        /// Sink verdicts that requested early termination (`take(n)`).
        pub sink_stops: u64,

        // outcomes
        pub solutions: u64,
    }
}

impl Stats {
    pub fn new() -> Self {
        Stats::default()
    }

    /// Charge `units` of busy virtual time.
    #[inline]
    pub fn charge(&mut self, units: u64) {
        self.cost += units;
    }

    /// Fraction of pool claims that crossed a topology domain boundary
    /// (0.0 when no claims were classified — single worker, traversal
    /// scheduler, or flat single-domain runs with no overflow traffic).
    pub fn cross_steal_fraction(&self) -> f64 {
        let total = self.steals_local_domain + self.steals_cross_domain;
        if total == 0 {
            0.0
        } else {
            self.steals_cross_domain as f64 / total as f64
        }
    }

    /// Total virtual time (busy + idle).
    #[inline]
    pub fn total_cost(&self) -> u64 {
        self.cost + self.idle_cost
    }

    /// Render a compact human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "cost={} idle={} calls={} cps={} (lao-reused {}) frames={} \
             (lpco-merged {}) markers={} (spo-elided {}) pdo={} stolen={} \
             published={} visits={} copied={} backtracks={} \
             closure={}frozen/{}thawed/{}elided/{}made \
             pool={}push/{}pop recycled={} probes={} \
             domain-steals={}local/{}cross/{}eager contended={}locks/{}units \
             faults={} steal-retries={} publish-retries={} \
             memo={}hit/{}miss/{}store/{}evict \
             table={}hit/{}sub/{}ans/{}dup/{}susp/{}res/{}done streamed={} \
             index={}skipped/{}det code-cache={}",
            self.cost,
            self.idle_cost,
            self.calls,
            self.choice_points,
            self.cp_reused_lao,
            self.parcall_frames,
            self.slots_merged_lpco,
            self.markers_allocated,
            self.markers_elided_spo,
            self.pdo_merges,
            self.tasks_stolen,
            self.nodes_published,
            self.tree_visits,
            self.cells_copied,
            self.backtracks,
            self.cells_copied_publish,
            self.cells_copied_claim,
            self.closures_elided,
            self.closures_materialized,
            self.pool_pushes,
            self.pool_pops,
            self.machines_recycled,
            self.idle_probes,
            self.steals_local_domain,
            self.steals_cross_domain,
            self.steals_cross_eager,
            self.lock_contended,
            self.lock_wait_cost,
            self.faults_injected,
            self.steal_retries,
            self.publish_retries,
            self.memo_hits,
            self.memo_misses,
            self.memo_stores,
            self.memo_evictions,
            self.table_hits,
            self.table_subgoals,
            self.table_answers,
            self.table_dups,
            self.table_suspends,
            self.table_resumes,
            self.table_completes,
            self.answers_streamed,
            self.clauses_skipped_by_index,
            self.index_determinate_calls,
            self.code_cache_hits,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = Stats::new();
        a.charge(10);
        a.calls = 3;
        let mut b = Stats::new();
        b.charge(5);
        b.calls = 4;
        b.markers_allocated = 2;
        a += b;
        assert_eq!(a.cost, 15);
        assert_eq!(a.calls, 7);
        assert_eq!(a.markers_allocated, 2);
    }

    /// Merging two all-ones sheets must yield all-twos in *every* field —
    /// the regression the macro exists to make impossible.
    #[test]
    fn merge_covers_every_field() {
        let mut ones = Stats::new();
        for (_, f) in ones.fields_mut() {
            *f = 1;
        }
        let mut merged = ones;
        merged += ones;
        for (name, v) in merged.fields() {
            assert_eq!(v, 2, "field {name} was dropped by AddAssign");
        }
        assert_eq!(merged.fields().len(), Stats::FIELD_NAMES.len());
    }

    #[test]
    fn field_names_match_declaration() {
        let s = Stats::new();
        let names: Vec<&str> = s.fields().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, Stats::FIELD_NAMES);
        assert!(Stats::FIELD_NAMES.contains(&"cost"));
        assert!(Stats::FIELD_NAMES.contains(&"solutions"));
    }

    #[test]
    fn totals() {
        let mut s = Stats::new();
        s.charge(7);
        s.idle_cost = 3;
        assert_eq!(s.total_cost(), 10);
    }

    #[test]
    fn cross_steal_fraction_handles_empty_and_mixed() {
        let mut s = Stats::new();
        assert_eq!(s.cross_steal_fraction(), 0.0);
        s.steals_local_domain = 3;
        s.steals_cross_domain = 1;
        assert!((s.cross_steal_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_key_counters() {
        let s = Stats::new();
        let text = s.summary();
        for key in [
            "lao-reused",
            "lpco-merged",
            "spo-elided",
            "pdo=",
            "probes=",
            "faults=",
            "steal-retries=",
            "publish-retries=",
            "memo=",
            "table=",
            "closure=",
            "streamed=",
            "domain-steals=",
            "contended=",
            "index=",
            "code-cache=",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }
}
