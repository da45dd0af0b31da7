//! Run reports: solutions plus the measurements every experiment consumes.

use std::time::Duration;

use ace_runtime::{Profile, Stats, Trace};

/// The outcome of one query run under one configuration.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Rendered solutions (`"X=1, Y=2"`), in discovery order.
    pub solutions: Vec<String>,
    /// Simulated execution time in cost units: max over workers of
    /// busy + idle virtual time. This is the number reported in every
    /// reproduced table (the substitute for the paper's Sequent Symmetry
    /// wall-clock seconds).
    pub virtual_time: u64,
    /// Host wall-clock time of the run (informational).
    pub wall: Duration,
    /// Per-worker final virtual clocks.
    pub clocks: Vec<u64>,
    /// Aggregated statistics across workers.
    pub stats: Stats,
    /// Per-worker statistics.
    pub per_worker: Vec<Stats>,
    /// Or-parallel runs: maximum public-tree depth observed.
    pub tree_depth: Option<u32>,
    /// Recovery events: one line per fault absorbed or degradation applied
    /// (e.g. a parallel run replayed on the sequential engine after a
    /// worker died). Empty for an undisturbed run.
    pub recovery: Vec<String>,
    /// Merged virtual-time-ordered event trace (present only when tracing
    /// was enabled in the run's [`ace_runtime::trace::TraceConfig`]).
    pub trace: Option<Trace>,
}

impl RunReport {
    /// Percentage improvement of `optimized` over `self` (the paper's
    /// `(unopt - opt) / unopt` convention, negative = slowdown).
    pub fn improvement_over(&self, optimized: &RunReport) -> f64 {
        if self.virtual_time == 0 {
            return 0.0;
        }
        100.0 * (self.virtual_time as f64 - optimized.virtual_time as f64)
            / self.virtual_time as f64
    }

    /// Speedup of this run relative to a one-worker reference time.
    pub fn speedup_from(&self, one_worker_time: u64) -> f64 {
        if self.virtual_time == 0 {
            return 0.0;
        }
        one_worker_time as f64 / self.virtual_time as f64
    }

    /// Mean or-tree nodes inspected per claimed alternative — the steal
    /// cost the or-engine's alternative pool keeps amortized O(1), and the
    /// number that grows with public-tree size under the traversal
    /// scheduler. `None` when the run claimed no alternatives (sequential
    /// and and-parallel runs, or one-worker or-runs).
    pub fn steal_cost_per_claim(&self) -> Option<f64> {
        (self.stats.alternatives_claimed > 0)
            .then(|| self.stats.tree_visits as f64 / self.stats.alternatives_claimed as f64)
    }

    /// Fraction of memo lookups that hit, in `[0, 1]`. `None` when the
    /// run performed no lookups at all — never `NaN`, so callers can
    /// format it without a zero-guard of their own.
    pub fn memo_hit_rate(&self) -> Option<f64> {
        let lookups = self.stats.memo_hits + self.stats.memo_misses;
        (lookups > 0).then(|| self.stats.memo_hits as f64 / lookups as f64)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} solution(s), virtual time {}, workers {}, {}",
            self.solutions.len(),
            self.virtual_time,
            self.clocks.len(),
            self.stats.summary()
        );
        if let Some(rate) = self.memo_hit_rate() {
            s.push_str(&format!(
                ", memo hit-rate {:.1}% ({}/{} lookups)",
                100.0 * rate,
                self.stats.memo_hits,
                self.stats.memo_hits + self.stats.memo_misses
            ));
        }
        if !self.recovery.is_empty() {
            s.push_str(&format!(
                ", {} recovery event(s): {}",
                self.recovery.len(),
                self.recovery.join("; ")
            ));
        }
        if let Some(trace) = &self.trace {
            if trace.dropped > 0 {
                s.push_str(&format!(
                    ", trace incomplete ({} event(s) dropped)",
                    trace.dropped
                ));
            }
            let profile = Profile::from_trace(trace);
            if !profile.is_empty() {
                s.push('\n');
                s.push_str(&profile.table(5));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(vt: u64) -> RunReport {
        RunReport {
            solutions: vec![],
            virtual_time: vt,
            wall: Duration::ZERO,
            clocks: vec![vt],
            stats: Stats::new(),
            per_worker: vec![],
            tree_depth: None,
            recovery: vec![],
            trace: None,
        }
    }

    #[test]
    fn improvement_math() {
        let unopt = report(200);
        let opt = report(150);
        assert!((unopt.improvement_over(&opt) - 25.0).abs() < 1e-9);
        // slowdown is negative
        assert!(opt.improvement_over(&unopt) < 0.0);
    }

    #[test]
    fn speedup_math() {
        let five_workers = report(40);
        assert!((five_workers.speedup_from(200) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_guards() {
        let z = report(0);
        assert_eq!(z.improvement_over(&report(10)), 0.0);
        assert_eq!(z.speedup_from(100), 0.0);
    }

    #[test]
    fn summary_mentions_recovery_only_when_present() {
        let mut r = report(100);
        assert!(!r.summary().contains("recovery"));
        r.recovery
            .push("parallel run failed; recovered via sequential fallback".into());
        let s = r.summary();
        assert!(s.contains("1 recovery event(s)"), "{s}");
        assert!(s.contains("sequential fallback"), "{s}");
    }

    #[test]
    fn summary_shows_memo_hit_rate_only_when_memo_ran() {
        let mut r = report(100);
        assert!(!r.summary().contains("memo hit-rate"), "{}", r.summary());
        r.stats.memo_hits = 3;
        r.stats.memo_misses = 1;
        let s = r.summary();
        assert!(s.contains("memo hit-rate 75.0% (3/4 lookups)"), "{s}");
    }

    #[test]
    fn zero_lookup_hit_rate_is_none_and_never_nan() {
        // Regression: 0 hits + 0 misses must not render a `NaN`/`-nan%`
        // hit rate — the helper reports None and the summary stays quiet.
        let r = report(100);
        assert_eq!(r.memo_hit_rate(), None);
        let s = r.summary();
        assert!(!s.to_lowercase().contains("nan"), "{s}");
        assert!(!s.contains("hit-rate"), "{s}");

        // All-miss runs are 0.0, not None (lookups did happen).
        let mut misses = report(100);
        misses.stats.memo_misses = 5;
        assert_eq!(misses.memo_hit_rate(), Some(0.0));
        assert!(misses
            .summary()
            .contains("memo hit-rate 0.0% (0/5 lookups)"));
    }

    #[test]
    fn summary_flags_incomplete_trace_and_appends_profile() {
        use ace_runtime::trace::{EventKind, Label, Trace, TraceEvent};
        let mut r = report(100);
        assert!(!r.summary().contains("trace incomplete"));

        // A complete trace with cost to attribute: profile table appended,
        // no incompleteness note.
        r.trace = Some(Trace {
            events: vec![
                TraceEvent {
                    t: 0,
                    worker: 0,
                    kind: EventKind::Publish {
                        node: 1,
                        epoch: 0,
                        alts: 2,
                        pred: Label::Pred(ace_logic::sym::sym("p"), 1),
                    },
                },
                TraceEvent {
                    t: 40,
                    worker: 0,
                    kind: EventKind::QuantumEnd { cost: 40 },
                },
            ],
            dropped: 0,
        });
        let s = r.summary();
        assert!(!s.contains("trace incomplete"), "{s}");
        assert!(s.contains("frames by virtual cost"), "{s}");
        assert!(s.contains("run;p/1"), "{s}");

        // Dropped events: the summary says so explicitly.
        r.trace.as_mut().unwrap().dropped = 7;
        let s = r.summary();
        assert!(s.contains("trace incomplete (7 event(s) dropped)"), "{s}");
    }

    #[test]
    fn steal_cost_math() {
        let mut r = report(100);
        assert_eq!(r.steal_cost_per_claim(), None, "no claims, no ratio");
        r.stats.tree_visits = 12;
        r.stats.alternatives_claimed = 4;
        assert_eq!(r.steal_cost_per_claim(), Some(3.0));
    }
}
