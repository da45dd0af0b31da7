//! Rendering experiment results as paper-style text tables and CSV.

use std::fmt::Write as _;

use crate::experiments::ExperimentKind;
use crate::runner::ExperimentResult;

/// Render in the paper's `unopt/opt (improv%)` row format.
pub fn render_table(r: &ExperimentResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", r.title);
    let _ = writeln!(out, "{}", "=".repeat(r.title.len().min(78)));
    let _ = writeln!(out, "paper: {}", r.paper_claim);
    let _ = writeln!(out);

    match r.kind {
        ExperimentKind::Table => {
            let _ = write!(out, "{:<14}", "Benchmark");
            for w in &r.workers {
                let _ = write!(out, "{:>26}", format!("{w} worker(s)"));
            }
            let _ = writeln!(out);
            for b in r.benchmarks() {
                let _ = write!(out, "{:<14}", b);
                for c in r.row(&b) {
                    let cell = format!("{}/{} ({:+.0}%)", c.unopt, c.opt, c.improvement);
                    let _ = write!(out, "{cell:>26}");
                }
                let _ = writeln!(out);
            }
        }
        ExperimentKind::Curves => {
            // one block per benchmark: workers, unopt time, opt time,
            // speedups relative to the 1-worker unoptimized time
            for b in r.benchmarks() {
                let cells = r.row(&b);
                let base_unopt = cells.first().map(|c| c.unopt).unwrap_or(1);
                let base_opt = cells.first().map(|c| c.opt).unwrap_or(1);
                let _ = writeln!(out, "{b}:");
                let _ = writeln!(
                    out,
                    "  {:>8} {:>12} {:>12} {:>10} {:>10}",
                    "workers", "t_unopt", "t_opt", "su_unopt", "su_opt"
                );
                for c in cells {
                    let _ = writeln!(
                        out,
                        "  {:>8} {:>12} {:>12} {:>10.2} {:>10.2}",
                        c.workers,
                        c.unopt,
                        c.opt,
                        base_unopt as f64 / c.unopt as f64,
                        base_opt as f64 / c.opt as f64,
                    );
                }
                let _ = writeln!(out);
            }
        }
        ExperimentKind::Overhead => {
            let _ = writeln!(
                out,
                "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
                "Benchmark",
                "sequential",
                "par-unopt",
                "par-opt",
                "ovh-unopt%",
                "ovh-opt%",
                "par-lazy",
                "ovh-lazy%"
            );
            for b in r.benchmarks() {
                for c in r.row(&b) {
                    let seq = c.sequential.unwrap_or(0) as f64;
                    let lazy = c.lazy.unwrap_or(0);
                    let ovh = |t: u64| 100.0 * (t as f64 - seq) / seq;
                    let _ = writeln!(
                        out,
                        "{:<14} {:>12} {:>12} {:>12} {:>11.1}% {:>11.1}% {:>12} {:>11.1}%",
                        b,
                        seq as u64,
                        c.unopt,
                        c.opt,
                        ovh(c.unopt),
                        ovh(c.opt),
                        lazy,
                        ovh(lazy)
                    );
                }
            }
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "mechanism counters (optimized runs):");
    for b in r.benchmarks() {
        if let Some(c) = r.row(&b).last() {
            let _ = writeln!(
                out,
                "  {:<14} lpco-merged={} frames={} markers={} (elided {}) \
                 pdo={} lao-reused={} published={} visits={}",
                b,
                c.opt_stats.slots_merged_lpco,
                c.opt_stats.parcall_frames,
                c.opt_stats.markers_allocated,
                c.opt_stats.markers_elided_spo,
                c.opt_stats.pdo_merges,
                c.opt_stats.cp_reused_lao,
                c.opt_stats.nodes_published,
                c.opt_stats.tree_visits,
            );
        }
    }
    out
}

/// Machine-readable CSV (one row per cell).
pub fn render_csv(r: &ExperimentResult) -> String {
    let mut out = String::from(
        "experiment,benchmark,workers,unopt_time,opt_time,improvement_pct,\
         sequential_time,markers_unopt,markers_opt,markers_elided,\
         frames_unopt,frames_opt,lpco_merged,pdo_merges,lao_reused,\
         published_unopt,published_opt,visits_unopt,visits_opt",
    );
    // Only the overhead table has a lazy-frames column.
    let lazy = r.kind == ExperimentKind::Overhead;
    if lazy {
        out.push_str(",lazy_time");
    }
    out.push('\n');
    for c in &r.cells {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:.2},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.id,
            c.benchmark,
            c.workers,
            c.unopt,
            c.opt,
            c.improvement,
            c.sequential.map_or(String::new(), |s| s.to_string()),
            c.unopt_stats.markers_allocated,
            c.opt_stats.markers_allocated,
            c.opt_stats.markers_elided_spo,
            c.unopt_stats.parcall_frames,
            c.opt_stats.parcall_frames,
            c.opt_stats.slots_merged_lpco,
            c.opt_stats.pdo_merges,
            c.opt_stats.cp_reused_lao,
            c.unopt_stats.nodes_published,
            c.opt_stats.nodes_published,
            c.unopt_stats.tree_visits,
            c.opt_stats.tree_visits,
        );
        if lazy {
            out.pop();
            let _ = writeln!(out, ",{}", c.lazy.unwrap_or(0));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::experiment;
    use crate::runner::run_experiment;

    #[test]
    fn render_table_and_csv() {
        let mut exp = experiment("table1").unwrap();
        exp.benchmarks.truncate(1);
        exp.workers = vec![1, 2];
        let r = run_experiment(&exp).unwrap();
        let txt = render_table(&r);
        assert!(txt.contains("map2"));
        assert!(txt.contains("worker(s)"));
        let csv = render_csv(&r);
        assert_eq!(csv.lines().count(), 1 + r.cells.len());
    }

    #[test]
    fn render_curves() {
        let mut exp = experiment("fig8").unwrap();
        exp.benchmarks.truncate(1);
        exp.workers = vec![1, 2];
        let r = run_experiment(&exp).unwrap();
        let txt = render_table(&r);
        assert!(txt.contains("su_opt"));
    }
}
