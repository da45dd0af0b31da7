//! The experiment definitions: which benchmarks, sizes, worker counts and
//! optimization flags reproduce each table/figure of the paper.

use ace_runtime::{OptFlags, OrScheduler};

/// What shape of output the experiment produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentKind {
    /// unopt/opt execution times + improvement per worker count (a paper
    /// table).
    Table,
    /// per-worker-count series for plotting (a paper figure); emitted as
    /// one unopt and one opt series per benchmark.
    Curves,
    /// §2.3 overhead comparison: sequential vs 1-worker parallel.
    Overhead,
}

/// One reproducible experiment.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Harness id (`table1` … `fig8`, `overhead`).
    pub id: &'static str,
    /// What the paper calls it.
    pub title: &'static str,
    pub kind: ExperimentKind,
    /// `(benchmark name, size)` pairs.
    pub benchmarks: Vec<(&'static str, usize)>,
    /// Worker counts (the paper's "Number of Processors" columns).
    pub workers: Vec<usize>,
    /// The baseline configuration (usually `OptFlags::none()`).
    pub base: OptFlags,
    /// The optimized configuration (baseline + the optimization under
    /// test).
    pub opt: OptFlags,
    /// What the paper reports, for EXPERIMENTS.md cross-reference.
    pub paper_claim: &'static str,
    /// Or-engine work-finding scheduler. Experiments whose paper numbers
    /// are statements about tree-walking schedulers (Table 3: LAO's win
    /// is largely avoided traversal) pin `Traversal`; everything else
    /// uses the production default.
    pub or_scheduler: OrScheduler,
}

/// All experiments, in paper order.
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            title: "Table 1 — LPCO savings, forward execution only",
            kind: ExperimentKind::Table,
            benchmarks: vec![("map2", 40), ("occur", 24)],
            workers: vec![1, 3, 5, 10],
            base: OptFlags::none(),
            opt: OptFlags::lpco_only(),
            paper_claim: "map2: 8-26% improvement; occur(5): 14-19%; \
                          LPCO helps only marginally in forward execution",
            or_scheduler: OrScheduler::Pool,
        },
        Experiment {
            id: "table2",
            title: "Table 2 — LPCO with backward execution",
            kind: ExperimentKind::Table,
            benchmarks: vec![
                ("matrix_bt", 10),
                ("pderiv_bt", 10),
                ("map1", 12),
                ("annotator_bt", 10),
            ],
            workers: vec![1, 3, 5, 10],
            base: OptFlags::none(),
            opt: OptFlags::lpco_only(),
            paper_claim: "matrix: 15-54%; pderiv: 41-65%; map1: 38-84%; \
                          annotator: 1-4%; gains grow with worker count",
            or_scheduler: OrScheduler::Pool,
        },
        Experiment {
            id: "fig5",
            title: "Figure 5 — speedup curves on backward execution",
            kind: ExperimentKind::Curves,
            benchmarks: vec![("map1", 12), ("matrix_bt", 10), ("pderiv_bt", 10)],
            workers: vec![1, 2, 3, 4, 5, 6, 8, 10],
            base: OptFlags::none(),
            opt: OptFlags::lpco_only(),
            paper_claim: "map without LPCO shows almost no speedup; with \
                          LPCO almost linear; matrix/pderiv improve clearly",
            or_scheduler: OrScheduler::Pool,
        },
        Experiment {
            id: "table3",
            title: "Table 3 — Last Alternative Optimization (or-parallel)",
            kind: ExperimentKind::Table,
            benchmarks: vec![
                ("queen1", 7),
                ("queen2", 6),
                ("puzzle", 1),
                ("ancestors", 10),
                ("members", 18),
                ("maps", 1),
            ],
            workers: vec![1, 2, 4, 8, 10],
            base: OptFlags::none(),
            opt: OptFlags::lao_only(),
            paper_claim: "slight loss on 1 processor (-2..-10%), growing \
                          gains with processors (up to 67% on Queen1 at 10)",
            // the paper's LAO numbers presuppose traversal-cost stealing
            or_scheduler: OrScheduler::Traversal,
        },
        Experiment {
            id: "table4",
            title: "Table 4 — Shallow Parallelism Optimization",
            kind: ExperimentKind::Table,
            benchmarks: vec![
                ("matrix", 14),
                ("takeuchi", 10),
                ("hanoi", 10),
                ("occur", 24),
                ("bt_cluster", 16),
                ("annotator", 10),
            ],
            workers: vec![1, 3, 5, 10],
            base: OptFlags::none(),
            opt: OptFlags::spo_only(),
            paper_claim: "5-25% improvement across the board (deterministic \
                          subgoals never allocate markers)",
            or_scheduler: OrScheduler::Pool,
        },
        Experiment {
            id: "fig8",
            title: "Figure 8 — execution time with shallow parallelism",
            kind: ExperimentKind::Curves,
            benchmarks: vec![("annotator", 10), ("occur", 24), ("hanoi", 10)],
            workers: vec![1, 2, 3, 4, 5, 6, 8, 10],
            base: OptFlags::none(),
            opt: OptFlags::spo_only(),
            paper_claim: "optimized curves sit uniformly below unoptimized \
                          ones at every processor count",
            or_scheduler: OrScheduler::Pool,
        },
        Experiment {
            id: "table5",
            title: "Table 5 — Processor Determinacy Optimization",
            kind: ExperimentKind::Table,
            benchmarks: vec![
                ("matrix", 14),
                ("quick_sort", 120),
                ("takeuchi", 10),
                ("occur", 24),
                ("bt_cluster", 16),
                ("annotator", 10),
            ],
            workers: vec![1, 3, 5, 10],
            // PDO needs adjacent schedulable subgoals; those exist on the
            // LPCO-flattened engine (wide frames), so its marginal
            // contribution is measured on top of LPCO.
            base: OptFlags::lpco_only(),
            opt: OptFlags {
                lpco: true,
                pdo: true,
                ..OptFlags::none()
            },
            paper_claim: "7-45% improvement; largest on 1 processor where \
                          every adjacent pair merges",
            or_scheduler: OrScheduler::Pool,
        },
        Experiment {
            id: "overhead",
            title: "§2.3 — parallel overhead vs the sequential system",
            kind: ExperimentKind::Overhead,
            benchmarks: vec![
                ("map2", 40),
                ("matrix", 14),
                ("takeuchi", 10),
                ("hanoi", 10),
                ("occur", 24),
                ("bt_cluster", 16),
                ("annotator", 10),
                ("quick_sort", 120),
            ],
            workers: vec![1],
            base: OptFlags::none(),
            opt: OptFlags::all(),
            paper_claim: "unoptimized &ACE incurs 10-25% overhead vs \
                          sequential SICStus; with all optimizations <5% \
                          (often <2%)",
            or_scheduler: OrScheduler::Pool,
        },
    ]
}

/// Look an experiment up by id.
pub fn experiment(id: &str) -> Option<Experiment> {
    experiments().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_paper_artifacts_covered() {
        let ids: Vec<&str> = experiments().iter().map(|e| e.id).collect();
        assert_eq!(
            ids,
            vec!["table1", "table2", "fig5", "table3", "table4", "fig8", "table5", "overhead"]
        );
    }

    #[test]
    fn benchmarks_exist_in_corpus() {
        for e in experiments() {
            for (name, _) in &e.benchmarks {
                assert!(
                    ace_programs::benchmark(name).is_some(),
                    "experiment {} references unknown benchmark {name}",
                    e.id
                );
            }
        }
    }

    #[test]
    fn table3_is_or_parallel_rest_and_parallel() {
        use ace_core::Mode;
        for e in experiments() {
            for (name, _) in &e.benchmarks {
                let b = ace_programs::benchmark(name).unwrap();
                if e.id == "table3" {
                    assert_eq!(b.mode, Mode::OrParallel, "{name}");
                } else {
                    assert_eq!(b.mode, Mode::AndParallel, "{name}");
                }
            }
        }
    }
}
