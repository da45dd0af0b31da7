//! Experiment execution: run benchmark × workers × {unopt, opt} cells.

use ace_core::{Ace, Mode};
use ace_runtime::{EngineConfig, OptFlags};

use crate::experiments::{Experiment, ExperimentKind};

/// One measured cell of a table/figure.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub benchmark: String,
    pub workers: usize,
    /// Virtual time, unoptimized engine.
    pub unopt: u64,
    /// Virtual time, optimized engine.
    pub opt: u64,
    /// `(unopt - opt) / unopt`, in percent (paper convention).
    pub improvement: f64,
    /// Sequential-baseline virtual time (overhead experiment only).
    pub sequential: Option<u64>,
    /// Mechanism counters of the optimized run, for the "why" columns.
    pub opt_stats: ace_runtime::Stats,
    pub unopt_stats: ace_runtime::Stats,
}

/// A fully executed experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    pub id: String,
    pub title: String,
    pub kind: ExperimentKind,
    pub workers: Vec<usize>,
    pub cells: Vec<CellResult>,
    pub paper_claim: String,
}

/// The engine configuration every experiment starts from — the one
/// config builder of the crate.
pub fn cfg_for(
    all_solutions: bool,
    workers: usize,
    opts: OptFlags,
    sched: ace_runtime::OrScheduler,
) -> EngineConfig {
    let mut c = EngineConfig::default()
        .with_workers(workers)
        .with_opts(opts)
        .with_or_scheduler(sched);
    c.max_solutions = if all_solutions { None } else { Some(1) };
    c
}

/// All solutions, every optimization, the pool scheduler: what every
/// experiment beyond the paper's on/off tables runs.
pub fn pool_cfg(workers: usize) -> EngineConfig {
    cfg_for(
        true,
        workers,
        OptFlags::all(),
        ace_runtime::OrScheduler::Pool,
    )
}

/// Execute `exp`.
pub fn run_experiment(exp: &Experiment) -> Result<ExperimentResult, String> {
    let mut cells = Vec::new();
    for &(name, size) in &exp.benchmarks {
        let b = ace_programs::benchmark(name).ok_or_else(|| format!("unknown benchmark {name}"))?;
        let program = (b.program)(size);
        let query = (b.query)(size);
        let ace = Ace::load(&program)?;

        let cfg = |w, opts| cfg_for(b.all_solutions, w, opts, exp.or_scheduler);
        let sequential = if exp.kind == ExperimentKind::Overhead {
            let c = cfg(1, OptFlags::none());
            Some(ace.run(Mode::Sequential, &query, &c)?.virtual_time)
        } else {
            None
        };

        for &w in &exp.workers {
            let unopt = ace
                .run(b.mode, &query, &cfg(w, exp.base))
                .map_err(|e| format!("{name} w={w} unopt: {e}"))?;
            let opt = ace
                .run(b.mode, &query, &cfg(w, exp.opt))
                .map_err(|e| format!("{name} w={w} opt: {e}"))?;
            debug_assert_eq!(
                unopt.solutions.len(),
                opt.solutions.len(),
                "{name} w={w}: optimized run changed the solution count"
            );
            cells.push(CellResult {
                benchmark: name.to_owned(),
                workers: w,
                unopt: unopt.virtual_time,
                opt: opt.virtual_time,
                improvement: unopt.improvement_over(&opt),
                sequential,
                opt_stats: opt.stats,
                unopt_stats: unopt.stats,
            });
        }
    }
    Ok(ExperimentResult {
        id: exp.id.to_owned(),
        title: exp.title.to_owned(),
        kind: exp.kind,
        workers: exp.workers.clone(),
        cells,
        paper_claim: exp.paper_claim.to_owned(),
    })
}

impl ExperimentResult {
    /// Cells of one benchmark, in worker order.
    pub fn row(&self, benchmark: &str) -> Vec<&CellResult> {
        self.cells
            .iter()
            .filter(|c| c.benchmark == benchmark)
            .collect()
    }

    /// Benchmark names in first-appearance order.
    pub fn benchmarks(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for c in &self.cells {
            if !seen.contains(&c.benchmark) {
                seen.push(c.benchmark.clone());
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::experiment;

    #[test]
    fn table1_runs_and_improves() {
        let exp = experiment("table1").unwrap();
        let r = run_experiment(&exp).unwrap();
        assert_eq!(r.benchmarks(), vec!["map2", "occur"]);
        assert_eq!(r.cells.len(), 2 * exp.workers.len());
        for c in &r.cells {
            assert!(c.unopt > 0 && c.opt > 0);
        }
    }

    #[test]
    fn overhead_has_sequential_column() {
        // two benchmarks are enough to see the column
        let mut exp = experiment("overhead").unwrap();
        exp.benchmarks.truncate(2);
        let r = run_experiment(&exp).unwrap();
        for c in &r.cells {
            assert!(c.sequential.unwrap() > 0);
        }
    }
}
