//! # ace-bench — the experiment harness
//!
//! One harness, two kinds of experiment, split by what decides how a
//! number can be trusted:
//!
//! * **Deterministic virtual-time experiments** — the paper's tables and
//!   figures ([`mod@experiments`]) and the beyond-the-paper series
//!   ([`or_scaling`], [`fd_scaling`], [`extras`]). Every one is regenerated by the `tables`
//!   binary into `results/`, which is checked in; CI regenerates and runs
//!   `git diff --exit-code`, so a checked-in number is the number the
//!   code prints.
//! * **Wall-clock experiments** — the `compile_speedup` and `server_load`
//!   binaries. They keep exit-2 guards and write under `target/`; no
//!   wall-clock reading is checked in.
//!
//! | experiment | content | toggled optimization |
//! |---|---|---|
//! | `table1` | LPCO, forward execution | LPCO |
//! | `table2` | LPCO, backward execution | LPCO |
//! | `fig5`   | speedup curves, backward execution | LPCO |
//! | `table3` | LAO on or-parallel search | LAO |
//! | `table4` | shallow parallelism | SPO |
//! | `fig8`   | execution-time curves | SPO |
//! | `table5` | processor determinacy | PDO |
//! | `overhead` | §2.3 parallel overhead vs sequential | the paper's four; lazy frames in a column |
//! | `lazy` | lazy parcall frames vs eager ones, and corpus at 1–8 workers | lazy frames |
//! | `or_scaling`, `or_steal_cost`, `or_claim_locality` | or-engine at 1–8 workers | — |
//! | `or_topology`, `or_profile` | 64–512-worker grid, its worst cell profiled | — |
//! | `fd_scaling` | `ace-fd` queens on the shared or-tree at 1–64 workers | LAO |
//! | `compile`, `ablation`, `memo`, `tabling` | compiled vs interpreted, cost-model sweep, answer store | — |
//! | `stress` | deep-SCC tabling fixpoint on both drivers (no artifact) | — |
//!
//! The harness itself is [`Cli::parse`] (the one reader of the process
//! arguments), [`sweep`] (program × configurations × columns → table rows),
//! [`write()`] (the one artifact writer) and [`run`] (the one place a failed
//! guard — an `Err(String)` — becomes exit status 2).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ace_core::{Ace, Mode, RunReport};
use ace_runtime::EngineConfig;

pub mod compile;
pub mod experiments;
pub mod extras;
pub mod fd_scaling;
pub mod or_scaling;
pub mod render;
pub mod runner;

pub use experiments::{experiments, Experiment, ExperimentKind};
pub use render::{render_csv, render_table};
pub use runner::{cfg_for, pool_cfg, run_experiment, CellResult, ExperimentResult};

/// Worker counts of the beyond-the-paper sweeps below the topology grid.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A file an experiment produces: name within the output directory, contents.
pub type Artifact = (String, String);

/// The command line every binary of the crate shares.
#[derive(Debug, Clone)]
pub struct Cli {
    /// `--out DIR`: where artifacts go.
    pub out: PathBuf,
    /// `--seed N`: seed of the `stress` experiment's chord edges.
    pub seed: u64,
    /// `--list`: print what could run instead of running it.
    pub list: bool,
    /// Positional arguments: run only these.
    pub wanted: Vec<String>,
}

impl Cli {
    /// Parse the process arguments; `default_out` is used without `--out`.
    pub fn parse(default_out: &str) -> Result<Cli, String> {
        let mut cli = Cli {
            out: default_out.into(),
            seed: 1,
            list: false,
            wanted: Vec::new(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--list" => cli.list = true,
                "--out" => cli.out = args.next().ok_or("--out needs a directory")?.into(),
                "--seed" => {
                    cli.seed = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--seed needs an unsigned integer")?;
                }
                flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
                _ => cli.wanted.push(arg),
            }
        }
        Ok(cli)
    }

    /// Whether `id` is selected: named, or nothing was named.
    pub fn wants(&self, id: &str) -> bool {
        self.wanted.is_empty() || self.wanted.iter().any(|w| w == id)
    }
}

/// Write `artifacts` under `dir`, creating it.
pub fn write(dir: &Path, artifacts: &[Artifact]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for (name, contents) in artifacts {
        let path = dir.join(name);
        std::fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

/// Entry point of every binary: parse the command line, run `body`, and
/// turn its `Err` — a failed guard, a failed run, an unwritable file —
/// into a message on stderr and exit status 2.
pub fn run(name: &str, default_out: &str, body: impl FnOnce(&Cli) -> Result<(), String>) {
    if let Err(e) = Cli::parse(default_out).and_then(|cli| body(&cli)) {
        eprintln!("{name} FAILED: {e}");
        std::process::exit(2);
    }
}

/// A result table: label columns, then measured columns. Rendered as
/// aligned text and as CSV, like the paper tables beside it in `results/`.
#[derive(Debug, Clone)]
pub struct Table {
    pub id: &'static str,
    pub title: &'static str,
    /// What is measured and which guards the experiment enforces.
    pub note: &'static str,
    pub columns: Vec<&'static str>,
    pub rows: Vec<Vec<String>>,
}

/// A measured column: its name and how to read it off a run. The second
/// report is the first run of the same [`sweep`], the base of speedups.
pub type Column = (&'static str, fn(&RunReport, &RunReport) -> String);

/// `stat!(field)`: the column that reports `stats.field` under its own name.
#[macro_export]
macro_rules! stat {
    ($field:ident) => {
        (stringify!($field), |r, _| r.stats.$field.to_string())
    };
}

pub const VIRTUAL_TIME: Column = ("virtual_time", |r, _| r.virtual_time.to_string());
pub const SPEEDUP: Column = ("speedup", |r, base| {
    format!("{:.2}", r.speedup_from(base.virtual_time))
});
pub const SOLUTIONS: Column = ("solutions", |r, _| r.solutions.len().to_string());

impl Table {
    pub fn new(
        id: &'static str,
        title: &'static str,
        note: &'static str,
        labels: &[&'static str],
        columns: &[Column],
    ) -> Table {
        Table {
            id,
            title,
            note,
            columns: labels
                .iter()
                .copied()
                .chain(columns.iter().map(|c| c.0))
                .collect(),
            rows: Vec::new(),
        }
    }

    pub fn txt(&self) -> String {
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|i| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain([self.columns[i].len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = format!(
            "{}\n{}\n{}\n\n",
            self.title,
            "=".repeat(self.title.chars().count().min(78)),
            self.note
        );
        let header: Vec<String> = self.columns.iter().map(|c| c.to_string()).collect();
        for row in std::iter::once(&header).chain(&self.rows) {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}"))
                .collect();
            let _ = writeln!(out, "{}", line.join("  ").trim_end());
        }
        out
    }

    pub fn csv(&self) -> String {
        let mut out = self.columns.join(",");
        out.push('\n');
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// `<id>.txt` and `<id>.csv`.
    pub fn artifacts(&self) -> Vec<Artifact> {
        vec![
            (format!("{}.txt", self.id), self.txt()),
            (format!("{}.csv", self.id), self.csv()),
        ]
    }
}

/// Run `query` once per `(labels, mode, configuration)`, in order, and add
/// one row each to `table`: the labels, then every column read off the
/// report. Returns the reports, for guards.
pub fn sweep(
    table: &mut Table,
    ace: &Ace,
    query: &str,
    runs: Vec<(Vec<String>, Mode, EngineConfig)>,
    columns: &[Column],
) -> Result<Vec<RunReport>, String> {
    let mut reports: Vec<RunReport> = Vec::with_capacity(runs.len());
    for (mut row, mode, cfg) in runs {
        let r = ace
            .run(mode, query, &cfg)
            .map_err(|e| format!("{} [{}]: {e}", table.id, row.join(" ")))?;
        let base = reports.first().unwrap_or(&r);
        row.extend(columns.iter().map(|(_, read)| read(&r, base)));
        table.rows.push(row);
        reports.push(r);
    }
    Ok(reports)
}

/// `labels!["a", 3, x]`: a row's label cells.
#[macro_export]
macro_rules! labels {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_runtime::{OptFlags, OrScheduler};

    #[test]
    fn sweep_fills_label_and_measured_columns() {
        const COLUMNS: &[Column] = &[SOLUTIONS, VIRTUAL_TIME, SPEEDUP, stat!(calls)];
        let mut table = Table::new("t", "Title", "note", &["workers"], COLUMNS);
        let ace = Ace::load("p(1).\np(2).\np(3).\n").unwrap();
        let runs = [1usize, 2]
            .into_iter()
            .map(|w| {
                let c = cfg_for(true, w, OptFlags::all(), OrScheduler::Pool);
                (labels![w], Mode::OrParallel, c)
            })
            .collect();
        let reports = sweep(&mut table, &ace, "p(X)", runs, COLUMNS).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(
            table.columns,
            ["workers", "solutions", "virtual_time", "speedup", "calls"]
        );
        assert_eq!(table.rows[0][..2], ["1", "3"]);
        assert_eq!(table.rows[0][3], "1.00", "the first run is its own base");
        assert_eq!(table.csv().lines().count(), 3);
        let txt = table.txt();
        assert!(txt.starts_with("Title\n=====\nnote\n\n"), "{txt}");
        let widths: Vec<usize> = txt.lines().skip(4).map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "aligned: {txt}");
    }

    #[test]
    fn a_failed_run_is_an_err_naming_the_row() {
        let mut table = Table::new("t", "T", "", &["case"], &[VIRTUAL_TIME]);
        let ace = Ace::load("p(1).\n").unwrap();
        let c = cfg_for(true, 1, OptFlags::all(), OrScheduler::Pool);
        let runs = vec![(labels!["bad"], Mode::Sequential, c)];
        let err = sweep(&mut table, &ace, "p(", runs, &[VIRTUAL_TIME]).unwrap_err();
        assert!(err.starts_with("t [bad]:"), "{err}");
    }
}
