//! Clause compilation: the sequential corpus under the default register
//! code (compiled head code + switch-on-term first-argument dispatch) and
//! under the tree-walking interpreter oracle (`ClauseExec::Interpreted`,
//! linear clause scan). The answers must be identical and the corpus
//! geometric-mean speedup must clear [`MIN_GEOMEAN`]. `tables` checks and
//! records the virtual half; the `compile_speedup` binary repeats it with
//! wall-clock repetitions and holds the wall clock to the same bar.

use std::time::Duration;

use ace_core::{Ace, Mode, RunReport};
use ace_runtime::{ClauseExec, OptFlags, OrScheduler};

use crate::{cfg_for, labels, Table};

/// Corpus: benchmarks where clause selection is on the hot path — list
/// recursion (compiled unify instructions), integer first arguments
/// (switch-on-term prunes the scan), and deep backtracking search (every
/// retry replays dispatch).
const CORPUS: [&str; 8] = [
    "quick_sort",
    "takeuchi",
    "hanoi",
    "pderiv",
    "bt_cluster",
    "queen1",
    "members",
    "ancestors",
];

/// Acceptance bar: corpus geometric-mean speedup of compiled over
/// interpreted execution, on each clock.
pub const MIN_GEOMEAN: f64 = 2.0;

/// One corpus benchmark run both ways. `wall` on each report is the
/// minimum over the repetitions; everything else is deterministic.
pub struct Measured {
    pub name: &'static str,
    pub size: usize,
    pub interp: RunReport,
    pub compiled: RunReport,
}

impl Measured {
    pub fn virtual_speedup(&self) -> f64 {
        self.interp.virtual_time as f64 / self.compiled.virtual_time.max(1) as f64
    }

    pub fn wall_speedup(&self) -> f64 {
        self.interp.wall.as_secs_f64()
            / self
                .compiled
                .wall
                .max(Duration::from_nanos(1))
                .as_secs_f64()
    }
}

/// Run every corpus benchmark `wanted` selects `reps` times under each
/// execution mode; fail if the two modes' solutions differ.
pub fn measure(reps: usize, wanted: impl Fn(&str) -> bool) -> Result<Vec<Measured>, String> {
    let mut out = Vec::new();
    for name in CORPUS.into_iter().filter(|n| wanted(n)) {
        let b = ace_programs::benchmark(name).ok_or_else(|| format!("unknown benchmark {name}"))?;
        let size = b.bench_size;
        let ace = Ace::load(&(b.program)(size))?;
        let query = (b.query)(size);
        let timed = |exec: ClauseExec| -> Result<RunReport, String> {
            let c = cfg_for(b.all_solutions, 1, OptFlags::all(), OrScheduler::Pool)
                .with_clause_exec(exec);
            let mut best = ace.run(Mode::Sequential, &query, &c)?;
            for _ in 1..reps {
                best.wall = best.wall.min(ace.run(Mode::Sequential, &query, &c)?.wall);
            }
            Ok(best)
        };
        let compiled =
            timed(ClauseExec::Compiled).map_err(|e| format!("{name} (compiled): {e}"))?;
        let interp =
            timed(ClauseExec::Interpreted).map_err(|e| format!("{name} (interpreted): {e}"))?;
        if compiled.solutions != interp.solutions {
            return Err(format!(
                "{name}: compiled solutions differ from the interpreter oracle \
                 ({} vs {} solution(s))",
                compiled.solutions.len(),
                interp.solutions.len()
            ));
        }
        out.push(Measured {
            name,
            size,
            interp,
            compiled,
        });
    }
    if out.is_empty() {
        return Err(format!(
            "no corpus benchmark selected; the corpus is {CORPUS:?}"
        ));
    }
    Ok(out)
}

/// Geometric mean of `speedup` over the corpus, held to [`MIN_GEOMEAN`].
pub fn geomean(
    measured: &[Measured],
    clock: &str,
    speedup: fn(&Measured) -> f64,
) -> Result<f64, String> {
    let mean =
        (measured.iter().map(|m| speedup(m).ln()).sum::<f64>() / measured.len() as f64).exp();
    if mean < MIN_GEOMEAN {
        return Err(format!(
            "compiled-over-interpreted geomean speedup {mean:.2}x in {clock} is below \
             the {MIN_GEOMEAN:.1}x bar"
        ));
    }
    Ok(mean)
}

/// The deterministic half: virtual times, indexing counters, and the
/// geomean row, guarded at [`MIN_GEOMEAN`].
pub fn virtual_table(measured: &[Measured]) -> Result<Table, String> {
    let mut table = Table::new(
        "compile",
        "Compilation — register code vs the tree-walking interpreter (sequential)",
        "guard: identical solutions per benchmark, geomean virtual speedup >= 2.0",
        &[
            "benchmark",
            "size",
            "solutions",
            "virtual_interpreted",
            "virtual_compiled",
            "virtual_speedup",
            "choice_points_interpreted",
            "choice_points_compiled",
            "code_cache_hits",
            "clauses_skipped_by_index",
            "index_determinate_calls",
        ],
        &[],
    );
    for m in measured {
        let (i, c) = (&m.interp, &m.compiled);
        table.rows.push(labels![
            m.name,
            m.size,
            c.solutions.len(),
            i.virtual_time,
            c.virtual_time,
            format!("{:.2}", m.virtual_speedup()),
            i.stats.choice_points,
            c.stats.choice_points,
            c.stats.code_cache_hits,
            c.stats.clauses_skipped_by_index,
            c.stats.index_determinate_calls,
        ]);
    }
    let mean = geomean(measured, "virtual time", Measured::virtual_speedup)?;
    let mut last = labels!["geomean", "", "", "", "", format!("{mean:.2}")];
    last.resize(table.columns.len(), String::new());
    table.rows.push(last);
    Ok(table)
}
