//! The seven workloads and what they share: query preparation with
//! oracles, the timed round loop of the untraced pass, and the traced
//! execution of one query with the facade's steps performed by hand.

pub mod batch;
pub mod load;
pub mod probes;
pub mod serve;
pub mod tabled;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ace_and::AndEngine;
use ace_core::{Ace, AceError, Mode, RunReport};
use ace_logic::Heap;
use ace_machine::{Solution, Solver};
use ace_or::OrEngine;
use ace_runtime::{ClauseExec, EngineConfig, Stats, TableConfig};

use crate::inputs::Spec;
use crate::oracle::Expected;
use crate::quantile::{median, percentile_or_zero, quiet_median};
use crate::spans::Recorder;

/// Set-ups per run, spread over it; `setup_s` is the quietest of them (over
/// ten identical runs the minimum of five repeated 2-6 times better than
/// their median: 2% against 15% on `or_sim`).
pub const SETUP_REPEATS: usize = 5;

/// Set-ups in a run of `seconds`: `SETUP_REPEATS`, but no more than one per
/// second, so that a smoke run is not all set-up.
pub fn setups_in(seconds: f64) -> usize {
    (seconds.ceil() as usize).clamp(1, SETUP_REPEATS)
}
/// Untimed rounds at the end of every set-up (caches fill, lazy
/// initialisation finishes, the allocator reaches its working size).
pub const WARMUP_ROUNDS: usize = 5;

/// What one pass of one workload reports.
#[derive(Default)]
pub struct PassResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Samples behind each timing (or rounds behind each count).
    pub samples: BTreeMap<&'static str, usize>,
    /// Spans of the traced pass.
    pub spans: Option<Recorder>,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
    /// Label and expected answers of every query, for `expected.json`.
    pub pins: Vec<(String, Expected)>,
}

impl PassResult {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, value);
        self.samples.insert(name, samples);
    }

    /// Median of a timing sample under `name`.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, median(samples), samples.len());
    }

    /// Median of the quietest stretch of a timing series under `name`.
    pub fn set_quiet_median(&mut self, name: &'static str, series: &[f64]) {
        self.set(name, quiet_median(series), series.len());
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// 95th percentile of a timing sample under `name`; 0 while the sample
    /// is too short to have ten values beyond it.
    pub fn set_p95(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, percentile_or_zero(samples, 95.0), samples.len());
    }

    /// Count one facade run checked against `expect`; returns its virtual
    /// time (0 for a failed run).
    pub fn check_report(
        &mut self,
        label: &str,
        expect: &Expected,
        report: &Result<RunReport, AceError>,
    ) -> u64 {
        self.check(
            label,
            expect,
            report
                .as_ref()
                .map(|r| r.solutions.as_slice())
                .map_err(|e| e.to_string()),
        );
        report.as_ref().map_or(0, |r| r.virtual_time)
    }

    /// Count one checked operation.
    pub fn check(&mut self, label: &str, expect: &Expected, answers: Result<&[String], String>) {
        self.attempted += 1;
        match answers {
            Ok(got) if expect.matches(got) => {}
            Ok(got) => self.fail(format!(
                "{label}: {} answers with digest {:016x}, expected {} with {:016x}",
                got.len(),
                Expected::of(got).digest,
                expect.count,
                expect.digest
            )),
            Err(e) => self.fail(format!("{label}: {e}")),
        }
    }
}

/// A prepared query: program loaded, answers known.
pub struct Query {
    pub label: String,
    pub ace: Ace,
    pub text: String,
    /// All solutions or the first.
    pub all: bool,
    pub expect: Expected,
}

/// Label and expected answers of `queries`, for `expected.json`.
pub fn pins<'a>(queries: impl IntoIterator<Item = &'a Query>) -> Vec<(String, Expected)> {
    queries
        .into_iter()
        .map(|q| (q.label.clone(), q.expect))
        .collect()
}

/// Sequential configuration for `q` (first or all solutions).
pub fn seq_cfg(all: bool) -> EngineConfig {
    if all {
        EngineConfig::default().all_solutions()
    } else {
        EngineConfig::default()
    }
}

/// Load `spec` and establish its expected answers with the interpreter
/// oracle, cross-checked against the closed form where the spec has one.
pub fn prepare(spec: Spec) -> Result<Query, String> {
    let ace = Ace::load(&spec.program).map_err(|e| format!("{}: load: {e}", spec.label))?;
    let mut cfg = seq_cfg(spec.all).with_clause_exec(ClauseExec::Interpreted);
    if ace.db().has_tabled() {
        cfg = cfg.with_table(TableConfig::enabled());
    }
    let oracle = ace
        .run_strict(Mode::Sequential, &spec.query, &cfg)
        .map_err(|e| format!("{}: oracle run: {e}", spec.label))?;
    if let Some(closed) = &spec.closed {
        closed(&oracle.solutions).map_err(|e| format!("{}: {e}", spec.label))?;
    }
    Ok(Query {
        label: spec.label,
        ace,
        text: spec.query,
        all: spec.all,
        expect: Expected::of(&oracle.solutions),
    })
}

/// Head instructions plus body steps over every clause of `ace`'s program
/// (the code-size check for compiler changes).
pub fn code_instrs(ace: &Ace) -> u64 {
    let db = ace.db();
    db.predicates()
        .filter_map(|(name, arity)| db.predicate(name, arity))
        .flat_map(|p| p.clauses.iter())
        .map(|c| (c.code().head_code().len() + c.code().body_len()) as u64)
        .sum()
}

/// One set-up: `build` (inputs, load, oracles, server start), then
/// `WARMUP_ROUNDS` untimed rounds.
pub fn set_up<T>(
    build: impl Fn() -> Result<T, String>,
    round: impl Fn(&T, &mut PassResult) -> RoundOut,
) -> Result<T, String> {
    let built = build()?;
    let mut warm = PassResult::default();
    for _ in 0..WARMUP_ROUNDS {
        round(&built, &mut warm);
    }
    match warm.failures.first() {
        Some(f) => Err(format!("warm-up: {f}")),
        None => Ok(built),
    }
}

/// What one untraced round hands back to the round loop.
pub struct RoundOut {
    /// Time inside the timed region.
    pub wall: Duration,
    /// Queries the round ran.
    pub queries: u64,
    /// Simulated cost units, summed over the round's runs.
    pub virtual_time: u64,
}

/// Length of the blocks a measured run is cut into.
///
/// The sandbox this was sized on has bursts of host contention that slow
/// whole seconds of a run by up to 1.7x: between identical runs the
/// whole-run median moved by a third, and even the lower quartile of
/// half-second block medians by a fifth. The end-to-end timings are
/// therefore taken per block and the value reported is that of the
/// quietest block — what the code does when the host lets it. Contention
/// only ever adds time, so this estimate moves one for one with the code
/// and hardly at all with the neighbours.
pub const BLOCK_S: f64 = 0.5;

/// Cut `(seconds since start, item)` pairs into consecutive blocks of
/// `BLOCK_S`. The last block is partial and dropped; a run shorter than
/// two blocks is one block.
pub fn in_blocks<T: Copy>(items: &[(f64, T)]) -> Vec<Vec<T>> {
    let mut blocks: Vec<Vec<T>> = Vec::new();
    for &(at_s, item) in items {
        let i = (at_s / BLOCK_S) as usize;
        if blocks.len() <= i {
            blocks.resize_with(i + 1, Vec::new);
        }
        blocks[i].push(item);
    }
    blocks.pop();
    // A block that a set-up ate most of holds too few items for a median.
    let fullest = blocks.iter().map(Vec::len).max().unwrap_or(0);
    blocks.retain(|b| !b.is_empty() && b.len() * 2 >= fullest);
    if blocks.is_empty() {
        blocks.push(items.iter().map(|&(_, item)| item).collect());
    }
    blocks
}

/// The value of the quietest block: the lowest of a time, the highest of
/// a rate.
pub fn quietest(block_values: &[f64], lower_is_better: bool) -> f64 {
    let pick = if lower_is_better { f64::min } else { f64::max };
    block_values.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// The untraced pass of a round-based workload. The run of `seconds` is
/// cut into `SETUP_REPEATS` segments; each starts with a fresh, timed
/// set-up and then repeats `round` until its share of the time is used.
/// Spreading the set-ups over the run keeps one burst of host contention
/// from hitting all of them, and gives the rounds several memory layouts.
/// `round` checks its answers itself (outside its timed region). Returns
/// the end-to-end metrics and the last instance set up.
pub fn measure_rounds<T>(
    seconds: f64,
    build: impl Fn() -> Result<T, String>,
    round: impl Fn(&T, &mut PassResult) -> RoundOut,
) -> Result<(PassResult, T), String> {
    let mut out = PassResult::default();
    // (finished at, (timed wall in seconds, queries)) per round
    let mut rounds: Vec<(f64, (f64, u64))> = Vec::new();
    let mut setups_s = Vec::new();
    let mut virtual_time = None;
    let mut instance = None;
    let started = Instant::now();
    let segments = setups_in(seconds);
    for segment in 1..=segments {
        let t = Instant::now();
        let built = set_up(&build, &round)?;
        setups_s.push(t.elapsed().as_secs_f64());
        let until = seconds * segment as f64 / segments as f64;
        let mut first = true;
        while first || started.elapsed().as_secs_f64() < until {
            first = false;
            let r = round(&built, &mut out);
            rounds.push((
                started.elapsed().as_secs_f64(),
                (r.wall.as_secs_f64(), r.queries),
            ));
            // Every round runs the same queries on the simulated driver,
            // so its virtual time must repeat exactly.
            match virtual_time {
                None => virtual_time = Some(r.virtual_time),
                Some(first) if first != r.virtual_time => out.fail(format!(
                    "virtual time of a round changed from {first} to {}",
                    r.virtual_time
                )),
                Some(_) => {}
            }
        }
        instance = Some(built);
    }
    let n = rounds.len();
    let blocks = in_blocks(&rounds);
    let block_ms: Vec<f64> = blocks
        .iter()
        .map(|b| median(&b.iter().map(|(wall_s, _)| wall_s * 1e3).collect::<Vec<_>>()))
        .collect();
    let block_rate: Vec<f64> = blocks
        .iter()
        .map(|b| {
            let (wall_s, queries) = b.iter().fold((0.0, 0u64), |(w, q), (wall_s, queries)| {
                (w + wall_s, q + queries)
            });
            queries as f64 / wall_s
        })
        .collect();
    out.set("round_ms_p50", quietest(&block_ms, true), n);
    out.set("queries_per_s", quietest(&block_rate, false), n);
    out.set("virtual_time", virtual_time.unwrap_or(0) as f64, n);
    out.set("peak_rss_mb", peak_rss_mb(), 1);
    out.set("setup_s", quietest(&setups_s, true), setups_s.len());
    Ok((out, instance.expect("at least one set-up")))
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The sequential facade path by hand: `Solver` (which parses the query),
/// the solution loop, then rendering. Returns the rendered answers and the
/// machine's counters, and notes in `first_solution_us` how long
/// `Solver::new` + the first `next_solution` took.
pub fn solve_by_hand(
    rec: &mut Recorder,
    first_solution_us: &mut Vec<f64>,
    ace: &Ace,
    text: &str,
    cfg: &EngineConfig,
) -> Result<(Vec<String>, Stats), String> {
    let (solutions, stats) = rec.span("machine.solve", |_| {
        let t = Instant::now();
        let mut solver = Solver::new(ace.db().clone(), Arc::new(cfg.costs.clone()), text)
            .map_err(|e| e.to_string())?;
        solver
            .machine_mut()
            .set_memo(cfg.resolve_memo_table(), false);
        solver
            .machine_mut()
            .set_table(cfg.resolve_table_space(), false);
        let mut solutions: Vec<Solution> = Vec::new();
        while cfg.max_solutions.is_none_or(|max| solutions.len() < max) {
            match solver.next_solution().map_err(|e| e.to_string())? {
                Some(s) => solutions.push(s),
                None => break,
            }
            if solutions.len() == 1 {
                first_solution_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        Ok::<_, String>((solutions, solver.machine().stats))
    })?;
    let rendered = rec.span("machine.render", |_| {
        solutions.iter().map(Solution::render).collect()
    });
    Ok((rendered, stats))
}

/// One traced sequential operation: the facade call on `q.ace`, and beside
/// it the same query decomposed into its layers on `hand` (the same
/// program; `load_big` builds it by hand too). Returns the facade's report.
pub fn traced_sequential(
    rec: &mut Recorder,
    first_solution_us: &mut Vec<f64>,
    out: &mut PassResult,
    q: &Query,
    hand: &Ace,
    cfg: &EngineConfig,
) -> Option<RunReport> {
    rec.span("op", |rec| {
        let facade = rec.span("core.run", |_| {
            q.ace.run_strict(Mode::Sequential, &q.text, cfg)
        });
        rec.span("read.query_parse", |_| {
            std::hint::black_box(ace_logic::parse_term(&mut Heap::new(), &q.text).is_ok())
        });
        let by_hand = solve_by_hand(rec, first_solution_us, hand, &q.text, cfg);
        out.check_report(&q.label, &q.expect, &facade);
        out.check(
            &format!("{} by hand", q.label),
            &q.expect,
            by_hand
                .as_ref()
                .map(|(a, _)| a.as_slice())
                .map_err(String::clone),
        );
        facade.ok()
    })
}

/// One traced engine operation: `AndEngine::run` / `OrEngine::run` called
/// directly, then the rendering the facade would do. Returns
/// `(virtual_time, stats)`.
pub fn traced_engine(
    rec: &mut Recorder,
    out: &mut PassResult,
    span: &'static str,
    q: &Query,
    mode: Mode,
    cfg: &EngineConfig,
) -> Option<(u64, Stats)> {
    rec.span("op", |rec| {
        let run: Result<(Vec<String>, u64, Stats), String> = match mode {
            Mode::AndParallel => {
                let r = rec.span(span, |_| {
                    AndEngine::new(q.ace.db().clone()).run(&q.text, cfg)
                });
                r.map(|r| {
                    let rendered = rec.span("machine.render", |_| {
                        r.solutions.iter().map(Solution::render).collect()
                    });
                    (rendered, r.outcome.virtual_time, r.stats)
                })
            }
            Mode::OrParallel => rec
                .span(span, |_| {
                    OrEngine::new(q.ace.db().clone()).run(&q.text, cfg)
                })
                .map(|r| (r.solutions, r.outcome.virtual_time, r.stats)),
            Mode::Sequential => unreachable!("sequential runs go through traced_sequential"),
        };
        out.check(
            &format!("{} {span}", q.label),
            &q.expect,
            run.as_ref().map(|r| r.0.as_slice()).map_err(String::clone),
        );
        run.ok().map(|(_, vt, stats)| (vt, stats))
    })
}

/// `a / b`, or 0 when the layer did no work.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Machine counters of one round, from the reports' exact `Stats`.
pub fn set_machine_counts(out: &mut PassResult, s: &Stats, rounds: usize) {
    out.set("machine.calls", s.calls as f64, rounds);
    out.set("machine.unify_steps", s.unify_steps as f64, rounds);
    out.set("machine.heap_cells", s.heap_cells as f64, rounds);
    out.set("machine.choice_points", s.choice_points as f64, rounds);
    out.set("machine.backtracks", s.backtracks as f64, rounds);
    out.set("machine.trail_undos", s.trail_undos as f64, rounds);
    out.set("machine.code_cache_hits", s.code_cache_hits as f64, rounds);
    out.set(
        "machine.clauses_skipped_by_index",
        s.clauses_skipped_by_index as f64,
        rounds,
    );
    out.set(
        "machine.index_determinate_ratio",
        ratio(s.index_determinate_calls as f64, s.calls as f64),
        rounds,
    );
}

/// Metrics every traced sequential-machine pass derives from its spans:
/// solve time, speed against both clocks, facade overhead, parse time.
pub fn set_machine_times(
    out: &mut PassResult,
    rec: &Recorder,
    first_solution_us: &[f64],
    round_stats: &Stats,
    rounds: usize,
) {
    let solve_ms = rec.round_self_ms(|n| n == "machine.solve");
    let solve_ns = rec.total_self_ns(|n| n == "machine.solve") as f64;
    out.set_quiet_median("machine.solve_ms_p50", &solve_ms);
    out.set_quiet_median("machine.first_solution_us_p50", first_solution_us);
    out.set(
        "machine.lips",
        ratio(round_stats.calls as f64 * rounds as f64, solve_ns / 1e9),
        rounds,
    );
    out.set(
        "machine.ns_per_virtual_unit",
        ratio(solve_ns, round_stats.cost as f64 * rounds as f64),
        rounds,
    );
    out.set_quiet_median(
        "logic.read.query_parse_us_p50",
        &rec.self_us("read.query_parse"),
    );

    // Facade wall minus its hand-decomposed parts, per operation.
    let facade = rec.sums_ns(|s| s.op, |n| n == "core.run");
    let parts = rec.sums_ns(|s| s.op, |n| n == "machine.solve" || n == "machine.render");
    let overhead_us: Vec<f64> = facade
        .iter()
        .filter_map(|(op, f)| Some((*f as f64 - *parts.get(op)? as f64) / 1e3))
        .collect();
    // A difference of two timings of the same moment: plain median (the
    // quietest stretch of a difference is just its most negative one).
    out.set_median("core.facade_overhead_us_p50", &overhead_us);
}
