//! `seq_det`, `seq_search`, `and_sim`, `or_sim`: a round is a fixed list of
//! queries run through `Ace::run_strict`, each against its own program.

use std::time::Instant;

use ace_core::Mode;
use ace_runtime::{EngineConfig, OptFlags, Stats};

use super::{
    code_instrs, measure_rounds, pins, prepare, probes, ratio, seq_cfg, set_machine_counts,
    set_machine_times, set_up, solve_by_hand, traced_engine, traced_sequential, PassResult, Query,
    RoundOut,
};
use crate::inputs;
use crate::quantile::quiet_median;
use crate::spans::Recorder;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SeqDet,
    SeqSearch,
    AndSim,
    OrSim,
}

impl Kind {
    fn engine_mode(self) -> Option<Mode> {
        match self {
            Kind::SeqDet | Kind::SeqSearch => None,
            Kind::AndSim => Some(Mode::AndParallel),
            Kind::OrSim => Some(Mode::OrParallel),
        }
    }
}

/// Simulated worker counts of the engine workloads.
pub const WORKERS: [usize; 2] = [1, 4];

pub fn engine_cfg(all: bool, workers: usize) -> EngineConfig {
    seq_cfg(all)
        .with_workers(workers)
        .with_opts(OptFlags::all())
}

pub struct Batch {
    pub kind: Kind,
    pub queries: Vec<Query>,
}

impl Batch {
    pub fn new(kind: Kind, seed: u64) -> Result<Batch, String> {
        let specs = match kind {
            Kind::SeqDet => inputs::determinate(seed, false),
            Kind::AndSim => inputs::determinate(seed, true),
            Kind::SeqSearch | Kind::OrSim => inputs::search(seed),
        };
        let queries = specs
            .into_iter()
            .map(prepare)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Batch { kind, queries })
    }

    /// `(mode, config)` of every run a round makes of one query.
    fn runs(&self, q: &Query) -> Vec<(Mode, EngineConfig)> {
        match self.kind.engine_mode() {
            None => vec![(Mode::Sequential, seq_cfg(q.all))],
            Some(mode) => WORKERS
                .iter()
                .map(|&w| (mode, engine_cfg(q.all, w)))
                .collect(),
        }
    }

    /// One untraced round: every query through the facade, answers checked
    /// after the clock stops.
    pub fn round(&self, out: &mut PassResult) -> RoundOut {
        let plan: Vec<(&Query, Mode, EngineConfig)> = self
            .queries
            .iter()
            .flat_map(|q| self.runs(q).into_iter().map(move |(m, c)| (q, m, c)))
            .collect();
        let started = Instant::now();
        let reports: Vec<_> = plan
            .iter()
            .map(|(q, mode, cfg)| q.ace.run_strict(*mode, &q.text, cfg))
            .collect();
        let wall = started.elapsed();
        let mut virtual_time = 0;
        for ((q, _, _), report) in plan.iter().zip(&reports) {
            virtual_time += out.check_report(&q.label, &q.expect, report);
        }
        RoundOut {
            wall,
            queries: plan.len() as u64,
            virtual_time,
        }
    }
}

pub fn untraced(kind: Kind, seed: u64, seconds: f64) -> Result<PassResult, String> {
    let (mut out, batch) = measure_rounds(seconds, || Batch::new(kind, seed), Batch::round)?;
    out.pins = pins(&batch.queries);
    Ok(out)
}

/// Per-worker-count sums of one traced engine round.
#[derive(Default, Clone, Copy)]
struct EngineRound {
    virtual_time: u64,
    stats: Stats,
}

pub fn traced(kind: Kind, seed: u64, seconds: f64) -> Result<PassResult, String> {
    let batch = set_up(|| Batch::new(kind, seed), Batch::round)?;
    let mut out = PassResult {
        pins: pins(&batch.queries),
        ..PassResult::default()
    };
    let mut rec = Recorder::new(Instant::now());
    let mut first_solution_us = Vec::new();
    // Sums of the last round (every round repeats them exactly).
    let mut round_stats = Stats::new();
    let mut by_workers = [EngineRound::default(); WORKERS.len()];

    // The or-engine pass keeps a third of its time for the runtime probes.
    let rounds_s = match kind {
        Kind::OrSim => seconds * 0.65,
        _ => seconds,
    };
    let started = Instant::now();
    let mut rounds = 0usize;
    while rounds == 0 || started.elapsed().as_secs_f64() < rounds_s {
        rec.set_round(rounds as u32);
        round_stats = Stats::new();
        by_workers = [EngineRound::default(); WORKERS.len()];
        for (i, q) in batch.queries.iter().enumerate() {
            rec.set_op((rounds * batch.queries.len() + i) as u64);
            match kind.engine_mode() {
                None => {
                    if let Some(r) = traced_sequential(
                        &mut rec,
                        &mut first_solution_us,
                        &mut out,
                        q,
                        &q.ace,
                        &seq_cfg(q.all),
                    ) {
                        round_stats += r.stats;
                    }
                }
                Some(mode) => {
                    for (w, &workers) in WORKERS.iter().enumerate() {
                        let span = match (mode, workers) {
                            (Mode::AndParallel, 1) => "and.run.w1",
                            (Mode::AndParallel, _) => "and.run.w4",
                            (_, 1) => "or.run.w1",
                            _ => "or.run.w4",
                        };
                        let cfg = engine_cfg(q.all, workers);
                        if let Some((vt, stats)) =
                            traced_engine(&mut rec, &mut out, span, q, mode, &cfg)
                        {
                            by_workers[w].virtual_time += vt;
                            by_workers[w].stats += stats;
                            round_stats += stats;
                        }
                    }
                    // The same query on the sequential machine, interleaved:
                    // the base of `par_overhead_n1` and of the machine share.
                    let reference = rec.span("op", |rec| {
                        solve_by_hand(
                            rec,
                            &mut first_solution_us,
                            &q.ace,
                            &q.text,
                            &seq_cfg(q.all),
                        )
                    });
                    out.check(
                        &format!("{} sequential", q.label),
                        &q.expect,
                        reference
                            .as_ref()
                            .map(|(a, _)| a.as_slice())
                            .map_err(String::clone),
                    );
                }
            }
        }
        rounds += 1;
    }

    // The spans that make up what the untraced pass times as one round.
    let in_round = |n: &str| match kind.engine_mode() {
        None => n == "core.run",
        Some(_) => n.starts_with("and.run") || n.starts_with("or.run"),
    };
    let round_ms = rec.round_self_ms(in_round);
    let round_ns = rec.total_self_ns(in_round) as f64;
    out.set_quiet_median("bench.traced_round_ms_p50", &round_ms);
    out.set_p95("round_ms_p95", &round_ms);
    out.set(
        "bench.span_coverage",
        rec.child_coverage(),
        rec.spans().len(),
    );
    out.set(
        "logic.code.instrs",
        batch
            .queries
            .iter()
            .map(|q| code_instrs(&q.ace))
            .sum::<u64>() as f64,
        1,
    );
    out.set(
        "logic.round_share",
        ratio(
            rec.total_self_ns(|n| n == "read.query_parse") as f64,
            round_ns,
        ),
        rounds,
    );
    set_machine_counts(&mut out, &round_stats, rounds);

    let solve_ns = rec.total_self_ns(|n| n == "machine.solve") as f64;
    match kind.engine_mode() {
        None => {
            set_machine_times(&mut out, &rec, &first_solution_us, &round_stats, rounds);
            out.set("machine.round_share", ratio(solve_ns, round_ns), rounds);
        }
        Some(mode) => {
            let [w1, w4] = by_workers;
            // The machine reference ran once per query; the round ran each
            // query once per worker count.
            out.set(
                "machine.round_share",
                ratio(solve_ns * WORKERS.len() as f64, round_ns),
                rounds,
            );
            out.set_quiet_median(
                "machine.solve_ms_p50",
                &rec.round_self_ms(|n| n == "machine.solve"),
            );
            let sequential_ms =
                rec.round_self_ms(|n| n == "machine.solve" || n == "machine.render");
            let engine_ms = |span: &'static str| rec.round_self_ms(move |n| n == span);
            let host_ns_per_unit = |span: &'static str, r: &EngineRound| {
                ratio(
                    rec.total_self_ns(|n| n == span) as f64,
                    r.stats.total_cost() as f64 * rounds as f64,
                )
            };
            let idle_share =
                |r: &EngineRound| ratio(r.stats.idle_cost as f64, r.stats.total_cost() as f64);
            out.set(
                "virtual_speedup_w4",
                ratio(w1.virtual_time as f64, w4.virtual_time as f64),
                rounds,
            );
            let s = &round_stats;
            if mode == Mode::AndParallel {
                let (ms1, ms4) = (engine_ms("and.run.w1"), engine_ms("and.run.w4"));
                out.set(
                    "par_overhead_n1",
                    ratio(quiet_median(&ms1), quiet_median(&sequential_ms)),
                    ms1.len(),
                );
                out.set_quiet_median("and.run_ms_p50.w1", &ms1);
                out.set_quiet_median("and.run_ms_p50.w4", &ms4);
                out.set(
                    "and.host_ns_per_virtual_unit.w1",
                    host_ns_per_unit("and.run.w1", &w1),
                    rounds,
                );
                out.set(
                    "and.host_ns_per_virtual_unit.w4",
                    host_ns_per_unit("and.run.w4", &w4),
                    rounds,
                );
                out.set("and.parcall_frames", s.parcall_frames as f64, rounds);
                out.set("and.parcall_slots", s.parcall_slots as f64, rounds);
                out.set(
                    "and.frames_elided_lpco",
                    s.frames_elided_lpco as f64,
                    rounds,
                );
                out.set("and.markers_allocated", s.markers_allocated as f64, rounds);
                out.set(
                    "and.markers_elided_spo",
                    s.markers_elided_spo as f64,
                    rounds,
                );
                out.set("and.pdo_merges", s.pdo_merges as f64, rounds);
                let elided = (s.frames_elided_lpco + s.markers_elided_spo) as f64;
                out.set(
                    "and.elision_ratio",
                    ratio(
                        elided,
                        elided + (s.parcall_frames + s.markers_allocated) as f64,
                    ),
                    rounds,
                );
                out.set("and.tasks_stolen", s.tasks_stolen as f64, rounds);
                out.set("and.idle_probes", s.idle_probes as f64, rounds);
                out.set("and.idle_cost_share", idle_share(&w4), rounds);
            } else {
                let (ms1, ms4) = (engine_ms("or.run.w1"), engine_ms("or.run.w4"));
                out.set(
                    "par_overhead_n1",
                    ratio(quiet_median(&ms1), quiet_median(&sequential_ms)),
                    ms1.len(),
                );
                out.set_quiet_median("or.run_ms_p50.w1", &ms1);
                out.set_quiet_median("or.run_ms_p50.w4", &ms4);
                out.set(
                    "or.host_ns_per_virtual_unit.w4",
                    host_ns_per_unit("or.run.w4", &w4),
                    rounds,
                );
                out.set("or.nodes_published", s.nodes_published as f64, rounds);
                out.set(
                    "or.alternatives_claimed",
                    s.alternatives_claimed as f64,
                    rounds,
                );
                out.set("or.pool_pushes", s.pool_pushes as f64, rounds);
                out.set("or.pool_pops", s.pool_pops as f64, rounds);
                out.set(
                    "or.claim_hit_ratio",
                    ratio(s.alternatives_claimed as f64, s.pool_pops as f64),
                    rounds,
                );
                out.set(
                    "or.closures_materialized",
                    s.closures_materialized as f64,
                    rounds,
                );
                out.set("or.closures_elided", s.closures_elided as f64, rounds);
                out.set("or.cells_copied_claim", s.cells_copied_claim as f64, rounds);
                out.set("or.cp_reused_lao", s.cp_reused_lao as f64, rounds);
                out.set("or.machines_recycled", s.machines_recycled as f64, rounds);
                out.set("or.idle_cost_share", idle_share(&w4), rounds);
                probes::runtime(&mut out, &batch.queries, seconds - rounds_s);
            }
        }
    }
    out.spans = Some(rec);
    Ok(out)
}
