//! `tabled_mix`: the answer stores used both ways. Every round starts from
//! a fresh `TableSpace` and `MemoTable`, evaluates the tabled corpus and
//! the memo cells cold (register, answer insert + dedup, suspend/resume,
//! complete, publish), then re-queries them warm (completed-table and memo
//! replay).

use std::sync::Arc;
use std::time::Instant;

use ace_core::Mode;
use ace_runtime::{EngineConfig, MemoConfig, MemoTable, Stats, TableConfig, TableSpace};

use super::{
    code_instrs, measure_rounds, pins, prepare, probes, ratio, seq_cfg, set_machine_counts, set_up,
    PassResult, Query, RoundOut,
};
use crate::inputs;
use crate::spans::Recorder;

/// Warm passes over the four queries per round, sized at this commit so
/// that the cold half is 40-60% of a round (README, "Sizing").
pub const WARM_PASSES: usize = 100;

pub struct TabledMix {
    pub tabled: Vec<Query>,
    pub memo: Query,
}

/// The runs of one round in order, as `(query, config, is_cold)`.
struct Plan<'a> {
    runs: Vec<(&'a Query, EngineConfig, bool)>,
}

impl TabledMix {
    pub fn new(seed: u64) -> Result<TabledMix, String> {
        Ok(TabledMix {
            tabled: inputs::tabled(seed)
                .into_iter()
                .map(prepare)
                .collect::<Result<Vec<_>, _>>()?,
            memo: prepare(inputs::memo_cells(seed))?,
        })
    }

    pub fn queries(&self) -> impl Iterator<Item = &Query> {
        self.tabled.iter().chain(std::iter::once(&self.memo))
    }

    /// Fresh stores, then one cold and `WARM_PASSES` warm passes.
    fn plan(&self) -> Plan<'_> {
        let space = Arc::new(TableSpace::new(&TableConfig::enabled()));
        let memo = Arc::new(MemoTable::new(&MemoConfig::enabled()));
        let mut runs = Vec::new();
        for pass in 0..=WARM_PASSES {
            for q in &self.tabled {
                let cfg = seq_cfg(true).with_table_space(Arc::clone(&space));
                runs.push((q, cfg, pass == 0));
            }
            let cfg = seq_cfg(true).with_memo_table(Arc::clone(&memo));
            runs.push((&self.memo, cfg, pass == 0));
        }
        Plan { runs }
    }

    pub fn round(&self, out: &mut PassResult) -> RoundOut {
        let plan = self.plan();
        let started = Instant::now();
        let reports: Vec<_> = plan
            .runs
            .iter()
            .map(|(q, cfg, _)| q.ace.run_strict(Mode::Sequential, &q.text, cfg))
            .collect();
        let wall = started.elapsed();
        let mut virtual_time = 0;
        for ((q, _, _), report) in plan.runs.iter().zip(&reports) {
            virtual_time += out.check_report(&q.label, &q.expect, report);
        }
        RoundOut {
            wall,
            queries: plan.runs.len() as u64,
            virtual_time,
        }
    }
}

pub fn untraced(seed: u64, seconds: f64) -> Result<PassResult, String> {
    let (mut out, mix) = measure_rounds(seconds, || TabledMix::new(seed), TabledMix::round)?;
    out.pins = pins(mix.queries());
    Ok(out)
}

pub fn traced(seed: u64, seconds: f64) -> Result<PassResult, String> {
    let mix = set_up(|| TabledMix::new(seed), TabledMix::round)?;
    let mut out = PassResult {
        pins: pins(mix.queries()),
        ..PassResult::default()
    };
    let mut rec = Recorder::new(Instant::now());
    let mut round_stats = Stats::new();
    let mut rounds = 0usize;
    let mut op = 0u64;
    let started = Instant::now();
    // The direct-call probes below take about a second.
    while rounds == 0 || started.elapsed().as_secs_f64() < (seconds - 1.0).max(0.0) {
        rec.set_round(rounds as u32);
        round_stats = Stats::new();
        for (q, cfg, cold) in mix.plan().runs {
            let is_memo = std::ptr::eq(q, &mix.memo);
            let span = match (is_memo, cold) {
                (false, true) => "table.cold",
                (false, false) => "table.warm",
                (true, true) => "memo.cold",
                (true, false) => "memo.warm",
            };
            rec.set_op(op);
            op += 1;
            let report = rec.span("op", |rec| {
                rec.span(span, |_| q.ace.run_strict(Mode::Sequential, &q.text, &cfg))
            });
            out.check_report(&q.label, &q.expect, &report);
            if let Ok(r) = report {
                round_stats += r.stats;
            }
        }
        rounds += 1;
    }

    let round_ms = rec.round_self_ms(|n| n != "op");
    out.set_quiet_median("bench.traced_round_ms_p50", &round_ms);
    out.set_p95("round_ms_p95", &round_ms);
    out.set(
        "bench.span_coverage",
        rec.child_coverage(),
        rec.spans().len(),
    );
    out.set(
        "logic.code.instrs",
        mix.queries().map(|q| code_instrs(&q.ace)).sum::<u64>() as f64,
        1,
    );
    set_machine_counts(&mut out, &round_stats, rounds);

    out.set_quiet_median(
        "table.cold_ms_p50",
        &rec.round_self_ms(|n| n == "table.cold"),
    );
    out.set_quiet_median("memo.cold_ms_p50", &rec.round_self_ms(|n| n == "memo.cold"));
    out.set_quiet_median("table.warm_us_p50", &rec.self_us("table.warm"));
    out.set_quiet_median("memo.warm_us_p50", &rec.self_us("memo.warm"));
    out.set(
        "table.cold_share",
        ratio(
            rec.total_self_ns(|n| n.ends_with(".cold")) as f64,
            rec.total_self_ns(|n| n != "op") as f64,
        ),
        rounds,
    );
    let s = &round_stats;
    out.set("table.subgoals", s.table_subgoals as f64, rounds);
    out.set("table.answers", s.table_answers as f64, rounds);
    out.set("table.dups", s.table_dups as f64, rounds);
    out.set(
        "table.dup_ratio",
        ratio(s.table_dups as f64, (s.table_dups + s.table_answers) as f64),
        rounds,
    );
    out.set("table.suspends", s.table_suspends as f64, rounds);
    out.set("table.resumes", s.table_resumes as f64, rounds);
    out.set("table.completes", s.table_completes as f64, rounds);
    out.set("table.hits", s.table_hits as f64, rounds);
    out.set("memo.hits", s.memo_hits as f64, rounds);
    out.set("memo.misses", s.memo_misses as f64, rounds);
    out.set("memo.stores", s.memo_stores as f64, rounds);
    out.set(
        "memo.hit_rate",
        ratio(s.memo_hits as f64, (s.memo_hits + s.memo_misses) as f64),
        rounds,
    );
    probes::canon_copy(&mut out);
    probes::answer_stores(&mut out);
    out.spans = Some(rec);
    Ok(out)
}
