//! `load_big`: program text → ready `Ace`, then queries that do little
//! solving. Every round loads the generated program into a fresh database.

use std::sync::Arc;
use std::time::Instant;

use ace_core::{Ace, Mode};
use ace_logic::{parse_program, Database};
use ace_runtime::Stats;

use super::{
    code_instrs, measure_rounds, ratio, seq_cfg, set_machine_counts, set_machine_times, set_up,
    traced_sequential, PassResult, Query, RoundOut,
};
use crate::inputs;
use crate::oracle::Expected;
use crate::spans::Recorder;

pub struct LoadBig {
    pub text: String,
    /// Query text with the answers the generator derived from its own
    /// edge list.
    pub queries: Vec<(String, Expected)>,
    /// All queries with all their answers in one digest, for
    /// `expected.json`.
    pub pin: Expected,
}

impl LoadBig {
    pub fn new(seed: u64) -> Result<LoadBig, String> {
        let big = inputs::big_program(seed);
        let everything: Vec<String> = big
            .queries
            .iter()
            .flat_map(|(q, answers)| answers.iter().map(move |a| format!("{q} -> {a}")))
            .collect();
        Ok(LoadBig {
            pin: Expected::of(&everything),
            text: big.text,
            queries: big
                .queries
                .into_iter()
                .map(|(q, answers)| (q, Expected::of(&answers)))
                .collect(),
        })
    }

    pub fn round(&self, out: &mut PassResult) -> RoundOut {
        let cfg = seq_cfg(true);
        let started = Instant::now();
        let loaded = Ace::load(&self.text);
        let reports: Vec<_> = match &loaded {
            Ok(ace) => self
                .queries
                .iter()
                .map(|(q, _)| ace.run_strict(Mode::Sequential, q, &cfg))
                .collect(),
            Err(_) => Vec::new(),
        };
        let wall = started.elapsed();
        out.attempted += 1;
        if let Err(e) = &loaded {
            out.fail(format!("load: {e}"));
        }
        let mut virtual_time = 0;
        for ((q, expect), report) in self.queries.iter().zip(&reports) {
            virtual_time += out.check_report(q, expect, report);
        }
        RoundOut {
            wall,
            queries: reports.len() as u64,
            virtual_time,
        }
    }
}

pub fn untraced(seed: u64, seconds: f64) -> Result<PassResult, String> {
    let (mut out, big) = measure_rounds(seconds, || LoadBig::new(seed), LoadBig::round)?;
    out.pins = vec![("queries".to_owned(), big.pin)];
    Ok(out)
}

pub fn traced(seed: u64, seconds: f64) -> Result<PassResult, String> {
    let big = set_up(|| LoadBig::new(seed), LoadBig::round)?;
    let mut out = PassResult {
        pins: vec![("queries".to_owned(), big.pin)],
        ..PassResult::default()
    };
    let mut rec = Recorder::new(Instant::now());
    let mut first_solution_us = Vec::new();
    let mut round_stats = Stats::new();
    let mut clauses = 0usize;
    let mut instrs = 0u64;
    let cfg = seq_cfg(true);
    let per_round = big.queries.len() + 1;

    let started = Instant::now();
    let mut rounds = 0usize;
    while rounds == 0 || started.elapsed().as_secs_f64() < seconds {
        rec.set_round(rounds as u32);
        rec.set_op((rounds * per_round) as u64);
        round_stats = Stats::new();
        // The facade load, and beside it the same load by hand: read, then
        // compile + index clause by clause.
        let (facade, by_hand) = rec.span("op", |rec| {
            let facade = rec.span("core.load", |_| Ace::load(&big.text));
            let parsed = rec.span("read.parse", |_| parse_program(&big.text));
            let by_hand = parsed.map_err(|e| e.to_string()).and_then(|read| {
                clauses = read.len();
                rec.span("db.add_clause", |_| {
                    let mut db = Database::new();
                    read.into_iter()
                        .try_for_each(|rc| db.add_clause(rc))
                        .map(|()| Ace::from_db(Arc::new(db)))
                })
            });
            (facade, by_hand)
        });
        out.attempted += 1;
        let (facade, by_hand) = match (facade, by_hand) {
            (Ok(f), Ok(h)) => (f, h),
            (f, h) => {
                out.fail(format!("load: facade {:?}, by hand {:?}", f.err(), h.err()));
                break;
            }
        };
        instrs = code_instrs(&facade);
        for (i, (text, expect)) in big.queries.iter().enumerate() {
            rec.set_op((rounds * per_round + 1 + i) as u64);
            let q = Query {
                label: text.clone(),
                ace: facade.clone(),
                text: text.clone(),
                all: true,
                expect: *expect,
            };
            if let Some(r) = traced_sequential(
                &mut rec,
                &mut first_solution_us,
                &mut out,
                &q,
                &by_hand,
                &cfg,
            ) {
                round_stats += r.stats;
            }
        }
        rounds += 1;
    }

    let in_round = |n: &str| n == "core.load" || n == "core.run";
    let round_ms = rec.round_self_ms(in_round);
    let round_ns = rec.total_self_ns(in_round) as f64;
    out.set_quiet_median("bench.traced_round_ms_p50", &round_ms);
    out.set_p95("round_ms_p95", &round_ms);
    out.set(
        "bench.span_coverage",
        rec.child_coverage(),
        rec.spans().len(),
    );

    let load_us = rec.self_us("core.load");
    let load_ms: Vec<f64> = load_us.iter().map(|us| us / 1e3).collect();
    out.set_quiet_median("load_ms_p50", &load_ms);
    let parse_ms = rec.round_self_ms(|n| n == "read.parse");
    let add_ms = rec.round_self_ms(|n| n == "db.add_clause");
    out.set_quiet_median("logic.read.parse_ms_p50", &parse_ms);
    out.set(
        "logic.read.mb_per_s",
        ratio(
            (big.text.len() * rounds) as f64 / 1e6,
            parse_ms.iter().sum::<f64>() / 1e3,
        ),
        rounds,
    );
    out.set("logic.read.clauses", clauses as f64, rounds);
    out.set_quiet_median("logic.db.add_clause_ms_p50", &add_ms);
    out.set(
        "logic.db.clauses_per_s",
        ratio((clauses * rounds) as f64, add_ms.iter().sum::<f64>() / 1e3),
        rounds,
    );
    out.set("logic.code.instrs", instrs as f64, 1);
    out.set(
        "logic.round_share",
        ratio(
            rec.total_self_ns(|n| {
                n == "read.parse" || n == "db.add_clause" || n == "read.query_parse"
            }) as f64,
            round_ns,
        ),
        rounds,
    );
    set_machine_counts(&mut out, &round_stats, rounds);
    set_machine_times(&mut out, &rec, &first_solution_us, &round_stats, rounds);
    out.set(
        "machine.round_share",
        ratio(rec.total_self_ns(|n| n == "machine.solve") as f64, round_ns),
        rounds,
    );
    out.spans = Some(rec);
    Ok(out)
}
