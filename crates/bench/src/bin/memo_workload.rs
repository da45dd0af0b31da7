//! `memo_workload` — answer-memoization bench, JSON output.
//!
//! Runs a repeated-subgoal workload (a parallel conjunction of identical
//! deterministic `nrev` cells, structurally indexed so every subgoal is
//! tabled) on the and-engine at 1/2/4/8 workers, three ways per worker
//! count: memo off, memo on with a cold table, and memo on against the
//! warm table the cold run filled. Records virtual-time speedups, call
//! counts (the "subgoal re-execution" measure) and table hit rates, and
//! fails loudly if memoization does not at least halve the executed
//! calls. Writes the machine-readable artifact CI uploads on every run.
//!
//! ```text
//! memo_workload                    # full sizes, writes BENCH_memo.json
//! memo_workload --smoke            # reduced sizes (CI smoke job)
//! memo_workload --json --out FILE  # explicit output path
//! ```

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use ace_bench::json::Json;
use ace_core::{Ace, Mode, RunReport};
use ace_runtime::{AnswerStore, EngineConfig, OptFlags, StoreConfig};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The repeated-subgoal program: `cells` parallel calls that all reverse
/// the same `len`-element list. First-argument indexing on `[]`/`[H|T]`
/// keeps every subgoal deterministic, so the whole recursion tables.
fn program(len: usize, cells: usize) -> (String, String) {
    let list = (1..=len)
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let vars: Vec<String> = (0..cells).map(|i| format!("R{i}")).collect();
    let body = vars
        .iter()
        .map(|v| format!("cell({v})"))
        .collect::<Vec<_>>()
        .join(" & ");
    let src = format!(
        r#"
        append([], L, L).
        append([H|T], L, [H|R]) :- append(T, L, R).
        nrev([], []).
        nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
        cell(R) :- nrev([{list}], R).
        run({args}) :- {body}.
        "#,
        args = vars.join(", "),
    );
    (src, format!("run({})", vars.join(", ")))
}

fn cfg(workers: usize) -> EngineConfig {
    EngineConfig::default()
        .with_workers(workers)
        .with_opts(OptFlags::all())
        .all_solutions()
}

fn run(
    ace: &Ace,
    query: &str,
    workers: usize,
    memo: Option<&Arc<AnswerStore>>,
) -> Result<RunReport, String> {
    let mut c = cfg(workers);
    if let Some(t) = memo {
        c = c.with_store(t.clone()).with_memoization();
    }
    ace.run(Mode::AndParallel, query, &c)
        .map_err(|e| format!("workers={workers}: {e}"))
}

fn stats_json(r: &RunReport) -> Json {
    let lookups = r.stats.memo_hits + r.stats.memo_misses;
    Json::obj([
        ("virtual_time", r.virtual_time.into()),
        ("calls", r.stats.calls.into()),
        ("hits", r.stats.memo_hits.into()),
        ("misses", r.stats.memo_misses.into()),
        ("stores", r.stats.memo_stores.into()),
        ("evictions", r.stats.memo_evictions.into()),
        (
            "hit_rate",
            (lookups > 0)
                .then(|| r.stats.memo_hits as f64 / lookups as f64)
                .into(),
        ),
    ])
}

fn workload_entry(len: usize, cells: usize) -> Result<Json, String> {
    let (src, query) = program(len, cells);
    let ace = Ace::load(&src)?;

    let mut runs = Vec::new();
    for w in WORKER_COUNTS {
        let off = run(&ace, &query, w, None)?;

        let table = Arc::new(AnswerStore::new(&StoreConfig::default()));
        let cold = run(&ace, &query, w, Some(&table))?;
        let warm = run(&ace, &query, w, Some(&table))?;
        for (label, r) in [("cold", &cold), ("warm", &warm)] {
            if r.solutions != off.solutions {
                return Err(format!(
                    "workers={w}: memo-on ({label}) solutions differ from memo-off"
                ));
            }
        }

        // The acceptance bar: even a cold table must at least halve the
        // executed calls on this workload (every cell after the first
        // replays, and racing workers still share the suffix results).
        let reexec_ratio = off.stats.calls as f64 / cold.stats.calls.max(1) as f64;
        if reexec_ratio < 2.0 {
            return Err(format!(
                "workers={w}: cold memo run only cut calls {reexec_ratio:.2}x \
                 ({} -> {}), expected >= 2x",
                off.stats.calls, cold.stats.calls
            ));
        }

        runs.push(Json::obj([
            ("workers", w.into()),
            ("virtual_time_off", off.virtual_time.into()),
            ("calls_off", off.stats.calls.into()),
            ("cold", stats_json(&cold)),
            ("warm", stats_json(&warm)),
            ("speedup_cold", cold.speedup_from(off.virtual_time).into()),
            ("speedup_warm", warm.speedup_from(off.virtual_time).into()),
            ("reexec_ratio_cold", reexec_ratio.into()),
            (
                "reexec_ratio_warm",
                (off.stats.calls as f64 / warm.stats.calls.max(1) as f64).into(),
            ),
        ]));
    }
    Ok(Json::obj([
        ("name", "repeated_nrev_cells".into()),
        ("list_len", len.into()),
        ("cells", cells.into()),
        ("runs", Json::Arr(runs)),
    ]))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // --json is the only output mode; accepted for CLI symmetry with tables.
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_memo.json"));

    let (len, cells) = if smoke { (8, 6) } else { (16, 12) };
    eprintln!("memo workload: {cells} cells of nrev/{len} ...");
    let entry = match workload_entry(len, cells) {
        Ok(entry) => entry,
        Err(e) => {
            eprintln!("memo_workload FAILED: {e}");
            std::process::exit(2);
        }
    };

    let doc = Json::obj([
        ("bench", "memo_workload".into()),
        ("smoke", smoke.into()),
        ("workers", WORKER_COUNTS.to_vec().into()),
        ("workload", entry),
    ]);
    fs::write(&out, doc.render()).expect("write bench json");
    eprintln!("wrote {}", out.display());
}
