//! `tabling_workload` — or-parallel tabling bench, JSON output.
//!
//! Runs the tabled corpus (left-recursive closure, left-recursive
//! grammar, same-generation datalog — programs ordinary resolution
//! cannot terminate on) across both drivers at 1/2/4/8 workers and
//! checks, per run:
//!
//!   * termination with the sequential tabled oracle's exact answer set
//!     (sorted comparison — tabling dedups, so set == multiset),
//!   * zero duplicate answers delivered,
//!   * a warm run against the completed tables is pure lookup (no new
//!     subgoal frames) and at least 5x cheaper in virtual time.
//!
//! Any violation exits 2 so CI fails loudly. `--stress --seed N` is the
//! nightly fixpoint stress: a deep left-recursive chain with
//! seed-rotated chord edges, driving hundreds of suspend/resume rounds
//! through the SCC completion machinery on both drivers.
//!
//! ```text
//! tabling_workload                    # full sizes, writes BENCH_tabling.json
//! tabling_workload --smoke            # reduced sizes (CI smoke job)
//! tabling_workload --stress --seed N  # nightly deep-SCC stress, no artifact
//! tabling_workload --out FILE         # explicit output path
//! ```

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use ace_bench::json::Json;
use ace_core::{Ace, Mode, RunReport};
use ace_programs::{tabled, TabledProgram};
use ace_runtime::{AnswerStore, DriverKind, EngineConfig, OptFlags, StoreConfig};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const DRIVERS: [(DriverKind, &str); 2] =
    [(DriverKind::Sim, "sim"), (DriverKind::Threads, "threads")];

fn space() -> Arc<AnswerStore> {
    Arc::new(AnswerStore::new(&StoreConfig::default().with_shards(8)))
}

fn cfg(workers: usize, driver: DriverKind, table: &Arc<AnswerStore>) -> EngineConfig {
    EngineConfig::default()
        .with_workers(workers)
        .with_driver(driver)
        .with_opts(OptFlags::all())
        .with_store(table.clone())
        .with_tabling()
        .all_solutions()
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

/// No run may ever deliver the same answer twice: duplicate elimination
/// happens at answer insertion, before consumers see anything.
fn check_no_dups(label: &str, sols: &[String]) -> Result<(), String> {
    let mut uniq = sols.to_vec();
    uniq.sort();
    uniq.dedup();
    if uniq.len() != sols.len() {
        return Err(format!(
            "{label}: {} duplicate answers delivered",
            sols.len() - uniq.len()
        ));
    }
    Ok(())
}

fn stats_json(r: &RunReport) -> Json {
    Json::obj([
        ("virtual_time", r.virtual_time.into()),
        ("subgoals", r.stats.table_subgoals.into()),
        ("answers", r.stats.table_answers.into()),
        ("dups", r.stats.table_dups.into()),
        ("suspends", r.stats.table_suspends.into()),
        ("resumes", r.stats.table_resumes.into()),
        ("completes", r.stats.table_completes.into()),
        ("hits", r.stats.table_hits.into()),
    ])
}

fn program_entry(p: &TabledProgram, size: usize) -> Result<Json, String> {
    let src = (p.program)(size);
    let query = (p.query)(size);
    let ace = Ace::load(&src).map_err(|e| format!("{}: {e}", p.name))?;
    let oracle_len = (p.oracle)(size);

    // Sequential tabled evaluation is the oracle (the untabled program
    // does not terminate), cross-checked against the closed-form count.
    let seq_space = space();
    let seq_cold = ace
        .run(
            Mode::Sequential,
            &query,
            &cfg(1, DriverKind::Sim, &seq_space),
        )
        .map_err(|e| format!("{}: sequential: {e}", p.name))?;
    let oracle = sorted(seq_cold.solutions.clone());
    check_no_dups(&format!("{} sequential", p.name), &oracle)?;
    if oracle.len() != oracle_len {
        return Err(format!(
            "{}: sequential found {} answers, closed-form oracle says {oracle_len}",
            p.name,
            oracle.len()
        ));
    }

    // Completed tables must turn re-evaluation into pure lookup: no new
    // subgoal frames, and at least 5x cheaper in virtual time.
    let seq_warm = ace
        .run(
            Mode::Sequential,
            &query,
            &cfg(1, DriverKind::Sim, &seq_space),
        )
        .map_err(|e| format!("{}: sequential warm: {e}", p.name))?;
    if sorted(seq_warm.solutions.clone()) != oracle {
        return Err(format!("{}: warm sequential answers differ", p.name));
    }
    if seq_warm.stats.table_subgoals != 0 {
        return Err(format!(
            "{}: warm run re-framed {} subgoals",
            p.name, seq_warm.stats.table_subgoals
        ));
    }
    let lookup_speedup = seq_cold.virtual_time as f64 / seq_warm.virtual_time.max(1) as f64;
    if lookup_speedup < 5.0 {
        return Err(format!(
            "{}: completed-table lookup only {lookup_speedup:.2}x cheaper \
             ({} -> {}), expected >= 5x",
            p.name, seq_cold.virtual_time, seq_warm.virtual_time
        ));
    }

    let mut runs = Vec::new();
    for (driver, dname) in DRIVERS {
        for w in WORKER_COUNTS {
            let label = format!("{} {dname} workers={w}", p.name);
            let table = space();
            let cold = ace
                .run(Mode::OrParallel, &query, &cfg(w, driver, &table))
                .map_err(|e| format!("{label}: {e}"))?;
            check_no_dups(&label, &cold.solutions)?;
            if sorted(cold.solutions.clone()) != oracle {
                return Err(format!(
                    "{label}: answer set diverged from the sequential oracle \
                     ({} vs {} answers)",
                    cold.solutions.len(),
                    oracle.len()
                ));
            }

            let warm = ace
                .run(Mode::OrParallel, &query, &cfg(w, driver, &table))
                .map_err(|e| format!("{label} warm: {e}"))?;
            check_no_dups(&format!("{label} warm"), &warm.solutions)?;
            if sorted(warm.solutions.clone()) != oracle {
                return Err(format!("{label}: warm answer set diverged"));
            }
            if warm.stats.table_subgoals != 0 {
                return Err(format!(
                    "{label}: warm run re-framed {} subgoals",
                    warm.stats.table_subgoals
                ));
            }

            runs.push(Json::obj([
                ("driver", dname.into()),
                ("workers", w.into()),
                ("cold", stats_json(&cold)),
                ("warm", stats_json(&warm)),
                (
                    "speedup_vs_seq",
                    cold.speedup_from(seq_cold.virtual_time).into(),
                ),
            ]));
        }
    }

    Ok(Json::obj([
        ("name", p.name.into()),
        ("size", size.into()),
        ("answers", oracle.len().into()),
        ("virtual_time_seq", seq_cold.virtual_time.into()),
        ("lookup_speedup", lookup_speedup.into()),
        ("runs", Json::Arr(runs)),
    ]))
}

/// Nightly fixpoint stress: a left-recursive chain of `len` nodes with
/// seed-rotated forward chords. Every node is an SCC member of the one
/// generator's fixpoint, so completion crosses hundreds of
/// suspend/resume rounds; the chords vary the resumption order run to
/// run without changing the closure (all edges point forward).
fn stress(len: usize, seed: u64) -> Result<(), String> {
    let mut src = String::from(
        ":- table(path/2).\npath(X, Y) :- path(X, Z), edge(Z, Y).\npath(X, Y) :- edge(X, Y).\n",
    );
    for i in 0..len {
        src.push_str(&format!("edge(n{i}, n{}).\n", i + 1));
    }
    // Chords: deterministic in the seed, always forward jumps.
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    for _ in 0..len / 8 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let from = (state >> 33) as usize % len;
        let jump = 2 + (state >> 17) as usize % 7;
        let to = (from + jump).min(len);
        src.push_str(&format!("edge(n{from}, n{to}).\n"));
    }

    let ace = Ace::load(&src)?;
    for (driver, dname) in DRIVERS {
        let table = space();
        let r = ace
            .run(Mode::OrParallel, "path(n0, X)", &cfg(8, driver, &table))
            .map_err(|e| format!("stress {dname}: {e}"))?;
        check_no_dups(&format!("stress {dname}"), &r.solutions)?;
        if r.solutions.len() != len {
            return Err(format!(
                "stress {dname}: {} answers from a {len}-node chain",
                r.solutions.len()
            ));
        }
        if r.stats.table_suspends == 0 || r.stats.table_resumes == 0 {
            return Err(format!(
                "stress {dname}: fixpoint never suspended/resumed ({})",
                r.stats.summary()
            ));
        }
        eprintln!(
            "stress {dname}: {len} nodes ok, {} suspends / {} resumes",
            r.stats.table_suspends, r.stats.table_resumes
        );
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_tabling.json"));

    if args.iter().any(|a| a == "--stress") {
        let seed = args
            .iter()
            .position(|a| a == "--seed")
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(1);
        let len = if smoke { 60 } else { 300 };
        eprintln!("tabling fixpoint stress: {len}-node chain, seed {seed} ...");
        if let Err(e) = stress(len, seed) {
            eprintln!("tabling_workload FAILED: {e}");
            std::process::exit(2);
        }
        return;
    }

    let mut entries = Vec::new();
    for p in tabled() {
        let size = if smoke { p.test_size } else { p.bench_size };
        eprintln!("tabling workload: {} at size {size} ...", p.name);
        match program_entry(&p, size) {
            Ok(entry) => entries.push(entry),
            Err(e) => {
                eprintln!("tabling_workload FAILED: {e}");
                std::process::exit(2);
            }
        }
    }

    let doc = Json::obj([
        ("bench", "tabling_workload".into()),
        ("smoke", smoke.into()),
        ("workers", WORKER_COUNTS.to_vec().into()),
        (
            "drivers",
            Json::Arr(DRIVERS.iter().map(|(_, n)| (*n).into()).collect()),
        ),
        ("programs", Json::Arr(entries)),
    ]);
    fs::write(&out, doc.render()).expect("write bench json");
    eprintln!("wrote {}", out.display());
}
