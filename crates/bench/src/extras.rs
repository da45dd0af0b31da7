//! Deterministic experiments beside the paper's and the or-engine's: the
//! cost-model ablation, the answer store's memo and tabling tables, and
//! the deep-SCC tabling stress.

use std::sync::Arc;

use ace_core::{Ace, Mode};
use ace_runtime::{AnswerStore, CostModel, DriverKind, OptFlags, OrScheduler, StoreConfig};

use crate::{
    cfg_for, labels, pool_cfg, stat, sweep, Artifact, Column, Table, SOLUTIONS, SPEEDUP,
    VIRTUAL_TIME, WORKER_COUNTS,
};

fn store() -> Arc<AnswerStore> {
    Arc::new(AnswerStore::new(&StoreConfig::default().with_shards(8)))
}

/// Cost-model sensitivity. The reproduction's conclusions rest on a
/// calibrated cost model (`ace_runtime::CostModel`); this varies one price
/// at a time and reports how the optimization that removes that operation
/// responds:
///
/// * `marker_alloc` → SPO's gain (it removes exactly these);
/// * `frame_traverse`, `parcall_frame_alloc` → LPCO's gain (flattening
///   removes traversals and frames);
/// * `tree_visit` → LAO's gain (shallow public trees are cheap to scan);
/// * `steal` → PDO's gain (owner-local execution avoids it).
///
/// Reading: each gain should grow with the price of the operation it
/// eliminates — confirming the mechanism — while remaining positive across
/// the sweep (robustness).
pub fn ablation() -> Result<Vec<Artifact>, String> {
    struct Knob {
        name: &'static str,
        values: [u64; 3],
        set: fn(&mut CostModel, u64),
        benchmark: &'static str,
        size: usize,
        workers: usize,
        base: OptFlags,
        opt: OptFlags,
        optimization: &'static str,
    }
    let knobs = [
        Knob {
            name: "marker_alloc",
            values: [5, 30, 120],
            set: |c, v| c.marker_alloc = v,
            benchmark: "takeuchi",
            size: 9,
            workers: 4,
            base: OptFlags::none(),
            opt: OptFlags::spo_only(),
            optimization: "SPO",
        },
        Knob {
            name: "frame_traverse",
            values: [12, 48, 200],
            set: |c, v| c.frame_traverse = v,
            benchmark: "matrix_bt",
            size: 8,
            workers: 4,
            base: OptFlags::none(),
            opt: OptFlags::lpco_only(),
            optimization: "LPCO (backward)",
        },
        Knob {
            name: "parcall_frame_alloc",
            values: [10, 40, 160],
            set: |c, v| c.parcall_frame_alloc = v,
            benchmark: "map2",
            size: 30,
            workers: 4,
            base: OptFlags::none(),
            opt: OptFlags::lpco_only(),
            optimization: "LPCO (forward)",
        },
        Knob {
            name: "tree_visit",
            values: [2, 8, 40],
            set: |c, v| c.tree_visit = v,
            benchmark: "members",
            size: 14,
            workers: 8,
            base: OptFlags::none(),
            opt: OptFlags::lao_only(),
            optimization: "LAO",
        },
        Knob {
            name: "steal",
            values: [5, 30, 150],
            set: |c, v| c.steal = v,
            benchmark: "takeuchi",
            size: 9,
            workers: 1,
            base: OptFlags::lpco_only(),
            opt: OptFlags {
                lpco: true,
                pdo: true,
                ..OptFlags::none()
            },
            optimization: "PDO",
        },
    ];
    let mut table = Table::new(
        "ablation",
        "Cost-model ablation — one price varied, the optimization that removes it measured",
        "each gain should grow with the price of the operation it eliminates \
         and stay positive across the sweep",
        &[
            "knob",
            "value",
            "t_base",
            "t_opt",
            "improvement_pct",
            "optimization",
            "benchmark",
        ],
        &[],
    );
    for k in knobs {
        let b = ace_programs::benchmark(k.benchmark)
            .ok_or_else(|| format!("unknown benchmark {}", k.benchmark))?;
        let ace = Ace::load(&(b.program)(k.size))?;
        let query = (b.query)(k.size);
        for v in k.values {
            let run = |opts| {
                let mut c = cfg_for(b.all_solutions, k.workers, opts, OrScheduler::Pool);
                (k.set)(&mut c.costs, v);
                ace.run(b.mode, &query, &c)
                    .map_err(|e| format!("ablation {}={v}: {e}", k.name))
            };
            let (r0, r1) = (run(k.base)?, run(k.opt)?);
            table.rows.push(labels![
                k.name,
                v,
                r0.virtual_time,
                r1.virtual_time,
                format!("{:.1}", r0.improvement_over(&r1)),
                k.optimization,
                k.benchmark,
            ]);
        }
    }
    Ok(table.artifacts())
}

/// Answer memoization on a repeated-subgoal workload: an and-parallel
/// conjunction of 12 identical deterministic `nrev/16` cells (structurally
/// indexed, so every subgoal is memoized), per worker count with the memo
/// off, on over a cold store, and on again over the store the cold run
/// filled. Answer equality and the "calls at least halved" bar are tier-1
/// tests (`tests/memo_equivalence.rs`); this is the table.
pub fn memo() -> Result<Vec<Artifact>, String> {
    const COLUMNS: &[Column] = &[
        VIRTUAL_TIME,
        SPEEDUP,
        stat!(calls),
        stat!(memo_hits),
        stat!(memo_misses),
        stat!(memo_stores),
    ];
    let mut table = Table::new(
        "memo",
        "Memoization — 12 parallel cells of nrev/16, and-engine",
        "speedup is against the memo-off run at the same worker count; \
         warm reuses the store the cold run filled",
        &["workers", "memo"],
        COLUMNS,
    );
    let (len, cells) = (16, 12);
    let list: Vec<String> = (1..=len).map(|i| i.to_string()).collect();
    let vars: Vec<String> = (0..cells).map(|i| format!("R{i}")).collect();
    let goals: Vec<String> = vars.iter().map(|v| format!("cell({v})")).collect();
    let query = format!("run({})", vars.join(", "));
    let ace = Ace::load(&format!(
        "append([], L, L).\n\
         append([H|T], L, [H|R]) :- append(T, L, R).\n\
         nrev([], []).\n\
         nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).\n\
         cell(R) :- nrev([{}], R).\n\
         {query} :- {}.\n",
        list.join(","),
        goals.join(" & "),
    ))?;
    for w in WORKER_COUNTS {
        let on = pool_cfg(w).with_store(store()).with_memoization();
        let runs = [("off", pool_cfg(w)), ("cold", on.clone()), ("warm", on)]
            .into_iter()
            .map(|(memo, c)| (labels![w, memo], Mode::AndParallel, c))
            .collect();
        sweep(&mut table, &ace, &query, runs, COLUMNS)?;
    }
    Ok(table.artifacts())
}

/// SLG tabling on the tabled corpus (left-recursive closure and grammar,
/// same-generation — none terminates under ordinary resolution): the
/// sequential fixpoint cold and warm, then the or-engine on the simulated
/// driver at 1/2/4/8 workers, each cold and then warm over the table the
/// cold run completed. Answer-set equality on both drivers, no duplicate
/// delivery, warm runs framing no subgoal and the >= 5x lookup bar are
/// tier-1 tests (`tests/tabling_equivalence.rs`); this is the table.
pub fn tabling() -> Result<Vec<Artifact>, String> {
    const COLUMNS: &[Column] = &[
        SOLUTIONS,
        VIRTUAL_TIME,
        SPEEDUP,
        stat!(table_subgoals),
        stat!(table_answers),
        stat!(table_dups),
        stat!(table_suspends),
        stat!(table_resumes),
        stat!(table_completes),
        stat!(table_hits),
    ];
    let mut table = Table::new(
        "tabling",
        "Tabling — the tabled corpus, sequential and or-parallel (sim), cold and warm",
        "speedup is against the program's sequential cold fixpoint; on a \
         warm row it is the completed-table lookup speedup",
        &["program", "size", "engine", "workers", "table"],
        COLUMNS,
    );
    for p in ace_programs::tabled() {
        let ace = Ace::load(&(p.program)(p.bench_size)).map_err(|e| format!("{}: {e}", p.name))?;
        let mut runs = Vec::new();
        for (engine, mode, workers) in std::iter::once(("seq", Mode::Sequential, 1))
            .chain(WORKER_COUNTS.map(|w| ("or", Mode::OrParallel, w)))
        {
            let c = pool_cfg(workers).with_store(store()).with_tabling();
            for state in ["cold", "warm"] {
                let row = labels![p.name, p.bench_size, engine, workers, state];
                runs.push((row, mode, c.clone()));
            }
        }
        sweep(&mut table, &ace, &(p.query)(p.bench_size), runs, COLUMNS)?;
    }
    Ok(table.artifacts())
}

/// Deep-SCC fixpoint stress (nightly with a rotating `seed`, seed 1 on
/// every `tables` run). A ring of `LEN + 1` nodes under *right*-recursive
/// closure: `path(n0, X)` calls `path(n1, _)` calls … calls `path(nLEN, _)`
/// calls `path(n0, _)`, so every node is its own tabled subgoal and all of
/// them are one SCC under the first one's leadership; each consumer
/// suspends on an incomplete table and is resumed as answers flow back
/// round the ring. Seeded forward chords change the order answers are
/// derived in and add duplicate derivations, never the closure (every node
/// reaches every node). Measured when written, any seed, both drivers:
/// `LEN + 1` subgoals, `2 (LEN + 1)` suspends, `LEN + 1` resumes,
/// `(LEN + 1)^2` table answers — the left-recursive chain this replaces
/// made 1 subgoal, 2 suspends and 1 resume at every length. Runs on both
/// drivers at 8 workers; fails on a wrong or duplicated answer set, or if
/// subgoals, suspends or resumes fall below the chain length.
pub fn stress(seed: u64) -> Result<Vec<Artifact>, String> {
    const LEN: usize = 300;
    let mut src = String::from(
        ":- table(path/2).\npath(X, Y) :- edge(X, Z), path(Z, Y).\npath(X, Y) :- edge(X, Y).\n",
    );
    for i in 0..LEN {
        src.push_str(&format!("edge(n{i}, n{}).\n", i + 1));
    }
    src.push_str(&format!("edge(n{LEN}, n0).\n"));
    let mut state = seed;
    for _ in 0..LEN / 8 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let from = (state >> 33) as usize % LEN;
        let to = (from + 2 + (state >> 17) as usize % 7).min(LEN);
        src.push_str(&format!("edge(n{from}, n{to}).\n"));
    }

    let ace = Ace::load(&src)?;
    for driver in [DriverKind::Sim, DriverKind::Threads] {
        let c = pool_cfg(8)
            .with_driver(driver)
            .with_store(store())
            .with_tabling();
        let r = ace
            .run(Mode::OrParallel, "path(n0, X)", &c)
            .map_err(|e| format!("stress {driver:?}: {e}"))?;
        let mut answers = r.solutions.clone();
        answers.sort();
        answers.dedup();
        if answers.len() != r.solutions.len() || answers.len() != LEN + 1 {
            return Err(format!(
                "stress {driver:?}: {} answers ({} distinct) from a ring of {} nodes",
                r.solutions.len(),
                answers.len(),
                LEN + 1
            ));
        }
        let s = &r.stats;
        if (s.table_subgoals.min(s.table_suspends).min(s.table_resumes) as usize) < LEN {
            return Err(format!(
                "stress {driver:?}: the fixpoint is not {LEN} deep ({})",
                s.summary()
            ));
        }
        eprintln!(
            "stress {driver:?} seed {seed}: {} answers, {} subgoals, {} suspends / {} resumes, \
             {} duplicate derivations",
            answers.len(),
            s.table_subgoals,
            s.table_suspends,
            s.table_resumes,
            s.table_dups
        );
    }
    Ok(Vec::new())
}
