//! `ace-fd` on the shared or-tree: N-queens as a finite-domain labeling
//! search at 1–64 workers, flat and multi-domain, with and without LAO.
//! Deterministic virtual time; regenerated by `tables`.

use std::collections::HashMap;
use std::time::Duration;

use ace_core::RunReport;
use ace_fd::{queens, Fd};
use ace_runtime::{OptFlags, OrScheduler, Topology};

use crate::or_scaling::STEAL_COST;
use crate::{cfg_for, labels, stat, Artifact, Column, Table, SOLUTIONS, SPEEDUP, VIRTUAL_TIME};

/// One fd run, in the shape every table column reads.
fn solve(n: usize, cfg: &ace_runtime::EngineConfig) -> Result<RunReport, String> {
    let r = Fd::new(queens(n)).solve_all(cfg);
    if let Some(e) = r.outcome.aborted {
        return Err(format!("queens({n}): {e}"));
    }
    let mut solutions: Vec<String> = r.solutions.iter().map(|s| format!("{s:?}")).collect();
    solutions.sort();
    Ok(RunReport {
        solutions,
        virtual_time: r.outcome.virtual_time,
        wall: Duration::ZERO,
        clocks: r.outcome.clocks,
        stats: r.stats,
        per_worker: Vec::new(),
        tree_depth: Some(r.max_tree_depth),
        recovery: Vec::new(),
        trace: None,
    })
}

/// The O(1) bar the or-engine's pool is held to on a deepening chain
/// (`tests/scheduler_equivalence.rs`): tree visits per claimed
/// alternative.
const FLAT_STEAL_COST: f64 = 4.0;

/// queens 8–11 × 1/2/4/8/64 workers × flat/numa4 × none/LAO on the pool,
/// plus the traversal oracle on every LAO-off 8-worker cell.
///
/// Guards: every cell finds the 1-worker solution set; the pool's steal
/// cost per claim stays under the or-engine's O(1) bar at every board
/// size, while the traversal oracle's grows from the smallest board to
/// the largest and ends above twice the pool's.
pub fn scaling() -> Result<Vec<Artifact>, String> {
    const COLUMNS: &[Column] = &[
        SOLUTIONS,
        VIRTUAL_TIME,
        SPEEDUP,
        ("max_tree_depth", |r, _| {
            r.tree_depth.map_or("-".to_owned(), |d| d.to_string())
        }),
        stat!(tree_visits),
        stat!(alternatives_claimed),
        STEAL_COST,
        stat!(closures_materialized),
        stat!(closures_elided),
    ];
    let mut table = Table::new(
        "fd_scaling",
        "FD labeling on the shared or-tree — queens 8–11, pool scheduler",
        "speedup is against the same board, topology and flags at 1 worker; \
         guards: every cell finds the 1-worker solutions, the pool's steal \
         cost per claim is flat in N, the traversal rows' grows",
        &["n", "topology", "opts", "scheduler", "workers"],
        COLUMNS,
    );
    const BOARDS: [usize; 4] = [8, 9, 10, 11];
    // (topology, board) → steal cost per claim at 8 workers, LAO off:
    // traversal's, then the pool's.
    let mut at_8: HashMap<(&str, usize), (f64, f64)> = HashMap::new();
    for n in BOARDS {
        let mut oracle: Option<Vec<String>> = None;
        for (topo_name, topo) in [("flat", Topology::flat()), ("numa4", Topology::numa(4))] {
            for (opts_name, opts) in [("none", OptFlags::none()), ("lao", OptFlags::lao_only())] {
                let mut cells = [1, 2, 4, 8, 64]
                    .map(|w| ("pool", OrScheduler::Pool, w))
                    .to_vec();
                if opts_name == "none" {
                    cells.push(("traversal", OrScheduler::Traversal, 8));
                }
                let mut base: Option<RunReport> = None;
                let mut pool_at_8 = 0.0;
                for (sched_name, sched, w) in cells {
                    let cell = format!("queens({n}) {topo_name} {opts_name} {sched_name} w={w}");
                    let mut c = cfg_for(true, w, opts, sched);
                    c.run.topology = topo.clone();
                    let r = solve(n, &c)?;
                    if *oracle.get_or_insert_with(|| r.solutions.clone()) != r.solutions {
                        return Err(format!("{cell}: solutions differ from the 1-worker run's"));
                    }
                    let cost = r.steal_cost_per_claim().unwrap_or(0.0);
                    match sched {
                        OrScheduler::Pool if cost > FLAT_STEAL_COST => {
                            return Err(format!(
                                "{cell}: pool steal cost per claim {cost:.2} is over the \
                                 O(1) bar {FLAT_STEAL_COST}"
                            ));
                        }
                        OrScheduler::Pool if w == 8 => pool_at_8 = cost,
                        OrScheduler::Pool => {}
                        OrScheduler::Traversal => {
                            at_8.insert((topo_name, n), (cost, pool_at_8));
                        }
                    }
                    let base = base.get_or_insert_with(|| r.clone());
                    let mut row = labels![n, topo_name, opts_name, sched_name, w];
                    row.extend(COLUMNS.iter().map(|(_, read)| read(&r, base)));
                    table.rows.push(row);
                }
            }
        }
    }
    let (first, last) = (BOARDS[0], BOARDS[BOARDS.len() - 1]);
    for topo in ["flat", "numa4"] {
        let (small, _) = at_8[&(topo, first)];
        let (large, pool) = at_8[&(topo, last)];
        if large <= small || large <= 2.0 * pool {
            return Err(format!(
                "{topo}: traversal steal cost per claim should grow with the board \
                 ({small:.2} at n={first} -> {large:.2} at n={last}) and end above \
                 twice the pool's ({pool:.2})"
            ));
        }
    }
    Ok(table.artifacts())
}
