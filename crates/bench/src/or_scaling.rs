//! The or-engine beyond the paper's ten processors: scaling at 1–8
//! workers, steal cost against public-tree depth, claim locality, the
//! 64–512-worker topology grid, and a cost profile of its worst cell.
//! All deterministic virtual time; regenerated by `tables`.

use ace_core::{Ace, Mode};
use ace_runtime::{FaultKind, FaultPlan, OptFlags, OrScheduler, Profile, Topology, TraceConfig};

use crate::{
    cfg_for, labels, pool_cfg, stat, sweep, Artifact, Column, Table, SOLUTIONS, SPEEDUP,
    VIRTUAL_TIME, WORKER_COUNTS,
};

pub(crate) const STEAL_COST: Column = ("steal_cost_per_claim", |r, _| {
    r.steal_cost_per_claim()
        .map_or("-".to_owned(), |c| format!("{c:.2}"))
});

/// Virtual-time speedup of the or-parallel corpus at 1/2/4/8 workers under
/// the pool scheduler, plus a Perfetto trace of the first benchmark at 4
/// workers (`or_trace.json`, not checked in; load it at ui.perfetto.dev).
pub fn scaling() -> Result<Vec<Artifact>, String> {
    const COLUMNS: &[Column] = &[
        SOLUTIONS,
        VIRTUAL_TIME,
        SPEEDUP,
        stat!(pool_pushes),
        stat!(pool_pops),
        stat!(machines_recycled),
        STEAL_COST,
    ];
    let mut table = Table::new(
        "or_scaling",
        "Or-parallel scaling — pool scheduler, all optimizations",
        "speedup is against the same benchmark at 1 worker; the solution \
         count must not change with the worker count",
        &["benchmark", "size", "workers"],
        COLUMNS,
    );
    let corpus = ["queen1", "queen2", "puzzle", "ancestors", "members", "maps"];
    let mut trace = None;
    for name in corpus {
        let b = ace_programs::benchmark(name).ok_or_else(|| format!("unknown benchmark {name}"))?;
        let ace = Ace::load(&(b.program)(b.bench_size))?;
        let query = (b.query)(b.bench_size);
        let cfg = |w| cfg_for(b.all_solutions, w, OptFlags::all(), OrScheduler::Pool);
        let runs = WORKER_COUNTS
            .iter()
            .map(|&w| (labels![name, b.bench_size, w], b.mode, cfg(w)))
            .collect();
        let reports = sweep(&mut table, &ace, &query, runs, COLUMNS)?;
        if let Some(r) = reports
            .iter()
            .find(|r| r.solutions.len() != reports[0].solutions.len())
        {
            return Err(format!(
                "{name}: solution count changed with the worker count ({} -> {})",
                reports[0].solutions.len(),
                r.solutions.len()
            ));
        }
        if trace.is_none() {
            let traced = cfg(4).with_trace(TraceConfig::enabled().with_lifecycle());
            let r = ace.run(b.mode, &query, &traced)?;
            let t = r
                .trace
                .ok_or("tracing enabled but no trace on the report")?;
            trace = Some(("or_trace.json".to_owned(), t.to_chrome_json()));
        }
    }
    let mut artifacts = table.artifacts();
    artifacts.extend(trace);
    Ok(artifacts)
}

/// Pool-vs-traversal steal cost on a deepening member chain, LAO off so
/// the public tree really grows (the O(1)-vs-O(depth) series).
pub fn steal_cost() -> Result<Vec<Artifact>, String> {
    const COLUMNS: &[Column] = &[STEAL_COST, stat!(alternatives_claimed), stat!(tree_visits)];
    let mut table = Table::new(
        "or_steal_cost",
        "Steal cost per claimed alternative vs member-chain depth (4 workers, no LAO)",
        "the pool's cost is flat in depth, the traversal oracle's grows with it",
        &["depth", "scheduler"],
        COLUMNS,
    );
    let b = ace_programs::benchmark("members").ok_or("members benchmark missing")?;
    for depth in [8, 16, 32] {
        let ace = Ace::load(&(b.program)(depth))?;
        let runs = [
            ("pool", OrScheduler::Pool),
            ("traversal", OrScheduler::Traversal),
        ]
        .into_iter()
        .map(|(name, sched)| {
            (
                labels![depth, name],
                Mode::OrParallel,
                cfg_for(b.all_solutions, 4, OptFlags::none(), sched),
            )
        })
        .collect();
        sweep(&mut table, &ace, &(b.query)(depth), runs, COLUMNS)?;
    }
    Ok(table.artifacts())
}

/// Claim locality: the procrastinated-capture payoff, on a 12-way `alt/1`
/// choice whose continuation carries a size-S list (so the closure a
/// claimant would install grows with S). Three rows per S:
///
/// * `local` — one worker; every alternative is drained by its owner via
///   direct backtracking, so no closure is ever frozen.
/// * `local_faulted` — four workers but every steal attempt fails; nodes
///   are published (and deferred), then fully drained by their owners.
/// * `remote` — four workers stealing normally; materialization pays one
///   freeze per demanded node, amortized over all remote claims.
///
/// Guards: every row reproduces the traversal oracle's answers, and the
/// two all-local rows copy no publish-side cell and materialize no closure.
pub fn claim_locality() -> Result<Vec<Artifact>, String> {
    const ALTERNATIVES: usize = 12;
    const COLUMNS: &[Column] = &[
        VIRTUAL_TIME,
        stat!(nodes_published),
        stat!(closures_materialized),
        stat!(closures_elided),
        stat!(cells_copied_publish),
        stat!(cells_copied_claim),
        stat!(alternatives_claimed),
    ];
    let mut table = Table::new(
        "or_claim_locality",
        "Claim locality — procrastinated closure capture (12 alternatives)",
        "guard: all-local rows copy 0 publish-side cells and materialize 0 \
         closures; every row matches the traversal oracle's answers",
        &["list_len", "mode", "workers"],
        COLUMNS,
    );
    let mut program: String = (1..=ALTERNATIVES).map(|i| format!("alt({i}).\n")).collect();
    program.push_str("pick(L, X) :- alt(X), walk(L).\nwalk([]).\nwalk([_|T]) :- walk(T).\n");
    let ace = Ace::load(&program)?;
    let sorted = |mut v: Vec<String>| {
        v.sort();
        v
    };

    // Saturate every worker with queued StealFail events (each armed at
    // op 0, consumed one per attempt): no remote claim ever reaches a
    // node, so every deferred closure must be elided by its owner.
    let mut starved = FaultPlan::new(0);
    for w in 0..4 {
        for _ in 0..512 {
            starved = starved.with(w, 0, FaultKind::StealFail);
        }
    }

    for list_len in [16usize, 64, 256] {
        let list: Vec<String> = (1..=list_len).map(|i| i.to_string()).collect();
        let query = format!("pick([{}], X)", list.join(","));
        let mut traversal = pool_cfg(4);
        traversal.oracle.or_scheduler = OrScheduler::Traversal;
        let oracle = ace
            .run(Mode::OrParallel, &query, &traversal)
            .map_err(|e| format!("claim-locality oracle S={list_len}: {e}"))?;
        let expected = sorted(oracle.solutions);
        if expected.len() != ALTERNATIVES {
            return Err(format!(
                "claim-locality oracle S={list_len}: expected {ALTERNATIVES} answers, got {}",
                expected.len()
            ));
        }
        let mut faulted = pool_cfg(4);
        faulted.session.fault_plan = Some(starved.clone());
        let modes = [
            ("local", pool_cfg(1)),
            ("local_faulted", faulted),
            ("remote", pool_cfg(4)),
        ];
        let runs = modes
            .into_iter()
            .map(|(mode, c)| (labels![list_len, mode, c.run.workers], Mode::OrParallel, c))
            .collect();
        let reports = sweep(&mut table, &ace, &query, runs, COLUMNS)?;
        for (r, mode) in reports.iter().zip(["local", "local_faulted", "remote"]) {
            if sorted(r.solutions.clone()) != expected {
                return Err(format!(
                    "claim-locality {mode} S={list_len}: answers diverge from the traversal oracle"
                ));
            }
            if mode != "remote"
                && (r.stats.cells_copied_publish != 0 || r.stats.closures_materialized != 0)
            {
                return Err(format!(
                    "claim-locality {mode} S={list_len}: all-local claims must elide capture \
                     entirely (cells_copied_publish={}, closures_materialized={})",
                    r.stats.cells_copied_publish, r.stats.closures_materialized
                ));
            }
        }
    }
    Ok(table.artifacts())
}

/// `wide_tree` at its bench size, loaded once for the grid and the profile.
fn wide_tree() -> Result<(Ace, String, usize), String> {
    let b = ace_programs::benchmark("wide_tree").ok_or("wide_tree benchmark missing")?;
    let ace = Ace::load(&(b.program)(b.bench_size))?;
    Ok((ace, (b.query)(b.bench_size), b.bench_size * 8))
}

/// Eager crosses — domain boundary crossed while the thief's own domain
/// still had visible work — over all classified steals. They are the
/// hierarchy violation the guard watches; starvation crosses (local domain
/// empty) are the scheduler doing its job.
fn eager_cross_fraction(s: &ace_runtime::Stats) -> f64 {
    let steals = s.steals_local_domain + s.steals_cross_domain;
    if steals == 0 {
        0.0
    } else {
        s.steals_cross_eager as f64 / steals as f64
    }
}

/// The 64–512 worker × topology grid on `wide_tree`, plus the ablations
/// that expose each high-worker cliff:
///
/// * `flat` — single domain, zero steal premiums, but locks priced at
///   the same rate as numa4 so contention is visible: the PR-2 machine's
///   structure under an honest lock model (the default `Topology::flat()`
///   charges nothing — that is the machine `or_scaling` measures).
/// * `numa4` — 4 domains, cross-steals 4x intra cost, hierarchical
///   victim scan + per-domain answer buffers (the full scheme).
/// * `numa4_flat_scan` — same cost model, victim scan ignores domains:
///   what the grid looks like without hierarchy (ablation).
/// * `numa4_global_lock` — hierarchical scan but one engine-wide answer
///   lock: isolates the solution-collection cliff at 256 workers.
///
/// Guards, on the hierarchical numa4 rows: speedup@64 must be at least 2x
/// speedup@8, and eager cross-domain steals at 64 workers must stay under
/// 25% of all classified steals.
pub fn topology() -> Result<Vec<Artifact>, String> {
    const COLUMNS: &[Column] = &[
        VIRTUAL_TIME,
        SPEEDUP,
        stat!(steals_local_domain),
        stat!(steals_cross_domain),
        stat!(steals_cross_eager),
        ("cross_steal_fraction", |r, _| {
            format!("{:.3}", r.stats.cross_steal_fraction())
        }),
        ("eager_cross_fraction", |r, _| {
            format!("{:.3}", eager_cross_fraction(&r.stats))
        }),
        stat!(lock_contended),
        stat!(lock_wait_cost),
        stat!(pool_pushes),
        stat!(pool_pops),
        stat!(idle_probes),
    ];
    let mut table = Table::new(
        "or_topology",
        "Topology grid — wide_tree (size 64, 512 answers) at 8–512 workers",
        "speedup is against the 1-worker flat run; guards on numa4: \
         speedup@64 >= 2x speedup@8, eager cross-domain steals@64 < 25%",
        &["topology", "workers"],
        COLUMNS,
    );
    let (ace, query, expected) = wide_tree()?;

    // Lock pricing for the grid's flat column: numa4's rate, so the flat
    // and hierarchical columns differ only in structure, not honesty.
    let priced_flat = || Topology::flat().with_contended_lock(Topology::numa(4).contended_lock);
    let scale = [64, 128, 256, 512];
    // The 1-worker flat run comes first: it anchors every speedup.
    let mut cells: Vec<(&str, usize, Topology)> = vec![("flat", 1, priced_flat())];
    for w in [8].into_iter().chain(scale) {
        cells.push(("flat", w, priced_flat()));
    }
    for w in [8].into_iter().chain(scale) {
        cells.push(("numa4", w, Topology::numa(4)));
    }
    for w in scale {
        // the ablation only needs the high-worker half
        cells.push(("numa4_flat_scan", w, Topology::numa(4).flat_scan()));
    }
    cells.push((
        "numa4_global_lock",
        256,
        Topology::numa(4).global_answer_lock(),
    ));

    let runs = cells
        .iter()
        .map(|(name, w, topo)| {
            let mut c = pool_cfg(*w);
            c.run.topology = topo.clone();
            (labels![name, w], Mode::OrParallel, c)
        })
        .collect();
    let reports = sweep(&mut table, &ace, &query, runs, COLUMNS)?;
    if let Some(r) = reports.iter().find(|r| r.solutions.len() != expected) {
        return Err(format!(
            "topology: expected {expected} answers, got {}",
            r.solutions.len()
        ));
    }

    let numa4 = |w: usize| {
        let i = cells
            .iter()
            .position(|&(name, cw, _)| name == "numa4" && cw == w)
            .expect("numa4 cell is in the grid");
        &reports[i]
    };
    let one = reports[0].virtual_time;
    let (s8, s64) = (numa4(8).speedup_from(one), numa4(64).speedup_from(one));
    if s64 < 2.0 * s8 {
        return Err(format!(
            "topology guard: speedup@64 ({s64:.2}) is under 2x speedup@8 ({s8:.2}) \
             on wide_tree/numa4 — the hierarchical pool stopped scaling"
        ));
    }
    let cross = eager_cross_fraction(&numa4(64).stats);
    if cross >= 0.25 {
        return Err(format!(
            "topology guard: eager cross-domain steal fraction {cross:.3} at 64 \
             workers reached 25% — thieves are crossing domains with local work \
             still visible"
        ));
    }
    Ok(table.artifacts())
}

/// Profiled run of the topology grid's worst cell: `wide_tree` at 256
/// workers under the global-answer-lock ablation, virtual-time trace
/// folded into a cost profile. Writes the ranked frame table and the
/// collapsed-stack file (`flamegraph.pl` / inferno input format), and
/// guards that the contended answer lock ranks among the top-5 frames —
/// the profiler must be able to *name* the cliff, not just show that it
/// exists.
pub fn profile() -> Result<Vec<Artifact>, String> {
    let (ace, query, _) = wide_tree()?;
    let mut c = pool_cfg(256).with_trace(TraceConfig::enabled());
    c.run.topology = Topology::numa(4).global_answer_lock();
    let r = ace
        .run(Mode::OrParallel, &query, &c)
        .map_err(|e| format!("profile run: {e}"))?;
    let trace = r
        .trace
        .as_ref()
        .ok_or("tracing enabled but no trace on the report")?;
    if trace.dropped > 0 {
        return Err(format!(
            "profile run: trace dropped {} event(s) — profile would be partial; \
             raise the ring capacity",
            trace.dropped
        ));
    }
    let profile = Profile::from_trace(trace);
    let top5 = profile.top(5);
    if !top5.iter().any(|(frame, _, _)| frame == "lock;answer") {
        return Err(format!(
            "profile guard: the global-answer-lock ablation's contended lock \
             (frame `lock;answer`, cost {}) did not rank in the top-5 frames: {:?}",
            profile.cost("lock;answer"),
            top5.iter().map(|(f, _, _)| f.as_str()).collect::<Vec<_>>()
        ));
    }
    Ok(vec![
        ("or_profile.txt".to_owned(), profile.table(10)),
        ("or_profile.folded".to_owned(), profile.collapsed()),
    ])
}
