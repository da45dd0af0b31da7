//! Scheduler equivalence: the O(1) alternative pool against the
//! traversal oracle.
//!
//! The or-engine's default work-finding path is a sharded alternative
//! pool; the original root-to-leaf traversal survives as
//! `OrScheduler::Traversal` precisely so these tests can hold the pool
//! to it:
//!
//! * **Equivalence** — across the or-corpus, every combination of
//!   scheduler × LAO yields the same solution multiset.
//! * **O(1) steal** — under the pool, `tree_visits` per claimed
//!   alternative stays bounded by a small constant as the `member/2`
//!   chain deepens (LAO off, so the public tree really grows); the
//!   traversal oracle's per-claim cost grows with depth on the same
//!   workload.
//! * **One tree, two engines** — `ace-fd`'s labeling search runs on the
//!   same tree: every scheduler × LAO × topology × worker count finds the
//!   1-worker solution set, and on both engines every published
//!   alternative is claimed exactly once.

use ace_core::{Ace, Mode, RunReport};
use ace_fd::{queens, Fd};
use ace_runtime::{
    DriverKind, EngineConfig, EventKind, OptFlags, OrScheduler, Topology, Trace, TraceChecker,
    TraceConfig,
};

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

fn cfg(workers: usize, opts: OptFlags, sched: OrScheduler) -> EngineConfig {
    let mut c = EngineConfig::default()
        .with_workers(workers)
        .with_opts(opts)
        .with_trace(TraceConfig::enabled())
        .all_solutions();
    c.oracle.or_scheduler = sched;
    c
}

/// Every traced run must satisfy the scheduler invariants (claims follow
/// publications, no alternative claimed twice, pops bounded by pushes).
fn check_trace(r: &RunReport, label: &str) {
    let trace = r.trace.as_ref().expect("tracing enabled but trace missing");
    assert!(!trace.is_empty(), "{label}: traced run recorded no events");
    if let Err(violations) = TraceChecker::check(trace) {
        panic!("{label}: trace invariant violations: {violations:#?}");
    }
}

/// (a) Pool (LAO on and off) is multiset-equal to
/// the traversal oracle on the or-corpus, and the pool counters prove
/// which path actually ran.
#[test]
fn pool_matches_traversal_oracle_across_corpus() {
    for name in ["queen1", "members", "ancestors"] {
        let b = ace_programs::benchmark(name).unwrap();
        let ace = Ace::load(&(b.program)(b.test_size)).unwrap();
        let query = (b.query)(b.test_size);
        for opts in [OptFlags::none(), OptFlags::lao_only()] {
            let oracle = ace
                .run(b.mode, &query, &cfg(4, opts, OrScheduler::Traversal))
                .unwrap();
            assert_eq!(
                oracle.stats.pool_pushes, 0,
                "{name}: traversal runs must not touch the pool"
            );
            check_trace(&oracle, &format!("{name} traversal lao={}", opts.lao));
            let expected = sorted(oracle.solutions);
            assert!(!expected.is_empty(), "{name}: oracle found no solutions");

            let pool = ace
                .run(b.mode, &query, &cfg(4, opts, OrScheduler::Pool))
                .unwrap();
            check_trace(&pool, &format!("{name} pool lao={}", opts.lao));
            assert_eq!(sorted(pool.solutions), expected, "{name} lao={}", opts.lao);
            assert!(
                pool.stats.pool_pushes > 0 && pool.stats.pool_pops > 0,
                "{name}: pool scheduler never used the pool"
            );
        }
    }
}

/// (c) Topology equivalence at fleet scale: 64 workers over hierarchical
/// multi-domain topologies — the even 4 x 16 split and an uneven 3-way
/// split (22/22/20) — reproduce the traversal oracle's answer multiset.
/// Every traced run is held to the full `TraceChecker` rule set,
/// including the new one: no cross-domain steal while the thief's own
/// domain still has visible pool entries. Under the deterministic sim
/// driver the hierarchical scan makes eager crosses structurally
/// impossible, so the counter is asserted exactly zero.
#[test]
fn pool_matches_oracle_at_64_workers_across_topologies() {
    for name in ["wide_tree", "members"] {
        let b = ace_programs::benchmark(name).unwrap();
        let ace = Ace::load(&(b.program)(b.test_size)).unwrap();
        let query = (b.query)(b.test_size);
        let oracle = ace
            .run(
                b.mode,
                &query,
                &cfg(4, OptFlags::all(), OrScheduler::Traversal),
            )
            .unwrap();
        let expected = sorted(oracle.solutions);
        assert!(!expected.is_empty(), "{name}: oracle found no solutions");

        for (label, topo) in [
            ("numa4", Topology::numa(4)),
            ("numa3_uneven", Topology::numa(3)),
        ] {
            let mut c = cfg(64, OptFlags::all(), OrScheduler::Pool);
            c.run.topology = topo;
            let pool = ace.run(b.mode, &query, &c).unwrap();
            check_trace(&pool, &format!("{name} 64w {label}"));
            assert_eq!(sorted(pool.solutions), expected, "{name} 64w {label}");
            assert!(
                pool.stats.steals_local_domain + pool.stats.steals_cross_domain > 0,
                "{name} 64w {label}: no steals were scope-classified"
            );
            assert_eq!(
                pool.stats.steals_cross_eager, 0,
                "{name} 64w {label}: hierarchical scan crossed a domain with \
                 local work still visible"
            );
        }
    }
}

/// (b) Steal cost per claimed alternative: flat under the pool, growing
/// under the traversal oracle, as the member chain deepens with LAO off.
#[test]
fn pool_steal_cost_is_flat_in_chain_depth() {
    let b = ace_programs::benchmark("members").unwrap();
    let run = |n: usize, sched: OrScheduler| {
        let ace = Ace::load(&(b.program)(n)).unwrap();
        let list: Vec<String> = (1..=n).map(|i| i.to_string()).collect();
        // fails at every element: the chain publishes to full depth
        let q = format!("member(X, [{}]), X > 100", list.join(","));
        let r = ace
            .run(Mode::OrParallel, &q, &cfg(4, OptFlags::none(), sched))
            .unwrap();
        check_trace(&r, &format!("members n={n} {sched:?}"));
        assert!(r.solutions.is_empty());
        r.steal_cost_per_claim()
            .expect("4-worker chain run claims alternatives")
    };

    let (shallow, deep) = (run(10, OrScheduler::Pool), run(40, OrScheduler::Pool));
    assert!(
        shallow <= 4.0 && deep <= 4.0,
        "pool steal cost must stay O(1): shallow={shallow:.2} deep={deep:.2}"
    );

    let (t_shallow, t_deep) = (
        run(10, OrScheduler::Traversal),
        run(40, OrScheduler::Traversal),
    );
    assert!(
        t_deep > t_shallow && t_deep > 2.0 * deep,
        "traversal steal cost should grow with depth: {t_shallow:.2} -> {t_deep:.2} (pool {deep:.2})"
    );
}

/// The scheduler × LAO × topology cells the fd cases run.
fn fd_cells() -> Vec<(String, EngineConfig)> {
    let mut cells = Vec::new();
    for sched in [OrScheduler::Pool, OrScheduler::Traversal] {
        for opts in [OptFlags::none(), OptFlags::lao_only()] {
            for (topo_name, topo) in [
                ("flat", Topology::flat()),
                ("numa4", Topology::numa(4)),
                ("numa3_uneven", Topology::numa(3)),
            ] {
                for workers in [1, 2, 4, 8, 64] {
                    let mut c = cfg(workers, opts, sched);
                    c.run.topology = topo.clone();
                    let label = format!("{sched:?} lao={} {topo_name} w={workers}", opts.lao);
                    cells.push((label, c));
                }
            }
        }
    }
    let mut threads = cfg(4, OptFlags::lao_only(), OrScheduler::Pool);
    threads.run.driver = DriverKind::Threads;
    cells.push(("Pool lao=true flat threads w=4".to_owned(), threads));
    cells
}

/// (d) The fd labeling search on the shared tree: pool and traversal,
/// LAO on and off, flat and multi-domain topologies, 1–64 simulated
/// workers and the threads driver all find the 1-worker solution set,
/// and every traced run passes the `TraceChecker`.
#[test]
fn fd_matches_one_worker_run_across_schedulers_and_topologies() {
    let sorted = |mut v: Vec<Vec<u32>>| {
        v.sort();
        v
    };
    let one = Fd::new(queens(7)).solve_all(&cfg(1, OptFlags::none(), OrScheduler::Pool));
    let expected = sorted(one.solutions);
    assert_eq!(expected.len(), 40);
    for (label, c) in fd_cells() {
        let r = Fd::new(queens(7)).solve_all(&c);
        assert!(
            r.outcome.aborted.is_none(),
            "{label}: {:?}",
            r.outcome.aborted
        );
        let trace = r.trace.as_ref().expect("tracing enabled but trace missing");
        if let Err(violations) = TraceChecker::check(trace) {
            panic!("fd {label}: trace invariant violations: {violations:#?}");
        }
        assert_eq!(sorted(r.solutions), expected, "fd {label}");
        if c.oracle.or_scheduler == OrScheduler::Traversal {
            assert_eq!(
                r.stats.pool_pushes, 0,
                "fd {label}: traversal touched the pool"
            );
        }
    }
}

/// Σ `alts` over the trace's `publish` and `lao-reuse` events.
fn published_alternatives(trace: &Trace) -> u64 {
    assert_eq!(trace.dropped, 0, "ring too small");
    trace
        .events
        .iter()
        .map(|e| match e.kind {
            EventKind::Publish { alts, .. } | EventKind::LaoReuse { alts, .. } => alts as u64,
            _ => 0,
        })
        .sum()
}

/// (e) The claim ledger: in a cut-free, all-solutions run every published
/// alternative is claimed exactly once — by its owner's backtracking or
/// by a thief — so `alternatives_claimed` equals the alternatives the
/// trace's publications put into the tree, on both engines. An owner
/// claim that comes back empty is not a claim.
#[test]
fn every_published_alternative_is_claimed_once_on_both_engines() {
    let b = ace_programs::benchmark("queen1").unwrap();
    let ace = Ace::load(&(b.program)(6)).unwrap();
    for opts in [OptFlags::none(), OptFlags::lao_only()] {
        for workers in [2, 4, 8] {
            let c = cfg(workers, opts, OrScheduler::Pool)
                .with_trace(TraceConfig::enabled().with_capacity(1 << 20));
            let label = format!("lao={} w={workers}", opts.lao);
            let prolog = ace.run(Mode::OrParallel, &(b.query)(6), &c).unwrap();
            let published = published_alternatives(prolog.trace.as_ref().unwrap());
            assert!(published > 0, "queen1(6) {label}: nothing published");
            assert_eq!(
                prolog.stats.alternatives_claimed, published,
                "queen1(6) {label}: claimed vs published"
            );
            let fd = Fd::new(queens(8)).solve_all(&c);
            assert_eq!(fd.solutions.len(), 92, "fd queens(8) {label}");
            let published = published_alternatives(fd.trace.as_ref().unwrap());
            assert!(published > 0, "fd queens(8) {label}: nothing published");
            assert_eq!(
                fd.stats.alternatives_claimed, published,
                "fd queens(8) {label}: claimed vs published"
            );
        }
    }
}
