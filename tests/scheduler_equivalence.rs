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

use ace_core::{Ace, Mode, RunReport};
use ace_runtime::{EngineConfig, OptFlags, OrScheduler, Topology, TraceChecker, TraceConfig};

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

fn cfg(workers: usize, opts: OptFlags, sched: OrScheduler) -> EngineConfig {
    EngineConfig::default()
        .with_workers(workers)
        .with_opts(opts)
        .with_or_scheduler(sched)
        .with_trace(TraceConfig::enabled())
        .all_solutions()
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
            let c = cfg(64, OptFlags::all(), OrScheduler::Pool).with_topology(topo);
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
