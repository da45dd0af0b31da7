//! Driver equivalence and determinism:
//!
//! * the **sim driver is bit-deterministic** — identical config ⇒ identical
//!   clocks and solution order, for every benchmark;
//! * the **threads driver** (real OS threads, real synchronization) agrees
//!   with the sim driver's solutions on a representative slice.

use ace_core::Ace;
use ace_runtime::{DriverKind, EngineConfig, OptFlags};

fn cfg(workers: usize, opts: OptFlags, all: bool) -> EngineConfig {
    let mut c = EngineConfig::default()
        .with_workers(workers)
        .with_opts(opts);
    c.max_solutions = if all { None } else { Some(1) };
    c
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn sim_is_deterministic_for_every_benchmark() {
    for b in ace_programs::all() {
        let ace = Ace::load(&(b.program)(b.test_size)).unwrap();
        let query = (b.query)(b.test_size);
        let c = cfg(3, OptFlags::all(), b.all_solutions);
        let r1 = ace.run(b.mode, &query, &c).unwrap();
        let r2 = ace.run(b.mode, &query, &c).unwrap();
        assert_eq!(
            r1.virtual_time, r2.virtual_time,
            "{}: virtual time must be reproducible",
            b.name
        );
        assert_eq!(r1.clocks, r2.clocks, "{}", b.name);
        assert_eq!(r1.solutions, r2.solutions, "{}", b.name);
    }
}

#[test]
fn threads_driver_agrees_with_sim_for_and_benchmarks() {
    // Eager frames (`paper()`) and lazy ones (`all()`).
    for opts in [OptFlags::paper(), OptFlags::all()] {
        for name in ["map2", "takeuchi", "quick_sort", "map1"] {
            let b = ace_programs::benchmark(name).unwrap();
            let ace = Ace::load(&(b.program)(b.test_size)).unwrap();
            let query = (b.query)(b.test_size);
            let sim = ace
                .run(b.mode, &query, &cfg(3, opts, b.all_solutions))
                .unwrap();
            let mut tc = cfg(3, opts, b.all_solutions);
            tc.run.driver = DriverKind::Threads;
            let thr = ace.run(b.mode, &query, &tc).unwrap();
            // and-parallel preserves sequential order in both drivers
            assert_eq!(thr.solutions, sim.solutions, "{name} {}", opts.label());
        }
    }
}

#[test]
fn threads_driver_agrees_with_sim_for_or_benchmarks() {
    for name in ["queen1", "members", "puzzle"] {
        let b = ace_programs::benchmark(name).unwrap();
        let ace = Ace::load(&(b.program)(b.test_size)).unwrap();
        let query = (b.query)(b.test_size);
        let sim = ace
            .run(b.mode, &query, &cfg(3, OptFlags::lao_only(), true))
            .unwrap();
        let mut tc = cfg(3, OptFlags::lao_only(), true);
        tc.run.driver = DriverKind::Threads;
        let thr = ace.run(b.mode, &query, &tc).unwrap();
        // or-parallel discovery order is nondeterministic: multisets
        assert_eq!(sorted(thr.solutions), sorted(sim.solutions), "{name}");
    }
}

/// Repeated threads runs (different real interleavings each time) always
/// produce the same solution multiset.
#[test]
fn threads_driver_is_schedule_independent() {
    let b = ace_programs::benchmark("members").unwrap();
    let ace = Ace::load(&(b.program)(8)).unwrap();
    let query = (b.query)(8);
    let mut tc = cfg(4, OptFlags::lao_only(), true);
    tc.run.driver = DriverKind::Threads;
    let first = sorted(ace.run(b.mode, &query, &tc).unwrap().solutions);
    for _ in 0..5 {
        let again = sorted(ace.run(b.mode, &query, &tc).unwrap().solutions);
        assert_eq!(again, first);
    }
}

/// Worker count never changes the answer set, only the time.
#[test]
fn worker_count_invariance() {
    for name in ["occur", "bt_cluster", "queen2"] {
        let b = ace_programs::benchmark(name).unwrap();
        let ace = Ace::load(&(b.program)(b.test_size)).unwrap();
        let query = (b.query)(b.test_size);
        let baseline = sorted(
            ace.run(b.mode, &query, &cfg(1, OptFlags::all(), b.all_solutions))
                .unwrap()
                .solutions,
        );
        for w in [2, 5, 7, 10] {
            let r = ace
                .run(b.mode, &query, &cfg(w, OptFlags::all(), b.all_solutions))
                .unwrap();
            assert_eq!(sorted(r.solutions), baseline, "{name} w={w}");
        }
    }
}
