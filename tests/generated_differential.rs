//! Generated programs, differentially: every seed's program must compute
//! the same answer multiset sequentially on compiled code, sequentially
//! on the interpreter oracle, and on the or-parallel engine (the
//! alternative pool, four simulated workers, every optimization on), and
//! the or-engine's trace must pass the `TraceChecker` and fold back into
//! the run's own stats sheet.
//!
//! The programs (`ace_programs::gen::program`) are small, stratified and
//! terminating, and their rule bodies run through body frames over
//! environments, so this guards the compiled body path — environment
//! pushes, in-place reads, trimming, freezing and thawing — on shapes no
//! hand-written corpus program has.

use ace_core::{Ace, Mode};
use ace_runtime::{
    ClauseExec, EngineConfig, OptFlags, OrScheduler, Stats, TraceChecker, TraceConfig,
};

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

/// Run seed `seed`'s program in every mode; panics with the program on a
/// disagreement. Returns the number of answers.
fn check(seed: u64) -> usize {
    let g = ace_programs::gen::program(seed);
    let fail = |what: &str| -> ! { panic!("seed {seed}: {what}\n?- {}.\n{}", g.query, g.source) };
    let ace = Ace::load(&g.source).unwrap_or_else(|e| fail(&format!("load: {e}")));
    let seq = EngineConfig::default().all_solutions();
    let run = |mode, cfg: &EngineConfig| {
        ace.run_strict(mode, &g.query, cfg)
            .unwrap_or_else(|e| fail(&format!("{mode:?}: {e}")))
    };
    let compiled = run(Mode::Sequential, &seq);
    let interpreted = run(
        Mode::Sequential,
        &seq.clone().with_clause_exec(ClauseExec::Interpreted),
    );
    let mut or = EngineConfig::default()
        .with_workers(4)
        .with_opts(OptFlags::all())
        .with_trace(TraceConfig::enabled().with_capacity(1 << 20))
        .all_solutions();
    or.oracle.or_scheduler = OrScheduler::Pool;
    let parallel = run(Mode::OrParallel, &or);

    let want = sorted(compiled.solutions);
    if sorted(interpreted.solutions) != want {
        fail("the interpreter disagrees with compiled code");
    }
    if sorted(parallel.solutions.clone()) != want {
        fail("the or-engine disagrees with the sequential machine");
    }
    let trace = parallel.trace.as_ref().expect("tracing is on");
    if trace.dropped != 0 {
        fail("the trace ring overflowed");
    }
    if let Err(violations) = TraceChecker::check(trace) {
        fail(&format!("trace violations: {violations:?}"));
    }
    let folded = Stats::fold(trace).fields();
    for (name, value) in parallel.stats.fields() {
        if Stats::EVENT_BACKED.contains(&name) {
            let (_, from_trace) = folded.iter().find(|(n, _)| *n == name).unwrap();
            if *from_trace != value {
                fail(&format!("fold(trace).{name} = {from_trace}, stats {value}"));
            }
        }
    }
    want.len()
}

/// Check `count` seeds from `base` on.
fn sweep(base: u64, count: u64) {
    let answered = (0..count)
        .filter(|&i| check(base.wrapping_add(i)) > 0)
        .count() as u64;
    // Most programs must answer, or the sweep compares empty sets.
    assert!(
        answered * 2 >= count,
        "{answered} of {count} seeds from {base} answered"
    );
}

#[test]
fn generated_programs_agree_across_execution_modes() {
    sweep(0, 100);
}

/// Nightly sweep: when `FAULT_MATRIX_SEED` is set (CI rotates it with the
/// date), check 1 000 programs from that seed on; a reported failure is
/// replayed locally with the same variable. No-op when the variable is
/// absent.
#[test]
fn rotating_seed_sweep() {
    let Ok(raw) = std::env::var("FAULT_MATRIX_SEED") else {
        return;
    };
    let base: u64 = raw
        .trim()
        .parse()
        .expect("FAULT_MATRIX_SEED must be an unsigned integer");
    println!("generated-program seeds: {base} .. +1000");
    sweep(base, 1000);
}
