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
//!
//! Generated fact tables (`ace_programs::gen::fact_program`: 16 to 64
//! clauses, called with a random pattern of bound and unbound arguments)
//! take the same three modes. A call whose first argument is unbound is
//! dispatched there on its leftmost bound argument's index — by the
//! compiled machine and by the or-engine's published alternatives — while
//! the interpreter oracle scans on the first argument; all three must
//! agree, and the compiled run never makes more choice points.
//!
//! Generated term tests (`ace_programs::gen::test_program`: every
//! arithmetic comparison, `==`, `\==`, the term order and the type tests,
//! in rule bodies and as if-then-else conditions, over head variables,
//! variables first met in the body, constants, compounds written in the
//! clause and variables bound to compounds) take the same three modes. The
//! compiled machine decides most of them inline off its registers and
//! hands the operands it cannot read there to the builtin; the interpreter
//! oracle always calls the builtin.
//!
//! Their `&` variants (`ace_programs::gen::par_program`) go to the
//! and-engine instead: the sequential machine's answers must equal the
//! and-engine's under the paper's optimizations (eager frames) and under
//! every optimization (lazy frames), at one and four simulated workers,
//! traces checked and folded, and under every optimization on two
//! threads. Their conjunctions hold nondeterministic goals and trailing
//! recursive calls, so frames, records and promotions meet choice points,
//! redo waves and LPCO merges.

use ace_core::{Ace, Mode, RunReport};
use ace_runtime::{
    ClauseExec, DriverKind, EngineConfig, OptFlags, OrScheduler, Stats, TraceChecker, TraceConfig,
};

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

/// Run seed `seed`'s program in every mode; panics with the program on a
/// disagreement. Returns the number of answers.
fn check(seed: u64) -> usize {
    check_program(seed, ace_programs::gen::program(seed)).0
}

/// Run seed `seed`'s fact table in every mode, as [`check`] does; the
/// argument indexes may only remove choice points.
fn check_facts(seed: u64) -> usize {
    let g = ace_programs::gen::fact_program(seed);
    let (answers, compiled, interpreted) = check_program(seed, g.clone());
    assert!(
        compiled.choice_points <= interpreted.choice_points,
        "seed {seed}: compiled code made more choice points than the oracle\n?- {}.\n{}",
        g.query,
        g.source
    );
    answers
}

/// Run seed `seed`'s term-test program in every mode, as [`check`] does.
fn check_tests(seed: u64) -> usize {
    check_program(seed, ace_programs::gen::test_program(seed)).0
}

/// Run `g` sequentially on compiled code and on the interpreter oracle and
/// on the or-engine; panics with the program on a disagreement. Returns
/// the number of answers and the two sequential runs' stats.
fn check_program(seed: u64, g: ace_programs::gen::Generated) -> (usize, Stats, Stats) {
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
    check_trace(&parallel).unwrap_or_else(|e| fail(&e));
    (want.len(), compiled.stats, interpreted.stats)
}

/// The trace of `run` passes the checker and folds back into its stats.
fn check_trace(run: &RunReport) -> Result<(), String> {
    let trace = run.trace.as_ref().expect("tracing is on");
    if trace.dropped != 0 {
        return Err("the trace ring overflowed".into());
    }
    TraceChecker::check(trace).map_err(|v| format!("trace violations: {v:?}"))?;
    let folded = Stats::fold(trace).fields();
    for (name, value) in run.stats.fields() {
        if Stats::EVENT_BACKED.contains(&name) {
            let (_, from_trace) = folded.iter().find(|(n, _)| *n == name).unwrap();
            if *from_trace != value {
                return Err(format!("fold(trace).{name} = {from_trace}, stats {value}"));
            }
        }
    }
    Ok(())
}

/// Run seed `seed`'s `&` program sequentially and on the and-engine in
/// every configuration; panics with the program on a disagreement.
/// Returns the number of answers.
fn check_par(seed: u64) -> usize {
    let g = ace_programs::gen::par_program(seed);
    let fail = |what: &str| -> ! { panic!("seed {seed}: {what}\n?- {}.\n{}", g.query, g.source) };
    let ace = Ace::load(&g.source).unwrap_or_else(|e| fail(&format!("load: {e}")));
    let run = |mode, cfg: &EngineConfig, label: &str| {
        ace.run_strict(mode, &g.query, cfg)
            .unwrap_or_else(|e| fail(&format!("{label}: {e}")))
    };
    let seq = run(
        Mode::Sequential,
        &EngineConfig::default().all_solutions(),
        "sequential",
    );
    let want = sorted(seq.solutions);
    let and = |workers, opts: OptFlags| {
        EngineConfig::default()
            .with_workers(workers)
            .with_opts(opts)
            .all_solutions()
    };
    for opts in [OptFlags::paper(), OptFlags::all()] {
        for workers in [1, 4] {
            let label = format!("{} at {workers} workers", opts.label());
            let cfg = and(workers, opts).with_trace(TraceConfig::enabled().with_capacity(1 << 20));
            let r = run(Mode::AndParallel, &cfg, &label);
            if sorted(r.solutions.clone()) != want {
                fail(&format!(
                    "the and-engine ({label}) disagrees with the sequential machine"
                ));
            }
            check_trace(&r).unwrap_or_else(|e| fail(&format!("{label}: {e}")));
        }
    }
    for opts in [OptFlags::paper(), OptFlags::all()] {
        let threads = and(2, opts).with_driver(DriverKind::Threads);
        let label = format!("{} on two threads", opts.label());
        let r = run(Mode::AndParallel, &threads, &label);
        if sorted(r.solutions) != want {
            fail(&format!(
                "the and-engine ({label}) disagrees with the sequential machine"
            ));
        }
    }
    want.len()
}

/// Check `count` seeds from `base` on, with `check`.
fn sweep_with(check: fn(u64) -> usize, base: u64, count: u64) {
    let answered = (0..count)
        .filter(|&i| check(base.wrapping_add(i)) > 0)
        .count() as u64;
    // Most programs must answer, or the sweep compares empty sets.
    assert!(
        answered * 2 >= count,
        "{answered} of {count} seeds from {base} answered"
    );
}

fn sweep(base: u64, count: u64) {
    sweep_with(check, base, count);
}

#[test]
fn generated_programs_agree_across_execution_modes() {
    sweep(0, 100);
}

#[test]
fn generated_fact_tables_agree_across_execution_modes() {
    sweep_with(check_facts, 0, 100);
}

#[test]
fn generated_term_tests_agree_across_execution_modes() {
    sweep_with(check_tests, 0, 100);
}

#[test]
fn generated_par_programs_agree_across_and_engine_modes() {
    sweep_with(check_par, 0, 100);
}

/// Nightly sweep: when `FAULT_MATRIX_SEED` is set (CI rotates it with the
/// date), check 1 000 programs of each generator from that seed on; a
/// reported failure is replayed locally with the same variable. No-op
/// when the variable is absent.
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
    sweep_with(check_facts, base, 1000);
    sweep_with(check_tests, base, 1000);
    sweep_with(check_par, base, 1000);
}
