//! The fault matrix: corpus queries × all 16 optimization combinations ×
//! seeded fault plans, under both drivers. Every cell must end in one of
//! exactly two ways — the oracle solution multiset, or a clean structured
//! error that `Ace::run_query` then recovers from sequentially. Never a
//! hang, never a panic escaping the driver, never a wrong answer.

use std::time::Duration;

use ace_core::{Ace, AceError, Mode, RunReport};
use ace_runtime::{
    DriverKind, EngineConfig, FaultKind, FaultPlan, OptFlags, TraceChecker, TraceConfig,
};

const WORKERS: usize = 3;

fn cfg(opts: OptFlags, driver: DriverKind, plan: FaultPlan) -> EngineConfig {
    EngineConfig::default()
        .with_workers(WORKERS)
        .with_opts(opts)
        .with_driver(driver)
        .with_threads_deadline(Some(Duration::from_secs(20)))
        .with_fault_plan(plan)
        .with_trace(TraceConfig::enabled())
        .all_solutions()
}

/// Every surviving traced run must satisfy the scheduler/fault
/// invariants — in particular, every fault injection the trace records
/// must be matched by a recovery record.
fn check_trace(r: &RunReport, label: &str) {
    let trace = r.trace.as_ref().expect("tracing enabled but trace missing");
    if let Err(violations) = TraceChecker::check(trace) {
        panic!("{label}: trace invariant violations: {violations:#?}");
    }
}

/// And-parallel corpus cell: a full cross product with arithmetic, whose
/// solution *order* is fixed (outside backtracking enumerates slots
/// right-to-left), so faults must not even reorder answers.
const AND_PROG: &str = r#"
    c(1). c(2). c(3).
    count(N) :- (c(A) & c(B)), N is A * 10 + B.
"#;
const AND_QUERY: &str = "count(N)";

fn and_oracle() -> Vec<String> {
    let mut v = Vec::new();
    for a in 1..=3 {
        for b in 1..=3 {
            v.push(format!("N={}", a * 10 + b));
        }
    }
    v
}

/// Or-parallel corpus cell: deep `member/2` backtracking. Solution order
/// across workers is scheduling-dependent — compare as multisets.
const OR_PROG: &str = r#"
    member(X, [X|_]).
    member(X, [_|T]) :- member(X, T).
"#;
const OR_QUERY: &str = "member(X, [1,2,3,4,5,6,7,8])";

fn or_oracle() -> Vec<String> {
    (1..=8).map(|i| format!("X={i}")).collect()
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

/// Transient faults (failed steals, failed publications, stalls) must be
/// absorbed: same answers, same order (and-engine), across all 16
/// optimization combinations under the deterministic driver.
#[test]
fn sim_matrix_transient_faults_preserve_answers() {
    let and_ace = Ace::load(AND_PROG).unwrap();
    let or_ace = Ace::load(OR_PROG).unwrap();
    for opts in OptFlags::all_combinations() {
        for seed in [7u64, 1031, 88_000_001] {
            let plan = FaultPlan::random_transient(seed, WORKERS, 6);
            let c = cfg(opts, DriverKind::Sim, plan.clone());

            let r = and_ace
                .run_query(Mode::AndParallel, AND_QUERY, &c)
                .unwrap_or_else(|e| panic!("and seed={seed} opts={}: {e}", opts.label()));
            assert_eq!(
                r.solutions,
                and_oracle(),
                "and-order seed={seed} opts={}",
                opts.label()
            );
            // Transient plans never kill the run, so whatever fired was
            // absorbed in place — no sequential fallback involved.
            assert!(
                r.recovery.iter().all(|l| !l.contains("fallback")),
                "unexpected fallback: {:?}",
                r.recovery
            );
            check_trace(&r, &format!("and seed={seed} opts={}", opts.label()));

            let r = or_ace
                .run_query(Mode::OrParallel, OR_QUERY, &c)
                .unwrap_or_else(|e| panic!("or seed={seed} opts={}: {e}", opts.label()));
            check_trace(&r, &format!("or seed={seed} opts={}", opts.label()));
            assert_eq!(
                sorted(r.solutions),
                sorted(or_oracle()),
                "or-multiset seed={seed} opts={}",
                opts.label()
            );
        }
    }
}

/// Full-taxonomy seeded plans (possibly containing one fatal event): the
/// facade must always hand back the oracle — directly when the run
/// survives, via the recorded sequential fallback when it is killed.
#[test]
fn sim_matrix_full_taxonomy_recovers() {
    let and_ace = Ace::load(AND_PROG).unwrap();
    let or_ace = Ace::load(OR_PROG).unwrap();
    for opts in OptFlags::all_combinations() {
        for seed in [3u64, 5_551_212] {
            let plan = FaultPlan::random(seed, WORKERS, 8);
            let c = cfg(opts, DriverKind::Sim, plan);

            let r = and_ace
                .run_query(Mode::AndParallel, AND_QUERY, &c)
                .unwrap_or_else(|e| panic!("and seed={seed} opts={}: {e}", opts.label()));
            assert_eq!(
                r.solutions,
                and_oracle(),
                "seed={seed} opts={}",
                opts.label()
            );
            check_trace(&r, &format!("and seed={seed} opts={}", opts.label()));

            let r = or_ace
                .run_query(Mode::OrParallel, OR_QUERY, &c)
                .unwrap_or_else(|e| panic!("or seed={seed} opts={}: {e}", opts.label()));
            check_trace(&r, &format!("or seed={seed} opts={}", opts.label()));
            assert_eq!(
                sorted(r.solutions),
                sorted(or_oracle()),
                "seed={seed} opts={}",
                opts.label()
            );
        }
    }
}

/// The same matrix on real threads (reduced: the two extreme optimization
/// sets, transient and full-taxonomy seeds).
#[test]
fn threads_matrix_recovers() {
    let and_ace = Ace::load(AND_PROG).unwrap();
    let or_ace = Ace::load(OR_PROG).unwrap();
    for opts in [OptFlags::none(), OptFlags::all()] {
        for (seed, transient) in [(11u64, true), (12, true), (13, false), (14, false)] {
            let plan = if transient {
                FaultPlan::random_transient(seed, WORKERS, 5)
            } else {
                FaultPlan::random(seed, WORKERS, 6)
            };
            let c = cfg(opts, DriverKind::Threads, plan);

            let r = and_ace
                .run_query(Mode::AndParallel, AND_QUERY, &c)
                .unwrap_or_else(|e| panic!("and seed={seed} opts={}: {e}", opts.label()));
            assert_eq!(
                r.solutions,
                and_oracle(),
                "seed={seed} opts={}",
                opts.label()
            );
            check_trace(&r, &format!("threads and seed={seed} {}", opts.label()));

            let r = or_ace
                .run_query(Mode::OrParallel, OR_QUERY, &c)
                .unwrap_or_else(|e| panic!("or seed={seed} opts={}: {e}", opts.label()));
            check_trace(&r, &format!("threads or seed={seed} {}", opts.label()));
            assert_eq!(
                sorted(r.solutions),
                sorted(or_oracle()),
                "seed={seed} opts={}",
                opts.label()
            );
        }
    }
}

/// A guaranteed worker death under the threads driver: the strict API
/// reports a structured worker-panic error (process stays alive), and the
/// degradation API then produces the oracle with the recovery on record.
#[test]
fn injected_death_is_structured_then_recovers() {
    let ace = Ace::load(AND_PROG).unwrap();
    for driver in [DriverKind::Sim, DriverKind::Threads] {
        let plan = FaultPlan::new(0).with(0, 2, FaultKind::Die);
        let c = cfg(OptFlags::all(), driver, plan);

        // Strict path: a structured error, not a crash.
        let err = ace
            .run_strict(Mode::AndParallel, AND_QUERY, &c)
            .expect_err("a dead worker must fail the strict run")
            .to_string();
        assert!(err.starts_with("worker panic:"), "driver={driver:?}: {err}");
        assert!(err.contains("injected worker death"), "{err}");

        // Degradation path: same query, same config, oracle answers.
        let r = ace.run_query(Mode::AndParallel, AND_QUERY, &c).unwrap();
        assert_eq!(r.solutions, and_oracle(), "driver={driver:?}");
        assert!(
            r.recovery.iter().any(|l| l.contains("sequential fallback")),
            "recovery must be recorded: {:?}",
            r.recovery
        );
        // The fallback trace records the degradation itself.
        let trace = r.trace.as_ref().expect("fallback must carry a trace");
        assert!(
            trace.events.iter().any(|e| e.kind.name() == "degraded"),
            "degradation must be traced"
        );
        check_trace(&r, &format!("death fallback driver={driver:?}"));
    }
}

/// Forced cancellation: surfaces as `AceError::FaultInjected` on the
/// structured API and recovers the same way.
#[test]
fn injected_cancellation_is_classified_and_recovers() {
    let ace = Ace::load(OR_PROG).unwrap();
    for driver in [DriverKind::Sim, DriverKind::Threads] {
        let plan = FaultPlan::new(0).with(1, 1, FaultKind::Cancel);
        let c = cfg(OptFlags::lao_only(), driver, plan);

        // Exercise the classifier through a direct (non-degrading) run.
        // Under real threads worker 0 may finish the whole query before
        // worker 1's event fires — a clean completion is also acceptable
        // there; the sim schedule fires the event deterministically.
        let engine = ace_or::OrEngine::new(ace.db().clone());
        match engine.run(OR_QUERY, &c) {
            Err(err) => {
                let classified = AceError::classify(err);
                assert!(
                    matches!(classified, AceError::FaultInjected(_)),
                    "driver={driver:?}: {classified:?}"
                );
                assert!(classified.is_recoverable());
            }
            Ok(r) => {
                assert_eq!(
                    driver,
                    DriverKind::Threads,
                    "sim must fire the injected cancellation"
                );
                let rendered = sorted(r.solutions);
                assert_eq!(rendered, sorted(or_oracle()));
            }
        }

        let r = ace.run_query(Mode::OrParallel, OR_QUERY, &c).unwrap();
        check_trace(&r, &format!("cancel recovery driver={driver:?}"));
        assert_eq!(
            sorted(r.solutions),
            sorted(or_oracle()),
            "driver={driver:?}"
        );
    }
}

/// Nightly sweep: when `FAULT_MATRIX_SEED` is set (CI rotates it with the
/// date), run extra full-taxonomy plans derived from it so schedules no
/// checked-in seed covers get probed continuously. A reported failure is
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
    let and_ace = Ace::load(AND_PROG).unwrap();
    let or_ace = Ace::load(OR_PROG).unwrap();
    for i in 0..8u64 {
        let seed = base.wrapping_mul(1000).wrapping_add(i);
        let plan = FaultPlan::random(seed, WORKERS, 8);
        for driver in [DriverKind::Sim, DriverKind::Threads] {
            let c = cfg(OptFlags::all(), driver, plan.clone());
            let r = and_ace
                .run_query(Mode::AndParallel, AND_QUERY, &c)
                .unwrap_or_else(|e| panic!("and seed={seed} {driver:?}: {e}"));
            assert_eq!(r.solutions, and_oracle(), "seed={seed} {driver:?}");
            check_trace(&r, &format!("sweep and seed={seed} {driver:?}"));
            let r = or_ace
                .run_query(Mode::OrParallel, OR_QUERY, &c)
                .unwrap_or_else(|e| panic!("or seed={seed} {driver:?}: {e}"));
            check_trace(&r, &format!("sweep or seed={seed} {driver:?}"));
            assert_eq!(
                sorted(r.solutions),
                sorted(or_oracle()),
                "seed={seed} {driver:?}"
            );
        }
    }
}

/// Faults against a warm answer table: memoized replays must not lose or
/// duplicate answers under injected steal/publish failures, stalls, or a
/// guaranteed worker death — every cell stays multiset-equal to the
/// memo-off oracle, cold table and warm table alike.
#[test]
fn memo_enabled_matrix_preserves_answers() {
    use ace_runtime::{AnswerStore, StoreConfig};
    use std::sync::Arc;

    // Structurally indexed so the table really fills: each and-slot / each
    // or-branch repeats the same deterministic nrev cell.
    let prog = r#"
        append([], L, L).
        append([H|T], L, [H|R]) :- append(T, L, R).
        nrev([], []).
        nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
        cell(R) :- nrev([1,2,3,4,5,6], R).
        member(X, [X|_]).
        member(X, [_|T]) :- member(X, T).
        both(A, B) :- cell(A) & cell(B).
    "#;
    let ace = Ace::load(prog).unwrap();
    let and_query = "both(A, B)";
    let or_query = "member(V, [1,2,3]), cell(R)";

    let quiet = cfg(OptFlags::all(), DriverKind::Sim, FaultPlan::new(0));
    let and_oracle = ace.run(Mode::AndParallel, and_query, &quiet).unwrap();
    let or_oracle = ace.run(Mode::OrParallel, or_query, &quiet).unwrap();

    // Warm the shared table with one undisturbed memo run per engine.
    let table = Arc::new(AnswerStore::new(&StoreConfig::default()));
    let warmup = quiet.clone().with_store(table.clone()).with_memoization();
    ace.run(Mode::AndParallel, and_query, &warmup).unwrap();
    ace.run(Mode::OrParallel, or_query, &warmup).unwrap();
    assert!(table.counters().stores > 0, "warmup never filled the table");

    let mut plans: Vec<(String, FaultPlan)> =
        vec![("death".into(), FaultPlan::new(0).with(0, 2, FaultKind::Die))];
    for seed in [21u64, 4242] {
        plans.push((
            format!("transient seed={seed}"),
            FaultPlan::random_transient(seed, WORKERS, 6),
        ));
        plans.push((
            format!("taxonomy seed={seed}"),
            FaultPlan::random(seed, WORKERS, 8),
        ));
    }
    for (label, plan) in &plans {
        for memo in [None, Some(&table)] {
            let mut c = cfg(OptFlags::all(), DriverKind::Sim, plan.clone());
            if let Some(t) = memo {
                c = c.with_store((*t).clone()).with_memoization();
            }
            let tag = |engine: &str| {
                format!(
                    "{engine} {label} memo={}",
                    if memo.is_some() { "warm" } else { "off" }
                )
            };

            let r = ace
                .run_query(Mode::AndParallel, and_query, &c)
                .unwrap_or_else(|e| panic!("{}: {e}", tag("and")));
            assert_eq!(r.solutions, and_oracle.solutions, "{}", tag("and"));
            check_trace(&r, &tag("and"));

            let r = ace
                .run_query(Mode::OrParallel, or_query, &c)
                .unwrap_or_else(|e| panic!("{}: {e}", tag("or")));
            assert_eq!(
                sorted(r.solutions.clone()),
                sorted(or_oracle.solutions.clone()),
                "{}",
                tag("or")
            );
            check_trace(&r, &tag("or"));
        }
    }
}

/// Faults across the tabling suspend→resume window: a left-recursive
/// tabled query spends most of its run suspended on its own fixpoint, so
/// sweeping `Die` and `Stall` injection points across both drivers lands
/// faults before the first answer, between suspension and resumption,
/// and during completion. Every cell must hand back the sequential
/// tabled oracle's exact answer set (directly, or via the recorded
/// sequential fallback) and must never deliver a duplicate — cold table
/// and warm shared table alike.
#[test]
fn tabling_matrix_preserves_answer_sets_across_suspend_resume() {
    use ace_runtime::{AnswerStore, StoreConfig};
    use std::sync::Arc;

    let prog = r#"
        :- table(path/2).
        path(X, Y) :- path(X, Z), edge(Z, Y).
        path(X, Y) :- edge(X, Y).
        edge(a, b).
        edge(b, c).
        edge(b, d).
        edge(c, a).
    "#;
    let ace = Ace::load(prog).unwrap();
    let query = "path(a, X)";
    let space = || Arc::new(AnswerStore::new(&StoreConfig::default()));

    // The oracle is the undisturbed sequential tabled run (the untabled
    // program does not terminate).
    let quiet = cfg(OptFlags::all(), DriverKind::Sim, FaultPlan::new(0))
        .with_store(space())
        .with_tabling();
    let oracle = sorted(ace.run(Mode::Sequential, query, &quiet).unwrap().solutions);
    assert_eq!(oracle, vec!["X=a", "X=b", "X=c", "X=d"]);

    // A warm shared table, filled by one undisturbed run.
    let warm_table = space();
    ace.run(
        Mode::Sequential,
        query,
        &quiet.clone().with_store(warm_table.clone()).with_tabling(),
    )
    .unwrap();
    assert!(warm_table.complete_len() >= 1, "warmup never completed");

    for driver in [DriverKind::Sim, DriverKind::Threads] {
        for victim in [0usize, 1] {
            for at_op in [1u64, 2, 3, 5, 8] {
                for kind in [FaultKind::Die, FaultKind::Stall { cost: 250 }] {
                    let plan = FaultPlan::new(0).with(victim, at_op, kind);
                    for (round, table) in [("cold", space()), ("warm", warm_table.clone())] {
                        let tag = format!(
                            "tabling {driver:?} victim={victim} at_op={at_op} \
                             {kind:?} {round}"
                        );
                        let c = cfg(OptFlags::all(), driver, plan.clone())
                            .with_store(table)
                            .with_tabling();
                        let r = ace
                            .run_query(Mode::OrParallel, query, &c)
                            .unwrap_or_else(|e| panic!("{tag}: {e}"));
                        // Exact set, and never a duplicate: elimination
                        // happens at answer insertion, before any
                        // consumer — faulty schedules included.
                        assert_eq!(sorted(r.solutions.clone()), oracle, "{tag}");
                        check_trace(&r, &tag);
                    }
                }
            }
        }
    }
}

/// Program errors must never be masked by the degradation path: the error
/// is the answer, under every driver, with or without faults in the plan.
#[test]
fn program_errors_still_surface_through_run_query() {
    let ace = Ace::load("boom(X) :- Y is X + foo, Y > 0.").unwrap();
    for driver in [DriverKind::Sim, DriverKind::Threads] {
        let plan = FaultPlan::random_transient(99, WORKERS, 4);
        let c = cfg(OptFlags::none(), driver, plan);
        let err = ace
            .run_query(Mode::AndParallel, "boom(1)", &c)
            .expect_err("type errors are not recoverable");
        assert!(
            matches!(err, AceError::Program(_)),
            "driver={driver:?}: {err:?}"
        );
    }
}

/// Worker death inside the deferral window: with procrastinated capture,
/// a published node can sit with its closure still deferred — remotes may
/// even have raised demand (`RemoteClaim::Pending`) — when the victim
/// dies. Sweeping the death point across early phase checkpoints lands
/// kills before publication, between defer and materialization, and
/// after installs have begun. Every cell must still hand back the oracle
/// multiset (directly or via the recorded sequential fallback), and every
/// surviving trace must pass the checker, including the
/// no-install-before-materialization rule.
#[test]
fn death_in_defer_window_recovers() {
    let ace = Ace::load(OR_PROG).unwrap();
    for driver in [DriverKind::Sim, DriverKind::Threads] {
        for victim in [0usize, 1] {
            for at_op in [1u64, 2, 3, 5, 8] {
                let plan = FaultPlan::new(0).with(victim, at_op, FaultKind::Die);
                let c = cfg(OptFlags::all(), driver, plan);
                let tag =
                    format!("defer-window death driver={driver:?} victim={victim} at_op={at_op}");
                let r = ace
                    .run_query(Mode::OrParallel, OR_QUERY, &c)
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                assert_eq!(sorted(r.solutions.clone()), sorted(or_oracle()), "{tag}");
                check_trace(&r, &tag);
            }
        }
    }
}

/// Serving-layer matrix cell: seeded `Die`/`Stall` faults inside the
/// session dispatch window, crossed with both drivers on the engine side.
/// The hit sessions degrade (with the recovery on record) and still
/// deliver the exact oracle; unaffected sessions complete normally; the
/// fleet survives the whole round.
#[test]
fn dispatch_window_faults_degrade_only_the_hit_sessions() {
    use ace_server::{QueryRequest, Serve, ServerConfig, SessionEnd};

    let ace = Ace::load(AND_PROG).unwrap();
    let oracle = and_oracle();
    for driver in [DriverKind::Sim, DriverKind::Threads] {
        let plan =
            FaultPlan::new(7)
                .with(0, 1, FaultKind::Die)
                .with(1, 2, FaultKind::Stall { cost: 300 });
        let server = ace.serve(
            ServerConfig::default()
                .with_fleet(2)
                .with_max_in_flight(16)
                .with_fault_plan(plan),
        );
        let handles: Vec<_> = (0..6)
            .map(|_| {
                server
                    .submit(QueryRequest::new(
                        Mode::AndParallel,
                        AND_QUERY,
                        cfg(OptFlags::all(), driver, FaultPlan::new(0)),
                    ))
                    .unwrap()
            })
            .collect();
        let (mut degraded, mut completed) = (0usize, 0usize);
        for h in &handles {
            let (answers, outcome) = h.drain();
            assert_eq!(
                answers, oracle,
                "driver={driver:?}: wrong or missing answers"
            );
            match &outcome.end {
                SessionEnd::Degraded => {
                    degraded += 1;
                    let report = outcome.report.as_ref().expect("degraded report");
                    assert!(
                        report
                            .recovery
                            .iter()
                            .any(|l| l.contains("sequential replay")),
                        "driver={driver:?}: degraded session lacks a recovery record: {:?}",
                        report.recovery
                    );
                }
                SessionEnd::Completed => completed += 1,
                other => panic!("driver={driver:?}: unexpected session end {other:?}"),
            }
        }
        assert!(
            degraded >= 1,
            "driver={driver:?}: the Die must hit a session"
        );
        assert_eq!(degraded + completed, 6, "driver={driver:?}");
        server.shutdown();
    }
}

/// The finite-domain engine rides the same worker chassis, so a transient
/// plan is absorbed at the same phase checkpoints: stalls fire (the fd
/// search has no steal/publish fault sites, so those events stay unspent)
/// and the queens solution set is untouched, under both drivers.
#[test]
fn fd_cell_transient_faults_preserve_answers() {
    use ace_fd::{queens, Fd};
    let solve = |c: &EngineConfig| {
        let r = Fd::new(queens(6)).solve_all(c);
        assert_eq!(r.outcome.aborted, None);
        let mut solutions = r.solutions;
        solutions.sort();
        (solutions, r.stats, r.trace)
    };
    let (oracle, ..) = solve(&cfg(
        OptFlags::lao_only(),
        DriverKind::Sim,
        FaultPlan::new(0),
    ));
    assert_eq!(oracle.len(), 4);
    for driver in [DriverKind::Sim, DriverKind::Threads] {
        for seed in [7u64, 1031] {
            let plan = FaultPlan::random_transient(seed, WORKERS, 6).with(
                0,
                1,
                FaultKind::Stall { cost: 100 },
            );
            let (got, stats, trace) = solve(&cfg(OptFlags::lao_only(), driver, plan));
            assert_eq!(got, oracle, "fd {driver:?} seed={seed}");
            assert!(stats.fault_stalls >= 1, "fd {driver:?} seed={seed}");
            assert_eq!(stats.faults_injected, stats.fault_stalls);
            if let Err(violations) = TraceChecker::check(&trace.expect("tracing enabled")) {
                panic!("fd {driver:?} seed={seed}: {violations:#?}");
            }
        }
    }
}
