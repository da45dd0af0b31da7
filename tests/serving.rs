//! Serving-layer soak: many concurrent sessions multiplexed over one small
//! fleet, with faults injected at both the serving and the engine layer.
//! Every session must end in exactly one of {completed, cancelled-by-
//! deadline, rejected-at-admission, degraded-with-recovery}, and every
//! session's streamed answers must be a prefix (and-parallel, sequential)
//! or sub-multiset (or-parallel) of the sequential oracle.

use std::collections::HashMap;
use std::time::Duration;

use ace_core::{Ace, AceError, Mode};
use ace_runtime::{EngineConfig, FaultKind, FaultPlan, OptFlags, TraceChecker, TraceConfig};
use ace_server::{Priority, QueryRequest, Serve, ServerConfig, SessionEnd, SessionHandle};

const PROG: &str = r#"
    double(X, Y) :- Y is X * 2.
    p(1). p(2). p(3).
    pl([], []).
    pl([H|T], [H2|T2]) :- double(H, H2) & pl(T, T2).
    member(X, [X|_]).
    member(X, [_|T]) :- member(X, T).
    d(0). d(1). d(2). d(3). d(4).
    stream(X) :- d(X).
    stream(X) :- stream(X).
    append([], L, L).
    append([H|T], L, [H|R]) :- append(T, L, R).
    nrev([], []).
    nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
"#;

fn engine_cfg(workers: usize) -> EngineConfig {
    EngineConfig::default()
        .with_workers(workers)
        .with_opts(OptFlags::all())
        .all_solutions()
}

fn multiset(v: &[String]) -> HashMap<&str, usize> {
    let mut m = HashMap::new();
    for s in v {
        *m.entry(s.as_str()).or_insert(0) += 1;
    }
    m
}

fn is_sub_multiset(sub: &[String], of: &[String]) -> bool {
    let big = multiset(of);
    multiset(sub)
        .iter()
        .all(|(k, n)| big.get(k).is_some_and(|m| m >= n))
}

/// One submitted session and what we know about it.
struct Tracked {
    handle: SessionHandle,
    query: String,
    mode: Mode,
    /// Expected deterministic answer order (sequential oracle); `None`
    /// for the infinite generator.
    oracle: Option<Vec<String>>,
}

#[test]
fn soak_hundred_sessions_partition_into_four_outcomes() {
    let ace = Ace::load(PROG).unwrap();
    let finite_queries: Vec<(&str, Mode)> = vec![
        ("member(X, [1,2,3,4,5])", Mode::Sequential),
        ("pl([1,2,3], Out)", Mode::AndParallel),
        ("member(X, [1,2,3,4,5])", Mode::OrParallel),
        ("nrev([1,2,3,4,5], R)", Mode::Sequential),
        ("p(X), double(X, Y)", Mode::OrParallel),
        ("pl([1,2], Out)", Mode::AndParallel),
    ];
    let mut oracles: HashMap<&str, Vec<String>> = HashMap::new();
    for (q, _) in &finite_queries {
        oracles.insert(q, ace.sequential_solutions(q).unwrap());
    }

    // Serving-layer faults: worker deaths and stalls inside dispatch
    // windows, spread across the 8 fleet threads.
    let server_plan = FaultPlan::new(42)
        .with(0, 2, FaultKind::Die)
        .with(3, 3, FaultKind::Die)
        .with(1, 2, FaultKind::Stall { cost: 200 })
        .with(5, 4, FaultKind::Stall { cost: 100 });
    let server = ace.serve(
        ServerConfig::default()
            .with_fleet(8)
            .with_max_in_flight(40)
            .with_fault_plan(server_plan)
            .with_trace(TraceConfig::enabled()),
    );

    let mut tracked: Vec<Tracked> = Vec::new();
    let mut rejected = 0usize;
    let mut submitted = 0usize;

    // Phase 1: pin the whole fleet down with infinite sessions on a short
    // deadline, so the flood below genuinely queues (and overflows).
    for _ in 0..8 {
        let req = QueryRequest::new(Mode::Sequential, "stream(X)", engine_cfg(2))
            .with_priority(Priority::Low)
            .with_deadline(Duration::from_millis(60));
        submitted += 1;
        let h = server.submit(req).expect("fleet-pinning session admitted");
        tracked.push(Tracked {
            handle: h,
            query: "stream(X)".into(),
            mode: Mode::Sequential,
            oracle: None,
        });
    }

    // Phase 2: flood with 112 more sessions — finite queries across all
    // three modes, a few with engine-level fault plans, one bad seed per
    // tenant. With the fleet pinned and the queue capped at 40, a chunk of
    // these must be rejected at admission.
    for i in 0..112 {
        let (q, mode) = finite_queries[i % finite_queries.len()];
        let mut cfg = engine_cfg(2).with_tenant((i % 4) as u32);
        if i % 11 == 3 && mode != Mode::Sequential {
            // Engine-level worker death: supervision contains it and the
            // session degrades to a sequential replay.
            cfg = cfg.with_fault_plan(FaultPlan::new(i as u64).with(0, 2, FaultKind::Die));
        }
        let req = QueryRequest::new(mode, q, cfg)
            .with_tenant((i % 4) as u32)
            .with_priority(if i % 3 == 0 {
                Priority::High
            } else {
                Priority::Normal
            })
            .with_deadline(Duration::from_secs(30));
        submitted += 1;
        match server.submit(req) {
            Ok(h) => tracked.push(Tracked {
                handle: h,
                query: q.into(),
                mode,
                oracle: Some(oracles[q].clone()),
            }),
            Err(AceError::Overloaded(_)) => rejected += 1,
            Err(e) => panic!("submission {i} failed with non-admission error: {e:?}"),
        }
    }

    assert!(submitted >= 120, "soak must drive at least 120 submissions");
    assert!(
        rejected > 0,
        "the flood must overflow the admission controller"
    );

    // Every admitted session ends in exactly one of the allowed states.
    let mut completed = 0usize;
    let mut deadline_cancelled = 0usize;
    let mut degraded = 0usize;
    for t in &tracked {
        let (answers, outcome) = t.handle.drain();
        match &outcome.end {
            SessionEnd::Completed => completed += 1,
            SessionEnd::DeadlineCancelled => deadline_cancelled += 1,
            SessionEnd::Degraded => {
                degraded += 1;
                let report = outcome.report.as_ref().expect("degraded report");
                assert!(
                    report
                        .recovery
                        .iter()
                        .any(|l| l.contains("sequential replay")),
                    "degraded session {} has no recovery record: {:?}",
                    t.handle.id(),
                    report.recovery
                );
            }
            other => panic!(
                "session {} ({} / {:?}) ended outside the allowed partition: {other:?}",
                t.handle.id(),
                t.query,
                t.mode
            ),
        }
        // Streamed answers are a prefix / sub-multiset of the oracle.
        match &t.oracle {
            None => {
                for a in &answers {
                    assert!(a.starts_with("X="), "unexpected generator answer {a}");
                }
            }
            Some(oracle) => match t.mode {
                Mode::Sequential | Mode::AndParallel => assert_eq!(
                    &answers[..],
                    &oracle[..answers.len().min(oracle.len())],
                    "session {} ({}) streamed a non-prefix",
                    t.handle.id(),
                    t.query
                ),
                Mode::OrParallel => assert!(
                    is_sub_multiset(&answers, oracle),
                    "session {} ({}) streamed answers outside the oracle multiset: {answers:?}",
                    t.handle.id(),
                    t.query
                ),
            },
        }
        // Completed finite sessions must deliver the whole oracle.
        if let (SessionEnd::Completed, Some(oracle)) = (&outcome.end, &t.oracle) {
            assert_eq!(
                multiset(&answers),
                multiset(oracle),
                "completed session {} ({}) lost answers",
                t.handle.id(),
                t.query
            );
        }
    }

    assert!(
        deadline_cancelled > 0,
        "deadline sessions must be reclaimed"
    );
    assert!(degraded > 0, "injected faults must degrade some sessions");
    assert!(completed > 0, "most sessions must still complete");

    // The trace satisfies the serving invariants (no answer after cancel,
    // no stream from a rejected session).
    let trace = server.take_trace();
    if let Err(violations) = TraceChecker::check(&trace) {
        panic!("serving trace violations: {violations:?}");
    }

    let stats = server.shutdown();
    assert_eq!(stats.rejected as usize, rejected);
    assert_eq!(stats.admitted as usize, tracked.len());
    assert_eq!(
        stats.completed + stats.deadline_cancelled + stats.degraded,
        stats.admitted,
        "outcome partition must cover every admitted session: {stats:?}"
    );
    assert_eq!(stats.failed, 0, "{stats:?}");
    assert_eq!(stats.client_cancelled, 0, "{stats:?}");
}
