//! Failure injection: inside backtracking (sibling cancellation), failures
//! at every slot position, redo storms, error propagation, and resource
//! edge cases.

use ace_core::{Ace, Mode};
use ace_runtime::{DriverKind, EngineConfig, OptFlags};

fn cfg(workers: usize, opts: OptFlags) -> EngineConfig {
    EngineConfig::default()
        .with_workers(workers)
        .with_opts(opts)
        .all_solutions()
}

/// A failing subgoal at each position of a wide parallel call must fail
/// the whole call (inside backtracking), under every optimization set.
#[test]
fn failure_at_every_slot_position() {
    for fail_pos in 0..5 {
        let goals: Vec<String> = (0..5)
            .map(|i| {
                if i == fail_pos {
                    "bad(X)".to_owned()
                } else {
                    format!("good({i}, Y{i})")
                }
            })
            .collect();
        let program = r#"
            good(N, Y) :- Y is N * 2.
            bad(_) :- fail.
        "#;
        let query = goals.join(" & ");
        let ace = Ace::load(program).unwrap();
        for opts in [OptFlags::none(), OptFlags::paper(), OptFlags::all()] {
            for w in [1, 3] {
                let r = ace.run(Mode::AndParallel, &query, &cfg(w, opts)).unwrap();
                assert!(
                    r.solutions.is_empty(),
                    "pos={fail_pos} w={w} opts={}",
                    opts.label()
                );
                // Lazy frames build no frame that nobody asks for, so the
                // failure may be a sequential conjunction's, not a slot's.
                if !opts.lazy {
                    assert!(r.stats.slot_failures >= 1);
                }
            }
        }
    }
}

/// A slow sibling must be cancelled when another slot fails — the run must
/// terminate promptly rather than completing the doomed work.
#[test]
fn sibling_cancellation_on_failure() {
    let ace = Ace::load(
        r#"
        spin(N) :- ( N =< 0 -> true ; N1 is N - 1, spin(N1) ).
        query :- spin(100000) & fail.
        "#,
    )
    .unwrap();
    let r = ace
        .run(Mode::AndParallel, "query", &cfg(2, OptFlags::none()))
        .unwrap();
    assert!(r.solutions.is_empty());
    // the spinning slot is killed long before its 100000 iterations:
    // each iteration costs > 5 units, so an uncancelled run would exceed
    // 500_000 units on the spinning worker alone.
    assert!(
        r.virtual_time < 400_000,
        "cancellation latency too high: {}",
        r.virtual_time
    );
}

/// Nested parallel calls: failure deep in a nested frame propagates up
/// through every level.
#[test]
fn nested_failure_propagates() {
    let ace = Ace::load(
        r#"
        leafok(X, Y) :- Y is X + 1.
        leafbad(_, _) :- fail.
        inner(X, r(A, B)) :- leafok(X, A) & leafbad(X, B).
        outer(X, s(P, Q)) :- inner(X, P) & leafok(X, Q).
        "#,
    )
    .unwrap();
    for opts in [OptFlags::none(), OptFlags::all()] {
        let r = ace
            .run(Mode::AndParallel, "outer(1, S)", &cfg(3, opts))
            .unwrap();
        assert!(r.solutions.is_empty(), "opts={}", opts.label());
    }
}

/// Redo storm: a parallel call whose cross product is enumerated fully by
/// an always-failing continuation terminates with the exact count.
#[test]
fn redo_storm_exhausts_cross_product() {
    let ace = Ace::load(
        r#"
        c(1). c(2). c(3).
        count(N) :- (c(A) & c(B) & c(C)), N is A * 100 + B * 10 + C.
        "#,
    )
    .unwrap();
    for opts in [OptFlags::none(), OptFlags::all()] {
        for w in [1, 2, 4] {
            let r = ace
                .run(Mode::AndParallel, "count(N)", &cfg(w, opts))
                .unwrap();
            assert_eq!(r.solutions.len(), 27, "w={w} opts={}", opts.label());
            // and in exactly sequential order
            assert_eq!(r.solutions.first().map(String::as_str), Some("N=111"));
            assert_eq!(r.solutions.last().map(String::as_str), Some("N=333"));
        }
    }
}

/// Errors in any subgoal surface as errors (not silent failures), from
/// any engine.
#[test]
fn errors_propagate_from_slots() {
    let ace = Ace::load("ok(1). boom(X) :- Y is X + foo, Y > 0.").unwrap();
    let r = ace.run(
        Mode::AndParallel,
        "ok(A) & boom(A)",
        &cfg(2, OptFlags::none()),
    );
    assert!(r.is_err(), "{r:?}");

    let r = ace.run(Mode::OrParallel, "boom(1)", &cfg(2, OptFlags::none()));
    assert!(r.is_err());

    let r = ace.run(Mode::Sequential, "boom(1)", &EngineConfig::default());
    assert!(r.is_err());
}

/// An empty parallel call equivalent (`true & true`) and single-branch
/// degenerate cases behave.
#[test]
fn degenerate_parcalls() {
    let ace = Ace::load("t :- true & true. one(X) :- (X = 1) & true.").unwrap();
    for opts in [OptFlags::none(), OptFlags::all()] {
        let r = ace.run(Mode::AndParallel, "t", &cfg(2, opts)).unwrap();
        assert_eq!(r.solutions.len(), 1);
        let r = ace.run(Mode::AndParallel, "one(X)", &cfg(2, opts)).unwrap();
        assert_eq!(r.solutions, vec!["X=1"]);
    }
}

/// Deep recursion through parallel conjunctions does not overflow the
/// host stack (frames live on the machine's explicit stacks).
#[test]
fn deep_parallel_recursion() {
    let ace = Ace::load(
        r#"
        chain(0, []).
        chain(N, [N|T]) :- N > 0, N1 is N - 1, ( step(N) & chain(N1, T) ).
        step(_).
        "#,
    )
    .unwrap();
    // without LPCO this nests 300 frames; with it, one wide frame
    for opts in [OptFlags::none(), OptFlags::lpco_only()] {
        let mut c = cfg(2, opts);
        c.max_solutions = Some(1);
        let r = ace.run(Mode::AndParallel, "chain(300, L)", &c).unwrap();
        assert_eq!(r.solutions.len(), 1, "opts={}", opts.label());
    }
}

/// Or-engine: a query that fails after deep publication cleans up and
/// terminates (no dangling alternatives / livelock).
#[test]
fn or_engine_failing_deep_search_terminates() {
    let ace = Ace::load(
        r#"
        member(X, [X|_]).
        member(X, [_|T]) :- member(X, T).
        "#,
    )
    .unwrap();
    let list: Vec<String> = (1..=40).map(|i| i.to_string()).collect();
    let q = format!("member(X, [{}]), X > 1000", list.join(","));
    for opts in [OptFlags::none(), OptFlags::lao_only()] {
        let r = ace.run(Mode::OrParallel, &q, &cfg(6, opts)).unwrap();
        assert!(r.solutions.is_empty());
    }
}

/// Cancellation storm: the same parcall frame is cancelled and redone on
/// every alternative of a wide cross product (the failing continuation
/// forces inside backtracking each round). Repeating the identical run
/// must not leak markers or trail extents — under the deterministic driver
/// every repetition's counter sheet is bit-identical to the first, and
/// under threads the per-run structure counts stay within the same bounds
/// instead of growing across repetitions.
#[test]
fn cancellation_storm_no_marker_or_trail_leak() {
    let ace = Ace::load(
        r#"
        c(1). c(2). c(3).
        bad(_, _) :- fail.
        storm :- (c(A) & c(B)), bad(A, B).
        "#,
    )
    .unwrap();
    for driver in [DriverKind::Sim, DriverKind::Threads] {
        let run = || {
            let c = cfg(3, OptFlags::none()).with_driver(driver);
            let r = ace.run(Mode::AndParallel, "storm", &c).unwrap();
            assert!(r.solutions.is_empty());
            // every redo round cancels the frame's slots and re-runs them
            assert!(
                r.stats.redo_rounds >= 8,
                "driver={driver:?}: {}",
                r.stats.redo_rounds
            );
            r.stats
        };
        let baseline = run();
        for round in 1..8 {
            let s = run();
            match driver {
                DriverKind::Sim => {
                    // exact repeatability: identical counters every round
                    assert_eq!(s, baseline, "round {round}: stats drifted from baseline");
                }
                DriverKind::Threads => {
                    // schedule-dependent, but a leak would compound: the
                    // structures of one storm bound the structures of all
                    assert!(
                        s.markers_allocated <= baseline.markers_allocated * 4 + 64,
                        "round {round}: markers grew: {} vs baseline {}",
                        s.markers_allocated,
                        baseline.markers_allocated
                    );
                    assert!(
                        s.trail_undos <= baseline.trail_undos * 4 + 256,
                        "round {round}: trail undos grew: {} vs baseline {}",
                        s.trail_undos,
                        baseline.trail_undos
                    );
                }
            }
        }
    }
}

/// Session-level cancellation storm: N concurrent sessions, all streaming
/// from an infinite generator tagged with their own constant, all
/// cancelled mid-stream. No session may leak a fleet worker (the server
/// must serve fresh queries afterwards), no received answer may be lost,
/// and no answer may bleed across sessions (every answer carries its own
/// session's tag).
#[test]
fn session_cancellation_storm_no_leak_or_bleed() {
    use ace_server::{QueryRequest, Serve, ServerConfig, SessionEnd};

    let ace = Ace::load(
        r#"
        d(0). d(1). d(2). d(3). d(4).
        tagged(T, v(T, D)) :- d(D).
        tagged(T, X) :- tagged(T, X).
        "#,
    )
    .unwrap();
    let server = ace.serve(ServerConfig::default().with_fleet(4).with_max_in_flight(64));

    const SESSIONS: usize = 16;
    let handles: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let q = format!("tagged({i}, X)");
            let h = server
                .submit(QueryRequest::new(
                    Mode::Sequential,
                    q,
                    EngineConfig::default().all_solutions(),
                ))
                .unwrap();
            (i, h)
        })
        .collect();

    // Each session proves its stream is live (two answers received), then
    // cancels mid-stream.
    let mut results = Vec::new();
    for (i, h) in &handles {
        // Only 4 fleet threads: later sessions wait queued while earlier
        // ones stream. Drain in submission order so each gets dispatched.
        let a1 = h.next_answer().expect("first streamed answer");
        let a2 = h.next_answer().expect("second streamed answer");
        h.cancel();
        let (rest, outcome) = h.drain();
        assert_eq!(outcome.end, SessionEnd::ClientCancelled, "session {i}");
        let mut answers = vec![a1, a2];
        answers.extend(rest);
        results.push((*i, answers));
    }

    for (i, answers) in &results {
        assert!(answers.len() >= 2, "session {i} lost streamed answers");
        let tag = format!("v({i},");
        for a in answers {
            assert!(
                a.contains(&tag),
                "session {i} received a foreign answer: {a}"
            );
        }
    }

    // No leaked workers: the fleet still serves, and the admission window
    // is fully released.
    let h = server
        .submit(QueryRequest::new(
            Mode::Sequential,
            "d(X)",
            EngineConfig::default().all_solutions(),
        ))
        .unwrap();
    let (answers, outcome) = h.drain();
    assert_eq!(outcome.end, SessionEnd::Completed);
    assert_eq!(answers, vec!["X=0", "X=1", "X=2", "X=3", "X=4"]);

    let stats = server.shutdown();
    assert_eq!(stats.client_cancelled as usize, SESSIONS);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
}

/// Cut committing over a completed parallel call discards its pending
/// alternatives (cross-product pruning).
#[test]
fn cut_over_parcall_commits() {
    let ace = Ace::load(
        r#"
        c(1). c(2).
        first(A, B) :- (c(A) & c(B)), !.
        "#,
    )
    .unwrap();
    for opts in [OptFlags::none(), OptFlags::all()] {
        let r = ace
            .run(Mode::AndParallel, "first(A, B)", &cfg(2, opts))
            .unwrap();
        assert_eq!(r.solutions, vec!["A=1, B=1"], "opts={}", opts.label());
    }
}

/// `halt/0` reached while outside backtracking advances a kept generator
/// ends the run with the answers found so far, as it does sequentially.
#[test]
fn halt_on_outside_backtracking_ends_the_run() {
    let ace = Ace::load(
        r#"
        member(X, [X|_]).
        member(X, [_|T]) :- member(X, T).
        p(X) :- member(X, [1,2,3]), (X =:= 2 -> halt ; true).
        q(Y) :- Y = a.
        "#,
    )
    .unwrap();
    let query = "p(X) & q(Y)";
    let seq = ace.sequential_solutions(query).unwrap();
    assert_eq!(seq, vec!["X=1, Y=a"]);
    for opts in [OptFlags::none(), OptFlags::paper(), OptFlags::all()] {
        for w in [1, 4] {
            let r = ace
                .run_strict(Mode::AndParallel, query, &cfg(w, opts))
                .unwrap_or_else(|e| panic!("w={w} opts={}: {e}", opts.label()));
            assert_eq!(r.solutions, seq, "w={w} opts={}", opts.label());
        }
    }
}
