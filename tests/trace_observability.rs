//! Observability tier-1: the virtual-time event trace is Perfetto-valid,
//! per-worker monotone, invariant-clean, and free when disabled.
//!
//! * A traced 4-worker or-corpus run yields Chrome `trace_event` JSON
//!   that a JSON parser accepts and whose per-worker timestamps never go
//!   backwards.
//! * [`TraceChecker`] holds on every traced run here.
//! * Disabling tracing allocates no ring buffers and leaves
//!   `virtual_time` bit-for-bit unchanged — tracing charges zero
//!   virtual cost.

use ace_core::{Ace, Mode, RunReport};
use ace_runtime::{
    EngineConfig, EventKind, OptFlags, TraceChecker, TraceClass, TraceConfig, Tracer,
};
use ace_server::{QueryRequest, Serve, ServerConfig, SessionEnd};

fn cfg(workers: usize, trace: TraceConfig) -> EngineConfig {
    EngineConfig::default()
        .with_workers(workers)
        .with_opts(OptFlags::all())
        .with_trace(trace)
        .all_solutions()
}

fn traced_or_run(name: &str) -> RunReport {
    let b = ace_programs::benchmark(name).unwrap();
    let ace = Ace::load(&(b.program)(b.test_size)).unwrap();
    ace.run(
        b.mode,
        &(b.query)(b.test_size),
        &cfg(4, TraceConfig::enabled()),
    )
    .unwrap()
}

/// Minimal recursive-descent JSON validator: enough to prove the Chrome
/// export is structurally well-formed (balanced, properly quoted and
/// escaped) without an external parser dependency.
fn validate_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut i = 0;
    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    skip_ws(b, i);
                    string(b, i)?;
                    skip_ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return Err(format!("expected ':' at byte {i}", i = *i));
                    }
                    *i += 1;
                    value(b, i)?;
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {i}", i = *i)),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    value(b, i)?;
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {i}", i = *i)),
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                while *i < b.len()
                    && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *i += 1;
                }
                Ok(())
            }
            Some(_) => {
                for lit in ["true", "false", "null"] {
                    if b[*i..].starts_with(lit.as_bytes()) {
                        *i += lit.len();
                        return Ok(());
                    }
                }
                Err(format!("unexpected byte at {i}", i = *i))
            }
            None => Err("unexpected end of input".into()),
        }
    }
    fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected '\"' at byte {i}", i = *i));
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            match c {
                b'"' => {
                    *i += 1;
                    return Ok(());
                }
                b'\\' => {
                    *i += 2;
                }
                0x00..=0x1f => {
                    return Err(format!("unescaped control byte at {i}", i = *i));
                }
                _ => *i += 1,
            }
        }
        Err("unterminated string".into())
    }
    value(bytes, &mut i)?;
    skip_ws(bytes, &mut i);
    if i != bytes.len() {
        return Err(format!("trailing bytes after value at {i}"));
    }
    Ok(())
}

#[test]
fn traced_or_corpus_exports_valid_chrome_json() {
    for name in ["queen1", "members", "ancestors"] {
        let r = traced_or_run(name);
        let trace = r.trace.as_ref().expect("tracing enabled");
        assert!(!trace.is_empty(), "{name}: traced run recorded no events");

        let json = trace.to_chrome_json();
        assert!(
            json.starts_with("{\"traceEvents\":["),
            "{name}: not a trace_event document"
        );
        validate_json(&json).unwrap_or_else(|e| panic!("{name}: invalid JSON: {e}"));

        // Perfetto requires the instant-event scope field.
        assert!(json.contains("\"ph\":"), "{name}: no event phase field");
        assert!(json.contains("\"ts\":"), "{name}: no timestamp field");
        assert!(json.contains("\"tid\":"), "{name}: no worker thread field");
    }
}

#[test]
fn merged_trace_timestamps_are_monotone_per_worker() {
    let r = traced_or_run("queen1");
    let trace = r.trace.as_ref().unwrap();
    let mut last: std::collections::HashMap<usize, u64> = Default::default();
    for ev in &trace.events {
        let prev = last.entry(ev.worker).or_insert(0);
        assert!(
            ev.t >= *prev,
            "worker {} time went backwards: {} -> {} ({})",
            ev.worker,
            prev,
            ev.t,
            ev.kind.name()
        );
        *prev = ev.t;
    }
    assert!(
        trace.workers() >= 2,
        "4-worker run should involve >1 worker"
    );
}

#[test]
fn trace_checker_holds_on_traced_corpus() {
    for name in ["queen1", "members", "ancestors"] {
        let r = traced_or_run(name);
        let trace = r.trace.as_ref().unwrap();
        if let Err(violations) = TraceChecker::check(trace) {
            panic!("{name}: trace invariant violations: {violations:#?}");
        }
    }

    // `TraceConfig::dispatch` is off above: switch it on for one search so
    // the machine's own `ClauseDispatch`/`ClauseRetry` emission sites, not
    // hand-built events, meet the checker's determinacy rule.
    let b = ace_programs::benchmark("queen1").unwrap();
    let ace = Ace::load(&(b.program)(b.test_size)).unwrap();
    let traced = cfg(4, TraceConfig::enabled().with_dispatch());
    let r = ace.run(b.mode, &(b.query)(b.test_size), &traced).unwrap();
    let trace = r.trace.as_ref().unwrap();
    assert_eq!(trace.dropped, 0, "ring too small for the dispatch events");
    let count = |f: fn(&EventKind) -> bool| trace.events.iter().filter(|e| f(&e.kind)).count();
    let dispatches = count(|k| matches!(k, EventKind::ClauseDispatch { .. }));
    let determinate = count(|k| {
        matches!(
            k,
            EventKind::ClauseDispatch {
                determinate: true,
                ..
            }
        )
    });
    let retries = count(|k| matches!(k, EventKind::ClauseRetry { .. }));
    assert!(
        determinate >= 1 && determinate < dispatches && retries >= 1,
        "queen1 should dispatch both ways and retry: {dispatches} dispatches \
         ({determinate} determinate), {retries} retries"
    );
    if let Err(violations) = TraceChecker::check(trace) {
        panic!("queen1 with dispatch events: {violations:#?}");
    }
}

/// Tracing must be free when off: the default config builds a [`Tracer`]
/// with no ring buffer behind it, and a disabled run carries no trace.
#[test]
fn disabled_tracing_allocates_no_ring_buffers() {
    let mut t = Tracer::new(&TraceConfig::default(), 0);
    assert!(
        !t.records(TraceClass::Always),
        "default config must leave tracing off"
    );
    assert!(
        t.take().is_none(),
        "disabled tracer must not own a ring buffer"
    );

    let b = ace_programs::benchmark("members").unwrap();
    let ace = Ace::load(&(b.program)(b.test_size)).unwrap();
    let r = ace
        .run(
            b.mode,
            &(b.query)(b.test_size),
            &cfg(4, TraceConfig::default()),
        )
        .unwrap();
    assert!(r.trace.is_none(), "disabled run must not carry a trace");
}

/// Tracing charges zero virtual cost: enabling it must not perturb the
/// simulated clock of a deterministic run.
#[test]
fn tracing_does_not_change_virtual_time() {
    for name in ["queen1", "members", "ancestors"] {
        let b = ace_programs::benchmark(name).unwrap();
        let ace = Ace::load(&(b.program)(b.test_size)).unwrap();
        let q = (b.query)(b.test_size);
        let plain = ace
            .run(b.mode, &q, &cfg(4, TraceConfig::default()))
            .unwrap();
        let traced = ace
            .run(b.mode, &q, &cfg(4, TraceConfig::enabled()))
            .unwrap();
        assert_eq!(
            plain.virtual_time, traced.virtual_time,
            "{name}: tracing perturbed the virtual clock"
        );
        let mut a = plain.solutions;
        let mut b2 = traced.solutions;
        a.sort();
        b2.sort();
        assert_eq!(a, b2, "{name}: tracing perturbed the solutions");
    }
}

/// Server-session round trip: the lifecycle trace of a served workload
/// (one completed session, one cancelled mid-stream) exports valid Chrome
/// JSON, passes the checker, and orders admit → first-answer → cancel →
/// drain causally per session.
#[test]
fn server_session_trace_round_trips() {
    let ace = Ace::load(
        r#"
        member(X, [X|_]).
        member(X, [_|T]) :- member(X, T).
        d(0). d(1). d(2). d(3). d(4).
        stream(X) :- d(X).
        stream(X) :- stream(X).
        "#,
    )
    .unwrap();
    let mut server_cfg = ServerConfig::default();
    server_cfg.observe.trace = TraceConfig::enabled();
    let server = ace.serve(server_cfg);

    let done = server
        .submit(QueryRequest::new(
            Mode::Sequential,
            "member(X, [1,2,3])",
            EngineConfig::default().all_solutions(),
        ))
        .unwrap();
    let (answers, outcome) = done.drain();
    assert_eq!(answers.len(), 3);
    assert_eq!(outcome.end, SessionEnd::Completed);

    let cancelled = server
        .submit(QueryRequest::new(
            Mode::Sequential,
            "stream(X)",
            EngineConfig::default().all_solutions(),
        ))
        .unwrap();
    // Let it stream at least one answer before cancelling.
    assert!(cancelled.next_answer().is_some());
    cancelled.cancel();
    assert_eq!(cancelled.wait().end, SessionEnd::ClientCancelled);

    let trace = server.take_trace();
    drop(server);

    // Valid Chrome trace_event JSON, same bar as the engine traces.
    let json = trace.to_chrome_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    validate_json(&json).unwrap_or_else(|e| panic!("invalid session-trace JSON: {e}"));

    // The checker's session invariants hold (no answer after cancel, no
    // stream without admission).
    TraceChecker::check(&trace).unwrap();

    // Causal ordering per session: timestamps are the server's global
    // sequence numbers, so event positions ARE the causal order.
    let pos = |pred: &dyn Fn(&EventKind) -> bool| {
        trace
            .events
            .iter()
            .position(|e| pred(&e.kind))
            .map(|i| trace.events[i].t)
    };
    let cancelled_id = cancelled.id();
    let admit =
        pos(&|k| matches!(k, EventKind::SessionAdmit { session } if *session == cancelled_id))
            .expect("admit event");
    let first = pos(
        &|k| matches!(k, EventKind::SessionFirstAnswer { session } if *session == cancelled_id),
    )
    .expect("first-answer event");
    let cancel =
        pos(&|k| matches!(k, EventKind::SessionCancel { session } if *session == cancelled_id))
            .expect("cancel event");
    let drain =
        pos(&|k| matches!(k, EventKind::SessionDrain { session, .. } if *session == cancelled_id))
            .expect("drain event");
    assert!(
        admit < first && first < cancel && cancel < drain,
        "session lifecycle out of order: admit={admit} first={first} cancel={cancel} drain={drain}"
    );
}

/// And-parallel runs trace too: frame allocation/elision and the
/// lifecycle layer both show up when asked for. With lazy frames on, this
/// query ends inside the first quantum, before any worker is idle, so it
/// builds no frame: the frame events are asserted of the paper's engine.
#[test]
fn and_parallel_traces_with_lifecycle() {
    let ace = Ace::load(
        r#"
        double(X, Y) :- Y is X * 2.
        pl([], []).
        pl([H|T], [H2|T2]) :- double(H, H2) & pl(T, T2).
        "#,
    )
    .unwrap();
    for opts in [OptFlags::paper(), OptFlags::all()] {
        let r = ace
            .run(
                Mode::AndParallel,
                "pl([1,2,3,4], Out)",
                &cfg(3, TraceConfig::enabled().with_lifecycle()).with_opts(opts),
            )
            .unwrap();
        assert_eq!(r.solutions, vec!["Out=[2,4,6,8]"]);
        let trace = r.trace.as_ref().unwrap();
        let names: std::collections::HashSet<&str> =
            trace.events.iter().map(|e| e.kind.name()).collect();
        assert!(
            names.contains("phase-start") && names.contains("phase-end"),
            "lifecycle layer missing: {names:?}"
        );
        if !opts.lazy {
            assert!(
                names.contains("frame-alloc") || names.contains("frame-elide"),
                "and-engine events missing: {names:?}"
            );
        }
        TraceChecker::check(trace).unwrap();
    }
}
