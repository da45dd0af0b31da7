//! Cyclic answers render finitely. Unification has no occurs check, so
//! `?- X = f(X).` binds `X` to a cyclic term; its answer line writes the
//! compound met again inside itself as `...` (`X=f(...)`), through the
//! facade and through a server session, on every engine that renders it.
//!
//! A writer that followed the cycle would grow the line until allocation
//! failed, taking the whole process down — a server with it. So each check
//! runs in a child process of this test binary under an address-space cap
//! of its own (`ulimit -v`): there a runaway line ends the child, and this
//! test fails, before it can take the host's memory.

use std::process::Command;

use ace_core::{Ace, Mode};
use ace_runtime::EngineConfig;
use ace_server::{QueryRequest, Serve, ServerConfig, SessionEnd};

/// The child's address-space cap, in KiB: room for the test harness, a
/// small server's threads and their allocator arenas, and far too little
/// for a line that does not stop.
const CAP_KIB: u64 = 1 << 20;

/// `(query, its one answer line)`.
const CYCLIC: [(&str, &str); 4] = [
    ("X = f(X)", "X=f(...)"),
    ("X = [a|X]", "X=[a|...]"),
    (
        "X = f(Y), Y = g(X, [Y])",
        "X=f(g(...,[...])), Y=g(f(...),[...])",
    ),
    ("X = f(X), Y = [X, b]", "X=f(...), Y=[f(...),b]"),
];

/// Run the ignored test `name` of this binary in a child process under
/// [`CAP_KIB`].
fn capped(name: &str) {
    let exe = std::env::current_exe().unwrap();
    let out = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "ulimit -v {CAP_KIB} && exec \"$0\" --exact {name} --ignored --test-threads 1"
        ))
        .arg(exe)
        .output()
        .expect("sh runs");
    assert!(
        out.status.success(),
        "{name} under a {CAP_KIB} KiB cap: {}\n{}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_cyclic_answer_renders_under_a_memory_cap() {
    capped("capped_facade");
    capped("capped_server_session");
}

#[test]
#[ignore = "run by a_cyclic_answer_renders_under_a_memory_cap, under a memory cap"]
fn capped_facade() {
    let ace = Ace::load("").unwrap();
    for mode in [Mode::Sequential, Mode::OrParallel] {
        for (query, line) in CYCLIC {
            let r = ace
                .run(mode, query, &EngineConfig::default().with_workers(2))
                .unwrap();
            assert_eq!(r.solutions, [line], "{mode:?}: {query}");
        }
    }
}

/// What a cyclic answer leaves behind does not grow with the heap: after
/// a query has built a long list and dropped it, `X=f(...)` is still a
/// short line, in a buffer no larger than the writer's first pass may fill
/// (4 KiB) before it watches for cycles.
#[test]
fn a_cyclic_answer_after_a_large_heap_is_a_short_line() {
    let ace = Ace::load("big :- length(L, 200000), L = [_|_].").unwrap();
    let r = ace
        .run(Mode::Sequential, "big, X = f(X)", &EngineConfig::default())
        .unwrap();
    assert_eq!(r.solutions, ["X=f(...)"]);
    let cap = r.solutions[0].capacity();
    assert!(cap <= 8192, "a line of 8 bytes in a buffer of {cap}");
}

#[test]
#[ignore = "run by a_cyclic_answer_renders_under_a_memory_cap, under a memory cap"]
fn capped_server_session() {
    let ace = Ace::load("").unwrap();
    let server = ace.serve(ServerConfig::default().with_fleet(1));
    for (query, line) in CYCLIC {
        let req = QueryRequest::new(Mode::Sequential, query, EngineConfig::default());
        let (answers, outcome) = server.submit(req).unwrap().drain();
        assert_eq!(outcome.end, SessionEnd::Completed, "{query}");
        assert_eq!(answers, [line], "{query}");
    }
    server.shutdown();
}
