//! The machine's own control frames are not goals.
//!
//! A continuation holds typed frames — the rest of a compiled body, an
//! if-then-else commit, a memo or table bookkeeping point, the end of an
//! inline parallel branch — that the machine pushes itself and no goal
//! term can stand for. User text that spells the heap markers those frames
//! once were calls an undefined predicate like any other unknown name, with
//! the same error text as `'$closure'(1, 2)`: in every mode, through a
//! server session, and inside a continuation that a stolen or-parallel
//! closure thaws.

use std::sync::Arc;

use ace_core::{Ace, Mode};
use ace_logic::{sym, Database};
use ace_machine::{Machine, Status};
use ace_runtime::{CostModel, EngineConfig};
use ace_server::{QueryRequest, Serve, ServerConfig, SessionEnd};

const PROGRAM: &str = "p(1). p(2). p(3).";

/// Each query and the predicate it names.
const QUERIES: [(&str, &str); 5] = [
    ("'$body'(0, 0, [])", "$body/3"),
    ("'$table_answer'(3, foo)", "$table_answer/2"),
    ("p(X), '$ite_then'(true, 0)", "$ite_then/2"),
    ("'$memo_store'(5, 0)", "$memo_store/2"),
    ("'$inline_barrier'(7)", "$inline_barrier/1"),
];

const MODES: [Mode; 3] = [Mode::Sequential, Mode::AndParallel, Mode::OrParallel];

fn cfg() -> EngineConfig {
    EngineConfig::default().with_workers(4).all_solutions()
}

/// The error `query` must end in under `mode`: what calling another
/// undefined name ends in, with the name swapped.
fn expected(ace: &Ace, mode: Mode, name: &str) -> String {
    let reference = ace
        .run(mode, "'$closure'(1, 2)", &cfg())
        .expect_err("'$closure'/2 is undefined");
    assert!(
        reference.contains("undefined predicate $closure/2"),
        "{reference}"
    );
    reference.replace("$closure/2", name)
}

#[test]
fn marker_names_are_undefined_predicates_in_every_mode() {
    let ace = Ace::load(PROGRAM).unwrap();
    for mode in MODES {
        for (query, name) in QUERIES {
            let got = ace.run(mode, query, &cfg());
            assert_eq!(
                got.err(),
                Some(expected(&ace, mode, name)),
                "{mode:?} {query}"
            );
        }
    }
}

#[test]
fn marker_names_are_undefined_predicates_in_a_server_session() {
    let ace = Ace::load(PROGRAM).unwrap();
    let server = ace.serve(ServerConfig::default().with_fleet(1));
    for mode in MODES {
        for (query, name) in QUERIES {
            let (_, outcome) = server
                .submit(QueryRequest::new(mode, query, cfg()))
                .unwrap()
                .drain();
            let SessionEnd::Failed(e) = outcome.end else {
                panic!("{mode:?} {query}: {:?}", outcome.end);
            };
            assert_eq!(
                e.to_string(),
                expected(&ace, mode, name),
                "{mode:?} {query}"
            );
        }
    }
    server.shutdown();
}

/// A user goal that sits in a published choice point's continuation is
/// frozen and thawed as the goal it is: the machine that claims the
/// alternative calls it, and finds it undefined.
#[test]
fn a_stolen_closure_thaws_marker_names_as_goals() {
    let db = Arc::new(Database::load(PROGRAM).unwrap());
    let costs = Arc::new(CostModel::default());
    for (query, name) in QUERIES {
        let query = match query.strip_prefix("p(X), ") {
            Some(rest) => format!("p(X), p(Y), {rest}"),
            None => format!("p(X), {query}"),
        };
        // Run the owner to its first choice point on `p/1`: the marker
        // name is still ahead, in the continuation.
        let mut owner = Machine::new(db.clone(), costs.clone());
        owner.load_query_text(&query).unwrap();
        while owner.private_choice_indices().is_empty() {
            assert_eq!(owner.step(), Status::Running, "{query}");
        }
        let closure = owner.choice_closure(owner.private_choice_indices()[0]);

        let mut thief = Machine::new(db.clone(), costs.clone());
        assert!(thief.install_closure(&closure, sym("p"), 1, 1), "{query}");
        assert_eq!(
            thief.run_to_completion(),
            Status::Error(format!("undefined predicate {name}")),
            "{query}"
        );
    }
}
