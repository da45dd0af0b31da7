//! Goal shipping is demand-driven and behaves as designed: nothing is
//! copied when no other worker is idle to ask for it.

use ace_core::{Ace, Mode};
use ace_runtime::{EngineConfig, OptFlags};

#[test]
fn demand_shipping_copies_nothing_on_one_worker() {
    let ace = Ace::load(
        r#"
        w(X, Y) :- Y is X * 3.
        row([], []).
        row([X|T], [Y|T2]) :- w(X, Y) & row(T, T2).
        "#,
    )
    .unwrap();
    let q = "row([1,2,3,4,5,6,7,8], R)";
    let c = EngineConfig::default()
        .with_workers(1)
        .with_opts(OptFlags::all());
    let demand = ace.run(Mode::AndParallel, q, &c).unwrap();
    assert_eq!(demand.solutions, ace.sequential_solutions(q).unwrap());
    assert_eq!(
        demand.stats.cells_copied, 0,
        "demand shipping must not copy at one worker"
    );
}
