//! Property-based cross-engine equivalence over randomly generated
//! workloads: the parallel engines must agree with the sequential solver
//! on randomly shaped inputs, not just on the fixed corpus.

use proptest::prelude::*;

use ace_core::{Ace, Mode};
use ace_runtime::{EngineConfig, OptFlags};

fn cfg(workers: usize, opts: OptFlags) -> EngineConfig {
    EngineConfig::default()
        .with_workers(workers)
        .with_opts(opts)
        .all_solutions()
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random nondeterministic parallel conjunction: each subgoal picks
    /// from its own fact set; cross-product enumeration must match the
    /// sequential order exactly, for every optimization set.
    #[test]
    fn random_cross_products(
        sizes in prop::collection::vec(1usize..4, 2..4),
        workers in 1usize..5,
        opt_idx in 0usize..16,
    ) {
        let mut program = String::new();
        let mut goals = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            for v in 0..n {
                program.push_str(&format!("p{i}({v}).\n"));
            }
            goals.push(format!("p{i}(X{i})"));
        }
        let query = goals.join(" & ");
        let ace = Ace::load(&program).unwrap();
        let oracle = ace.sequential_solutions(&query).unwrap();
        let opts = OptFlags::all_combinations()[opt_idx];
        let r = ace
            .run(Mode::AndParallel, &query, &cfg(workers, opts))
            .unwrap();
        prop_assert_eq!(r.solutions, oracle);
    }

    /// Random member/filter searches under the or-engine agree with the
    /// sequential solver as multisets, with and without LAO.
    #[test]
    fn random_or_searches(
        items in prop::collection::vec(0i64..20, 1..12),
        modulus in 1i64..5,
        workers in 1usize..5,
        lao in any::<bool>(),
    ) {
        let list = items
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let program = r#"
            member(X, [X|_]).
            member(X, [_|T]) :- member(X, T).
        "#;
        let query = format!(
            "member(X, [{list}]), 0 =:= X mod {modulus}"
        );
        let ace = Ace::load(program).unwrap();
        let oracle = sorted(ace.sequential_solutions(&query).unwrap());
        let opts = if lao { OptFlags::lao_only() } else { OptFlags::none() };
        let r = ace
            .run(Mode::OrParallel, &query, &cfg(workers, opts))
            .unwrap();
        prop_assert_eq!(sorted(r.solutions), oracle);
    }

    /// Random long clause bodies — four generators, then six to eleven
    /// steps of linked calls, a callee defined below its caller, inline
    /// arithmetic, builtins and `call/N` — run on the compiled path's body
    /// frames compute the interpreter oracle's answers in its order, and
    /// the or-engine's closures, taken mid-body, the same multiset.
    #[test]
    fn long_bodies_compute_the_interpreters_answers(
        steps in prop::collection::vec((0usize..6, 0usize..4, 0usize..4), 6..12),
        workers in 1usize..5,
    ) {
        let mut body = vec![
            "d(V0)".to_owned(),
            "d(V1)".to_owned(),
            "d(V2)".to_owned(),
            "d(V3)".to_owned(),
        ];
        body.extend(steps.iter().map(|&(kind, a, b)| match kind {
            0 => format!("d(V{a})"),
            1 => format!("V{a} =< V{b} + 1"),
            2 => format!("V{a} + V{b} =\\= 3"),
            3 => format!("aux(V{a}, V{b})"),
            4 => format!("V{a} \\== V{b}"),
            _ => format!("call(d, V{a})"),
        }));
        let program = format!(
            "t(t(V0, V1, V2, V3)) :- {}.\nd(0). d(1). d(2).\naux(A, B) :- e(A, C), C >= B.\ne(X, Y) :- Y is X + 1.\n",
            body.join(", ")
        );
        let ace = Ace::load(&program).unwrap();
        let run = |exec| {
            let c = cfg(1, OptFlags::all()).with_clause_exec(exec);
            ace.run(Mode::Sequential, "t(T)", &c).unwrap().solutions
        };
        let compiled = run(ace_runtime::ClauseExec::Compiled);
        prop_assert_eq!(&compiled, &run(ace_runtime::ClauseExec::Interpreted));
        let or = ace
            .run(Mode::OrParallel, "t(T)", &cfg(workers, OptFlags::all()))
            .unwrap();
        prop_assert_eq!(sorted(or.solutions), sorted(compiled));
    }

    /// Random deterministic arithmetic pipelines through nested parallel
    /// conjunctions compute the same value everywhere.
    #[test]
    fn random_parallel_arithmetic(
        xs in prop::collection::vec(0i64..50, 2..8),
        workers in 1usize..5,
    ) {
        let list = xs
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let program = r#"
            sq([], []).
            sq([X|T], [Y|T2]) :- step(X, Y) & sq(T, T2).
            step(X, Y) :- Y is X * X + 1.
            total([], 0).
            total([X|T], S) :- total(T, S1), S is S1 + X.
        "#;
        let query = format!("sq([{list}], Out), total(Out, S)");
        let ace = Ace::load(program).unwrap();
        let oracle = ace.sequential_solutions(&query).unwrap();
        for opts in [OptFlags::none(), OptFlags::all()] {
            let r = ace
                .run(Mode::AndParallel, &query, &cfg(workers, opts))
                .unwrap();
            prop_assert_eq!(&r.solutions, &oracle);
        }
    }
}
